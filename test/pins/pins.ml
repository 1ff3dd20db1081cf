(* The pin-table driver: runs rows of test/pins.txt and compares each
   row's exit code and MD5 digest with the table.

   A row is one line of space-separated fields:

     NAME SPEED EXIT MD5 PROGRAM ARG...

   SPEED is [fast] (run by [dune runtest]) or [slow] (run by [dune build
   @pins-slow]); PROGRAM is [bench] (bench/main.exe) or [cgra_map]
   (bin/cgra_map.exe).  The digest covers the program's stdout, unless
   an argument is [@out]: that argument is replaced by a fresh file name
   and the digest covers the file the program writes there (an [--emit]
   artifact).  Blank lines and lines starting with [#] are ignored.
   Programs run from [--root], so relative paths in a row name files of
   the source tree.

     pins.exe --table test/pins.txt --bench _build/default/bench/main.exe \
       --cgra-map _build/default/bin/cgra_map.exe [--speed fast|slow|all] \
       [NAME...]

   Prints one line per row and exits 1 if any row differs. *)

type row = {
  name : string;
  speed : string;
  exit_code : int;
  md5 : string;
  program : string;
  args : string list;
}

let parse_row line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | name :: speed :: exit_code :: md5 :: program :: args
    when (speed = "fast" || speed = "slow")
         && (program = "bench" || program = "cgra_map")
         && String.length md5 = 32 -> (
    match int_of_string_opt exit_code with
    | Some exit_code -> Ok { name; speed; exit_code; md5; program; args }
    | None -> Error line)
  | _ -> Error line

let read_table file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match parse_row l with
         | Ok r -> r
         | Error l ->
           Printf.eprintf "pins: %s: malformed row: %s\n" file l;
           exit 2)

let absolute path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
  else path

let tail_of file =
  let lines = In_channel.with_open_text file In_channel.input_lines in
  let n = List.length lines in
  List.filteri (fun i _ -> i >= n - 5) lines

(* Run one row; [Ok seconds] or [Error what went wrong]. *)
let run_row ~bench ~cgra_map row =
  let prog = if row.program = "bench" then bench else cgra_map in
  let out = Filename.temp_file "pin" ".out" in
  let art = Filename.temp_file "pin" ".art" in
  let err = Filename.temp_file "pin" ".err" in
  let args = List.map (fun a -> if a = "@out" then art else a) row.args in
  let digest_file = if List.mem "@out" row.args then art else out in
  let t0 = Cgra_util.Clock.now () in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let seconds = Cgra_util.Clock.elapsed_s t0 in
  let result =
    match status with
    | Unix.WEXITED code when code <> row.exit_code ->
      Error
        (Printf.sprintf "exit %d, expected %d%s" code row.exit_code
           (String.concat "" (List.map (( ^ ) "\n    ") (tail_of err))))
    | Unix.WEXITED _ ->
      let got = Digest.to_hex (Digest.file digest_file) in
      if got = row.md5 then Ok seconds
      else Error (Printf.sprintf "md5 %s, expected %s" got row.md5)
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "killed by signal %d" s)
  in
  List.iter Sys.remove [ out; art; err ];
  result

let () =
  let table = ref "test/pins.txt" and bench = ref "" and cgra_map = ref "" in
  let root = ref "." and speed = ref "all" and names = ref [] in
  Arg.parse
    [ ("--table", Arg.Set_string table, "FILE the pin table");
      ("--bench", Arg.Set_string bench, "EXE bench/main.exe");
      ("--cgra-map", Arg.Set_string cgra_map, "EXE bin/cgra_map.exe");
      ("--root", Arg.Set_string root, "DIR directory the programs run in");
      ("--speed", Arg.Symbol ([ "fast"; "slow"; "all" ], ( := ) speed),
       " rows to run (default all)") ]
    (fun n -> names := n :: !names)
    "pins.exe [OPTION]... [NAME]...";
  let rows = read_table !table in
  let bench = absolute !bench and cgra_map = absolute !cgra_map in
  List.iter
    (fun n ->
      if not (List.exists (fun r -> r.name = n) rows) then begin
        Printf.eprintf "pins: no row named %s\n" n;
        exit 2
      end)
    !names;
  let selected =
    List.filter
      (fun r ->
        (!speed = "all" || r.speed = !speed)
        && (!names = [] || List.mem r.name !names))
      rows
  in
  Sys.chdir !root;
  let failed =
    List.fold_left
      (fun failed row ->
        match run_row ~bench ~cgra_map row with
        | Ok s ->
          Printf.printf "pin %-28s ok (%.1f s)\n%!" row.name s;
          failed
        | Error what ->
          Printf.printf "pin %-28s FAILED: %s\n%!" row.name what;
          failed + 1)
      0 selected
  in
  if failed > 0 then begin
    Printf.printf "pins: %d of %d rows failed\n" failed (List.length selected);
    exit 1
  end
