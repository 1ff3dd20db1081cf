(* Command line of perf.exe.  Parsing is pure so tests can drive it;
   [Perf] turns an [Error] into exit code 1. *)

let workloads = [ "beam_grid"; "exact_grid"; "fault_campaign" ]

type run = {
  workload : string;
  seed : int;
  seconds : float;  (** length of the timed part *)
  trace : bool;
  quick : bool;  (** smoke mode: short timed part, one set-up *)
}

type command = Run of run | Compare of { a : string; b : string }

let default_seed = 1
let default_seconds = 30.0
let quick_seconds = 2.0

let usage =
  "usage: perf.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--quick]\n\
  \       perf.exe compare A B\n\
   workloads: " ^ String.concat ", " workloads

let parse_run args =
  let ( let* ) = Result.bind in
  let rec go acc = function
    | [] -> Ok acc
    | "--quick" :: rest -> go (`Quick :: acc) rest
    | flag :: value :: rest
      when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
      let* v =
        match flag with
        | "--workload" ->
          if List.mem value workloads then Ok (`Workload value)
          else
            Error
              (Printf.sprintf "unknown workload %S; valid workloads: %s" value
                 (String.concat ", " workloads))
        | "--seed" -> (
          match int_of_string_opt value with
          | Some s when s >= 0 -> Ok (`Seed s)
          | _ -> Error (Printf.sprintf "--seed wants a non-negative integer, got %S" value))
        | "--seconds" -> (
          match float_of_string_opt value with
          | Some s when Float.is_finite s && s > 0.0 -> Ok (`Seconds s)
          | _ -> Error (Printf.sprintf "--seconds wants a positive number, got %S" value))
        | _ -> (
          match value with
          | "0" -> Ok (`Trace false)
          | "1" -> Ok (`Trace true)
          | _ -> Error (Printf.sprintf "--trace wants 0 or 1, got %S" value))
      in
      go (v :: acc) rest
    | [ flag ] when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
      Error (flag ^ " needs a value")
    | arg :: _ -> Error (Printf.sprintf "unknown argument %S" arg)
  in
  let* opts = go [] args in
  let find f = List.find_map f opts in
  let* workload =
    match find (function `Workload w -> Some w | _ -> None) with
    | Some w -> Ok w
    | None -> Error ("--workload is required; valid workloads: " ^ String.concat ", " workloads)
  in
  let quick = List.mem `Quick opts in
  Ok
    {
      workload;
      seed = Option.value ~default:default_seed (find (function `Seed s -> Some s | _ -> None));
      seconds =
        Option.value
          ~default:(if quick then quick_seconds else default_seconds)
          (find (function `Seconds s -> Some s | _ -> None));
      trace = Option.value ~default:false (find (function `Trace t -> Some t | _ -> None));
      quick;
    }

let parse = function
  | "run" :: rest -> Result.map (fun r -> Run r) (parse_run rest)
  | [ "compare"; a; b ] -> Ok (Compare { a; b })
  | _ -> Error usage
