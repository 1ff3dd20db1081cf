module Cdfg = Cgra_ir.Cdfg
module Interp = Cgra_ir.Interp

type verifier = {
  mems : int array list;
  init_syms : (Cdfg.sym * int) list;
  max_steps : int;
}

let verifier_of_mems ?(init_syms = []) ?(max_steps = 1_000_000) mems =
  { mems; init_syms; max_steps }

let default_verifier () =
  let words = 4096 in
  let random seed =
    let rng = Cgra_util.Rng.create seed in
    Array.init words (fun _ -> Cgra_util.Rng.int rng 2048 - 1024)
  in
  verifier_of_mems [ Array.make words 0; random 0x0def; random 0xbeef ]

exception Verification_failed of string

type pass_stat = { pass : string; removed : int; rewritten : int }

type report = {
  kernel : string;
  nodes_before : int;
  nodes_after : int;
  rounds : int;
  per_pass : pass_stat list;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Verification_failed s)) fmt

(* Reference outcome on one input: the final memory image, or None when
   the reference run itself faults (then the input constrains nothing). *)
let reference_output verify c mem0 =
  let mem = Array.copy mem0 in
  match
    Interp.run ~init_syms:verify.init_syms ~max_steps:verify.max_steps c ~mem
  with
  | _trace -> Some mem
  | exception (Interp.Out_of_bounds _ | Interp.Step_limit_exceeded) -> None

let check_pass ~kernel ~pass verify goldens c' =
  (match Cdfg.validate c' with
   | Ok () -> ()
   | Error e ->
     fail "%s: pass %s produced an invalid CDFG: %s" kernel pass e);
  List.iter
    (fun (mem0, golden) ->
      match golden with
      | None -> ()
      | Some expected -> (
        let mem = Array.copy mem0 in
        match
          Interp.run ~init_syms:verify.init_syms ~max_steps:verify.max_steps
            c' ~mem
        with
        | exception Interp.Out_of_bounds { block; node; addr } ->
          fail
            "%s: pass %s made the program fault (block %s, node %d, addr %d)"
            kernel pass block node addr
        | exception Interp.Step_limit_exceeded ->
          fail "%s: pass %s made the program diverge" kernel pass
        | _trace ->
          if mem <> expected then begin
            let i = ref 0 in
            while !i < Array.length mem && mem.(!i) = expected.(!i) do
              incr i
            done;
            fail
              "%s: pass %s changed the output (first diff at mem[%d]: %d, \
               expected %d)"
              kernel pass !i mem.(!i) expected.(!i)
          end))
    goldens

(* Full sweeps before the pipeline stops short of a fixpoint. *)
let max_rounds = 8

let run ?(passes = Passes.all) ?verify c0 =
  (match Cdfg.validate c0 with
   | Ok () -> ()
   | Error e -> invalid_arg ("Pipeline.run: invalid input CDFG: " ^ e));
  let verify = match verify with Some v -> v | None -> default_verifier () in
  let kernel = c0.Cdfg.kernel_name in
  let goldens =
    List.map (fun mem0 -> (mem0, reference_output verify c0 mem0)) verify.mems
  in
  let totals : (string, Passes.delta) Hashtbl.t = Hashtbl.create 8 in
  let record (p : Passes.pass) d =
    let prev =
      match Hashtbl.find_opt totals p.Passes.name with
      | Some d0 -> d0
      | None -> Passes.no_delta
    in
    Hashtbl.replace totals p.Passes.name (Passes.add_delta prev d)
  in
  let sweep c =
    List.fold_left
      (fun (c, changed) (p : Passes.pass) ->
        let c', d = p.Passes.transform c in
        check_pass ~kernel ~pass:p.Passes.name verify goldens c';
        record p d;
        (c', changed || d.Passes.removed > 0 || d.Passes.rewritten > 0))
      (c, false) passes
  in
  let rec fix c rounds =
    if rounds >= max_rounds then (c, rounds)
    else
      let c', changed = sweep c in
      if changed then fix c' (rounds + 1) else (c', rounds + 1)
  in
  let c, rounds = fix c0 0 in
  let per_pass =
    List.map
      (fun (p : Passes.pass) ->
        let d =
          match Hashtbl.find_opt totals p.Passes.name with
          | Some d -> d
          | None -> Passes.no_delta
        in
        { pass = p.Passes.name;
          removed = d.Passes.removed;
          rewritten = d.Passes.rewritten })
      passes
  in
  ( c,
    { kernel;
      nodes_before = Cdfg.node_count c0;
      nodes_after = Cdfg.node_count c;
      rounds;
      per_pass } )

let render_report r =
  let rows =
    List.map
      (fun s -> [ s.pass; string_of_int s.removed; string_of_int s.rewritten ])
      r.per_pass
  in
  let reduction =
    if r.nodes_before = 0 then 0.0
    else
      100.0
      *. float_of_int (r.nodes_before - r.nodes_after)
      /. float_of_int r.nodes_before
  in
  Printf.sprintf "optimization of %s (%d rounds to fixpoint)\n" r.kernel
    r.rounds
  ^ Cgra_util.Text_table.render ~header:[ "Pass"; "removed"; "rewritten" ]
      ~rows
  ^ Printf.sprintf "nodes: %d -> %d (%.1f%% reduction)\n" r.nodes_before
      r.nodes_after reduction
