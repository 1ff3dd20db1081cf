(* Differential fuzzing of the whole tool-chain.

   Random loop kernels are built directly as CDFGs and executed three
   ways: the reference interpreter, the CGRA pipeline (map -> assemble ->
   cycle-level simulation) and the CPU baseline.  All three memory images
   must agree — any divergence is a bug in the mapper, the register
   allocator, the simulators or the cost bookkeeping.

   The generated programs: a loop over [iters] iterations whose body is a
   random DFG over the loop counter, loads from a read-only input region
   and earlier results, ending with stores to iteration-distinct
   addresses (so no in-block aliasing arises and scheduling freedom is
   maximal). *)

module B = Cgra_ir.Builder
module Cdfg = Cgra_ir.Cdfg
module Op = Cgra_ir.Opcode
module Config = Cgra_arch.Config

type spec = {
  seed : int;
  n_ops : int;  (* random ALU nodes in the body *)
  n_stores : int;
  iters : int;
}

let mem_words = 80
let input_words = 16 (* region [0, 16) is read-only input *)
let out_base = 16 (* stores land in [16, 16 + 8*iters) *)

let safe_ops =
  [| Op.Add; Op.Sub; Op.Mul; Op.Min; Op.Max; Op.And; Op.Or; Op.Xor; Op.Lt;
     Op.Ge |]

let build { seed; n_ops; n_stores; iters } =
  let rng = Cgra_util.Rng.create seed in
  let b = B.create (Printf.sprintf "fuzz%d" seed) in
  let i = B.fresh_sym b "i" in
  let acc = B.fresh_sym b "acc" in
  let pre = B.add_block b "pre" in
  let body = B.add_block b "body" in
  let exit_ = B.add_block b "exit" in
  B.set_live_out b pre i (Cdfg.Imm 0);
  B.set_live_out b pre acc (Cdfg.Imm 1);
  B.set_terminator b pre (Cdfg.Jump (B.block_id body));
  (* the body: a few loads from the input region, then random ALU nodes *)
  let values = ref [ Cdfg.Sym i; Cdfg.Sym acc ] in
  let pick_value () = Cgra_util.Rng.pick rng !values in
  for _ = 1 to 2 do
    let addr = Cgra_util.Rng.int rng input_words in
    let v = B.add_node b body Op.Load [ Cdfg.Imm addr ] in
    values := v :: !values
  done;
  for _ = 1 to n_ops do
    let op = safe_ops.(Cgra_util.Rng.int rng (Array.length safe_ops)) in
    let x = pick_value () and y = pick_value () in
    (* keep magnitudes bounded so multiplies do not overflow repeatedly *)
    let y = if op = Op.Mul then Cdfg.Imm (1 + Cgra_util.Rng.int rng 7) else y in
    let v = B.add_node b body op [ x; y ] in
    values := v :: !values
  done;
  (* stores to iteration-distinct addresses: out_base + 8*i + slot *)
  let i8 = B.add_node b body Op.Shl [ Cdfg.Sym i; Cdfg.Imm 3 ] in
  for s = 0 to n_stores - 1 do
    let addr = B.add_node b body Op.Add [ i8; Cdfg.Imm (out_base + s) ] in
    let _ = B.add_node b body Op.Store [ addr; pick_value () ] in
    ()
  done;
  let i1 = B.add_node b body Op.Add [ Cdfg.Sym i; Cdfg.Imm 1 ] in
  let c = B.add_node b body Op.Lt [ i1; Cdfg.Imm iters ] in
  B.set_live_out b body i i1;
  B.set_live_out b body acc (pick_value ());
  B.set_terminator b body (Cdfg.Branch (c, B.block_id body, B.block_id exit_));
  B.set_terminator b exit_ Cdfg.Return;
  B.finish b

let init_mem seed =
  let mem = Array.make mem_words 0 in
  let rng = Cgra_util.Rng.create (seed * 77) in
  for k = 0 to input_words - 1 do
    mem.(k) <- Cgra_util.Rng.int rng 200 - 100
  done;
  mem

let run_interp cdfg seed =
  let mem = init_mem seed in
  ignore (Cgra_ir.Interp.run cdfg ~mem);
  mem

(* Through the whole pipeline, so every random kernel is also checked by
   the independent validator. *)
let run_cgra cdfg seed config flow =
  let mem = init_mem seed in
  match Cgra_exp.Toolchain.run ~config:flow ~mem (Config.cgra config) cdfg with
  | Ok _ -> Ok mem
  | Error e -> Error (Cgra_exp.Toolchain.error_to_string e)

let run_cpu cdfg seed =
  let prog = Cgra_cpu.Codegen.compile cdfg in
  let mem = init_mem seed in
  ignore (Cgra_cpu.Cpu_sim.run prog ~mem);
  mem

let arb_spec =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "seed=%d ops=%d stores=%d iters=%d" s.seed s.n_ops
        s.n_stores s.iters)
    QCheck.Gen.(
      map4
        (fun seed n_ops n_stores iters -> { seed; n_ops; n_stores; iters })
        (int_bound 100_000) (int_range 3 14) (int_range 1 4) (int_range 1 5))

let prop_interp_vs_cgra =
  QCheck.Test.make ~name:"random kernels: interp = CGRA (basic@HOM64)"
    ~count:20 arb_spec (fun spec ->
      let cdfg = Cgra_ir.Opt.optimize (build spec) in
      let golden = run_interp cdfg spec.seed in
      match run_cgra cdfg spec.seed Config.HOM64 Cgra_core.Flow_config.basic with
      | Ok mem -> mem = golden
      | Error e -> QCheck.Test.fail_report e)

let prop_interp_vs_cgra_aware =
  QCheck.Test.make ~name:"random kernels: interp = CGRA (aware@HET2)"
    ~count:12 arb_spec (fun spec ->
      let cdfg = Cgra_ir.Opt.optimize (build spec) in
      let golden = run_interp cdfg spec.seed in
      match
        run_cgra cdfg spec.seed Config.HET2 Cgra_core.Flow_config.context_aware
      with
      | Ok mem -> mem = golden
      | Error e -> QCheck.Test.fail_report e)

let prop_interp_vs_cpu =
  QCheck.Test.make ~name:"random kernels: interp = CPU" ~count:40 arb_spec
    (fun spec ->
      let cdfg = Cgra_ir.Opt.optimize (build spec) in
      run_interp cdfg spec.seed = run_cpu cdfg spec.seed)

let prop_opt_preserves =
  QCheck.Test.make ~name:"random kernels: optimize preserves semantics"
    ~count:60 arb_spec (fun spec ->
      let raw = build spec in
      run_interp raw spec.seed = run_interp (Cgra_ir.Opt.optimize raw) spec.seed)

(* ---- differential fuzzing of the cgra_opt pipeline ------------------- *)

(* Random straight-line kernel-language sources: arrays [a @ 0] (32 input
   words, indices masked with [& 31] so loads stay in bounds) and
   [o @ 32] (store targets), a chain of variable assignments over random
   expressions, then stores.  Compiled with the naive lowering and pushed
   through the cgra_opt pipeline under a *random* pass order and subset —
   every subset in every order must preserve the interpreter's memory
   image, the CDFG's validity and the store count. *)

let straight_src spec =
  let rng = Cgra_util.Rng.create (spec.seed lxor 0x51ab) in
  let n_vars = 2 + spec.n_ops in
  let b = Buffer.create 512 in
  Buffer.add_string b "kernel fz {\n  arr a @ 0;\n  arr o @ 32;\n";
  for v = 0 to n_vars - 1 do
    Buffer.add_string b (Printf.sprintf "  var v%d;\n" v)
  done;
  let binops =
    [| "+"; "-"; "*"; "&"; "|"; "^"; "<"; "<="; "=="; "!="; ">"; ">=" |]
  in
  let lit () =
    let k = Cgra_util.Rng.int rng 201 - 100 in
    if k < 0 then Printf.sprintf "(%d)" k else string_of_int k
  in
  let leaf avail =
    match Cgra_util.Rng.int rng 3 with
    | 1 when avail > 0 -> Printf.sprintf "v%d" (Cgra_util.Rng.int rng avail)
    | 0 -> lit ()
    | _ -> Printf.sprintf "a[%d]" (Cgra_util.Rng.int rng 32)
  in
  let rec expr depth avail =
    if depth = 0 then leaf avail
    else
      match Cgra_util.Rng.int rng 6 with
      | 0 -> leaf avail
      | 1 ->
        Printf.sprintf "(%s << %d)" (expr (depth - 1) avail)
          (Cgra_util.Rng.int rng 5)
      | 2 ->
        Printf.sprintf "(%s >> %d)" (expr (depth - 1) avail)
          (Cgra_util.Rng.int rng 5)
      | 3 -> Printf.sprintf "a[(%s) & 31]" (expr (depth - 1) avail)
      | _ ->
        let op = binops.(Cgra_util.Rng.int rng (Array.length binops)) in
        Printf.sprintf "(%s %s %s)" (expr (depth - 1) avail) op
          (expr (depth - 1) avail)
  in
  for v = 0 to n_vars - 1 do
    Buffer.add_string b (Printf.sprintf "  v%d = %s;\n" v (expr 3 v))
  done;
  for s = 0 to spec.n_stores - 1 do
    Buffer.add_string b (Printf.sprintf "  o[%d] = %s;\n" s (expr 2 n_vars))
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

let straight_mem seed =
  let mem = Array.make 64 0 in
  let rng = Cgra_util.Rng.create (seed * 131) in
  for k = 0 to 31 do
    mem.(k) <- Cgra_util.Rng.int rng 2001 - 1000
  done;
  mem

(* A random permutation of the passes, truncated to a random non-empty
   prefix: exercises both order-independence and subset-soundness. *)
let shuffled_passes seed =
  let rng = Cgra_util.Rng.create (seed + 13) in
  let arr = Array.of_list Cgra_opt.Passes.all in
  for i = Array.length arr - 1 downto 1 do
    let j = Cgra_util.Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let keep = 1 + Cgra_util.Rng.int rng (Array.length arr) in
  Array.to_list (Array.sub arr 0 keep)

let store_count cdfg =
  Array.fold_left
    (fun acc b ->
      acc
      + Array.fold_left
          (fun acc nd -> if nd.Cdfg.opcode = Op.Store then acc + 1 else acc)
          0 b.Cdfg.nodes)
    0 cdfg.Cdfg.blocks

let prop_opt_pipeline_differential =
  QCheck.Test.make
    ~name:"random sources: cgra_opt pipeline (random pass order) = interp"
    ~count:60 arb_spec (fun spec ->
      let src = straight_src spec in
      let cdfg = Cgra_lang.Compile.compile_exn ~raw:true src in
      let mem0 = straight_mem spec.seed in
      let passes = shuffled_passes spec.seed in
      let verify = Cgra_opt.Pipeline.verifier_of_mems [ Array.copy mem0 ] in
      (* the pipeline verifies after every pass; if a pass were unsound it
         raises here rather than returning *)
      let c', _report = Cgra_opt.Pipeline.run ~passes ~verify cdfg in
      (* ...and we re-check independently of the pipeline's own net *)
      Cdfg.validate c' = Ok ()
      && store_count c' = store_count cdfg
      &&
      let m1 = Array.copy mem0 and m2 = Array.copy mem0 in
      ignore (Cgra_ir.Interp.run cdfg ~mem:m1);
      ignore (Cgra_ir.Interp.run c' ~mem:m2);
      m1 = m2)

(* ---- fixed regression corpus ----------------------------------------- *)

(* Deterministic replay of specs that once exposed bugs — no QCheck
   sampling, so these exact programs run on every [dune runtest].  The
   generated sources mix literals with loads and variables in the same
   expression, which drives the const_fold mixed-operand path that used
   to die on an [assert false] instead of keeping the node unfolded. *)
let corpus_specs =
  [ { seed = 4242; n_ops = 8; n_stores = 2; iters = 3 };
    { seed = 1789; n_ops = 12; n_stores = 3; iters = 2 };
    { seed = 77; n_ops = 5; n_stores = 1; iters = 4 } ]

let test_corpus_replay () =
  List.iter
    (fun spec ->
      let src = straight_src spec in
      let cdfg = Cgra_lang.Compile.compile_exn ~raw:true src in
      let mem0 = straight_mem spec.seed in
      let verify = Cgra_opt.Pipeline.verifier_of_mems [ Array.copy mem0 ] in
      (* full pipeline, canonical pass order: const_fold included *)
      let c', _report = Cgra_opt.Pipeline.run ~verify cdfg in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: optimized CDFG valid" spec.seed)
        true
        (Cdfg.validate c' = Ok ());
      let m1 = Array.copy mem0 and m2 = Array.copy mem0 in
      ignore (Cgra_ir.Interp.run cdfg ~mem:m1);
      ignore (Cgra_ir.Interp.run c' ~mem:m2);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: memory image preserved" spec.seed)
        true (m1 = m2))
    corpus_specs

let suite =
  [ ( "fuzz",
      [ QCheck_alcotest.to_alcotest prop_interp_vs_cgra;
        QCheck_alcotest.to_alcotest prop_interp_vs_cgra_aware;
        QCheck_alcotest.to_alcotest prop_interp_vs_cpu;
        QCheck_alcotest.to_alcotest prop_opt_preserves;
        QCheck_alcotest.to_alcotest prop_opt_pipeline_differential;
        Alcotest.test_case "regression corpus replay" `Quick
          test_corpus_replay ] ) ]
