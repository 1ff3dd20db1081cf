(* Tests for the assembler and the cycle-level simulator, cross-validated
   against the mapper's accounting and the reference interpreter. *)

module Flow = Cgra_core.Flow
module FC = Cgra_core.Flow_config
module M = Cgra_core.Mapping
module Asm = Cgra_asm.Assemble
module Sim = Cgra_sim.Simulator
module Config = Cgra_arch.Config
module Isa = Cgra_arch.Isa
module K = Cgra_kernels.Kernel_def

let map_kernel slug config flow =
  let k = Option.get (Cgra_kernels.Kernels.by_slug slug) in
  let cdfg = K.cdfg k in
  match Flow.run ~config:flow (Config.cgra config) cdfg with
  | Ok (m, _) -> (k, m)
  | Error f -> Alcotest.fail (slug ^ ": " ^ f.Flow.reason)

let test_words_match_mapping () =
  List.iter
    (fun slug ->
      let _, m = map_kernel slug Config.HOM64 FC.basic in
      let prog = Asm.assemble m in
      let words = Asm.context_words prog in
      let usage = M.tile_usage m in
      Array.iteri
        (fun t w ->
          Alcotest.(check int)
            (Printf.sprintf "%s tile %d words" slug t)
            (M.usage_total usage.(t))
            w)
        words)
    [ "fir"; "fft"; "dc_filter" ]

let test_sections_fit_lengths () =
  let _, m = map_kernel "convolution" Config.HOM64 FC.basic in
  let prog = Asm.assemble m in
  Array.iter
    (fun tp ->
      Array.iteri
        (fun bi sec ->
          let dur = List.fold_left (fun acc i -> acc + Isa.duration i) 0 sec in
          Alcotest.(check bool) "section within block length" true
            (dur <= prog.Asm.section_length.(bi)))
        tp.Asm.sections)
    prog.Asm.tiles

let test_encode_tile_roundtrip () =
  let _, m = map_kernel "fir" Config.HOM64 FC.basic in
  let prog = Asm.assemble m in
  Array.iter
    (fun tp ->
      let words = Asm.encode_tile tp in
      let instrs = Array.to_list tp.Asm.sections |> List.concat in
      Alcotest.(check int) "word count" (List.length instrs) (Array.length words);
      List.iteri
        (fun i instr ->
          match Isa.decode words.(i) with
          | Ok d -> Alcotest.(check bool) "decoded equal" true (d = instr)
          | Error e -> Alcotest.fail e)
        instrs)
    prog.Asm.tiles

let run_and_check slug config flow =
  let k, m = map_kernel slug config flow in
  let prog = Asm.assemble m in
  let mem = K.fresh_mem k in
  let r = Sim.run prog ~mem in
  Alcotest.(check bool) (slug ^ " memory matches golden") true
    (mem = K.run_golden k);
  (k, m, r)

let test_sim_functional () =
  List.iter
    (fun slug -> ignore (run_and_check slug Config.HOM64 FC.basic))
    [ "fir"; "matm"; "dc_filter"; "fft" ]

let test_sim_functional_aware () =
  List.iter
    (fun slug -> ignore (run_and_check slug Config.HET2 FC.context_aware))
    [ "fir"; "convolution"; "dc_filter" ]

let test_sim_cycles_formula () =
  let k, m, r = run_and_check "dc_filter" Config.HOM64 FC.basic in
  let mem = K.fresh_mem k in
  let trace = Cgra_ir.Interp.run (K.cdfg k) ~mem in
  Alcotest.(check int) "cycles = static + stalls"
    (M.static_cycles m trace + r.Sim.stall_cycles)
    r.Sim.cycles

let test_sim_activity_consistency () =
  let _, m, r = run_and_check "fir" Config.HOM64 FC.basic in
  ignore m;
  let a = Sim.total_activity r in
  Alcotest.(check int) "instructions = alu + mem + moves"
    r.Sim.instructions
    (a.Sim.alu_ops + a.Sim.mem_ops + a.Sim.moves);
  Alcotest.(check bool) "fetches cover instructions" true
    (a.Sim.fetches >= r.Sim.instructions);
  Alcotest.(check bool) "muls subset of alu" true (a.Sim.mul_ops <= a.Sim.alu_ops)

let test_sim_mem_ports_stall () =
  (* fewer ports cannot make execution faster *)
  let k, m = map_kernel "matm" Config.HOM64 FC.basic in
  let prog = Asm.assemble m in
  let run ports =
    let mem = K.fresh_mem k in
    (Sim.run ~mem_ports:ports prog ~mem).Sim.cycles
  in
  Alcotest.(check bool) "1 port slower than 8" true (run 1 > run 8);
  Alcotest.(check bool) "16 ports no slower than 8" true (run 16 <= run 8)

let test_sim_deterministic () =
  let _, _, r1 = run_and_check "fft" Config.HOM64 FC.basic in
  let _, _, r2 = run_and_check "fft" Config.HOM64 FC.basic in
  Alcotest.(check int) "same cycle count" r1.Sim.cycles r2.Sim.cycles

let test_non_square_grid () =
  (* the tool-chain is size-generic: a 3x5 torus with 5 load-store tiles *)
  let k = Option.get (Cgra_kernels.Kernels.by_slug "fir") in
  let cgra =
    Cgra_arch.Cgra.make ~rows:3 ~cols:5 ~lsu_rows:1 ~cm_of_tile:(fun _ -> 48) ()
  in
  match Flow.run ~config:FC.context_aware cgra (K.cdfg k) with
  | Error f -> Alcotest.fail f.Cgra_core.Flow.reason
  | Ok (m, _) ->
    let prog = Asm.assemble m in
    let mem = K.fresh_mem k in
    ignore (Sim.run prog ~mem);
    Alcotest.(check bool) "golden on 3x5" true (mem = K.run_golden k)

(* end-to-end against the interpreter for hand-built CDFGs exercising the
   rarer terminator paths *)
let run_both cdfg mem_words init =
  let golden = Array.make mem_words 0 in
  init golden;
  let mem = Array.copy golden in
  ignore (Cgra_ir.Interp.run cdfg ~mem:golden);
  match Flow.run (Config.cgra Config.HOM64) cdfg with
  | Error f -> Alcotest.fail f.Cgra_core.Flow.reason
  | Ok (m, _) ->
    let prog = Asm.assemble m in
    ignore (Sim.run prog ~mem);
    Alcotest.(check bool) "CGRA matches interp" true (mem = golden)

let test_branch_on_symbol () =
  (* Branch (Sym s) where s is rewritten in the same block: the condition
     export must read the freshly written value *)
  let module B = Cgra_ir.Builder in
  let module Cdfg = Cgra_ir.Cdfg in
  let module Op = Cgra_ir.Opcode in
  let b = B.create "symcond" in
  let s = B.fresh_sym b "s" in
  let pre = B.add_block b "pre" in
  let body = B.add_block b "body" in
  let exit_ = B.add_block b "exit" in
  B.set_live_out b pre s (Cdfg.Imm 3);
  B.set_terminator b pre (Cdfg.Jump (B.block_id body));
  let s1 = B.add_node b body Op.Sub [ Cdfg.Sym s; Cdfg.Imm 1 ] in
  let a = B.add_node b body Op.Add [ Cdfg.Sym s; Cdfg.Imm 8 ] in
  let _ = B.add_node b body Op.Store [ a; Cdfg.Sym s ] in
  B.set_live_out b body s s1;
  B.set_terminator b body (Cdfg.Branch (Cdfg.Sym s, B.block_id body, B.block_id exit_));
  B.set_terminator b exit_ Cdfg.Return;
  run_both (B.finish b) 16 (fun _ -> ())

let test_branch_on_imm () =
  (* a constant branch condition still needs an exported condition bit *)
  let module B = Cgra_ir.Builder in
  let module Cdfg = Cgra_ir.Cdfg in
  let module Op = Cgra_ir.Opcode in
  let b = B.create "immcond" in
  let entry = B.add_block b "entry" in
  let yes = B.add_block b "yes" in
  let no = B.add_block b "no" in
  let exit_ = B.add_block b "exit" in
  B.set_terminator b entry (Cdfg.Branch (Cdfg.Imm 1, B.block_id yes, B.block_id no));
  let _ = B.add_node b yes Op.Store [ Cdfg.Imm 0; Cdfg.Imm 11 ] in
  B.set_terminator b yes (Cdfg.Jump (B.block_id exit_));
  let _ = B.add_node b no Op.Store [ Cdfg.Imm 0; Cdfg.Imm 22 ] in
  B.set_terminator b no (Cdfg.Jump (B.block_id exit_));
  B.set_terminator b exit_ Cdfg.Return;
  run_both (B.finish b) 4 (fun _ -> ())

let test_use_before_def_traversal () =
  (* under the weighted traversal the heavy user block is mapped before
     the block that defines the symbol, pinning its home by use *)
  let cdfg =
    Cgra_lang.Compile.compile_exn
      {|kernel k { arr x @ 0; arr o @ 16; var i, scale;
        scale = 3;
        for (i = 0; i < 8; i = i + 1) {
          o[i] = (x[i] * scale + x[i]) * scale + i;
        } }|}
  in
  let golden = Array.init 32 (fun k -> if k < 8 then k + 1 else 0) in
  let mem = Array.copy golden in
  ignore (Cgra_ir.Interp.run cdfg ~mem:golden);
  match Flow.run ~config:FC.context_aware (Config.cgra Config.HET1) cdfg with
  | Error f -> Alcotest.fail f.Cgra_core.Flow.reason
  | Ok (m, _) ->
    ignore (Sim.run (Asm.assemble m) ~mem);
    Alcotest.(check bool) "matches" true (mem = golden)

let test_crf_overflow () =
  (* a 1x1 grid concentrates every constant on one tile: the 32-entry
     constant register file must overflow *)
  let module B = Cgra_ir.Builder in
  let module Cdfg = Cgra_ir.Cdfg in
  let module Op = Cgra_ir.Opcode in
  let b = B.create "consts" in
  let blk = B.add_block b "only" in
  let acc = ref (Cdfg.Imm 0) in
  for k = 1 to 40 do
    acc := B.add_node b blk Op.Add [ !acc; Cdfg.Imm (1000 + k) ]
  done;
  let _ = B.add_node b blk Op.Store [ Cdfg.Imm 0; !acc ] in
  B.set_terminator b blk Cdfg.Return;
  let cdfg = B.finish b in
  let cgra = Cgra_arch.Cgra.make ~rows:1 ~cols:1 ~lsu_rows:1 ~cm_of_tile:(fun _ -> 64) () in
  (match Flow.run cgra cdfg with
   | Error _ -> () (* also acceptable: the mapper itself refuses *)
   | Ok (m, _) ->
     Alcotest.(check bool) "CRF overflow reported" true
       (try
          ignore (Asm.assemble m);
          false
        with Asm.Assembly_error _ -> true));
  (* The tool chain reports it as a failed map: a dead end after the
     flow's work, outside its ladder. *)
  match Cgra_exp.Toolchain.map ~config:FC.default cgra cdfg with
  | Error (Cgra_exp.Toolchain.Unmapped f) ->
    Alcotest.(check bool) "a dead end" true
      (f.Flow.verdict = Cgra_core.Search.Dead_end);
    Alcotest.(check string) "the assembler's reason"
      "assembly: constant register file overflow on tile 0" f.Flow.reason;
    Alcotest.(check (option int)) "no block" None f.Flow.at_block;
    Alcotest.(check int) "the flow's work" 41 f.Flow.work;
    Alcotest.(check int) "no rung" 0 (List.length f.Flow.gave_up)
  | Error e ->
    Alcotest.fail ("not a failed map: " ^ Cgra_exp.Toolchain.error_to_string e)
  | Ok _ -> Alcotest.fail "a 1x1 array cannot hold 40 constants"

let suite =
  [ ( "asm+sim",
      [ Alcotest.test_case "context words match mapping" `Quick test_words_match_mapping;
        Alcotest.test_case "sections fit block lengths" `Quick test_sections_fit_lengths;
        Alcotest.test_case "binary encode roundtrip" `Quick test_encode_tile_roundtrip;
        Alcotest.test_case "simulation matches golden" `Slow test_sim_functional;
        Alcotest.test_case "aware flow simulation" `Slow test_sim_functional_aware;
        Alcotest.test_case "cycles = static + stalls" `Quick test_sim_cycles_formula;
        Alcotest.test_case "activity counters" `Quick test_sim_activity_consistency;
        Alcotest.test_case "memory port arbitration" `Slow test_sim_mem_ports_stall;
        Alcotest.test_case "simulator deterministic" `Quick test_sim_deterministic;
        Alcotest.test_case "non-square grid end-to-end" `Slow test_non_square_grid;
        Alcotest.test_case "branch on symbol" `Quick test_branch_on_symbol;
        Alcotest.test_case "branch on immediate" `Quick test_branch_on_imm;
        Alcotest.test_case "use before def traversal" `Quick test_use_before_def_traversal;
        Alcotest.test_case "CRF overflow" `Quick test_crf_overflow ] ) ]
