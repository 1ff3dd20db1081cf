(* Tests for the IR: opcodes, CDFG validation, builder, interpreter and
   the clean-up passes. *)

module Op = Cgra_ir.Opcode
module Cdfg = Cgra_ir.Cdfg
module B = Cgra_ir.Builder
module Interp = Cgra_ir.Interp
module Opt = Cgra_ir.Opt

let test_eval_basic () =
  Alcotest.(check int) "add" 5 (Op.eval Op.Add [ 2; 3 ]);
  Alcotest.(check int) "sub" (-1) (Op.eval Op.Sub [ 2; 3 ]);
  Alcotest.(check int) "mul" 6 (Op.eval Op.Mul [ 2; 3 ]);
  Alcotest.(check int) "lt true" 1 (Op.eval Op.Lt [ 2; 3 ]);
  Alcotest.(check int) "ge false" 0 (Op.eval Op.Ge [ 2; 3 ]);
  Alcotest.(check int) "min" 2 (Op.eval Op.Min [ 2; 3 ]);
  Alcotest.(check int) "select taken" 7 (Op.eval Op.Select [ 1; 7; 9 ]);
  Alcotest.(check int) "select not" 9 (Op.eval Op.Select [ 0; 7; 9 ])

let test_eval_wrap32 () =
  Alcotest.(check int) "overflow wraps" (-2147483648)
    (Op.eval Op.Add [ 2147483647; 1 ]);
  Alcotest.(check int) "mul wraps" 0 (Op.eval Op.Mul [ 65536; 65536 ]);
  Alcotest.(check int) "shra sign" (-1) (Op.eval Op.Shra [ -4; 2 ]);
  Alcotest.(check int) "shrl clears sign" 1073741823 (Op.eval Op.Shrl [ -4; 2 ])

let test_eval_shift_masking () =
  (* shift amounts are masked to 5 bits, as on a 32-bit datapath *)
  Alcotest.(check int) "shl by 33 = shl by 1" 4 (Op.eval Op.Shl [ 2; 33 ])

let test_eval_arity () =
  Alcotest.(check bool) "arity mismatch raises" true
    (try
       ignore (Op.eval Op.Add [ 1 ]);
       false
     with Invalid_argument _ -> true)

let test_opcode_strings () =
  List.iter
    (fun op ->
      Alcotest.(check (option string))
        "roundtrip" (Some (Op.to_string op))
        (Option.map Op.to_string (Op.of_string (Op.to_string op))))
    Op.all

(* i := 0; while (i < 5) { mem[16+i] := i * i; i := i + 1 } *)
let square_cdfg () =
  let b = B.create "squares" in
  let i = B.fresh_sym b "i" in
  let pre = B.add_block b "pre" in
  let body = B.add_block b "body" in
  let exit_ = B.add_block b "exit" in
  B.set_live_out b pre i (Cdfg.Imm 0);
  B.set_terminator b pre (Cdfg.Jump (B.block_id body));
  let sq = B.add_node b body Op.Mul [ Cdfg.Sym i; Cdfg.Sym i ] in
  let addr = B.add_node b body Op.Add [ Cdfg.Sym i; Cdfg.Imm 16 ] in
  let _ = B.add_node b body Op.Store [ addr; sq ] in
  let i1 = B.add_node b body Op.Add [ Cdfg.Sym i; Cdfg.Imm 1 ] in
  let c = B.add_node b body Op.Lt [ i1; Cdfg.Imm 5 ] in
  B.set_live_out b body i i1;
  B.set_terminator b body (Cdfg.Branch (c, B.block_id body, B.block_id exit_));
  B.set_terminator b exit_ Cdfg.Return;
  B.finish b

let test_interp_loop () =
  let cdfg = square_cdfg () in
  let mem = Array.make 32 0 in
  let trace = Interp.run cdfg ~mem in
  Alcotest.(check (array int)) "squares"
    [| 0; 1; 4; 9; 16 |] (Array.sub mem 16 5);
  Alcotest.(check int) "body ran 5 times" 5 trace.Interp.block_counts.(1);
  Alcotest.(check int) "blocks executed" 7 trace.Interp.steps

let test_interp_oob () =
  let cdfg = square_cdfg () in
  let mem = Array.make 4 0 in
  Alcotest.(check bool) "raises out of bounds" true
    (try
       ignore (Interp.run cdfg ~mem);
       false
     with Interp.Out_of_bounds _ -> true)

let test_interp_step_limit () =
  let b = B.create "forever" in
  let blk = B.add_block b "spin" in
  B.set_terminator b blk (Cdfg.Jump (B.block_id blk));
  let cdfg = B.finish b in
  Alcotest.(check bool) "raises step limit" true
    (try
       ignore (Interp.run ~max_steps:100 cdfg ~mem:(Array.make 1 0));
       false
     with Interp.Step_limit_exceeded -> true)

let test_interp_init_syms () =
  let b = B.create "init" in
  let x = B.fresh_sym b "x" in
  let blk = B.add_block b "only" in
  let _ = B.add_node b blk Op.Store [ Cdfg.Imm 0; Cdfg.Sym x ] in
  B.set_terminator b blk Cdfg.Return;
  let cdfg = B.finish b in
  let mem = Array.make 2 0 in
  ignore (Interp.run ~init_syms:[ (x, 42) ] cdfg ~mem);
  Alcotest.(check int) "init value stored" 42 mem.(0)

(* A malformed Load/Store that bypasses the builder (and so
   [Cdfg.validate]) must die with the typed [Bad_arity] diagnostics, not
   the bare [Failure "nth"] the old operand indexing raised. *)
let test_interp_bad_memory_arity () =
  let mk opcode operands =
    { Cdfg.kernel_name = "badmem";
      blocks =
        [| { Cdfg.name = "b";
             nodes = [| { Cdfg.opcode; operands; mem_dep = [] } |];
             live_out = [];
             terminator = Cdfg.Return } |];
      entry = 0;
      sym_count = 0;
      sym_names = [||] }
  in
  List.iter
    (fun (op, operands, expected, got) ->
      let cdfg = mk op operands in
      (match Cdfg.validate cdfg with
       | Error _ -> ()
       | Ok () -> Alcotest.fail "validate accepted the malformed node");
      match Interp.run cdfg ~mem:(Array.make 4 0) with
      | (_ : Interp.trace) -> Alcotest.fail "malformed memory node executed"
      | exception Interp.Bad_arity { block; node; opcode; expected = e; got = g }
        ->
        Alcotest.(check string) "block named" "b" block;
        Alcotest.(check int) "node named" 0 node;
        Alcotest.(check string) "opcode named" (Op.to_string op) opcode;
        Alcotest.(check int) "expected arity" expected e;
        Alcotest.(check int) "got arity" got g)
    [ (Op.Store, [ Cdfg.Imm 0 ], 2, 1);
      (Op.Store, [ Cdfg.Imm 0; Cdfg.Imm 1; Cdfg.Imm 2 ], 2, 3);
      (Op.Load, [], 1, 0);
      (Op.Load, [ Cdfg.Imm 0; Cdfg.Imm 1 ], 1, 2) ]

let test_validate_rejects () =
  let bad_operand =
    { Cdfg.kernel_name = "bad";
      blocks =
        [| { Cdfg.name = "b";
             nodes = [| { Cdfg.opcode = Op.Add; operands = [ Cdfg.Node 0; Cdfg.Imm 1 ]; mem_dep = [] } |];
             live_out = [];
             terminator = Cdfg.Return } |];
      entry = 0;
      sym_count = 0;
      sym_names = [||] }
  in
  (match Cdfg.validate bad_operand with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "self-referencing operand accepted");
  let bad_arity =
    { bad_operand with
      Cdfg.blocks =
        [| { Cdfg.name = "b";
             nodes = [| { Cdfg.opcode = Op.Add; operands = [ Cdfg.Imm 1 ]; mem_dep = [] } |];
             live_out = [];
             terminator = Cdfg.Return } |] }
  in
  (match Cdfg.validate bad_arity with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "bad arity accepted");
  let bad_dep =
    { bad_operand with
      Cdfg.blocks =
        [| { Cdfg.name = "b";
             nodes =
               [| { Cdfg.opcode = Op.Load; operands = [ Cdfg.Imm 0 ]; mem_dep = [ 3 ] } |];
             live_out = [];
             terminator = Cdfg.Return } |] }
  in
  (match Cdfg.validate bad_dep with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "forward mem_dep accepted")

let test_validate_unreachable () =
  let b = B.create "unreach" in
  let entry = B.add_block b "entry" in
  let orphan = B.add_block b "orphan" in
  B.set_terminator b entry Cdfg.Return;
  B.set_terminator b orphan Cdfg.Return;
  Alcotest.(check bool) "builder rejects unreachable block" true
    (try
       ignore (B.finish b);
       false
     with B.Build_error (B.Invalid_cdfg _) -> true)

let test_block_weight () =
  let cdfg = square_cdfg () in
  (* body uses i four times + defines it: n(s)=1, fanout=4 -> Wbb = 5 *)
  Alcotest.(check int) "body weight" 5 (Cdfg.block_weight cdfg 1);
  Alcotest.(check int) "pre weight" 1 (Cdfg.block_weight cdfg 0);
  Alcotest.(check int) "exit weight" 0 (Cdfg.block_weight cdfg 2)

let test_uses_of_node () =
  let cdfg = square_cdfg () in
  let body = cdfg.Cdfg.blocks.(1) in
  (* node 3 (i+1) is used by the compare and the live-out *)
  Alcotest.(check int) "i+1 fanout" 2 (Cdfg.uses_of_node body 3)

(* A live-out item that reads symbol s's old value goes before the item
   writing s; a self-assignment constrains nothing; a swap has no order. *)
let test_order_live_outs () =
  let order = Cdfg.order_live_outs in
  let items = Alcotest.(option (list (pair int string))) in
  let show =
    Option.map
      (List.map (fun (s, op) ->
           ( s,
             match op with
             | Cdfg.Sym s' -> Printf.sprintf "s%d" s'
             | Cdfg.Node n -> Printf.sprintf "n%d" n
             | Cdfg.Imm k -> Printf.sprintf "#%d" k )))
  in
  Alcotest.check items "reader of s1 before its writer"
    (Some [ (0, "s1"); (2, "n4"); (1, "#3") ])
    (show (order [ (1, Cdfg.Imm 3); (0, Cdfg.Sym 1); (2, Cdfg.Node 4) ]));
  Alcotest.check items "a chain s0 := s1 := s2"
    (Some [ (0, "s1"); (1, "s2"); (2, "#0") ])
    (show
       (order [ (2, Cdfg.Imm 0); (1, Cdfg.Sym 2); (0, Cdfg.Sym 1) ]));
  Alcotest.check items "self-assignment" (Some [ (0, "s0"); (1, "#1") ])
    (show (order [ (0, Cdfg.Sym 0); (1, Cdfg.Imm 1) ]));
  Alcotest.check items "swap" None
    (show (order [ (0, Cdfg.Sym 1); (1, Cdfg.Sym 0) ]))

let test_opt_removes_dead () =
  let b = B.create "dead" in
  let x = B.fresh_sym b "x" in
  let blk = B.add_block b "only" in
  let v = B.add_node b blk Op.Add [ Cdfg.Imm 1; Cdfg.Imm 2 ] in
  let _dead = B.add_node b blk Op.Mul [ v; v ] in
  let _ = B.add_node b blk Op.Store [ Cdfg.Imm 0; v ] in
  B.set_live_out b blk x v;
  (* x is dead: never read afterwards *)
  B.set_terminator b blk Cdfg.Return;
  let cdfg = B.finish b in
  let opt = Opt.optimize cdfg in
  Alcotest.(check int) "dead live-out dropped" 0
    (List.length opt.Cdfg.blocks.(0).Cdfg.live_out);
  Alcotest.(check int) "dead mul dropped" 2
    (Array.length opt.Cdfg.blocks.(0).Cdfg.nodes)

let test_opt_preserves_semantics () =
  List.iter
    (fun k ->
      let cdfg = Cgra_kernels.Kernel_def.cdfg k in
      let opt = Opt.optimize cdfg in
      let m1 = Cgra_kernels.Kernel_def.fresh_mem k in
      let m2 = Cgra_kernels.Kernel_def.fresh_mem k in
      ignore (Interp.run cdfg ~mem:m1);
      ignore (Interp.run opt ~mem:m2);
      Alcotest.(check bool) (k.Cgra_kernels.Kernel_def.name ^ " preserved") true
        (m1 = m2))
    Cgra_kernels.Kernels.all

let test_simplify_cfg () =
  (* entry -> fwd -> fwd2 -> work; the two forwarding blocks disappear *)
  let b = B.create "fwd" in
  let entry = B.add_block b "entry" in
  let fwd = B.add_block b "fwd" in
  let fwd2 = B.add_block b "fwd2" in
  let work = B.add_block b "work" in
  B.set_terminator b entry (Cdfg.Jump (B.block_id fwd));
  B.set_terminator b fwd (Cdfg.Jump (B.block_id fwd2));
  B.set_terminator b fwd2 (Cdfg.Jump (B.block_id work));
  let _ = B.add_node b work Op.Store [ Cdfg.Imm 0; Cdfg.Imm 7 ] in
  B.set_terminator b work Cdfg.Return;
  let cdfg = B.finish b in
  let simple = Opt.simplify_cfg cdfg in
  Alcotest.(check bool) "valid" true (Cdfg.validate simple = Ok ());
  (* the empty entry is itself a forwarding block: only "work" remains *)
  Alcotest.(check int) "forwarding blocks gone" 1 (Cdfg.block_count simple);
  let m1 = Array.make 2 0 and m2 = Array.make 2 0 in
  let t1 = Interp.run cdfg ~mem:m1 in
  let t2 = Interp.run simple ~mem:m2 in
  Alcotest.(check bool) "same memory" true (m1 = m2);
  Alcotest.(check bool) "fewer dynamic blocks" true
    (t2.Interp.steps < t1.Interp.steps)

let test_simplify_cfg_on_kernels () =
  List.iter
    (fun k ->
      let cdfg = Cgra_kernels.Kernel_def.cdfg k in
      let simple = Opt.simplify_cfg cdfg in
      Alcotest.(check bool) "still valid" true (Cdfg.validate simple = Ok ());
      let m1 = Cgra_kernels.Kernel_def.fresh_mem k in
      let m2 = Cgra_kernels.Kernel_def.fresh_mem k in
      ignore (Interp.run cdfg ~mem:m1);
      ignore (Interp.run simple ~mem:m2);
      Alcotest.(check bool)
        (k.Cgra_kernels.Kernel_def.name ^ " semantics kept") true (m1 = m2))
    Cgra_kernels.Kernels.all

let if_else_source ~then_big =
  Printf.sprintf
    {|kernel k { arr x @ 0; arr o @ 8; var i, v, r;
      for (i = 0; i < 6; i = i + 1) {
        v = x[i];
        r = 0;
        if (v > %d) { r = v * 3 + 1; } else { r = 0 - v; }
        o[i] = r;
      } }|}
    then_big

let test_if_convert () =
  let cdfg = Cgra_lang.Compile.compile_exn (if_else_source ~then_big:2) in
  let conv = Opt.if_convert cdfg in
  Alcotest.(check bool) "valid" true (Cdfg.validate conv = Ok ());
  Alcotest.(check bool) "fewer blocks" true
    (Cdfg.block_count conv < Cdfg.block_count cdfg);
  (* no conditional branch into the diamond remains inside the loop body *)
  let run c =
    let mem = Array.make 16 0 in
    for k = 0 to 5 do
      mem.(k) <- k - 2
    done;
    ignore (Interp.run c ~mem);
    mem
  in
  Alcotest.(check bool) "same results" true (run cdfg = run conv);
  let m1 = run conv in
  Alcotest.(check int) "sample then" 10 m1.(8 + 5) (* v=3 -> 3*3+1 *);
  Alcotest.(check int) "sample else" 2 m1.(8 + 0) (* v=-2 -> 2 *)

let test_if_convert_skips_memory_arms () =
  (* arms with stores must not be speculated *)
  let src =
    {|kernel k { arr o @ 0; var i, v;
      for (i = 0; i < 4; i = i + 1) {
        v = i - 2;
        if (v > 0) { o[i] = v; } else { o[i + 8] = v; }
      } }|}
  in
  let cdfg = Cgra_lang.Compile.compile_exn src in
  let conv = Opt.if_convert cdfg in
  Alcotest.(check int) "unchanged" (Cdfg.block_count cdfg)
    (Cdfg.block_count conv)

let test_if_convert_on_kernels () =
  (* idempotent and semantics-preserving on the whole suite *)
  List.iter
    (fun k ->
      let cdfg = Cgra_kernels.Kernel_def.cdfg k in
      let conv = Opt.if_convert cdfg in
      Alcotest.(check bool) "valid" true (Cdfg.validate conv = Ok ());
      let m1 = Cgra_kernels.Kernel_def.fresh_mem k in
      let m2 = Cgra_kernels.Kernel_def.fresh_mem k in
      ignore (Interp.run cdfg ~mem:m1);
      ignore (Interp.run conv ~mem:m2);
      Alcotest.(check bool)
        (k.Cgra_kernels.Kernel_def.name ^ " semantics kept") true (m1 = m2))
    Cgra_kernels.Kernels.all

let test_if_convert_end_to_end () =
  (* the converted kernel still maps and simulates correctly *)
  let cdfg = Cgra_lang.Compile.compile_exn (if_else_source ~then_big:0) in
  let conv = Opt.simplify_cfg (Opt.if_convert cdfg) in
  match
    Cgra_core.Flow.run (Cgra_arch.Config.cgra Cgra_arch.Config.HOM64) conv
  with
  | Error f -> Alcotest.fail f.Cgra_core.Flow.reason
  | Ok (m, _) ->
    let prog = Cgra_asm.Assemble.assemble m in
    let mem = Array.make 16 0 in
    for k = 0 to 5 do
      mem.(k) <- 5 - k
    done;
    let golden = Array.copy mem in
    ignore (Interp.run conv ~mem:golden);
    ignore (Cgra_sim.Simulator.run prog ~mem);
    Alcotest.(check bool) "CGRA matches interp" true (mem = golden)

let test_live_at_exit () =
  let cdfg = square_cdfg () in
  let live = Opt.live_at_exit cdfg in
  Alcotest.(check bool) "i live after pre" true live.(0).(0);
  Alcotest.(check bool) "i live after body (loop)" true live.(1).(0);
  Alcotest.(check bool) "i dead after exit" false live.(2).(0)

let suite =
  [ ( "ir",
      [ Alcotest.test_case "opcode eval" `Quick test_eval_basic;
        Alcotest.test_case "32-bit wrapping" `Quick test_eval_wrap32;
        Alcotest.test_case "shift masking" `Quick test_eval_shift_masking;
        Alcotest.test_case "arity errors" `Quick test_eval_arity;
        Alcotest.test_case "opcode string roundtrip" `Quick test_opcode_strings;
        Alcotest.test_case "interp loop" `Quick test_interp_loop;
        Alcotest.test_case "interp out of bounds" `Quick test_interp_oob;
        Alcotest.test_case "interp step limit" `Quick test_interp_step_limit;
        Alcotest.test_case "interp initial symbols" `Quick test_interp_init_syms;
        Alcotest.test_case "interp typed memory arity errors" `Quick
          test_interp_bad_memory_arity;
        Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
        Alcotest.test_case "validate unreachable" `Quick test_validate_unreachable;
        Alcotest.test_case "block weight Wbb" `Quick test_block_weight;
        Alcotest.test_case "node fanout" `Quick test_uses_of_node;
        Alcotest.test_case "live-out order" `Quick test_order_live_outs;
        Alcotest.test_case "opt removes dead code" `Quick test_opt_removes_dead;
        Alcotest.test_case "opt preserves semantics" `Quick test_opt_preserves_semantics;
        Alcotest.test_case "simplify cfg" `Quick test_simplify_cfg;
        Alcotest.test_case "if-conversion" `Quick test_if_convert;
        Alcotest.test_case "if-conversion skips memory arms" `Quick
          test_if_convert_skips_memory_arms;
        Alcotest.test_case "if-conversion on kernels" `Quick
          test_if_convert_on_kernels;
        Alcotest.test_case "if-conversion end to end" `Quick
          test_if_convert_end_to_end;
        Alcotest.test_case "simplify cfg on kernels" `Quick test_simplify_cfg_on_kernels;
        Alcotest.test_case "liveness" `Quick test_live_at_exit ] ) ]
