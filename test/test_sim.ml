(* The cycle-level simulator's contract, pinned from outside:

   - one test per typed error, each raised by a hand-mutated assembled
     program and checked with its full payload, plus the precedence the
     fault campaigns' crash strings depend on (sources read left to right
     before the arity check);
   - the [mem_ports] range check;
   - known answers: a digest of every [Simulator.result] field (and the
     final memory) for the bench kernels on HOM64 and HET2 at each
     protection level, and the MD5 of a fault campaign's trial list per
     kernel and level.  The tables were recorded from an earlier
     implementation with separate protected and unprotected loops; a
     mismatch prints the whole actual table. *)

module Asm = Cgra_asm.Assemble
module Sim = Cgra_sim.Simulator
module Isa = Cgra_arch.Isa
module Cgra = Cgra_arch.Cgra
module Config = Cgra_arch.Config
module P = Cgra_arch.Protection
module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode
module FC = Cgra_core.Flow_config
module F = Cgra_verify.Fault
module K = Cgra_kernels.Kernel_def

let map_kernel slug config flow =
  let k = Option.get (Cgra_kernels.Kernels.by_slug slug) in
  match Cgra_core.Flow.run ~config:flow (Config.cgra config) (K.cdfg k) with
  | Ok (m, _) -> (k, Asm.assemble m)
  | Error f -> Alcotest.fail (slug ^ ": " ^ f.Cgra_core.Flow.reason)

(* FIR on HOM64 with the basic flow: four blocks (entry, loop header with
   the branch condition, loop body with loads and stores, exit), all
   executed, so a mutation anywhere is reached. *)
let base = lazy (map_kernel "fir" Config.HOM64 FC.basic)

(* ---- mutation helpers -------------------------------------------------- *)

type site = { tile : int; block : int; index : int; cycle : int; instr : Isa.instr }

(* The first instruction, in tile then block then position order, that
   satisfies [pred]; [cycle] is its offset within the section. *)
let find_site ?(what = "a matching instruction") (p : Asm.program) pred =
  let found = ref None in
  Array.iteri
    (fun tile tp ->
      Array.iteri
        (fun block sec ->
          ignore
            (List.fold_left
               (fun (index, cycle) instr ->
                 if !found = None && pred ~block instr then
                   found := Some { tile; block; index; cycle; instr };
                 (index + 1, cycle + Isa.duration instr))
               (0, 0) sec))
        tp.Asm.sections)
    p.Asm.tiles;
  match !found with
  | Some s -> s
  | None -> Alcotest.fail ("the base program has no " ^ what)

let map_tile (p : Asm.program) t f =
  { p with Asm.tiles = Array.mapi (fun i tp -> if i = t then f tp else tp) p.Asm.tiles }

let map_section p t bi f =
  map_tile p t (fun tp ->
      { tp with Asm.sections = Array.mapi (fun i s -> if i = bi then f s else s) tp.Asm.sections })

let replace p s instr =
  map_section p s.tile s.block (List.mapi (fun i x -> if i = s.index then instr else x))

(* Index of [s] in its tile's context image (sections are laid out in
   block order, one word per instruction). *)
let word_of (p : Asm.program) s =
  let secs = p.Asm.tiles.(s.tile).Asm.sections in
  let before = ref 0 in
  for bi = 0 to s.block - 1 do
    before := !before + List.length secs.(bi)
  done;
  !before + s.index

let error =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Sim.error_to_string e))
    ( = )

let expect_error ?upsets ?protect ?max_blocks name expected (p : Asm.program) =
  let k, _ = Lazy.force base in
  match Sim.run ?upsets ?protect ?max_blocks p ~mem:(K.fresh_mem k) with
  | _ -> Alcotest.failf "%s: the run must raise %s" name (Sim.error_to_string expected)
  | exception Sim.Sim_error e -> Alcotest.check error name expected e

let is_op pred ~block:_ = function Isa.Iop o -> pred o.opcode o.srcs | _ -> false
let binary op srcs = Opcode.arity op = 2 && op <> Opcode.Store && List.length srcs = 2

(* ---- one test per error ------------------------------------------------ *)

let test_missing_condition () =
  let _, p = Lazy.force base in
  let s =
    find_site ~what:"branch condition" p (fun ~block:_ -> function
      | Isa.Iop { set_cond; _ } | Isa.Icopy { set_cond; _ } -> set_cond
      | _ -> false)
  in
  let cleared =
    match s.instr with
    | Isa.Iop o -> Isa.Iop { o with set_cond = false }
    | Isa.Icopy c -> Isa.Icopy { c with set_cond = false }
    | i -> i
  in
  expect_error "branch without a condition" (Sim.Missing_condition { block = s.block })
    (replace p s cleared)

let test_unexecuted_instructions () =
  let _, p = Lazy.force base in
  let entry = p.Asm.mapping.Cgra_core.Mapping.cdfg.Cdfg.entry in
  let s = find_site ~what:"entry-block instruction" p (fun ~block _ -> block = entry) in
  let sec = p.Asm.tiles.(s.tile).Asm.sections.(entry) in
  let used = List.fold_left (fun a i -> a + Isa.duration i) 0 sec in
  (* fill the idle tail, then overflow it by two words *)
  let extra = p.Asm.section_length.(entry) - used + 2 in
  expect_error "section longer than its block"
    (Sim.Unexecuted_instructions { tile = s.tile; block = entry; left = 2 })
    (map_section p s.tile entry (fun sec -> sec @ List.init extra (fun _ -> Isa.Ipnop 1)))

let test_bad_arity () =
  let _, p = Lazy.force base in
  let s = find_site ~what:"two-operand ALU op" p (is_op binary) in
  (match s.instr with
   | Isa.Iop o ->
     expect_error "ALU op with one operand"
       (Sim.Bad_arity
          { tile = s.tile; block = s.block; cycle = s.cycle; opcode = o.opcode; args = 1 })
       (replace p s (Isa.Iop { o with srcs = [ List.hd o.srcs ] }))
   | _ -> assert false);
  let s = find_site ~what:"load" p (is_op (fun op _ -> op = Opcode.Load)) in
  match s.instr with
  | Isa.Iop o ->
    expect_error "load with two operands"
      (Sim.Bad_arity
         { tile = s.tile; block = s.block; cycle = s.cycle; opcode = Opcode.Load; args = 2 })
      (replace p s (Isa.Iop { o with srcs = o.srcs @ o.srcs }))
  | _ -> assert false

let test_sources_before_arity () =
  (* Operands are read left to right, and all of them before the operand
     count is checked: a bad operand reports ahead of a bad count, and
     the leftmost bad operand wins. *)
  let _, p = Lazy.force base in
  let s = find_site ~what:"two-operand ALU op" p (is_op binary) in
  let rf_words = p.Asm.mapping.Cgra_core.Mapping.cgra.Cgra.rf_words in
  let pool = Array.length p.Asm.tiles.(s.tile).Asm.crf in
  match s.instr with
  | Isa.Iop o ->
    expect_error "bad operand of a one-operand ALU op"
      (Sim.Crf_out_of_range
         { tile = s.tile; block = s.block; cycle = s.cycle; index = pool + 1; pool })
      (replace p s (Isa.Iop { o with srcs = [ Isa.Crf (pool + 1) ] }));
    expect_error "leftmost bad operand wins"
      (Sim.Rf_out_of_range
         { tile = s.tile; block = s.block; cycle = s.cycle; reg = rf_words + 7; rf_words })
      (replace p s
         (Isa.Iop { o with srcs = [ Isa.Rf (rf_words + 7); Isa.Crf (pool + 1); Isa.Rf 0 ] }))
  | _ -> assert false

let test_store_with_dst () =
  let _, p = Lazy.force base in
  let s = find_site ~what:"store" p (is_op (fun op _ -> op = Opcode.Store)) in
  match s.instr with
  | Isa.Iop o ->
    expect_error "store with a destination"
      (Sim.Store_with_dst { tile = s.tile; block = s.block; cycle = s.cycle })
      (replace p s (Isa.Iop { o with dst = Some 0 }))
  | _ -> assert false

let test_cond_without_result () =
  let _, p = Lazy.force base in
  let s = find_site ~what:"store" p (is_op (fun op _ -> op = Opcode.Store)) in
  match s.instr with
  | Isa.Iop o ->
    expect_error "store driving the condition"
      (Sim.Cond_without_result { tile = s.tile; block = s.block; cycle = s.cycle })
      (replace p s (Isa.Iop { o with set_cond = true }))
  | _ -> assert false

let test_mem_out_of_bounds () =
  (* Point a load at a fresh constant one past the end of data memory. *)
  let k, p = Lazy.force base in
  let words = Array.length (K.fresh_mem k) in
  let s = find_site ~what:"load" p (is_op (fun op _ -> op = Opcode.Load)) in
  let crf = p.Asm.tiles.(s.tile).Asm.crf in
  let p = map_tile p s.tile (fun tp -> { tp with Asm.crf = Array.append crf [| words |] }) in
  match s.instr with
  | Isa.Iop o ->
    expect_error "load past the end of memory"
      (Sim.Mem_out_of_bounds
         { tile = s.tile; block = s.block; cycle = s.cycle; addr = words; words })
      (replace p s (Isa.Iop { o with srcs = [ Isa.Crf (Array.length crf) ] }))
  | _ -> assert false

let test_runaway () =
  let k, p = Lazy.force base in
  let n = (Sim.run p ~mem:(K.fresh_mem k)).Sim.blocks_executed in
  ignore (Sim.run ~max_blocks:n p ~mem:(K.fresh_mem k));
  expect_error ~max_blocks:(n - 1) "one block short of the budget"
    (Sim.Runaway { max_blocks = n - 1 }) p

let test_crf_out_of_range () =
  let _, p = Lazy.force base in
  let s =
    find_site ~what:"constant operand" p
      (is_op (fun _ srcs -> List.exists (function Isa.Crf _ -> true | _ -> false) srcs))
  in
  let pool = Array.length p.Asm.tiles.(s.tile).Asm.crf in
  match s.instr with
  | Isa.Iop o ->
    let srcs = List.map (function Isa.Crf _ -> Isa.Crf pool | x -> x) o.srcs in
    expect_error "constant index one past the pool"
      (Sim.Crf_out_of_range
         { tile = s.tile; block = s.block; cycle = s.cycle; index = pool; pool })
      (replace p s (Isa.Iop { o with srcs }))
  | _ -> assert false

let test_rf_out_of_range () =
  let _, p = Lazy.force base in
  let rf_words = p.Asm.mapping.Cgra_core.Mapping.cgra.Cgra.rf_words in
  let s =
    find_site ~what:"register copy" p (fun ~block:_ -> function
      | Isa.Icopy _ -> true
      | _ -> false)
  in
  match s.instr with
  | Isa.Icopy c ->
    expect_error "destination one past the register file"
      (Sim.Rf_out_of_range
         { tile = s.tile; block = s.block; cycle = s.cycle; reg = rf_words; rf_words })
      (replace p s (Isa.Icopy { c with dst = rf_words }))
  | _ -> assert false

let test_bad_tile () =
  let _, p = Lazy.force base in
  let tiles = Cgra.tile_count p.Asm.mapping.Cgra_core.Mapping.cgra in
  let s =
    find_site ~what:"neighbour read" p
      (is_op (fun _ srcs -> List.exists (function Isa.Nbr _ -> true | _ -> false) srcs))
  in
  match s.instr with
  | Isa.Iop o ->
    let srcs = List.map (function Isa.Nbr (_, r) -> Isa.Nbr (tiles, r) | x -> x) o.srcs in
    expect_error "neighbour read outside the array"
      (Sim.Bad_tile
         { tile = s.tile; block = s.block; cycle = s.cycle; target = tiles; tiles })
      (replace p s (Isa.Iop { o with srcs }))
  | _ -> assert false

let protect ?(scrub_interval = P.default_scrub_interval) profile =
  { Sim.profile; scrub_interval }

(* Two flips in the opcode field of the first operation's word leave an
   opcode index no instruction has; the decoder's message for that word. *)
let undecodable_site () =
  let _, p = Lazy.force base in
  let s = find_site ~what:"operation" p (is_op (fun _ _ -> true)) in
  let word = word_of p s in
  let upsets = List.map (fun bit -> Sim.Context_bit { tile = s.tile; word; bit }) [ 60; 61 ] in
  let flipped = Int64.logxor (Isa.encode s.instr) (Int64.shift_left 3L 60) in
  match Isa.decode flipped with
  | Ok _ -> Alcotest.fail "the double flip must leave an undecodable word"
  | Error message -> (p, s, word, upsets, message)

let test_undecodable_cm () =
  (* The double flip escapes parity: the fetch must fail typed, at the
     word, with the decoder's message. *)
  let p, s, word, upsets, message = undecodable_site () in
  expect_error ~upsets ~protect:(protect P.parity) "parity escape that no longer decodes"
    (Sim.Undecodable_cm { tile = s.tile; word; block = s.block; cycle = s.cycle; message })
    p;
  expect_error ~upsets ~protect:(protect P.secded) "the same double flip under SECDED"
    (Sim.Uncorrectable_cm { tile = s.tile; word; block = s.block; cycle = s.cycle })
    p

(* ---- upsets and the fetch path ----------------------------------------- *)

(* The first single-bit flip, in tile, word and bit order, that leaves a
   word of a [block] section no longer decodable: (tile, word, bit,
   decoder message). *)
let undecodable_flip (p : Asm.program) ~block =
  let found = ref None in
  Array.iteri
    (fun tile tp ->
      let image = Asm.encode_tile tp in
      let base = ref 0 in
      Array.iteri
        (fun bi sec ->
          if block bi then
            List.iteri
              (fun i _ ->
                let word = !base + i in
                for bit = 0 to 63 do
                  if !found = None then
                    match Isa.decode (Int64.logxor image.(word) (Int64.shift_left 1L bit)) with
                    | Error message -> found := Some (tile, word, bit, message)
                    | Ok _ -> ()
                done)
              sec;
          base := !base + List.length sec)
        tp.Asm.sections)
    p.Asm.tiles;
  match !found with Some f -> f | None -> Alcotest.fail "no undecodable single flip"

(* A kernel whose [then] side no input below 1000 takes; the arms store,
   so the clean-up keeps the branch. *)
let cold_branch =
  lazy
    (let cdfg =
       Cgra_lang.Compile.compile_exn
         {|kernel k { arr x @ 0; arr o @ 8; var i, v;
           for (i = 0; i < 4; i = i + 1) {
             v = x[i];
             if (v > 1000) { o[i] = v * 7 + 3; } else { o[i] = v + 1; }
           } }|}
     in
     match Cgra_core.Flow.run ~config:FC.basic (Config.cgra Config.HOM64) cdfg with
     | Ok (m, _) -> (cdfg, Asm.assemble m)
     | Error f -> Alcotest.fail f.Cgra_core.Flow.reason)

let test_unfetched_undecodable () =
  (* The fetch path, like the hardware, decodes a word only when it is
     fetched: an unprotected run never crashes on a corrupted word of a
     block it does not execute. *)
  let cdfg, p = Lazy.force cold_branch in
  let cold bi = String.starts_with ~prefix:"then" cdfg.Cdfg.blocks.(bi).Cdfg.name in
  if not (Array.exists (fun (b : Cdfg.block) -> String.starts_with ~prefix:"then" b.Cdfg.name)
            cdfg.Cdfg.blocks)
  then Alcotest.fail "the kernel lost its cold branch";
  let tile, word, bit, _ = undecodable_flip p ~block:cold in
  let fresh () = Array.init 16 (fun i -> if i < 4 then i + 1 else 0) in
  let golden = fresh () in
  ignore (Cgra_ir.Interp.run cdfg ~mem:golden);
  let mem = fresh () in
  ignore (Sim.run ~upsets:[ Sim.Context_bit { tile; word; bit } ] p ~mem);
  Alcotest.(check (array int)) "golden despite the corrupted word" golden mem

let test_fetched_undecodable () =
  (* Every block of the base program runs, so every word is fetched: an
     undecodable flip fails the run typed, with the decoder's message, and
     the campaigns classify it with that message. *)
  let k, p = Lazy.force base in
  let tile, word, bit, message = undecodable_flip p ~block:(fun _ -> true) in
  (match Sim.run ~upsets:[ Sim.Context_bit { tile; word; bit } ] p ~mem:(K.fresh_mem k) with
   | _ -> Alcotest.fail "an unprotected fetch of an undecodable word must raise"
   | exception Sim.Sim_error (Sim.Undecodable_cm u) ->
     Alcotest.(check (list int)) "tile and word" [ tile; word ] [ u.tile; u.word ];
     Alcotest.(check string) "the decoder's message" message u.message);
  let c =
    F.run_campaign ~jobs:1 ~seed:11 ~trials:200 ~key:"test/fir/undecodable"
      ~fresh_mem:(fun () -> K.fresh_mem k)
      p
  in
  let images = Array.map Asm.encode_tile p.Asm.tiles in
  let crashes =
    List.filter_map
      (fun (t : F.trial) ->
        match t.F.injection with
        | F.Context_bit { tile; word; bit } -> (
          match Isa.decode (Int64.logxor images.(tile).(word) (Int64.shift_left 1L bit)) with
          | Error m ->
            Alcotest.(check string) "crash text"
              ("crash: undecodable context word: " ^ m)
              (F.outcome_to_string t.F.outcome);
            Some ()
          | Ok _ -> None)
        | _ -> None)
      c.F.runs
  in
  Alcotest.(check bool) "the campaign hits an undecodable word" true (crashes <> [])

let test_upset_ranges () =
  let k, p = Lazy.force base in
  let cgra = p.Asm.mapping.Cgra_core.Mapping.cgra in
  let nt = Cgra.tile_count cgra and rf_words = cgra.Cgra.rf_words in
  let words t = (Asm.context_words p).(t) in
  let t = Option.get (List.find_opt (fun t -> words t > 0) (List.init nt Fun.id)) in
  let ct =
    Option.get
      (List.find_opt (fun t -> Array.length p.Asm.tiles.(t).Asm.crf > 0) (List.init nt Fun.id))
  in
  let pool = p.Asm.tiles.(ct).Asm.crf in
  List.iter
    (fun (what, u) ->
      match Sim.run ~upsets:[ u ] p ~mem:(K.fresh_mem k) with
      | _ -> Alcotest.failf "an upset with a bad %s must be rejected" what
      | exception Invalid_argument _ -> ())
    [ ("tile", Sim.Context_bit { tile = nt; word = 0; bit = 0 });
      ("word", Sim.Context_bit { tile = t; word = words t; bit = 0 });
      ("context bit", Sim.Context_bit { tile = t; word = 0; bit = 64 });
      ("pool tile", Sim.Crf_bit { tile = -1; index = 0; bit = 0 });
      ("pool index", Sim.Crf_bit { tile = ct; index = Array.length pool; bit = 0 });
      ("pool bit", Sim.Crf_bit { tile = ct; index = 0; bit = 32 });
      ("register tile", Sim.Rf_bit { cycle = 0; tile = nt; reg = 0; bit = 0 });
      ("register", Sim.Rf_bit { cycle = 0; tile = 0; reg = rf_words; bit = 0 });
      ("register bit", Sim.Rf_bit { cycle = 0; tile = 0; reg = 0; bit = 32 });
      ("cycle", Sim.Rf_bit { cycle = -1; tile = 0; reg = 0; bit = 0 }) ];
  (* An upset corrupts this run's copy, never the program. *)
  let before = Array.copy pool in
  (try
     ignore
       (Sim.run ~upsets:[ Sim.Crf_bit { tile = ct; index = 0; bit = 31 } ] p
          ~mem:(K.fresh_mem k))
   with Sim.Sim_error _ -> ());
  Alcotest.(check (array int)) "constant pool untouched" before pool

let test_mem_ports_range () =
  let k, p = Lazy.force base in
  List.iter
    (fun ports ->
      match Sim.run ~mem_ports:ports p ~mem:(K.fresh_mem k) with
      | _ -> Alcotest.failf "mem_ports = %d must be rejected" ports
      | exception Invalid_argument _ -> ())
    [ 0; -1; min_int ];
  let r = Sim.run ~mem_ports:1 p ~mem:(K.fresh_mem k) in
  Alcotest.(check bool) "one port is a valid fabric" true (r.Sim.stall_cycles >= 0)

(* ---- known answers ----------------------------------------------------- *)

let kat_kernels = [ "fir"; "convolution"; "sep_filter"; "fft"; "dc_filter" ]
let kat_levels = [ ("none", None); ("parity", Some P.parity); ("secded", Some P.secded) ]

let md5 s = Digest.to_hex (Digest.string s)

(* Every field of a result, plus the final memory image. *)
let render (r : Sim.result) mem =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let b = Buffer.create 512 in
  Printf.bprintf b "cycles %d stalls %d blocks %d instrs %d\n" r.Sim.cycles
    r.Sim.stall_cycles r.Sim.blocks_executed r.Sim.instructions;
  Array.iteri
    (fun t (a : Sim.activity) ->
      Printf.bprintf b "t%d %d %d %d %d %d %d\n" t a.Sim.alu_ops a.Sim.mul_ops a.Sim.mem_ops
        a.Sim.moves a.Sim.fetches a.Sim.awake_cycles)
    r.Sim.activity;
  (match r.Sim.ecc with
   | None -> Buffer.add_string b "ecc -\n"
   | Some e ->
     Printf.bprintf b "ecc %d %d %d [%s] [%s]\n" e.Sim.detected e.Sim.corrected
       e.Sim.scrub_cycles (ints e.Sim.scrub_reads) (ints e.Sim.written));
  Printf.bprintf b "mem %s\n" (ints mem);
  Buffer.contents b

let programs =
  lazy
    (List.concat_map
       (fun slug ->
         List.map
           (fun config -> ((slug, config), map_kernel slug config FC.context_aware))
           [ Config.HOM64; Config.HET2 ])
       kat_kernels)

(* Each cell runs twice: with the defaults, and with two memory ports and
   a scrub every 64 cycles, so port stalls and scrub passes show too. *)
let actual_runs () =
  List.concat_map
    (fun ((slug, config), (k, p)) ->
      List.map
        (fun (level, profile) ->
          let run ?mem_ports ?scrub_interval () =
            let mem = K.fresh_mem k in
            let protect = Option.map (protect ?scrub_interval) profile in
            render (Sim.run ?mem_ports ?protect p ~mem) mem
          in
          let runs = run () ^ run ~mem_ports:2 ~scrub_interval:64 () in
          ((slug, Config.to_string config, level), md5 runs))
        kat_levels)
    (Lazy.force programs)

let actual_campaigns () =
  List.concat_map
    (fun slug ->
      let k, p = List.assoc (slug, Config.HET2) (Lazy.force programs) in
      List.map
        (fun (level, protect) ->
          let c =
            F.run_campaign ~jobs:1 ?protect ~seed:13 ~trials:40
              ~key:(slug ^ "/kat/" ^ level)
              ~fresh_mem:(fun () -> K.fresh_mem k)
              p
          in
          let lines =
            List.map
              (fun (t : F.trial) ->
                F.injection_to_string t.F.injection ^ " -> " ^ F.outcome_to_string t.F.outcome
                ^ "\n")
              c.F.runs
          in
          ((slug, level), md5 (String.concat "" lines)))
        kat_levels)
    kat_kernels

let expected_runs : ((string * string * string) * string) list =
  [
    (("fir", "HOM64", "none"), "5bc4ed83f6d198e3af5f13ca3e62b97f");
    (("fir", "HOM64", "parity"), "707ce127f82f44afb2d04d89ee6f58b3");
    (("fir", "HOM64", "secded"), "707ce127f82f44afb2d04d89ee6f58b3");
    (("fir", "HET2", "none"), "28395751eeb352752ca4cead7481bcac");
    (("fir", "HET2", "parity"), "242def25454e8c8dbdede1c7df5eeb3d");
    (("fir", "HET2", "secded"), "242def25454e8c8dbdede1c7df5eeb3d");
    (("convolution", "HOM64", "none"), "1ec6e79eaa13b58cceb7a0bfe6e3b490");
    (("convolution", "HOM64", "parity"), "5d9e07e3c986a8b06274f68a8a2ecfa8");
    (("convolution", "HOM64", "secded"), "5d9e07e3c986a8b06274f68a8a2ecfa8");
    (("convolution", "HET2", "none"), "7491f204bbed1ac57f193d14cb3bab10");
    (("convolution", "HET2", "parity"), "cd43b40e15d0656f6610b088f5623455");
    (("convolution", "HET2", "secded"), "cd43b40e15d0656f6610b088f5623455");
    (("sep_filter", "HOM64", "none"), "e40aebccab3c962a1b5f88a9afcdb23e");
    (("sep_filter", "HOM64", "parity"), "746b22f994f5ee5a1f354b89412f079d");
    (("sep_filter", "HOM64", "secded"), "746b22f994f5ee5a1f354b89412f079d");
    (("sep_filter", "HET2", "none"), "e40aebccab3c962a1b5f88a9afcdb23e");
    (("sep_filter", "HET2", "parity"), "746b22f994f5ee5a1f354b89412f079d");
    (("sep_filter", "HET2", "secded"), "746b22f994f5ee5a1f354b89412f079d");
    (("fft", "HOM64", "none"), "b19ec741c49a2bcb7e11bb1c300bd721");
    (("fft", "HOM64", "parity"), "610f3f9bfc7ca031a35162d76f554809");
    (("fft", "HOM64", "secded"), "610f3f9bfc7ca031a35162d76f554809");
    (("fft", "HET2", "none"), "b19ec741c49a2bcb7e11bb1c300bd721");
    (("fft", "HET2", "parity"), "610f3f9bfc7ca031a35162d76f554809");
    (("fft", "HET2", "secded"), "610f3f9bfc7ca031a35162d76f554809");
    (("dc_filter", "HOM64", "none"), "9a0eaff83bba792685304d0afa84bd65");
    (("dc_filter", "HOM64", "parity"), "684c2c7bc10820bb80830c29c6d768a7");
    (("dc_filter", "HOM64", "secded"), "684c2c7bc10820bb80830c29c6d768a7");
    (("dc_filter", "HET2", "none"), "e95cd67cfea52ddcacf2551ba69ada0d");
    (("dc_filter", "HET2", "parity"), "429c0a37a9708695f9d73d6637e982ce");
    (("dc_filter", "HET2", "secded"), "429c0a37a9708695f9d73d6637e982ce");
  ]

let expected_campaigns : ((string * string) * string) list =
  [
    (("fir", "none"), "1de546b8bb624c5dbaf2345bb7e91341");
    (("fir", "parity"), "e5e34e3290965811c1abc9f31f22a35e");
    (("fir", "secded"), "eb2fa0202790a95ec1b25e97bdc1ed0c");
    (("convolution", "none"), "4ef6787bbb2308d5a29d760bb8671ebc");
    (("convolution", "parity"), "c610cfbc1b7c4f7bce1c74bd7c706254");
    (("convolution", "secded"), "a36042cb95da5c3556d2170274eb0951");
    (("sep_filter", "none"), "45f45df62a2ecefae6df31186c5e0eb3");
    (("sep_filter", "parity"), "143bba66659adf58dae0f49f3390876d");
    (("sep_filter", "secded"), "323ab9e94e753b4e75cb150fca6cb7f7");
    (("fft", "none"), "57a79862f32ca16397cd2fa5fa61d664");
    (("fft", "parity"), "119c63dee1aaf84a4035e08fc63a337c");
    (("fft", "secded"), "c57c51d35c63c257cf5f15e92e65f7d0");
    (("dc_filter", "none"), "4907910e54bf13e18294adad5984c605");
    (("dc_filter", "parity"), "5dd80857015c5172178917c8d1d12d49");
    (("dc_filter", "secded"), "b3dc728e23677d9fae80fb0948023695");
  ]

let check_table name show expected actual =
  if expected <> actual then
    Alcotest.failf "%s differ from the recorded table; actual:\n[\n%s]" name
      (String.concat "" (List.map (fun e -> "  " ^ show e ^ ";\n") actual))

let test_run_digests () =
  check_table "simulator results"
    (fun ((s, c, l), d) -> Printf.sprintf "((%S, %S, %S), %S)" s c l d)
    expected_runs (actual_runs ())

let test_campaign_digests () =
  check_table "campaign trial lists"
    (fun ((s, l), d) -> Printf.sprintf "((%S, %S), %S)" s l d)
    expected_campaigns (actual_campaigns ())

let suite =
  [ ( "sim",
      [ Alcotest.test_case "Missing_condition" `Quick test_missing_condition;
        Alcotest.test_case "Unexecuted_instructions" `Quick test_unexecuted_instructions;
        Alcotest.test_case "Bad_arity" `Quick test_bad_arity;
        Alcotest.test_case "sources before arity, left to right" `Quick
          test_sources_before_arity;
        Alcotest.test_case "Store_with_dst" `Quick test_store_with_dst;
        Alcotest.test_case "Cond_without_result" `Quick test_cond_without_result;
        Alcotest.test_case "Mem_out_of_bounds" `Quick test_mem_out_of_bounds;
        Alcotest.test_case "Runaway" `Quick test_runaway;
        Alcotest.test_case "Crf_out_of_range" `Quick test_crf_out_of_range;
        Alcotest.test_case "Rf_out_of_range" `Quick test_rf_out_of_range;
        Alcotest.test_case "Bad_tile" `Quick test_bad_tile;
        Alcotest.test_case "Undecodable_cm (protected)" `Quick test_undecodable_cm;
        Alcotest.test_case "mem_ports below 1 rejected" `Quick test_mem_ports_range;
        Alcotest.test_case "an unfetched undecodable word is harmless" `Quick
          test_unfetched_undecodable;
        Alcotest.test_case "a fetched undecodable word crashes" `Quick
          test_fetched_undecodable;
        Alcotest.test_case "upsets are range-checked" `Quick test_upset_ranges;
        Alcotest.test_case "known answers: results" `Quick test_run_digests;
        Alcotest.test_case "known answers: campaigns" `Quick test_campaign_digests ] ) ]
