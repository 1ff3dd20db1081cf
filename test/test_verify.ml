(* Tests for the cgra_verify layer: the independent mapping validator
   (clean artifacts pass; seeded corruptions are caught with the right
   violation class), the deterministic fault-injection engine (campaigns
   are byte-identical at any jobs value), and the graceful-degradation
   ladder in Flow. *)

module Flow = Cgra_core.Flow
module FC = Cgra_core.Flow_config
module M = Cgra_core.Mapping
module Asm = Cgra_asm.Assemble
module Sim = Cgra_sim.Simulator
module Config = Cgra_arch.Config
module Cgra = Cgra_arch.Cgra
module Isa = Cgra_arch.Isa
module V = Cgra_verify.Validator
module F = Cgra_verify.Fault
module K = Cgra_kernels.Kernel_def

let map_kernel slug config flow =
  let k = Option.get (Cgra_kernels.Kernels.by_slug slug) in
  let cdfg = K.cdfg k in
  match Flow.run ~config:flow (Config.cgra config) cdfg with
  | Ok (m, _) -> (k, m)
  | Error f -> Alcotest.fail (slug ^ ": " ^ f.Flow.reason)

(* One cheap base point and one context-aware one, mapped once. *)
let base_basic = lazy (map_kernel "fir" Config.HOM64 FC.basic)
let base_aware = lazy (map_kernel "fir" Config.HET2 FC.context_aware)

let violations_str vs = String.concat "; " (List.map V.to_string vs)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- clean artifacts pass --------------------------------------------- *)

let test_clean_artifacts () =
  List.iter
    (fun (slug, config, flow) ->
      let _, m = map_kernel slug config flow in
      let vs = V.check (Asm.assemble m) in
      Alcotest.(check string)
        (slug ^ " artifact is clean")
        "" (violations_str vs))
    [ ("fir", Config.HOM64, FC.basic);
      ("matm", Config.HOM64, FC.basic);
      ("fft", Config.HET2, FC.context_aware);
      ("dc_filter", Config.HET1, FC.context_aware) ]

(* ---- seeded corruptions are caught ------------------------------------ *)

(* A tile at torus distance >= 2 from [t] — always exists on the 4x4. *)
let far_tile cgra t =
  let nt = Cgra.tile_count cgra in
  let rec go i =
    if i >= nt then Alcotest.fail "no far tile on this fabric"
    else if Cgra.distance cgra t i >= 2 then i
    else go (i + 1)
  in
  go 0

let mutate_slot m bi j f =
  let bbs = Array.copy m.M.bbs in
  let b = bbs.(bi) in
  bbs.(bi) <-
    { b with M.slots = List.mapi (fun i s -> if i = j then f s else s) b.M.slots };
  { m with M.bbs = bbs }

(* All (block, slot-index, slot) triples of a mapping. *)
let all_slots m =
  Array.to_list m.M.bbs
  |> List.concat_map (fun b ->
         List.mapi (fun j s -> (b.M.bb, j, s)) b.M.slots)

let has_violation pred vs = List.exists pred vs

let test_catches_cm_overflow () =
  let _, m = Lazy.force base_basic in
  let starved = Cgra.make ~cm_of_tile:(fun _ -> 2) () in
  let vs = V.check_mapping { m with M.cgra = starved } in
  Alcotest.(check bool) "CM overflow detected" true
    (has_violation (function V.Cm_overflow _ -> true | _ -> false) vs)

(* Redirect a read to a tile two hops away: either a move's source or an
   operation's operand mux.  Immediate operands come from the CRF, not a
   neighbour RF, so only Node/Sym operand positions are redirected. *)
let non_neighbour_mutants m =
  List.filter_map
    (fun (bi, j, s) ->
      let far = far_tile m.M.cgra s.M.tile in
      match s.M.action with
      | M.Amove { value; from_tile = _ } ->
        Some (mutate_slot m bi j (fun s ->
            { s with M.action = M.Amove { value; from_tile = far } }))
      | M.Aop { node; operand_tiles } ->
        let operands =
          m.M.cdfg.Cgra_ir.Cdfg.blocks.(bi).Cgra_ir.Cdfg.nodes.(node)
            .Cgra_ir.Cdfg.operands
        in
        if List.length operands <> List.length operand_tiles then None
        else if
          not
            (List.exists
               (function Cgra_ir.Cdfg.Imm _ -> false | _ -> true)
               operands)
        then None
        else
          let mutated = ref false in
          let operand_tiles =
            List.map2
              (fun operand t ->
                match operand with
                | Cgra_ir.Cdfg.Imm _ -> t
                | _ ->
                  if !mutated then t
                  else begin
                    mutated := true;
                    far
                  end)
              operands operand_tiles
          in
          Some (mutate_slot m bi j (fun s ->
              { s with M.action = M.Aop { node; operand_tiles } }))
      | M.Acopy _ -> None)
    (all_slots m)

let test_catches_non_neighbour () =
  let _, m = Lazy.force base_aware in
  let mutants = non_neighbour_mutants m in
  Alcotest.(check bool) "mapping has redirectable reads" true (mutants <> []);
  List.iter
    (fun m' ->
      Alcotest.(check bool) "non-neighbour read detected" true
        (has_violation
           (function V.Non_neighbour_read _ -> true | _ -> false)
           (V.check_mapping m')))
    mutants

(* Hoist a consumer to cycle 0 so its operand is no longer defined
   strictly earlier.  Not every slot reads a block-local value, so the
   test asserts that at least one hoist is caught — and that no hoist
   crashes the validator. *)
let test_catches_operand_not_ready () =
  let _, m = Lazy.force base_aware in
  let caught =
    List.exists
      (fun (bi, j, s) ->
        s.M.cycle > 0
        && has_violation
             (function V.Operand_not_ready _ -> true | _ -> false)
             (V.check_mapping
                (mutate_slot m bi j (fun s -> { s with M.cycle = 0 }))))
      (all_slots m)
  in
  Alcotest.(check bool) "some hoisted slot reads a late operand" true caught

(* Point a constant operand one slot past the tile's pool. *)
let bad_crf_mutants (p : Asm.program) =
  let mutate_tile t bi idx instr' =
    let tiles = Array.copy p.Asm.tiles in
    let tp = tiles.(t) in
    let sections = Array.copy tp.Asm.sections in
    sections.(bi) <-
      List.mapi (fun i ins -> if i = idx then instr' else ins) sections.(bi);
    tiles.(t) <- { tp with Asm.sections };
    { p with Asm.tiles }
  in
  let mutants = ref [] in
  Array.iteri
    (fun t tp ->
      let pool = Array.length tp.Asm.crf in
      Array.iteri
        (fun bi sec ->
          List.iteri
            (fun idx ins ->
              match ins with
              | Isa.Iop { opcode; srcs; dst; set_cond }
                when List.exists (function Isa.Crf _ -> true | _ -> false) srcs
                ->
                let srcs =
                  List.map
                    (function Isa.Crf _ -> Isa.Crf pool | s -> s)
                    srcs
                in
                mutants :=
                  mutate_tile t bi idx (Isa.Iop { opcode; srcs; dst; set_cond })
                  :: !mutants
              | Isa.Icopy { src = Isa.Crf _; dst; set_cond } ->
                mutants :=
                  mutate_tile t bi idx
                    (Isa.Icopy { src = Isa.Crf pool; dst; set_cond })
                  :: !mutants
              | _ -> ())
            sec)
        tp.Asm.sections)
    p.Asm.tiles;
  !mutants

let test_catches_bad_crf_index () =
  let _, m = Lazy.force base_aware in
  let p = Asm.assemble m in
  let mutants = bad_crf_mutants p in
  Alcotest.(check bool) "program has constant reads" true (mutants <> []);
  List.iter
    (fun p' ->
      Alcotest.(check bool) "bad CRF index detected" true
        (has_violation
           (function V.Bad_crf_index _ -> true | _ -> false)
           (V.check_program p')))
    mutants

let test_catches_bad_home () =
  let _, m = Lazy.force base_basic in
  if Array.length m.M.homes = 0 then Alcotest.fail "fir has symbol variables";
  let vs =
    V.check_mapping { m with M.homes = Array.map (fun _ -> 99) m.M.homes }
  in
  Alcotest.(check bool) "bad home detected" true
    (has_violation (function V.Bad_home _ -> true | _ -> false) vs)

(* qcheck: every member of the mutation families above is caught, whatever
   random site the generator picks. *)
let prop_random_corruption_caught =
  let open QCheck in
  Test.make ~name:"validator catches random seeded corruptions" ~count:60
    (pair (int_bound 3) (int_bound 10_000))
    (fun (cls, site) ->
      let _, m = Lazy.force base_aware in
      let pick xs = List.nth xs (site mod List.length xs) in
      match cls with
      | 0 ->
        let starved = Cgra.make ~cm_of_tile:(fun _ -> 1 + (site mod 3)) () in
        V.check_mapping { m with M.cgra = starved }
        |> has_violation (function V.Cm_overflow _ -> true | _ -> false)
      | 1 ->
        V.check_mapping (pick (non_neighbour_mutants m))
        |> has_violation (function V.Non_neighbour_read _ -> true | _ -> false)
      | 2 ->
        V.check_program (pick (bad_crf_mutants (Asm.assemble m)))
        |> has_violation (function V.Bad_crf_index _ -> true | _ -> false)
      | _ ->
        let homes = Array.map (fun _ -> 16 + (site mod 100)) m.M.homes in
        V.check_mapping { m with M.homes }
        |> has_violation (function V.Bad_home _ -> true | _ -> false))

(* ---- typed simulator errors ------------------------------------------- *)

(* Corrupt one real instruction into a two-hop read and check the
   simulator refuses with the matching typed error (the classification
   the fault engine's "crash" bucket depends on). *)
let test_sim_non_neighbour_typed () =
  let k, m = Lazy.force base_aware in
  let p = Asm.assemble m in
  let mutated =
    let found = ref None in
    Array.iteri
      (fun t tp ->
        Array.iteri
          (fun bi sec ->
            List.iteri
              (fun idx ins ->
                if !found = None then
                  match ins with
                  | Isa.Imov { from_tile = _; from_slot; dst } ->
                    found :=
                      Some
                        (t, bi, idx,
                         Isa.Imov
                           { from_tile = far_tile m.M.cgra t; from_slot; dst })
                  | Isa.Iop { opcode; srcs; dst; set_cond }
                    when List.exists
                           (function Isa.Nbr _ -> true | _ -> false)
                           srcs ->
                    let srcs =
                      List.map
                        (function
                          | Isa.Nbr (_, r) -> Isa.Nbr (far_tile m.M.cgra t, r)
                          | s -> s)
                        srcs
                    in
                    found := Some (t, bi, idx, Isa.Iop { opcode; srcs; dst; set_cond })
                  | _ -> ())
              sec)
          tp.Asm.sections)
      p.Asm.tiles;
    match !found with
    | None -> Alcotest.fail "aware mapping has no neighbour reads"
    | Some (t, bi, idx, instr') ->
      let tiles = Array.copy p.Asm.tiles in
      let tp = tiles.(t) in
      let sections = Array.copy tp.Asm.sections in
      sections.(bi) <-
        List.mapi (fun i ins -> if i = idx then instr' else ins) sections.(bi);
      tiles.(t) <- { tp with Asm.sections };
      { p with Asm.tiles }
  in
  match Sim.run mutated ~mem:(K.fresh_mem k) with
  | _ -> Alcotest.fail "two-hop read must raise"
  | exception Sim.Sim_error (Sim.Non_neighbour_read _) -> ()

let test_sim_error_rendering () =
  let e = Sim.Write_conflict { tile = 3; reg = 7; block = 1; cycle = 12 } in
  let s = Sim.error_to_string e in
  Alcotest.(check bool) "mentions the tile" true (contains_sub ~sub:"3" s);
  let printed = Printexc.to_string (Sim.Sim_error e) in
  Alcotest.(check bool) "registered printer used" true
    (contains_sub ~sub:"Sim_error" printed)

let test_sim_late_rf_upset_masked () =
  (* A register upset after the last cycle can never change anything. *)
  let k, m = Lazy.force base_basic in
  let p = Asm.assemble m in
  let mem = K.fresh_mem k in
  let r = Sim.run p ~mem in
  let mem2 = K.fresh_mem k in
  let _ =
    Sim.run p ~mem:mem2
      ~upsets:[ Sim.Rf_bit { cycle = r.Sim.cycles + 100; tile = 0; reg = 0; bit = 0 } ]
  in
  Alcotest.(check bool) "late fault is masked" true (mem = mem2)

(* ---- fault campaigns --------------------------------------------------- *)

let campaign ?(trials = 24) ~jobs ~seed () =
  let k, m = Lazy.force base_aware in
  let p = Asm.assemble m in
  F.run_campaign ~jobs ~seed ~trials ~key:"test/fir/aware"
    ~fresh_mem:(fun () -> K.fresh_mem k)
    p

let test_campaign_deterministic_across_jobs () =
  let c1 = campaign ~jobs:1 ~seed:5 () in
  let c2 = campaign ~jobs:2 ~seed:5 () in
  let c8 = campaign ~jobs:8 ~seed:5 () in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (c1 = c2);
  Alcotest.(check bool) "jobs 1 = jobs 8" true (c1 = c8);
  let c1' = campaign ~jobs:1 ~seed:5 () in
  Alcotest.(check bool) "rerun identical" true (c1 = c1')

let test_campaign_counts_consistent () =
  let c = campaign ~jobs:2 ~seed:9 () in
  let s = c.F.summary in
  Alcotest.(check int) "trial count" s.F.trials (List.length c.F.runs);
  Alcotest.(check int) "classes sum to trials" s.F.trials
    (s.F.masked + s.F.wrong_output + s.F.crash + s.F.hang);
  List.iteri
    (fun i (t : F.trial) -> Alcotest.(check int) "index order" i t.F.index)
    c.F.runs;
  let c' = campaign ~jobs:2 ~seed:10 () in
  Alcotest.(check bool) "different seed, different campaign" true (c <> c')

(* ---- permanent faults: detect -> diagnose -> remap -------------------- *)

module R = Cgra_verify.Repair
module Op = Cgra_ir.Opcode

(* Remaps must be capacity-aware or a stuck-row fault is unrepairable:
   use the context-aware flow, as [repair_report] does. *)
let repair_config = { FC.context_aware with FC.degrade = true }

let run_repair ~injected (k, m) =
  R.repair ~config:repair_config ~injected
    ~fresh_mem:(fun () -> K.fresh_mem k)
    ~golden:(K.run_golden k) m

(* Context words the pristine mapping puts on [tile], read off the
   validator itself: killing the tile makes it report the exact count. *)
let words_on m tile =
  let truth = Cgra.degrade m.M.cgra [ Cgra.Dead_tile { tile } ] in
  List.find_map
    (function
      | V.Cm_overflow { tile = t; words; _ } when t = tile -> Some words
      | _ -> None)
    (R.detect ~truth m)

let busiest_tile m =
  let nt = Cgra.tile_count m.M.cgra in
  let best = ref (-1) and bw = ref 0 in
  for t = 0 to nt - 1 do
    match words_on m t with
    | Some w when w > !bw ->
      best := t;
      bw := w
    | _ -> ()
  done;
  if !best < 0 then Alcotest.fail "mapping uses no tile" else (!best, !bw)

let assert_repaired name m (tr : R.trace) =
  match tr.R.status with
  | R.Repaired { mapping; _ } ->
    let truth = Cgra.degrade m.M.cgra tr.R.injected in
    Alcotest.(check string) (name ^ ": repaired mapping clean") ""
      (violations_str (R.detect ~truth mapping))
  | R.Unaffected -> Alcotest.fail (name ^ ": expected a repair, got unaffected")
  | R.Gave_up { reason; _ } -> Alcotest.fail (name ^ ": gave up: " ^ reason)

let test_repair_dead_tile () =
  let (_, m) as base = Lazy.force base_aware in
  let tile, _ = busiest_tile m in
  let tr = run_repair ~injected:[ Cgra.Dead_tile { tile } ] base in
  Alcotest.(check bool) "violations detected" true (tr.R.detected <> []);
  Alcotest.(check bool) "dead tile diagnosed" true
    (List.mem (Cgra.Dead_tile { tile }) tr.R.diagnosed);
  assert_repaired "dead tile" m tr

let test_repair_cm_rows_stuck () =
  let (_, m) as base = Lazy.force base_aware in
  let tile, words = busiest_tile m in
  Alcotest.(check bool) "busiest tile holds >= 2 words" true (words >= 2);
  (* Leave one word fewer than the mapping needs: a partial-capacity
     overflow, which must diagnose to the exact stuck-row count. *)
  let rows = Cgra.base_cm m.M.cgra tile - words + 1 in
  let tr = run_repair ~injected:[ Cgra.Cm_rows_stuck { tile; rows } ] base in
  Alcotest.(check bool) "exact rows diagnosed" true
    (List.mem (Cgra.Cm_rows_stuck { tile; rows }) tr.R.diagnosed);
  assert_repaired "stuck rows" m tr

(* A slot reading a value from an adjacent tile's RF, as (reader, source). *)
let neighbour_read m =
  List.find_map
    (fun (_, _, s) ->
      let reads =
        match s.M.action with
        | M.Amove { from_tile; _ } -> [ from_tile ]
        | M.Aop { operand_tiles; _ } -> operand_tiles
        | _ -> []
      in
      List.find_map
        (fun src ->
          if src <> s.M.tile && Cgra.distance m.M.cgra s.M.tile src = 1 then
            Some (s.M.tile, src)
          else None)
        reads)
    (all_slots m)

let test_repair_dead_link () =
  let (_, m) as base = Lazy.force base_aware in
  match neighbour_read m with
  | None -> Alcotest.fail "mapping has no neighbour read to sever"
  | Some (reader, src) ->
    let dir = Option.get (Cgra.dir_between m.M.cgra reader src) in
    let tr = run_repair ~injected:[ Cgra.Dead_link { tile = reader; dir } ] base in
    Alcotest.(check bool) "non-neighbour read detected" true
      (has_violation
         (function V.Non_neighbour_read _ -> true | _ -> false)
         tr.R.detected);
    Alcotest.(check bool) "severed link diagnosed" true
      (List.mem (Cgra.Dead_link { tile = reader; dir }) tr.R.diagnosed);
    assert_repaired "dead link" m tr

(* A tile on which the mapping executes a load or store. *)
let lsu_tile m =
  List.find_map
    (fun (bi, _, s) ->
      match s.M.action with
      | M.Aop { node; _ } ->
        let op =
          m.M.cdfg.Cgra_ir.Cdfg.blocks.(bi).Cgra_ir.Cdfg.nodes.(node)
            .Cgra_ir.Cdfg.opcode
        in
        if Op.needs_lsu op then Some s.M.tile else None
      | _ -> None)
    (all_slots m)

let test_repair_no_lsu () =
  let (_, m) as base = Lazy.force base_aware in
  match lsu_tile m with
  | None -> Alcotest.fail "mapping executes no load/store"
  | Some tile ->
    let tr = run_repair ~injected:[ Cgra.No_lsu { tile } ] base in
    Alcotest.(check bool) "LSU violation detected" true
      (has_violation
         (function V.Lsu_required _ -> true | _ -> false)
         tr.R.detected);
    Alcotest.(check bool) "missing LSU diagnosed" true
      (List.mem (Cgra.No_lsu { tile }) tr.R.diagnosed);
    assert_repaired "no lsu" m tr

let test_repair_unaffected () =
  let (_, m) as base = Lazy.force base_aware in
  (* One stuck context row on a tile with at least one word of slack is
     invisible to every invariant: nothing to repair. *)
  let nt = Cgra.tile_count m.M.cgra in
  let rec slack t =
    if t >= nt then Alcotest.fail "every tile is packed to capacity"
    else
      let words = Option.value ~default:0 (words_on m t) in
      if words + 1 <= Cgra.base_cm m.M.cgra t then t else slack (t + 1)
  in
  let tile = slack 0 in
  let tr = run_repair ~injected:[ Cgra.Cm_rows_stuck { tile; rows = 1 } ] base in
  Alcotest.(check bool) "unaffected" true (tr.R.status = R.Unaffected);
  Alcotest.(check bool) "trace renders" true
    (contains_sub ~sub:"unaffected" (R.trace_to_string tr))

(* ---- the remap re-searches only the dirty blocks --------------------- *)

(* The single-fault maps the round-trip tests above repair, rebuilt from
   the pristine mapping. *)
let partial_faults m =
  let dead = [ Cgra.Dead_tile { tile = fst (busiest_tile m) } ] in
  let lsu =
    match lsu_tile m with
    | Some tile -> [ [ Cgra.No_lsu { tile } ] ]
    | None -> []
  in
  let link =
    match neighbour_read m with
    | None -> []
    | Some (reader, src) ->
      let dir = Option.get (Cgra.dir_between m.M.cgra reader src) in
      [ [ Cgra.Dead_link { tile = reader; dir } ] ]
  in
  (dead :: lsu) @ link

let test_repair_partial_reuses_clean_blocks () =
  let (_, m) as base = Lazy.force base_aware in
  let partials = ref 0 in
  List.iter
    (fun injected ->
      let tr = run_repair ~injected base in
      (* [Repaired] means the remapped program reproduced the golden
         memory image, and [assert_repaired] re-checks the invariants on
         the true array *)
      assert_repaired "partial" m tr;
      match tr.R.status with
      | R.Repaired { mapping; remap = R.Partial { dirty; total }; _ } ->
        incr partials;
        Alcotest.(check bool) "partial re-searched a strict subset" true
          (dirty < total);
        let dirty_flags, kept = R.dirty_blocks m tr.R.diagnosed in
        (* surviving blocks are reused verbatim... *)
        Array.iteri
          (fun bi d ->
            if not d then
              Alcotest.(check bool)
                (Printf.sprintf "block %d reused verbatim" bi)
                true
                (mapping.M.bbs.(bi) = m.M.bbs.(bi)))
          dirty_flags;
        (* ...and every kept home survives into the repaired mapping *)
        Array.iteri
          (fun s h ->
            if h >= 0 then
              Alcotest.(check int)
                (Printf.sprintf "home of symbol %d preserved" s)
                h mapping.M.homes.(s))
          kept
      | _ -> ())
    (partial_faults m);
  Alcotest.(check bool) "at least one repair was partial" true (!partials > 0)

(* Every bundled kernel ends in an empty return block, which no fault
   dirties; in this one every block reads or writes [s] or [i], so
   killing both symbols' home tiles dirties them all and the remap must
   search the whole kernel. *)
let test_repair_all_dirty_full_remap () =
  let cdfg =
    Cgra_lang.Compile.compile_exn
      "kernel acc { arr x @ 0; arr y @ 8; var i, s; s = 0; i = 0; \
       while (i < 4) { s = s + x[i]; i = i + 1; } y[0] = s; }"
  in
  let fresh_mem () = Array.init 16 (fun a -> if a < 8 then a + 3 else 0) in
  let golden = fresh_mem () in
  ignore (Cgra_ir.Interp.run cdfg ~mem:golden);
  let m =
    match Flow.run ~config:FC.context_aware (Config.cgra Config.HET2) cdfg with
    | Ok (m, _) -> m
    | Error f -> Alcotest.fail f.Flow.reason
  in
  let injected =
    List.sort_uniq compare (Array.to_list m.M.homes)
    |> List.map (fun tile -> Cgra.Dead_tile { tile })
  in
  let tr = R.repair ~config:repair_config ~injected ~fresh_mem ~golden m in
  Alcotest.(check bool) "every block dirty" true
    (Array.for_all Fun.id (fst (R.dirty_blocks m tr.R.diagnosed)));
  assert_repaired "all dirty" m tr;
  match tr.R.status with
  | R.Repaired { remap; _ } ->
    Alcotest.(check bool) "full remap" true (remap = R.Full_remap)
  | _ -> ()

(* Soundness of the dirty-set rule, with the touched-tile computation
   re-derived here rather than through [Fault.tiles]: no surviving block
   may execute on, read from, or keep a symbol home on a faulted tile. *)
let prop_dirty_set_sound =
  let open QCheck in
  Test.make ~name:"repair: dirty-block set is sound" ~count:60
    (pair (int_bound 100_000) (int_range 1 3))
    (fun (seed, nfaults) ->
      let _, m = Lazy.force base_aware in
      let cgra = m.M.cgra in
      let rng = Cgra_util.Rng.create seed in
      let faults = F.sample_fault_map rng cgra ~faults:nfaults in
      let dirty, kept = R.dirty_blocks m faults in
      let bad =
        List.concat_map
          (function
            | Cgra.Dead_tile { tile }
            | Cgra.Cm_rows_stuck { tile; _ }
            | Cgra.No_lsu { tile } -> [ tile ]
            | Cgra.Dead_link { tile; dir } ->
              [ tile; Cgra.dir_neighbor cgra tile dir ])
          faults
      in
      let is_bad t = List.mem t bad in
      let home_bad s = is_bad m.M.homes.(s) in
      let slot_clean (s : M.slot) =
        (not (is_bad s.M.tile))
        && (match s.M.writes_sym with
           | Some sym -> not (home_bad sym)
           | None -> true)
        && (match s.M.action with
           | M.Aop { operand_tiles; _ } ->
             List.for_all (fun t -> not (is_bad t)) operand_tiles
           | M.Amove { from_tile; value } ->
             (not (is_bad from_tile))
             && (match value with
                | M.Vsym sym -> not (home_bad sym)
                | _ -> true)
           | M.Acopy (M.Vsym sym) -> not (home_bad sym)
           | M.Acopy _ -> true)
      in
      let survivors_clean =
        Array.for_all
          (fun (b : M.bb_mapping) ->
            dirty.(b.M.bb) || List.for_all slot_clean b.M.slots)
          m.M.bbs
      in
      let kept_consistent =
        Array.for_all Fun.id
          (Array.mapi
             (fun s h ->
               if h < 0 then true else h = m.M.homes.(s) && not (is_bad h))
             kept)
      in
      survivors_clean && kept_consistent)

let repair_campaign ~jobs ~seed () =
  let k, m = Lazy.force base_aware in
  R.run_campaign ~jobs ~seed ~trials:5 ~faults:1 ~key:"test/fir/repair"
    ~config:repair_config
    ~fresh_mem:(fun () -> K.fresh_mem k)
    m

let test_repair_campaign_deterministic () =
  let c1 = repair_campaign ~jobs:1 ~seed:7 () in
  let c2 = repair_campaign ~jobs:2 ~seed:7 () in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (c1 = c2);
  let s = c1.R.summary in
  Alcotest.(check int) "classes sum to trials" s.R.trials
    (s.R.unaffected + s.R.repaired + s.R.gave_up);
  Alcotest.(check bool) "partial repairs are a subset of repairs" true
    (s.R.partial_repairs <= s.R.repaired);
  List.iteri
    (fun i (t : R.trial) -> Alcotest.(check int) "index order" i t.R.index)
    c1.R.runs;
  Alcotest.(check bool) "pristine baseline recorded" true (c1.R.pristine_cycles > 0)

(* ---- the pipeline validates every program ----------------------------- *)

module Toolchain = Cgra_exp.Toolchain

let test_toolchain_validates_clean_run () =
  let k = Option.get (Cgra_kernels.Kernels.by_slug "fir") in
  match Toolchain.run_kernel ~config:FC.basic (Config.cgra Config.HOM64) k with
  | Error e -> Alcotest.fail (Toolchain.error_to_string e)
  | Ok (m, _) ->
    Alcotest.(check string) "the program it hands out is clean" ""
      (violations_str (V.check m.Toolchain.program));
    Alcotest.(check bool) "and passes its own validate stage" true
      (Toolchain.validate m.Toolchain.program = Ok ())

(* The mutation families above, fed to the pipeline's validate stage:
   each must come back as the typed [Invalid] error carrying the
   matching violation, never as another stage's error. *)
let test_toolchain_rejects_corrupted_program () =
  let _, m = Lazy.force base_aware in
  let rejected what pred p =
    match Toolchain.validate p with
    | Error (Toolchain.Invalid vs) ->
      Alcotest.(check bool) (what ^ " named") true (has_violation pred vs)
    | Error e -> Alcotest.fail ("wrong stage: " ^ Toolchain.error_to_string e)
    | Ok () -> Alcotest.fail (what ^ ": corrupted program accepted")
  in
  let p = Asm.assemble m in
  let mutants = bad_crf_mutants p in
  Alcotest.(check bool) "program has constant reads" true (mutants <> []);
  List.iter
    (rejected "bad CRF index" (function V.Bad_crf_index _ -> true | _ -> false))
    mutants;
  rejected "CM overflow"
    (function V.Cm_overflow _ -> true | _ -> false)
    { p with Asm.mapping = { m with M.cgra = Cgra.make ~cm_of_tile:(fun _ -> 2) () } }

let test_degrade_noop_on_mappable () =
  let k = Option.get (Cgra_kernels.Kernels.by_slug "fir") in
  let config = { FC.basic with FC.degrade = true } in
  match Flow.run ~config (Config.cgra Config.HOM64) (K.cdfg k) with
  | Ok (_, stats) ->
    Alcotest.(check int) "no escalations needed" 0
      (List.length stats.Flow.escalations)
  | Error f -> Alcotest.fail f.Flow.reason

let test_degrade_gave_up_trace () =
  let k = Option.get (Cgra_kernels.Kernels.by_slug "fir") in
  (* Two context words per tile cannot hold any kernel: every attempt of
     the ladder must fail, leaving one typed escalation per attempt. *)
  let starved = Cgra.make ~cm_of_tile:(fun _ -> 2) () in
  let config = { FC.basic with FC.degrade = true; FC.max_attempts = 3 } in
  match Flow.run ~config starved (K.cdfg k) with
  | Ok _ -> Alcotest.fail "2-word tiles must be unmappable"
  | Error f ->
    Alcotest.(check int) "one escalation per attempt" 3 (List.length f.Flow.gave_up);
    List.iteri
      (fun i e -> Alcotest.(check int) "attempt numbering" i e.Flow.e_attempt)
      f.Flow.gave_up;
    (match f.Flow.gave_up with
     | [ e0; e1; e2 ] ->
       Alcotest.(check bool) "attempt 0 is the base config" true
         (e0.Flow.e_config = config);
       Alcotest.(check int) "attempt 1 widens the beam"
         (min 128 (2 * config.FC.beam_width))
         e1.Flow.e_config.FC.beam_width;
       Alcotest.(check bool) "fresh seeds per attempt" true
         (e1.Flow.e_config.FC.seed <> e2.Flow.e_config.FC.seed)
     | _ -> Alcotest.fail "expected 3 escalations");
    (* The rendered ladder, byte for byte: each line reads its seed and
       search knobs from the rung's config. *)
    let overflow =
      "context memory overflow: T00 10/2, T01 7/2, T02 6/2, T03 5/2, \
       T04 4/2, T05 4/2, T06 4/2, T07 4/2"
    in
    Alcotest.(check (list string)) "escalation text"
      [ "attempt 0: seed=42 beam=24 expand=4 keep_prob=0.250 slack=0.150 -> "
        ^ overflow;
        "attempt 1: seed=841703495 beam=48 expand=5 keep_prob=0.375 \
         slack=0.225 -> " ^ overflow;
        "attempt 2: seed=558080040 beam=96 expand=6 keep_prob=0.562 \
         slack=0.300 -> " ^ overflow ]
      (List.map Flow.escalation_to_string f.Flow.gave_up)

let suite =
  [ ( "verify",
      [ Alcotest.test_case "clean artifacts pass" `Quick test_clean_artifacts;
        Alcotest.test_case "catches CM overflow" `Quick test_catches_cm_overflow;
        Alcotest.test_case "catches non-neighbour reads" `Quick
          test_catches_non_neighbour;
        Alcotest.test_case "catches operand-before-ready" `Quick
          test_catches_operand_not_ready;
        Alcotest.test_case "catches bad CRF index" `Quick
          test_catches_bad_crf_index;
        Alcotest.test_case "catches bad symbol home" `Quick
          test_catches_bad_home;
        QCheck_alcotest.to_alcotest prop_random_corruption_caught;
        Alcotest.test_case "simulator: typed non-neighbour error" `Quick
          test_sim_non_neighbour_typed;
        Alcotest.test_case "simulator: error rendering" `Quick
          test_sim_error_rendering;
        Alcotest.test_case "simulator: late RF fault is masked" `Quick
          test_sim_late_rf_upset_masked;
        Alcotest.test_case "fault campaign: jobs-independent" `Quick
          test_campaign_deterministic_across_jobs;
        Alcotest.test_case "fault campaign: counts consistent" `Quick
          test_campaign_counts_consistent;
        Alcotest.test_case "repair: dead tile round-trip" `Quick
          test_repair_dead_tile;
        Alcotest.test_case "repair: stuck CM rows round-trip" `Quick
          test_repair_cm_rows_stuck;
        Alcotest.test_case "repair: dead link round-trip" `Quick
          test_repair_dead_link;
        Alcotest.test_case "repair: missing LSU round-trip" `Quick
          test_repair_no_lsu;
        Alcotest.test_case "repair: unused fault is unaffected" `Quick
          test_repair_unaffected;
        Alcotest.test_case "repair: partial remap reuses clean blocks" `Quick
          test_repair_partial_reuses_clean_blocks;
        Alcotest.test_case "repair: all blocks dirty remaps in full" `Quick
          test_repair_all_dirty_full_remap;
        QCheck_alcotest.to_alcotest prop_dirty_set_sound;
        Alcotest.test_case "repair campaign: jobs-independent" `Quick
          test_repair_campaign_deterministic;
        Alcotest.test_case "toolchain: clean run validates" `Quick
          test_toolchain_validates_clean_run;
        Alcotest.test_case "flow: degrade is a no-op when mappable" `Quick
          test_degrade_noop_on_mappable;
        Alcotest.test_case "flow: gave-up trace on starved fabric" `Quick
          test_degrade_gave_up_trace;
        Alcotest.test_case "toolchain: corrupted program rejected typed" `Quick
          test_toolchain_rejects_corrupted_program ] ) ]
