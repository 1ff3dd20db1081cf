(* Tests for the mapper: occupancy accounting, scheduling, the flow and
   its context-memory awareness. *)

module Occ = Cgra_core.Occupancy
module Sched = Cgra_core.Sched
module Flow = Cgra_core.Flow
module FC = Cgra_core.Flow_config
module M = Cgra_core.Mapping
module Cdfg = Cgra_ir.Cdfg
module B = Cgra_ir.Builder
module Op = Cgra_ir.Opcode
module Config = Cgra_arch.Config

(* ---- occupancy ----------------------------------------------------- *)

let test_occupancy_basics () =
  let g = Occ.create 4 in
  Alcotest.(check int) "idle pnops" 0 (Occ.pnops g 1);
  Occ.occupy g 1 3;
  Occ.occupy g 1 5;
  Alcotest.(check int) "first free after 3" 4 (Occ.first_free_at_or_after g 1 3);
  Alcotest.(check int) "other rows free" 3 (Occ.first_free_at_or_after g 2 3);
  Alcotest.(check int) "busy count" 2 (Occ.busy_count g 1);
  (* idle runs before the last busy cycle: [0-2] and [4] *)
  Alcotest.(check int) "pnops" 2 (Occ.pnops g 1);
  (* optimistic drops the leading run *)
  Alcotest.(check int) "optimistic" 1 (Occ.pnops_optimistic g 1);
  Alcotest.(check int) "words" 4 (Occ.words g 1);
  Alcotest.(check int) "other rows idle" 0 (Occ.words g 0 + Occ.words g 2);
  (* a copy is independent of its source *)
  let g' = Occ.copy g in
  Occ.occupy g' 1 4;
  Alcotest.(check int) "copy fills the gap" 1 (Occ.pnops g' 1);
  Alcotest.(check int) "source keeps its gap" 2 (Occ.pnops g 1)

let test_occupancy_dense () =
  let g = Occ.create 3 in
  for c = 0 to 9 do
    Occ.occupy g 2 c
  done;
  Alcotest.(check int) "no gaps" 0 (Occ.pnops g 2);
  Alcotest.(check int) "optimistic too" 0 (Occ.pnops_optimistic g 2);
  Alcotest.(check int) "one word per cycle" 10 (Occ.words g 2)

let test_occupancy_double_book () =
  let g = Occ.create 2 in
  Occ.occupy g 1 2;
  Alcotest.(check bool) "double booking rejected" true
    (try
       Occ.occupy g 1 2;
       false
     with Invalid_argument _ -> true)

(* The rescan oracle, computed from the cycles a test occupied (ascending),
   not from the grid under test: busy count, maximal idle runs before the
   last busy cycle, and the same runs without the leading one. *)
let oracle cycles =
  let rec gaps prev = function
    | [] -> 0
    | c :: tl -> (if c > prev + 1 then 1 else 0) + gaps c tl
  in
  match cycles with
  | [] -> (0, 0, 0)
  | first :: rest ->
    let interior = gaps first rest in
    (List.length cycles, (if first > 0 then 1 else 0) + interior, interior)

let tiles = 4

(* Occupy the (tile, cycle) pairs that are still free, in order, on one
   grid of [tiles] tiles; [check] sees the grid and every tile's occupied
   cycles (ascending) after each occupy. *)
let fill_grid pairs check =
  let g = Occ.create tiles in
  let occupied = Array.make tiles [] in
  List.for_all
    (fun (t, c) ->
      List.mem c occupied.(t)
      || begin
        Occ.occupy g t c;
        occupied.(t) <- List.sort compare (c :: occupied.(t));
        check g occupied
      end)
    pairs

(* Cycles run to 99, past the grid's initial 32-cycle rows, so the row
   re-blit of a growing grid is exercised mid-sequence. *)
let gen_pairs n =
  QCheck.(
    list_of_size Gen.(int_range 0 n)
      (pair (int_bound (tiles - 1)) (int_bound 99)))

let prop_incremental_counts =
  QCheck.Test.make
    ~name:"incremental busy/pnop counts match a full rescan" ~count:500
    (gen_pairs 80)
    (fun pairs ->
      (* every row must match after *every* occupy, not just at the end:
         interior splits, run merges, appends and the re-blit all occur
         mid-sequence, and a write to one row must leave the others be *)
      fill_grid pairs (fun g occupied ->
          Array.for_all Fun.id
            (Array.mapi
               (fun t cycles ->
                 let busy, runs, optimistic = oracle cycles in
                 Occ.busy_count g t = busy
                 && Occ.pnops g t = runs
                 && Occ.pnops_optimistic g t = optimistic
                 && Occ.words g t = busy + runs
                 &&
                 let rec free c =
                   if List.mem c cycles then free (c + 1) else c
                 in
                 List.for_all
                   (fun c -> Occ.first_free_at_or_after g t c = free c)
                   (0 :: cycles))
               occupied)))

let prop_optimistic_le_exact =
  QCheck.Test.make ~name:"optimistic pnops <= exact pnops" ~count:300
    (gen_pairs 40)
    (fun pairs ->
      fill_grid pairs (fun g _ ->
          List.for_all
            (fun t -> Occ.pnops_optimistic g t <= Occ.pnops g t)
            (List.init tiles Fun.id)))

let prop_pnops_bounded_by_busy =
  QCheck.Test.make ~name:"pnop runs bounded by busy count" ~count:300
    (gen_pairs 40)
    (fun pairs ->
      (* every interior idle run is delimited by busy cycles *)
      fill_grid pairs (fun g _ ->
          List.for_all
            (fun t -> Occ.pnops g t <= Occ.busy_count g t)
            (List.init tiles Fun.id)))

(* ---- scheduling ------------------------------------------------------ *)

let chain_cdfg () =
  (* n0 -> n1 -> n2 plus an independent n3, all stored *)
  let b = B.create "chain" in
  let blk = B.add_block b "only" in
  let n0 = B.add_node b blk Op.Add [ Cdfg.Imm 1; Cdfg.Imm 2 ] in
  let n1 = B.add_node b blk Op.Add [ n0; Cdfg.Imm 1 ] in
  let n2 = B.add_node b blk Op.Add [ n1; Cdfg.Imm 1 ] in
  let n3 = B.add_node b blk Op.Add [ Cdfg.Imm 5; Cdfg.Imm 6 ] in
  let _ = B.add_node b blk Op.Store [ Cdfg.Imm 0; n2 ] in
  let _ = B.add_node b blk Op.Store [ Cdfg.Imm 1; n3 ] in
  B.set_terminator b blk Cdfg.Return;
  B.finish b

let test_sched_levels () =
  let cdfg = chain_cdfg () in
  let info = Sched.analyse cdfg 0 in
  Alcotest.(check int) "asap n0" 0 info.Sched.asap.(0);
  Alcotest.(check int) "asap n2" 2 info.Sched.asap.(2);
  Alcotest.(check int) "chain is critical" 0 info.Sched.mobility.(0);
  Alcotest.(check bool) "independent node has slack" true
    (info.Sched.mobility.(3) > 0);
  Alcotest.(check int) "critical path" 4 (Sched.critical_path info)

let test_sched_order_topological () =
  let cdfg = chain_cdfg () in
  let info = Sched.analyse cdfg 0 in
  let pos = Array.make 6 0 in
  List.iteri (fun i n -> pos.(n) <- i) info.Sched.order;
  Alcotest.(check int) "all scheduled" 6 (List.length info.Sched.order);
  Alcotest.(check bool) "producer first" true (pos.(0) < pos.(1) && pos.(1) < pos.(2))

(* ---- flow ------------------------------------------------------------ *)

let loop_cdfg () =
  let b = B.create "loop" in
  let i = B.fresh_sym b "i" in
  let pre = B.add_block b "pre" in
  let body = B.add_block b "body" in
  let exit_ = B.add_block b "exit" in
  B.set_live_out b pre i (Cdfg.Imm 0);
  B.set_terminator b pre (Cdfg.Jump (B.block_id body));
  let x = B.add_node b body Op.Load [ Cdfg.Sym i ] in
  let y = B.add_node b body Op.Mul [ x; Cdfg.Imm 3 ] in
  let a = B.add_node b body Op.Add [ Cdfg.Sym i; Cdfg.Imm 8 ] in
  let _ = B.add_node b body Op.Store [ a; y ] in
  let i1 = B.add_node b body Op.Add [ Cdfg.Sym i; Cdfg.Imm 1 ] in
  let c = B.add_node b body Op.Lt [ i1; Cdfg.Imm 8 ] in
  B.set_live_out b body i i1;
  B.set_terminator b body (Cdfg.Branch (c, B.block_id body, B.block_id exit_));
  B.set_terminator b exit_ Cdfg.Return;
  B.finish b

let test_flow_maps_and_fits () =
  let cdfg = loop_cdfg () in
  match Flow.run (Config.cgra Config.HOM64) cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (m, stats) ->
    Alcotest.(check bool) "fits" true (M.fits m);
    Alcotest.(check int) "all ops mapped once" 6 (M.total_ops m);
    Alcotest.(check bool) "homes assigned" true
      (Array.for_all (fun h -> h >= 0) m.M.homes);
    Alcotest.(check int) "traversal covers blocks" 3
      (List.length stats.Flow.search)

let test_flow_deterministic () =
  let cdfg = loop_cdfg () in
  let run () =
    match Flow.run (Config.cgra Config.HOM64) cdfg with
    | Ok (m, _) ->
      List.map (fun bm -> (bm.M.bb, bm.M.length, List.length bm.M.slots))
        (Array.to_list m.M.bbs)
    | Error f -> Alcotest.fail f.Flow.reason
  in
  Alcotest.(check bool) "same result" true (run () = run ())

let test_flow_respects_lsu () =
  let cdfg = loop_cdfg () in
  match Flow.run (Config.cgra Config.HOM64) cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (m, _) ->
    Array.iter
      (fun bm ->
        List.iter
          (fun sl ->
            match sl.M.action with
            | M.Aop { node; _ } ->
              let nodes = cdfg.Cdfg.blocks.(bm.M.bb).Cdfg.nodes in
              if Cgra_ir.Opcode.needs_lsu nodes.(node).Cdfg.opcode then
                Alcotest.(check bool) "memory op on LSU tile" true (sl.M.tile < 8)
            | M.Amove _ | M.Acopy _ -> ())
          bm.M.slots)
      m.M.bbs

let test_flow_fails_on_tiny_cm () =
  let cdfg = loop_cdfg () in
  let cgra = Cgra_arch.Cgra.make ~cm_of_tile:(fun _ -> 2) () in
  match Flow.run cgra cdfg with
  | Error _ -> ()
  | Ok (m, _) ->
    Alcotest.(check bool) "cannot fit 2-word CMs" false (M.fits m)

let test_flow_maps_around_faults () =
  let module Cgra = Cgra_arch.Cgra in
  let cdfg = loop_cdfg () in
  let faults =
    [ Cgra.Dead_tile { tile = 2 };
      Cgra.No_lsu { tile = 0 };
      Cgra.Dead_link { tile = 5; dir = Cgra.East } ]
  in
  let config = { FC.basic with FC.faults } in
  match Flow.run ~config (Config.cgra Config.HOM64) cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (m, _) ->
    Alcotest.(check bool) "mapping carries the degraded fabric" true
      (m.M.cgra.Cgra.faults <> []);
    Array.iter
      (fun bm ->
        List.iter
          (fun sl ->
            Alcotest.(check bool) "no slot on the dead tile" true (sl.M.tile <> 2);
            match sl.M.action with
            | M.Aop { node; _ } ->
              let nodes = cdfg.Cdfg.blocks.(bm.M.bb).Cdfg.nodes in
              if Cgra_ir.Opcode.needs_lsu nodes.(node).Cdfg.opcode then
                Alcotest.(check bool) "memory op avoids the disabled LSU" true
                  (sl.M.tile <> 0)
            | M.Amove _ | M.Acopy _ -> ())
          bm.M.slots)
      m.M.bbs;
    Alcotest.(check bool) "fits the degraded capacities" true (M.fits m)

let test_flow_rejects_sym_overflow () =
  let b = B.create "many" in
  for i = 0 to 40 do
    ignore (B.fresh_sym b (Printf.sprintf "s%d" i))
  done;
  let blk = B.add_block b "only" in
  B.set_terminator b blk Cdfg.Return;
  let cdfg = B.finish b in
  match Flow.run (Config.cgra Config.HOM64) cdfg with
  | Error f ->
    Alcotest.(check bool) "mentions RF" true
      (String.length f.Flow.reason > 0)
  | Ok _ -> Alcotest.fail "accepted more symbols than RF slots"

let test_weighted_traversal_order () =
  let cdfg = loop_cdfg () in
  let fwd = Flow.traversal_order FC.Forward cdfg in
  let wt = Flow.traversal_order FC.Weighted cdfg in
  Alcotest.(check int) "forward starts at entry" 0 (List.hd fwd);
  (* body has the highest Wbb, so the weighted traversal maps it first *)
  Alcotest.(check int) "weighted starts at heaviest" 1 (List.hd wt);
  Alcotest.(check int) "same coverage" (List.length fwd) (List.length wt)

let test_mapping_usage_vs_capacity () =
  let cdfg = loop_cdfg () in
  match Flow.run ~config:FC.context_aware (Config.cgra Config.HET2) cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (m, _) ->
    let usage = M.tile_usage m in
    Array.iteri
      (fun t u ->
        Alcotest.(check bool) "within capacity" true
          (M.usage_total u <= (Config.cgra Config.HET2).Cgra_arch.Cgra.tiles.(t).cm_words))
      usage

let test_static_cycles () =
  let cdfg = loop_cdfg () in
  match Flow.run (Config.cgra Config.HOM64) cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (m, _) ->
    let mem = Array.make 32 0 in
    let trace = Cgra_ir.Interp.run cdfg ~mem in
    let expected =
      Array.to_list m.M.bbs
      |> List.mapi (fun bi bm -> trace.Cgra_ir.Interp.block_counts.(bi) * (bm.M.length + 1))
      |> List.fold_left ( + ) 0
    in
    Alcotest.(check int) "static cycles formula" expected (M.static_cycles m trace)

let test_pp_schedule () =
  let cdfg = loop_cdfg () in
  match Flow.run (Config.cgra Config.HOM64) cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (m, _) ->
    let s = Format.asprintf "%a" M.pp_schedule (m, 1) in
    let lines = String.split_on_char '\n' s in
    (* header + 16 tile rows + legend *)
    Alcotest.(check int) "grid rows" 18 (List.length lines);
    Alcotest.(check bool) "has ops" true (String.contains s 'o')

(* Regression: a malformed CDFG whose block DFG is cyclic must come back
   from the flow as a typed [Error], never as an escaped exception (the
   digraph layer used to raise a bare [Failure] from deep inside the
   scheduler). *)
let test_flow_rejects_cyclic_dfg () =
  let cyclic : Cdfg.t =
    { Cdfg.kernel_name = "cyclic";
      blocks =
        [| { Cdfg.name = "b0";
             nodes =
               [| { Cdfg.opcode = Op.Add;
                    operands = [ Cdfg.Node 1; Cdfg.Imm 1 ];
                    mem_dep = [] };
                  { Cdfg.opcode = Op.Add;
                    operands = [ Cdfg.Node 0; Cdfg.Imm 1 ];
                    mem_dep = [] } |];
             live_out = [];
             terminator = Cdfg.Return } |];
      entry = 0;
      sym_count = 0;
      sym_names = [||] }
  in
  (* the raw data-flow digraph reports the offending nodes... *)
  (match Cgra_graph.Digraph.topo_sort (Cdfg.dfg_graph cyclic.Cdfg.blocks.(0)) with
   | Ok _ -> Alcotest.fail "dfg cycle not detected"
   | Error ids ->
     Alcotest.(check (list int)) "cycle nodes" [ 0; 1 ] (List.sort compare ids));
  (* ...and the flow turns the malformed input into a typed error *)
  match Flow.run ~config:FC.basic (Config.cgra Config.HOM64) cyclic with
  | Ok _ -> Alcotest.fail "cyclic CDFG must not map"
  | Error f ->
    Alcotest.(check bool) "reason mentions the offending node" true
      (String.length f.Flow.reason > 0)

(* Fallback home selection must rank by remaining context-memory headroom,
   not by raw load: on a fabric with one starved tile, pinning a symbol
   home there (just because it is empty) wastes exactly the capacity the
   context-aware flow tries to preserve.  Tile 0 here has 6 words; with
   load-based ranking it wins the tie at load 0 and hosts the home. *)
let test_least_loaded_headroom () =
  let cgra =
    Cgra_arch.Cgra.make ~cm_of_tile:(fun t -> if t = 0 then 6 else 64) ()
  in
  let cdfg = loop_cdfg () in
  match Flow.run cgra cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (m, _) ->
    Array.iter
      (fun h ->
        Alcotest.(check bool) "home avoids the starved tile" true (h <> 0))
      m.M.homes

(* A block mapping that pins a symbol home conflicting with an earlier
   block's pin is a mapper invariant violation; it must surface as a typed
   flow failure, not an [Assert_failure] crash. *)
let test_commit_homes_conflict () =
  let homes = [| 3; -1 |] in
  (match Flow.commit_homes ~homes ~at_block:7 ~work:42 [ (1, 2); (0, 5) ] with
   | Ok () -> Alcotest.fail "conflicting pin must be rejected"
   | Error f ->
     Alcotest.(check (option int)) "failure names the block" (Some 7)
       f.Flow.at_block;
     Alcotest.(check int) "failure reports the work spent" 42 f.Flow.work;
     Alcotest.(check bool) "reason names symbol and tiles" true
       (let has needle =
          let len = String.length needle in
          let n = String.length f.Flow.reason in
          let rec go i =
            i + len <= n && (String.sub f.Flow.reason i len = needle || go (i + 1))
          in
          go 0
        in
        has "s0" && has "tile 3" && has "tile 5"));
  Alcotest.(check int) "pins before the conflict stay committed" 2 homes.(1);
  let homes = [| 3; -1 |] in
  (match Flow.commit_homes ~homes ~at_block:0 ~work:0 [ (0, 3); (1, 9) ] with
   | Error f -> Alcotest.fail f.Flow.reason
   | Ok () ->
     Alcotest.(check int) "re-pin to the same tile is fine" 3 homes.(0);
     Alcotest.(check int) "fresh pin committed" 9 homes.(1))

(* Regression: the home-tile reservation was an [int] bitmask, so on an
   array of 64 or more tiles a home on tile 64 also reserved words on tile
   0 ([1 lsl 64 = 1]), and a home on tile 63 reserved none.  Here tile 0
   of a 9x8 array is the only load-store tile and has exactly the three
   words its load, its store and the add or pnop between them need; a
   home on tile 64 must leave them be. *)
let test_home_reserve_wide_array () =
  let module C = Cgra_arch.Cgra in
  let cgra =
    C.degrade
      (C.make ~rows:9 ~cols:8 ~lsu_rows:1
         ~cm_of_tile:(fun t -> if t = 0 then 3 else 64)
         ())
      (List.init 7 (fun i -> C.No_lsu { tile = i + 1 }))
  in
  let b = B.create "wide" in
  let _ = B.fresh_sym b "s" in
  let blk = B.add_block b "only" in
  let x = B.add_node b blk Op.Load [ Cdfg.Imm 0 ] in
  let y = B.add_node b blk Op.Add [ x; Cdfg.Imm 1 ] in
  let _ = B.add_node b blk Op.Store [ Cdfg.Imm 1; y ] in
  B.set_terminator b blk Cdfg.Return;
  let cdfg = B.finish b in
  match
    Cgra_core.Search.map_block
      ~routes:(Cgra_core.Search.build_routes cgra)
      ~config:{ FC.context_aware with FC.home_reserve = 3 }
      ~cgra ~committed:(Array.make (C.tile_count cgra) 0) ~homes:[| 64 |]
      ~rng:(Cgra_util.Rng.create 1) ~work:(ref 0) cdfg 0
  with
  | Error reason -> Alcotest.fail reason
  | Ok o ->
    Alcotest.(check int) "the load-store tile uses its three words" 3
      (M.usage_total (M.block_usage cgra o.Cgra_core.Search.bb_mapping).(0))

let test_search_stats_consistency () =
  let module S = Cgra_core.Search in
  let cdfg = loop_cdfg () in
  match Flow.run (Config.cgra Config.HOM64) cdfg with
  | Error f -> Alcotest.fail f.Flow.reason
  | Ok (_, stats) ->
    Alcotest.(check int) "no retries needed" 0 stats.Flow.retries_used;
    Alcotest.(check int) "one telemetry record per block" 3
      (List.length stats.Flow.search);
    let sum =
      List.fold_left (fun a bs -> a + bs.S.attempts) 0 stats.Flow.search
    in
    Alcotest.(check int) "per-block attempts sum to the work counter"
      stats.Flow.work sum;
    List.iter
      (fun (bs : S.block_stats) ->
        Alcotest.(check bool) "children bounded by attempts" true
          (bs.S.children <= bs.S.attempts);
        Alcotest.(check bool) "peak positive" true (bs.S.population_peak >= 1);
        Alcotest.(check bool) "wall time non-negative" true
          (bs.S.wall_seconds >= 0.0))
      stats.Flow.search

let test_steps_labels () =
  Alcotest.(check string) "basic" "basic" (FC.steps_of FC.basic);
  Alcotest.(check string) "full" "basic+WT+ACMAP+ECMAP+CAB"
    (FC.steps_of FC.context_aware)

let suite =
  [ ( "core",
      [ Alcotest.test_case "occupancy basics" `Quick test_occupancy_basics;
        Alcotest.test_case "occupancy dense" `Quick test_occupancy_dense;
        Alcotest.test_case "occupancy double booking" `Quick test_occupancy_double_book;
        QCheck_alcotest.to_alcotest prop_incremental_counts;
        QCheck_alcotest.to_alcotest prop_optimistic_le_exact;
        QCheck_alcotest.to_alcotest prop_pnops_bounded_by_busy;
        Alcotest.test_case "sched levels" `Quick test_sched_levels;
        Alcotest.test_case "sched order" `Quick test_sched_order_topological;
        Alcotest.test_case "flow maps and fits" `Quick test_flow_maps_and_fits;
        Alcotest.test_case "flow deterministic" `Quick test_flow_deterministic;
        Alcotest.test_case "flow respects LSU" `Quick test_flow_respects_lsu;
        Alcotest.test_case "flow fails on tiny CM" `Quick test_flow_fails_on_tiny_cm;
        Alcotest.test_case "flow maps around faults" `Quick test_flow_maps_around_faults;
        Alcotest.test_case "flow rejects symbol overflow" `Quick test_flow_rejects_sym_overflow;
        Alcotest.test_case "weighted traversal" `Quick test_weighted_traversal_order;
        Alcotest.test_case "usage within capacity" `Quick test_mapping_usage_vs_capacity;
        Alcotest.test_case "static cycles" `Quick test_static_cycles;
        Alcotest.test_case "flow rejects cyclic DFG" `Quick
          test_flow_rejects_cyclic_dfg;
        Alcotest.test_case "schedule rendering" `Quick test_pp_schedule;
        Alcotest.test_case "home fallback ranks by CM headroom" `Quick
          test_least_loaded_headroom;
        Alcotest.test_case "home conflict is a typed error" `Quick
          test_commit_homes_conflict;
        Alcotest.test_case "home reserve on 64+ tiles" `Quick
          test_home_reserve_wide_array;
        Alcotest.test_case "search telemetry consistent" `Quick
          test_search_stats_consistency;
        Alcotest.test_case "flow labels" `Quick test_steps_labels ] ) ]
