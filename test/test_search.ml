(* Tests for the beam search's trial bindings: the search must decide
   exactly as the frozen reference ([Ref_search], which copied its state
   on every binding attempt), and the occupancy journal the trials undo
   with must restore a grid exactly. *)

module S = Cgra_core.Search
module R = Ref_search
module FC = Cgra_core.Flow_config
module Cgra = Cgra_arch.Cgra
module Cdfg = Cgra_ir.Cdfg
module Occ = Cgra_core.Occupancy

(* ---- Search.map_block = the reference, block by block ---------------- *)

(* The deterministic counters of one block (all but wall time and
   allocation). *)
let stats_sig (b : S.block_stats) =
  Printf.sprintf "%d %s r%d a%d c%d nr%d ak%d ek%d ps%d ff%d rc%d pk%d"
    b.S.block b.S.block_name b.S.rounds b.S.attempts b.S.children
    b.S.route_failures b.S.acmap_kills b.S.ecmap_kills b.S.prune_survivors
    b.S.finalize_failures b.S.recomputes b.S.population_peak

let ref_stats_sig (b : R.block_stats) =
  Printf.sprintf "%d %s r%d a%d c%d nr%d ak%d ek%d ps%d ff%d rc%d pk%d"
    b.R.block b.R.block_name b.R.rounds b.R.attempts b.R.children
    b.R.route_failures b.R.acmap_kills b.R.ecmap_kills b.R.prune_survivors
    b.R.finalize_failures b.R.recomputes b.R.population_peak

(* Map the blocks of [cdfg] in [order] with both searches, committing
   each mapped block's context words and symbol homes as the flow does,
   and fail on the first difference: result, mapping, homes, counters,
   the [work] counter or the random stream.  Returns the route failures
   seen, so callers can tell that failed trials were undone. *)
let check_order ~what ~config cgra cdfg order =
  let nt = Cgra.tile_count cgra in
  let committed = Array.make nt 0 in
  let homes = Array.make (max 1 cdfg.Cdfg.sym_count) (-1) in
  let rng = Cgra_util.Rng.create config.FC.seed in
  let ref_rng = Cgra_util.Rng.create config.FC.seed in
  let work = ref 0 and ref_work = ref 0 in
  let routes = S.build_routes cgra in
  let failures = ref 0 in
  List.iter (fun bi ->
    let ours =
      S.map_block ~routes ~config ~cgra ~committed:(Array.copy committed)
        ~homes:(Array.copy homes) ~rng ~work cdfg bi
    in
    let theirs =
      R.map_block ~config ~cgra ~committed ~homes ~rng:ref_rng ~work:ref_work
        cdfg bi
    in
    let where = Printf.sprintf "%s, block %d" what bi in
    (match ours, theirs with
     | Ok o, Ok r ->
       if o.S.bb_mapping <> r.R.bb_mapping then
         Alcotest.failf "%s: mapping differs from the reference" where;
       Alcotest.(check (list (pair int int)))
         (where ^ ": new homes") r.R.new_homes o.S.new_homes;
       Alcotest.(check string)
         (where ^ ": counters") (ref_stats_sig r.R.stats)
         (stats_sig o.S.stats);
       failures := !failures + o.S.stats.S.route_failures;
       Array.iteri
         (fun t u ->
           committed.(t) <- committed.(t) + Cgra_core.Mapping.usage_total u)
         (Cgra_core.Mapping.block_usage cgra o.S.bb_mapping);
       List.iter
         (fun (s, t) -> if homes.(s) < 0 then homes.(s) <- t)
         o.S.new_homes
     | Error a, Error b -> Alcotest.(check string) (where ^ ": failure") b a
     | Ok _, Error e ->
       Alcotest.failf "%s: maps, but the reference fails: %s" where e
     | Error e, Ok _ ->
       Alcotest.failf "%s: fails, but the reference maps: %s" where e);
    Alcotest.(check int) (where ^ ": work") !ref_work !work;
    Alcotest.(check int)
      (where ^ ": random stream")
      (Cgra_util.Rng.int ref_rng 1_000_000)
      (Cgra_util.Rng.int rng 1_000_000))
    order;
  !failures

(* Both block orders: forward, where earlier blocks fix the symbol homes,
   and backward, where later blocks read symbols nothing has homed yet, so
   that first touches pin homes during the search. *)
let check_block_by_block ~what ~config cgra cdfg =
  let forward = List.init (Cdfg.block_count cdfg) Fun.id in
  check_order ~what:(what ^ " forward") ~config cgra cdfg forward
  + check_order ~what:(what ^ " backward") ~config cgra cdfg (List.rev forward)

let presets = List.map (fun p -> (FC.preset_label p, FC.of_preset p)) FC.presets

(* HOM64 cut into two halves, columns 0-1 and 2-3, by severing the links
   between columns 1|2 and 3|0: both halves keep load-store tiles, and a
   binding whose earlier operand routes with moves inside one half while
   a later one sits in the other half fails after moving — the trial must
   undo those moves. *)
let split_hom64 =
  let base = Cgra_arch.Config.cgra Cgra_arch.Config.HOM64 in
  Cgra.degrade base
    (List.concat_map
       (fun row ->
         [ Cgra.Dead_link { tile = (row * 4) + 1; dir = Cgra.East };
           Cgra.Dead_link { tile = (row * 4) + 3; dir = Cgra.East } ])
       [ 0; 1; 2; 3 ])

let arrays =
  [ ("HOM64", Cgra_arch.Config.cgra Cgra_arch.Config.HOM64);
    ("HET2", Cgra_arch.Config.cgra Cgra_arch.Config.HET2);
    ("split HOM64", split_hom64) ]

let prop_search_matches_reference =
  QCheck.Test.make ~name:"random blocks: search = reference search"
    ~count:6 Test_fuzz.arb_spec (fun spec ->
      let cdfg = Cgra_ir.Opt.optimize (Test_fuzz.build spec) in
      List.iter
        (fun (array, cgra) ->
          List.iter
            (fun (label, config) ->
              ignore
                (check_block_by_block
                   ~what:(Printf.sprintf "%s@%s" label array)
                   ~config cgra cdfg
                  : int))
            presets)
        arrays;
      true)

(* Two context words per tile: the home reserve (2 in the ECMAP presets)
   leaves nothing on a tile a binding homes a first-touched symbol on, so
   the verdicts must count that tile as reserved. *)
let cm2 = Cgra.make ~cm_of_tile:(fun _ -> 2) ()

(* Bundled kernels under every preset: on HET2; on the split array, where
   the search must meet — and undo — failed trials (MatM's partial
   mappings there inherit the locations a failed trial would leave behind
   if it were not undone); and on [cm2]. *)
let test_kernels_match_reference () =
  let failures = ref 0 in
  List.iter
    (fun (slug, array, cgra) ->
      let k = Option.get (Cgra_kernels.Kernels.by_slug slug) in
      let cdfg = Cgra_kernels.Kernel_def.cdfg k in
      List.iter
        (fun (label, config) ->
          failures :=
            !failures
            + check_block_by_block
                ~what:(Printf.sprintf "%s %s@%s" slug label array)
                ~config cgra cdfg)
        presets)
    [ ("fir", "HET2", Cgra_arch.Config.cgra Cgra_arch.Config.HET2);
      ("fft", "HET2", Cgra_arch.Config.cgra Cgra_arch.Config.HET2);
      ("fir", "split HOM64", split_hom64);
      ("matm", "split HOM64", split_hom64);
      ("fir", "CM-2 array", cm2) ];
  Alcotest.(check bool) "some trials failed routing" true (!failures > 0)

(* ---- Occupancy journal ------------------------------------------------ *)

let nt = 6

(* Occupy every free (tile, cycle) of [cells]; busy ones are skipped. *)
let fill g cells =
  List.iter
    (fun (t, c) ->
      if Occ.first_free_at_or_after g t c = c then Occ.occupy g t c)
    cells

let view g ~upto =
  List.init nt (fun t ->
      ( Occ.busy_count g t,
        Occ.pnops g t,
        Occ.pnops_optimistic g t,
        Occ.words g t,
        List.init upto (fun c -> Occ.first_free_at_or_after g t c) ))

let arb_cells bound =
  QCheck.(
    list_of_size (Gen.int_range 0 40)
      (pair (int_bound (nt - 1)) (int_bound bound)))

(* Fill tiles past their 32-cycle rows, checkpoint, occupy more (growing
   the rows again), roll back: the grid answers every query as a copy
   taken at the checkpoint does.  It must also go on like that copy:
   occupying the cycles just after the undone ones — where a tile's
   stale last busy cycle would miscount a gap — and a second round of
   checkpoint, occupy and roll back keep the two equal. *)
let prop_journal_rollback =
  QCheck.Test.make ~name:"occupancy rollback restores the checkpoint"
    ~count:300
    QCheck.(triple (arb_cells 80) (arb_cells 200) (arb_cells 120))
    (fun (before, during, again) ->
      let g = Occ.create nt in
      fill g before;
      let copy = Occ.copy g in
      let upto = 210 in
      let same () = view g ~upto = view copy ~upto in
      Occ.checkpoint g;
      fill g during;
      Occ.rollback g;
      let restored = same () in
      let after = List.map (fun (t, c) -> (t, c + 1)) during in
      fill g after;
      fill copy after;
      let continued = same () in
      Occ.checkpoint g;
      fill g again;
      Occ.rollback g;
      restored && continued && same ())

let suite =
  [ ( "search",
      [ Alcotest.test_case "kernels: search = reference search" `Quick
          test_kernels_match_reference;
        QCheck_alcotest.to_alcotest prop_search_matches_reference;
        QCheck_alcotest.to_alcotest prop_journal_rollback ] ) ]
