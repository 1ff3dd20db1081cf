module Cdfg = Cgra_ir.Cdfg
module Cgra = Cgra_arch.Cgra
module Rng = Cgra_util.Rng

type escalation = {
  e_attempt : int;
  e_seed : int;
  e_beam_width : int;
  e_expand_per_state : int;
  e_keep_prob : float;
  e_prune_slack : float;
  e_reason : string;
  e_at_block : int option;
}

type failure = {
  verdict : Search.verdict;
  reason : string;
  at_block : int option;
  work : int;
  gave_up : escalation list;
}

(* Most failures are ordinary dead ends, so the plain constructor keeps
   the sites readable. *)
let fail ?(verdict = Search.Dead_end) ?at_block ~work reason =
  { verdict; reason; at_block; work; gave_up = [] }

type stats = {
  recomputes : int;
  population_peak : int;
  traversal_order : int list;
  work : int;
  retries_used : int;
  search : Search.block_stats list;
  escalations : escalation list;
}

type result = (Mapping.t * stats, failure) Stdlib.result

let escalation_to_string e =
  Printf.sprintf
    "attempt %d: seed=%d beam=%d expand=%d keep_prob=%.3f slack=%.3f -> %s%s"
    e.e_attempt e.e_seed e.e_beam_width e.e_expand_per_state e.e_keep_prob
    e.e_prune_slack e.e_reason
    (match e.e_at_block with
     | None -> ""
     | Some b -> Printf.sprintf " (at block %d)" b)

(* Commit the symbol homes a block's mapping pinned.  A conflicting pin —
   the block wants a symbol on a different tile than an earlier block
   already fixed — is a mapper invariant violation ([Search.map_block]
   consults [homes] through its context, so it can only propose compatible
   pins); it used to die as [Assert_failure], taking the whole harness
   down.  Now it surfaces as a typed failure like every other mapping
   error.  Homes preceding the conflicting entry stay committed: the flow
   aborts on [Error], so the partially-updated array is never reused. *)
let commit_homes ~homes ~at_block ~work new_homes =
  let rec go = function
    | [] -> Ok ()
    | (s, h) :: rest ->
      if homes.(s) >= 0 && homes.(s) <> h then
        Error
          (fail ~at_block ~work
             (Printf.sprintf
                "block %d: home conflict for symbol s%d: pinned to tile %d \
                 by an earlier block, this block's mapping wants tile %d"
                at_block s homes.(s) h))
      else begin
        homes.(s) <- h;
        go rest
      end
  in
  go new_homes

let traversal_order traversal cdfg =
  let forward =
    let g = Cdfg.cfg cdfg in
    let order = Cgra_graph.Digraph.topo_sort_weak g in
    (* Ensure the entry leads even on exotic CFGs. *)
    cdfg.Cdfg.entry :: List.filter (fun b -> b <> cdfg.Cdfg.entry) order
  in
  match traversal with
  | Flow_config.Forward -> forward
  | Flow_config.Weighted ->
    let pos = Array.make (Array.length cdfg.Cdfg.blocks) 0 in
    List.iteri (fun i b -> pos.(b) <- i) forward;
    let weight = Array.init (Array.length cdfg.Cdfg.blocks) (Cdfg.block_weight cdfg) in
    List.sort
      (fun a b ->
        if weight.(a) <> weight.(b) then compare weight.(b) weight.(a)
        else compare pos.(a) pos.(b))
      forward

(* Charge one block mapping's exact per-tile context words to
   [committed]. *)
let commit_words cgra committed bm =
  Array.iteri
    (fun t u -> committed.(t) <- committed.(t) + Mapping.usage_total u)
    (Mapping.block_usage cgra bm)

(* [base = Some (m, dirty, kept_homes)] switches one mapping attempt into
   partial mode: blocks with [dirty.(b) = false] reuse [m]'s placements
   verbatim — their exact context words are pre-committed and their home
   pins pre-applied — and only dirty blocks are searched, in the usual
   traversal order.  [None] is the ordinary full flow. *)
let run_once ~work ~retries_used ~config ~routes ~deadline ?base cgra cdfg =
  match Cdfg.validate cdfg with
  | Error msg -> Error (fail ~work:!work ("invalid CDFG: " ^ msg))
  | Ok () ->
    if cdfg.Cdfg.sym_count > cgra.Cgra.rf_words then
      Error
        (fail ~work:!work
           (Printf.sprintf
              "kernel needs %d symbol-variable RF slots, tile RF has %d"
              cdfg.Cdfg.sym_count cgra.Cgra.rf_words))
    else begin
      let order = traversal_order config.Flow_config.traversal cdfg in
      let order =
        match base with
        | None -> order
        | Some (_, dirty, _) -> List.filter (fun b -> dirty.(b)) order
      in
      let nt = Cgra.tile_count cgra in
      let committed = Array.make nt 0 in
      let homes =
        match base with
        | Some (_, _, kept) -> Array.copy kept
        | None -> Array.make (max 1 cdfg.Cdfg.sym_count) (-1)
      in
      (match base with
      | None -> ()
      | Some (m, dirty, _) ->
        (* Surviving blocks keep their placements: charge their exact
           context words up front so the dirty-block search sees the same
           CM pressure a full flow would have accumulated. *)
        Array.iteri
          (fun bi bm ->
            if not dirty.(bi) then commit_words cgra committed bm)
          m.Mapping.bbs);
      let rng = Rng.create config.Flow_config.seed in
      let recomputes = ref 0 in
      let peak = ref 1 in
      let block_stats = ref [] in
      (* Spread-retry budgets (exact backend, second pass only): cap the
         block's own context words per tile at its proportional share of
         the remaining free capacity, so early blocks leave headroom
         instead of clustering on the solver's favourite tiles.  The
         share is a heuristic — when a block genuinely needs more than
         its share the budgeted solve fails and the block retries
         unbudgeted (greedy), exactly like the first pass. *)
      let spread_budget bi rest =
        let weight b =
          Array.length cdfg.Cdfg.blocks.(b).Cdfg.nodes + 1
        in
        let w = weight bi in
        let rest_w = List.fold_left (fun a b -> a + weight b) 0 rest in
        if rest_w = 0 then None
        else
          Some
            (Array.init nt (fun t ->
                 let free =
                   cgra.Cgra.tiles.(t).Cgra.cm_words - committed.(t)
                 in
                 if free <= 0 then 0
                 else ((free * w) + w + rest_w - 1) / (w + rest_w)))
      in
      (* Future-write counts for the spread pass: how many of the
         still-unmapped blocks write each symbol — the exact backend
         reserves that many context words on the symbol's home tile. *)
      let future_writes rest =
        let fw = Array.make (Array.length homes) 0 in
        List.iter
          (fun b ->
            List.iter
              (fun (s, _) -> fw.(s) <- fw.(s) + 1)
              cdfg.Cdfg.blocks.(b).Cdfg.live_out)
          rest;
        fw
      in
      let rec map_blocks ~spread acc = function
        | [] -> Ok (List.rev acc)
        | bi :: rest -> (
          (* Per-block boundary of the drive loop: committed words and
             home pins are consistent here, so aborting between blocks
             never leaves a torn intermediate state behind. *)
          if Cgra_util.Deadline.expired deadline then
            raise
              (Search.Timed_out
                 { at_block = bi; where = "flow block loop" });
          match
            match config.Flow_config.backend with
            | Flow_config.Exact -> (
              if not spread then
                Exact.map_block ~deadline ~cgra ~committed ~homes ~work cdfg bi
              else
                let future = future_writes rest in
                match spread_budget bi rest with
                | None ->
                  Exact.map_block ~future ~deadline ~cgra ~committed ~homes
                    ~work cdfg bi
                | Some budget -> (
                  match
                    Exact.map_block ~budget ~future ~deadline ~cgra
                      ~committed ~homes ~work cdfg bi
                  with
                  | Ok _ as ok -> ok
                  | Error _ ->
                    (* The share was too tight for this block: fall back
                       to its full remaining capacity (reserves kept)
                       and keep going. *)
                    Exact.map_block ~future ~deadline ~cgra ~committed
                      ~homes ~work cdfg bi))
            | Flow_config.Beam | Flow_config.Portfolio ->
              (* [Portfolio] is resolved in [drive]; a portfolio config
                 reaching a single run maps with the beam.  Every beam
                 failure is a dead end. *)
              Search.map_block ~routes ~deadline ~config ~cgra ~committed
                ~homes ~rng ~work cdfg bi
              |> Result.map_error (fun reason -> (Search.Dead_end, reason))
          with
          | exception Cgra_graph.Digraph.Cycle ids ->
            (* A cyclic per-block DFG that slipped past validation (e.g. a
               hand-built CDFG mutated after [Builder.finish]) must not
               crash the harness: surface it as an ordinary mapping
               failure. *)
            Error
              (fail ~at_block:bi ~work:!work
                 (Printf.sprintf "block %d: cyclic DFG through nodes %s" bi
                    (String.concat ", " (List.map string_of_int ids))))
          | Error (verdict, reason) ->
            Error (fail ~verdict ~at_block:bi ~work:!work reason)
          | Ok outcome -> (
            match
              commit_homes ~homes ~at_block:bi ~work:!work
                outcome.Search.new_homes
            with
            | Error _ as e -> e
            | Ok () ->
              commit_words cgra committed outcome.Search.bb_mapping;
              let bs = outcome.Search.stats in
              block_stats := bs :: !block_stats;
              recomputes := !recomputes + bs.Search.recomputes;
              peak := max !peak bs.Search.population_peak;
              map_blocks ~spread (outcome.Search.bb_mapping :: acc) rest))
      in
      let committed0 = Array.copy committed in
      let homes0 = Array.copy homes in
      let mapped =
        match map_blocks ~spread:false [] order with
        | Ok _ as ok -> ok
        | Error f
          when config.Flow_config.backend = Flow_config.Exact
               && f.verdict <> Search.Proved_unsat -> (
          (* Greedy pass dead-ended on the committed context (not a
             kernel-level UNSAT proof, which no retry can beat): one
             deterministic second pass with spread budgets. *)
          Array.blit committed0 0 committed 0 (Array.length committed);
          Array.blit homes0 0 homes 0 (Array.length homes);
          block_stats := [];
          recomputes := 0;
          peak := 1;
          match map_blocks ~spread:true [] order with
          | Ok _ as ok -> ok
          | Error _ -> Error f (* the first failure stays canonical *))
        | Error _ as e -> e
      in
      match mapped with
      | Error f -> Error f
      | Ok bbs_in_order ->
        let bbs =
          match base with
          | None -> Array.make (Array.length cdfg.Cdfg.blocks) None
          | Some (m, dirty, _) ->
            Array.mapi
              (fun bi bm -> if dirty.(bi) then None else Some bm)
              m.Mapping.bbs
        in
        List.iter
          (fun bm -> bbs.(bm.Mapping.bb) <- Some bm)
          bbs_in_order;
        let bbs =
          Array.map
            (function
              | Some bm -> bm
              | None -> assert false (* every block is mapped or reused *))
            bbs
        in
        (* Symbols never touched keep home -1; pin them anywhere so the
           assembler has a slot (they are dead). *)
        let homes = Array.map (fun h -> if h < 0 then 0 else h) homes in
        (* After the last block [committed] holds every tile's total
           words, so the verdict needs no recount of the mapping. *)
        let culprits =
          List.filter_map
            (fun t ->
              let cap = cgra.Cgra.tiles.(t).Cgra.cm_words in
              if committed.(t) > cap then
                Some (Printf.sprintf "T%02d %d/%d" t committed.(t) cap)
              else None)
            (List.init nt Fun.id)
        in
        if culprits = [] then
          Ok
            ( { Mapping.cdfg; cgra; bbs; homes },
              {
                recomputes = !recomputes;
                population_peak = !peak;
                traversal_order = order;
                work = !work;
                retries_used;
                search = List.rev !block_stats;
                escalations = [];
              } )
        else
          Error
            (fail ~work:!work
               ("context memory overflow: " ^ String.concat ", " culprits))
    end

let escalation_of ~attempt (c : Flow_config.t) (f : failure) =
  {
    e_attempt = attempt;
    e_seed = c.Flow_config.seed;
    e_beam_width = c.Flow_config.beam_width;
    e_expand_per_state = c.Flow_config.expand_per_state;
    e_keep_prob = c.Flow_config.keep_prob;
    e_prune_slack = c.Flow_config.prune_slack;
    e_reason = f.reason;
    e_at_block = f.at_block;
  }

(* The one retry ladder over [run_once].  Rung k is an attempt with
   [retries_used = k]: without [degrade] the rungs reseed the stochastic
   pruning (seed + 1000k, k <= [retries]); with it they escalate (see
   [escalate]).  The exact backend reads neither the seed nor the search
   knobs, so every further rung would repeat its solves: it gets one.
   Every failed rung is recorded as an escalation.  The route table
   depends only on the (already degraded) array, so it is interned here
   once and reused by every rung and every block. *)
let drive_single ~work ~config ~deadline ?base cgra cdfg =
  let routes = Search.build_routes cgra in
  (* Graceful degradation: rung 0 is the configuration as given; each
     further rung reseeds the stochastic pruning from a split of the base
     RNG and relaxes the search — wider beam, more children per state,
     higher keep probability, more threshold slack — so near-miss
     configurations degrade into "mapped after N attempts" instead of
     "unmappable". *)
  let esc_rng = Rng.create (Rng.seed_of ~base:config.Flow_config.seed "degrade") in
  let escalate k =
    if k = 0 then config
    else
      let seed = Rng.int (Rng.split esc_rng) 0x3FFFFFFF in
      let widen v = min 128 (v * (1 lsl min k 3)) in
      {
        config with
        Flow_config.seed;
        beam_width = widen config.Flow_config.beam_width;
        expand_per_state = min 8 (config.Flow_config.expand_per_state + k);
        keep_prob = min 0.9 (config.Flow_config.keep_prob *. (1.5 ** float_of_int k));
        prune_slack =
          config.Flow_config.prune_slack *. (1.0 +. (0.5 *. float_of_int k));
      }
  in
  let rung k =
    if config.Flow_config.degrade then escalate k
    else { config with Flow_config.seed = config.Flow_config.seed + (1000 * k) }
  in
  let rungs =
    if config.Flow_config.backend = Flow_config.Exact then 1
    else if config.Flow_config.degrade then max 1 config.Flow_config.max_attempts
    else config.Flow_config.retries + 1
  in
  let rec attempt k trace =
    let cfg_k = rung k in
    match
      run_once ~work ~retries_used:k ~config:cfg_k ~routes ~deadline ?base
        cgra cdfg
    with
    | Ok (m, s) -> Ok (m, { s with escalations = List.rev trace })
    | Error f ->
      let trace = escalation_of ~attempt:k cfg_k f :: trace in
      if k + 1 >= rungs then Error { f with gave_up = List.rev trace }
      else attempt (k + 1) trace
  in
  (* A fired deadline unwinds as [Search.Timed_out] from whatever boundary
     observed it; converting it here — outside the ladder — guarantees a
     timed-out attempt is never retried: the ladder only ever sees
     ordinary [Error] values. *)
  match attempt 0 [] with
  | exception Search.Timed_out { at_block; where } ->
    Error
      (fail ~verdict:(Search.Expired { where }) ~at_block ~work:!work
         (Printf.sprintf "timed out (%s)" where))
  | r -> r

(* The portfolio race: run the beam flow (ladder and all) and the
   exact flow over the same inputs on the domain pool and keep the
   better-by-cost feasible result.  Both sides always run to
   completion — cancelling the loser early would make the winner (and
   the deterministic [work] total) depend on relative machine speed,
   breaking byte-identical artifacts — and the cost comparison uses
   the beam's own objective (schedule length weighted at 256 per
   block, plus [move_weight] per routing move), with ties to the
   beam, so a portfolio artifact is never worse than the beam's. *)
let drive ~work ~config ~deadline ?base cgra cdfg =
  match config.Flow_config.backend with
  | Flow_config.Beam | Flow_config.Exact ->
    drive_single ~work ~config ~deadline ?base cgra cdfg
  | Flow_config.Portfolio -> (
    let results =
      Cgra_util.Pool.map ~jobs:2
        (fun backend ->
          let w = ref 0 in
          let r =
            drive_single ~work:w
              ~config:{ config with Flow_config.backend }
              ~deadline ?base cgra cdfg
          in
          (r, !w))
        [ Flow_config.Beam; Flow_config.Exact ]
    in
    match results with
    | [ (beam_r, beam_w); (exact_r, exact_w) ] -> (
      work := !work + beam_w + exact_w;
      let cost (m, _stats) =
        Array.fold_left
          (fun acc bm -> acc + (256 * bm.Mapping.length))
          0 m.Mapping.bbs
        + (config.Flow_config.move_weight * Mapping.total_moves m)
      in
      (* Fold both branches' effort into the telemetry. *)
      let finish (m, s) = Ok (m, { s with work = !work }) in
      let timeout_of = function
        | Error ({ verdict = Search.Expired _; _ } as f) -> Some f
        | Ok _ | Error _ -> None
      in
      match (timeout_of beam_r, timeout_of exact_r) with
      | Some f, _ | None, Some f ->
        (* If either side was cut short the race is void: picking the
           survivor would make the artifact depend on which side the
           deadline happened to hit first — a byte-level race.  The
           whole portfolio result is a timeout (and is never cached). *)
        Error { f with reason = "portfolio: " ^ f.reason; work = !work }
      | None, None -> (
      match (beam_r, exact_r) with
      | Ok b, Ok e -> if cost e < cost b then finish e else finish b
      | Ok b, Error _ -> finish b
      | Error _, Ok e -> finish e
      | Error bf, Error ef ->
        Error
          {
            bf with
            reason =
              Printf.sprintf "portfolio: both backends failed — beam: %s | exact: %s"
                bf.reason ef.reason;
            work = !work;
          }))
    | _ -> assert false)

let run ?(config = Flow_config.default)
    ?(deadline = Cgra_util.Deadline.never) cgra cdfg =
  (* Map onto the degraded fabric when a permanent-fault map is given.
     [degrade] with an empty list returns the array physically unchanged,
     so the pristine flow is a strict no-op. *)
  let cgra = Cgra.degrade cgra config.Flow_config.faults in
  drive ~work:(ref 0) ~config ~deadline cgra cdfg

let run_partial ?(config = Flow_config.default)
    ?(deadline = Cgra_util.Deadline.never) ~base ~dirty ~homes cgra =
  let cgra = Cgra.degrade cgra config.Flow_config.faults in
  (* The surviving placements reference [base.cdfg]'s node ids, so the
     dirty blocks are searched over that very CDFG. *)
  drive ~work:(ref 0) ~config ~deadline ~base:(base, dirty, homes) cgra
    base.Mapping.cdfg
