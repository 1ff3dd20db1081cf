(* Frozen reference copy of the beam search as it stood before trial
   bindings, when every binding attempt copied its parent state:
   [test_search.ml] checks that [Cgra_core.Search.map_block] returns the
   same mapping, homes and counters on the same inputs.  Test-only; do
   not edit. *)

module Flow_config = Cgra_core.Flow_config
module Occupancy = Cgra_core.Occupancy
module Mapping = Cgra_core.Mapping
module Sched = Cgra_core.Sched

module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode
module Cgra = Cgra_arch.Cgra
module Rng = Cgra_util.Rng
module Pool = Cgra_util.Pool

type block_stats = {
  block : int;
  block_name : string;
  rounds : int;
  attempts : int;
  children : int;
  route_failures : int;
  acmap_kills : int;
  ecmap_kills : int;
  prune_survivors : int;
  finalize_failures : int;
  recomputes : int;
  population_peak : int;
  wall_seconds : float;
  alloc_words : float;
}

type outcome = {
  bb_mapping : Mapping.bb_mapping;
  new_homes : (int * int) list;
  stats : block_stats;
}

type verdict =
  | Dead_end
  | Proved_unsat
  | Budget_spent
  | Expired of { where : string }

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: go (n - 1) tl
  in
  go n l

(* Per-expansion effort counters.  Each parallel expansion task mutates its
   own private tally; the driver folds them into the block tally (and the
   flow's [work] ref) on the main domain, so the totals are race-free and
   identical at any [expand_jobs]. *)
type tally = { mutable attempts : int; mutable route_failures : int }

let fresh_tally () = { attempts = 0; route_failures = 0 }

let merge_tally ~into t =
  into.attempts <- into.attempts + t.attempts;
  into.route_failures <- into.route_failures + t.route_failures

(* A partial mapping.  [avail.(v)] lists the (tile, ready-cycle) pairs where
   value [v] can be read; value ids are node ids, then [nnodes + sym].
   Copies share the immutable lists, so duplicating a state is cheap: the
   occupancy of all tiles lives in one grid ([Occupancy.t]), which also
   counts each tile's instructions, so the whole copy is a handful of
   flat-array allocations, not one per tile. *)
type pstate = {
  occ : Occupancy.t;
  avail : (int * int) list array;
  place_cycle : int array; (* node -> latest cycle it executes at, -1 unplaced *)
  slots : Mapping.slot list; (* reversed *)
  homes_new : (int * int) list;
  sym_read : (int * int) list; (* sym -> latest read cycle of its home slot *)
  n_moves : int;
  horizon : int;
  mutable cost_memo : int;
      (* [cost] of this state, or -1 when not yet evaluated.  States are
         mutated only between their creation ([copy_pstate] resets the
         memo) and their first cost query (sorting/pruning), so the first
         computed value stays valid for the state's lifetime. *)
}

exception Timed_out of { at_block : int; where : string }

type ctx = {
  config : Flow_config.t;
  cgra : Cgra.t;
  cdfg : Cdfg.t;
  bi : int;
  deadline : Cgra_util.Deadline.t;
  block : Cdfg.block;
  nnodes : int;
  committed : int array;
  homes : int array;
  hosts_home : bool array; (* tile -> hosts a committed symbol home *)
  tally : tally; (* binding attempts — the deterministic effort counter *)
  routes : int list list array;
      (* (row-first, column-first) path per (src, dst), flattened
         [src * ntiles + dst]: routing is queried for the same few pairs on
         every binding attempt of the block, so the paths are interned once
         per flow run ([Flow] precomputes the table and hands it to every
         block) instead of per block or per probe *)
  able : int list array;
      (* per node, the tiles able to execute its opcode, in id order (the
         re-computation transformation enumerates in this neutral order) *)
  able_sorted : int list array;
      (* the same tiles pre-sorted by context-memory size when the energy
         bias applies (physically [able] otherwise).  Candidate enumeration
         runs once per expansion, so the able-filter and the sort (both
         pstate-independent) are hoisted out of the hot loop. *)
}

let ntiles ctx = Cgra.tile_count ctx.cgra

let cm_of ctx t = ctx.cgra.Cgra.tiles.(t).cm_words

(* Capacity seen during binding: tiles hosting a symbol home keep
   [home_reserve] words free for the mandatory live-out writes of this and
   later blocks. *)
let binding_cm ctx p t =
  let hosts_home =
    ctx.hosts_home.(t)
    || List.exists (fun (_, h) -> h = t) p.homes_new
  in
  if hosts_home then cm_of ctx t - ctx.config.Flow_config.home_reserve
  else cm_of ctx t

let initial_pstate ctx =
  let nt = ntiles ctx in
  let nvals = ctx.nnodes + ctx.cdfg.Cdfg.sym_count in
  {
    occ = Occupancy.create nt;
    avail = Array.make (max 1 nvals) [];
    place_cycle = Array.make (max 1 ctx.nnodes) (-1);
    slots = [];
    homes_new = [];
    sym_read = [];
    n_moves = 0;
    horizon = 0;
    cost_memo = -1;
  }

let copy_pstate p =
  {
    p with
    occ = Occupancy.copy p.occ;
    avail = Array.copy p.avail;
    place_cycle = Array.copy p.place_cycle;
    cost_memo = -1;
  }

let home_of ctx p s =
  match List.assoc_opt s p.homes_new with
  | Some h -> Some h
  | None -> if ctx.homes.(s) >= 0 then Some ctx.homes.(s) else None

let sym_read_cycle p s =
  match List.assoc_opt s p.sym_read with Some c -> c | None -> -1

let note_sym_read p s cycle =
  if cycle > sym_read_cycle p s then
    { p with sym_read = (s, cycle) :: List.remove_assoc s p.sym_read }
  else p

(* Locations where a value can currently be read, lazily seeding symbol
   values at their home tile (available since block entry, cycle 0). *)
let locations ctx p = function
  | Mapping.Vimm _ -> []
  | Mapping.Vnode i -> p.avail.(i)
  | Mapping.Vsym s ->
    let base = match home_of ctx p s with Some h -> [ (h, 0) ] | None -> [] in
    base @ p.avail.(ctx.nnodes + s)

let vid ctx = function
  | Mapping.Vnode i -> i
  | Mapping.Vsym s -> ctx.nnodes + s
  | Mapping.Vimm _ -> invalid_arg "Search.vid: immediates have no id"

let add_avail ctx p value tile cycle =
  let id = vid ctx value in
  p.avail.(id) <- (tile, cycle) :: p.avail.(id)

let bump_horizon p c = if c + 1 > p.horizon then { p with horizon = c + 1 } else p

(* Current exact context estimate of a tile inside this block (used by CAB
   and ECMAP): committed words + instructions so far + pnops of the current
   occupancy over the current horizon. *)
let words_now ctx p t = ctx.committed.(t) + Occupancy.words p.occ t

let blacklisted ctx p t =
  ctx.config.Flow_config.cab && words_now ctx p t + 1 > binding_cm ctx p t

(* ACMAP (Section III-D-2): the approximate, cheap estimate — instruction
   count plus at most one pnop (a single gap indicator).  Deliberately
   crude: it keeps partial mappings whose real pnop count will overflow
   (they die at the final validation — the paper's "abundance of invalid
   mappings" for ACMAP-only) and can drop fitting ones whose gaps would
   have been filled. *)
let acmap_ok ctx p =
  let ok = ref true in
  for t = 0 to ntiles ctx - 1 do
    let gap = min 1 (Occupancy.pnops_optimistic p.occ t) in
    let est = ctx.committed.(t) + Occupancy.busy_count p.occ t + gap in
    if est > binding_cm ctx p t then ok := false
  done;
  !ok

(* ECMAP (Section III-D-3): exact pnop count over the cycles mapped so
   far.  During binding rounds the home-tile reserve applies; the final
   check after live-out placement uses the true capacity. *)
let ecmap_ok ?(reserve = true) ctx p =
  let ok = ref true in
  for t = 0 to ntiles ctx - 1 do
    let cap = if reserve then binding_cm ctx p t else cm_of ctx t in
    if words_now ctx p t > cap then ok := false
  done;
  !ok

(* ---- routing ------------------------------------------------------- *)

(* Probe a path without mutating the state: the arrival cycle of the value
   at the end of [path] when each hop's move goes in the earliest free slot
   of that hop tile.  Hop tiles are never rejected: CAB blacklists tiles
   for the *binding* of operations only; routing moves may still cross a
   full tile — the memory-aware filters judge the resulting usage. *)
let probe_path p ~ready path =
  let rec go ready = function
    | [] -> ready
    | hop :: rest ->
      let c = Occupancy.first_free_at_or_after p.occ hop ready in
      go (c + 1) rest
  in
  go ready path

(* Materialise the chosen path: mutates [p]'s arrays in place (caller owns a
   fresh copy) and returns the functional fields threaded through. *)
let apply_path ctx p ~value ~src ~ready path =
  let rec go p prev ready = function
    | [] -> (p, ready)
    | hop :: rest ->
      let c = Occupancy.first_free_at_or_after p.occ hop ready in
      Occupancy.occupy p.occ hop c;
      add_avail ctx p value hop (c + 1);
      let slot =
        {
          Mapping.tile = hop;
          cycle = c;
          action = Mapping.Amove { value; from_tile = prev };
          writes_sym = None;
          set_cond = false;
        }
      in
      let p = { p with slots = slot :: p.slots; n_moves = p.n_moves + 1 } in
      let p = bump_horizon p c in
      let p =
        match value with
        | Mapping.Vsym s when Some prev = home_of ctx p s -> note_sym_read p s c
        | Mapping.Vsym _ | Mapping.Vnode _ | Mapping.Vimm _ -> p
      in
      go p hop (c + 1) rest
  in
  go p src ready path

(* Column-first variant of Cgra.route_geometric (which is row-first):
   route on the transposed problem by chaining the two half-routes. *)
let route_col_first cgra ~src ~dst =
  let ts = cgra.Cgra.tiles.(src) and td = cgra.Cgra.tiles.(dst) in
  let corner_id =
    (ts.Cgra.row * cgra.Cgra.cols) + td.Cgra.col
  in
  if corner_id = src then Cgra.route_geometric cgra ~src ~dst
  else if corner_id = dst then Cgra.route_geometric cgra ~src ~dst
  else
    Cgra.route_geometric cgra ~src ~dst:corner_id
    @ Cgra.route_geometric cgra ~src:corner_id ~dst

(* Candidate paths per (src, dst) pair.  Pristine arrays keep exactly the
   two deterministic shapes (row-first, column-first).  On degraded arrays
   each shape survives only if it avoids dead tiles and severed links; when
   both are broken the deterministic BFS detour is the sole candidate, and
   a partitioned pair has no candidates at all — the binding that needs it
   then fails routing, which the beam search treats like any other
   infeasible placement. *)
let build_routes cgra =
  let nt = Cgra.tile_count cgra in
  Array.init (nt * nt) (fun i ->
      let src = i / nt and dst = i mod nt in
      let row = Cgra.route_geometric cgra ~src ~dst
      and col = route_col_first cgra ~src ~dst in
      if Cgra.pristine cgra then [ row; col ]
      else
        match
          List.filter (Cgra.path_ok cgra ~src)
            (if row = col then [ row ] else [ row; col ])
        with
        | [] -> (
          match Cgra.route_opt cgra ~src ~dst with
          | Some p -> [ p ]
          | None -> [])
        | ps -> ps)

let paths_of ctx ~src ~dst = ctx.routes.((src * ntiles ctx) + dst)

(* Land [value] in [dst]'s own register file: Some (state, ready cycle).
   Used for the mandatory live-out writes, whose destination is a fixed RF
   slot.  Chooses, over the value's current locations and the two
   deterministic path shapes, the option with the earliest arrival, fewest
   hops. *)
let route_into ctx p ~value ~dst =
  match value with
  | Mapping.Vimm _ -> Some (p, 0)
  | Mapping.Vnode _ | Mapping.Vsym _ -> (
    let locs = locations ctx p value in
    match List.filter (fun (t, _) -> t = dst) locs with
    | (_, ready) :: more ->
      let ready = List.fold_left (fun acc (_, r) -> min acc r) ready more in
      Some (p, ready)
    | [] ->
      let options =
        List.concat_map
          (fun (src, ready) ->
            List.map
              (fun path ->
                let arrival = probe_path p ~ready path in
                (arrival, List.length path, src, ready, path))
              (paths_of ctx ~src ~dst))
          locs
      in
      (match List.sort compare options with
       | [] -> None
       | (_, _, src, ready, path) :: _ ->
         let p, arrival = apply_path ctx p ~value ~src ~ready path in
         Some (p, arrival)))

(* Make [value] readable by an operation on [dst]: the PE input muxes read
   the local RF or any torus neighbour's RF directly (Fig 1), so only
   routes longer than one hop insert moves — and those stop at a neighbour
   of [dst].  Some (state, ready cycle, source tile). *)
let route_usable ctx p ~value ~dst =
  match value with
  | Mapping.Vimm _ -> Some (p, 0, dst)
  | Mapping.Vnode _ | Mapping.Vsym _ -> (
    let locs = locations ctx p value in
    let direct =
      List.filter_map
        (fun (t, ready) ->
          if t = dst then Some (ready, 0, t)
          else if Cgra.distance ctx.cgra t dst = 1 then Some (ready, 1, t)
          else None)
        locs
    in
    match List.sort compare direct with
    | (ready, _, t) :: _ -> Some (p, ready, t)
    | [] ->
      let options =
        List.concat_map
          (fun (src, ready) ->
            List.filter_map
              (fun path ->
                (* stop one hop short: the op reads the neighbour's RF *)
                match List.rev path with
                | [] | [ _ ] -> None
                | _last :: rev_prefix ->
                  let prefix = List.rev rev_prefix in
                  let arrival = probe_path p ~ready prefix in
                  Some (arrival, List.length prefix, src, ready, prefix))
              (paths_of ctx ~src ~dst))
          locs
      in
      (match List.sort compare options with
       | [] -> None
       | (_, _, src, ready, path) :: _ ->
         let p, arrival = apply_path ctx p ~value ~src ~ready path in
         let land_tile =
           match List.rev path with t :: _ -> t | [] -> assert false
         in
         Some (p, arrival, land_tile)))

(* ---- binding one operation ----------------------------------------- *)

let operand_value = function
  | Cdfg.Node j -> Mapping.Vnode j
  | Cdfg.Sym s -> Mapping.Vsym s
  | Cdfg.Imm k -> Mapping.Vimm k

(* Place DFG node [node_id] on [tile]: routes every operand, fixes pending
   symbol homes, books the cycle.  Returns None when routing fails (CAB
   blocked every path). *)
let place_node ctx p ~node_id ~tile =
  ctx.tally.attempts <- ctx.tally.attempts + 1;
  let node = ctx.block.Cdfg.nodes.(node_id) in
  let p = copy_pstate p in
  (* [acc] collects (ready, source tile) per operand, reversed. *)
  let rec bring p acc = function
    | [] -> Some (p, List.rev acc)
    | operand :: rest -> (
      match operand with
      | Cdfg.Imm _ -> bring p ((0, tile) :: acc) rest
      | Cdfg.Sym s when home_of ctx p s = None ->
        (* First touch of an undefined symbol: pin its home here — the
           location-constraint choice that distinguishes partial
           mappings. *)
        let p = { p with homes_new = (s, tile) :: p.homes_new } in
        bring p ((0, tile) :: acc) rest
      | Cdfg.Sym _ | Cdfg.Node _ -> (
        match route_usable ctx p ~value:(operand_value operand) ~dst:tile with
        | None -> None
        | Some (p, ready, src) -> bring p ((ready, src) :: acc) rest))
  in
  match bring p [] node.Cdfg.operands with
  | None ->
    ctx.tally.route_failures <- ctx.tally.route_failures + 1;
    None
  | Some (p, operand_info) ->
    (* Memory-dependence edges order this node after its predecessors'
       execution cycles, wherever they were placed. *)
    let dep_ready =
      List.fold_left
        (fun acc j -> max acc (p.place_cycle.(j) + 1))
        0 node.Cdfg.mem_dep
    in
    let earliest =
      List.fold_left (fun acc (r, _) -> max acc r) dep_ready operand_info
    in
    let c = Occupancy.first_free_at_or_after p.occ tile earliest in
    Occupancy.occupy p.occ tile c;
    let operand_tiles = List.map snd operand_info in
    let slot =
      {
        Mapping.tile;
        cycle = c;
        action = Mapping.Aop { node = node_id; operand_tiles };
        writes_sym = None;
        set_cond = false;
      }
    in
    let p = { p with slots = slot :: p.slots } in
    let p = bump_horizon p c in
    (* A symbol operand read out of its home RF slot — locally or through
       the neighbour mux — constrains the slot's overwrite cycle. *)
    let p =
      List.fold_left2
        (fun p operand (_, srct) ->
          match operand with
          | Cdfg.Sym s when home_of ctx p s = Some srct -> note_sym_read p s c
          | Cdfg.Sym _ | Cdfg.Node _ | Cdfg.Imm _ -> p)
        p node.Cdfg.operands operand_info
    in
    if Opcode.has_result node.Cdfg.opcode then
      add_avail ctx p (Mapping.Vnode node_id) tile (c + 1);
    if c > p.place_cycle.(node_id) then p.place_cycle.(node_id) <- c;
    Some (p, c)

(* Keep the non-blacklisted candidates, or everything when CAB blocks them
   all: binding somewhere beats dying here — the exact pruning and final
   validation will judge the overflow.  The able-tile enumeration (and the
   energy-bias sort of the context-aware flows) is pstate-independent, so
   it is precomputed per node in [ctx.able_sorted]; only this cheap filter
   runs per expansion. *)
let candidate_tiles ctx p tiles =
  match List.filter (fun t -> not (blacklisted ctx p t)) tiles with
  | [] -> tiles
  | unblocked -> unblocked

(* Expand one partial mapping with the feasible bindings of [node_id],
   keeping the [expand_per_state] locally-best children. *)
let expand_state ctx p node_id =
  let children =
    List.filter_map
      (fun tile ->
        match place_node ctx p ~node_id ~tile with
        | Some (p', cycle) -> Some ((cycle, p'.n_moves - p.n_moves), p')
        | None -> None)
      (candidate_tiles ctx p ctx.able_sorted.(node_id))
  in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) children in
  List.map snd (take ctx.config.Flow_config.expand_per_state sorted)

(* Expand the whole population for one round.  Expansion is RNG-free (only
   the stochastic pruning consumes the random stream) and every task works
   on its own copies, so fanning the states out over [expand_jobs] domains
   returns the exact sequential result; the per-task tallies are merged on
   the main domain afterwards. *)
let expand_population ctx pop node_id =
  (* Expansion boundary: the last poll before the all-OCaml hot path. *)
  if Cgra_util.Deadline.expired ctx.deadline then
    raise
      (Timed_out
         { at_block = ctx.bi; where = "search expansion " ^ ctx.block.Cdfg.name });
  let jobs = ctx.config.Flow_config.expand_jobs in
  let small = match pop with [] | [ _ ] -> true | _ :: _ :: _ -> false in
  if jobs <= 1 || small then
    List.concat_map (fun p -> expand_state ctx p node_id) pop
  else begin
    let tasks = List.map (fun p -> (p, fresh_tally ())) pop in
    let results =
      Pool.map ~jobs
        (fun (p, tally) -> expand_state { ctx with tally } p node_id)
        tasks
    in
    List.iter (fun (_, t) -> merge_tally ~into:ctx.tally t) tasks;
    List.concat results
  end

(* Re-computation graph transformation: duplicate one already-placed
   producer of [node_id] onto a candidate tile, then retry the binding
   there.  Used only when regular expansion yields nothing. *)
let expand_with_recompute ctx p node_id =
  let node = ctx.block.Cdfg.nodes.(node_id) in
  let producers =
    List.filter_map
      (function Cdfg.Node j -> Some j | Cdfg.Sym _ | Cdfg.Imm _ -> None)
      node.Cdfg.operands
  in
  let try_tile tile =
    List.find_map
      (fun j ->
        if not (Cgra.can_execute ctx.cgra tile ctx.block.Cdfg.nodes.(j).Cdfg.opcode)
        then None
        else
          match place_node ctx p ~node_id:j ~tile with
          | None -> None
          | Some (p1, _) -> (
            match place_node ctx p1 ~node_id ~tile with
            | None -> None
            | Some (p2, _) -> Some p2))
      producers
  in
  List.find_map try_tile (candidate_tiles ctx p ctx.able.(node_id))

(* ---- pruning -------------------------------------------------------- *)

(* Quadratic penalty once a tile's context memory fills beyond 3/4 — the
   exploration bias of the context-aware flow: among latency-equivalent
   partial mappings, prefer those that keep headroom on small-CM tiles for
   the blocks still to come.  The basic flow of [1] is not memory-aware, so
   the term is active only when one of the aware steps is enabled. *)
let memory_pressure ctx p =
  let total = ref 0 in
  for t = 0 to ntiles ctx - 1 do
    let cm = cm_of ctx t in
    let over = (4 * words_now ctx p t) - (3 * cm) in
    if over > 0 then total := !total + (over * over)
  done;
  !total

(* Memoized per state: the sort comparators and prune filters below query
   the cost of the same state many times, and each evaluation is O(tiles).
   Valid because states are immutable from their first cost query onwards
   (see [cost_memo]) and always costed under the same config. *)
let cost ctx p =
  if p.cost_memo >= 0 then p.cost_memo
  else begin
    let base =
      (p.horizon * 256) + (ctx.config.Flow_config.move_weight * p.n_moves)
    in
    let c =
      if ctx.config.Flow_config.ecmap || ctx.config.Flow_config.cab then
        base + memory_pressure ctx p
      else base
    in
    p.cost_memo <- c;
    c
  end

(* Stochastic threshold pruning of the basic flow: children within the
   slack of the best cost survive; the rest survive with [keep_prob]; the
   population is finally capped at [beam_width]. *)
let stochastic_prune ctx rng pop =
  let sorted = List.sort (fun a b -> compare (cost ctx a) (cost ctx b)) pop in
  match sorted with
  | [] -> []
  | best :: _ ->
    let threshold =
      int_of_float
        (float_of_int (cost ctx best) *. (1.0 +. ctx.config.Flow_config.prune_slack))
    in
    let survivors =
      List.filter
        (fun p ->
          cost ctx p <= threshold
          || Rng.float rng < ctx.config.Flow_config.keep_prob)
        sorted
    in
    (match take ctx.config.Flow_config.beam_width survivors with
     | [] -> [ best ]
     | kept -> kept)

(* ---- block finalisation (live-outs, condition export) --------------- *)

exception Finalize_failed of string

(* Fallback home for a live-out with no natural location (e.g. an
   immediate initialiser): the tile with the most remaining context-memory
   headroom, current load breaking ties.  Ranking by raw load alone would
   pin homes onto small-CM tiles of heterogeneous fabrics — exactly the
   tiles the context-aware flow tries to keep free — because an empty
   4-word tile looks "less loaded" than a lightly-used 192-word one. *)
let least_loaded_tile ctx p =
  let best = ref (-1) and best_headroom = ref min_int and best_load = ref max_int in
  for t = 0 to ntiles ctx - 1 do
    if Cgra.alive ctx.cgra t then begin
      let load = ctx.committed.(t) + Occupancy.busy_count p.occ t in
      let headroom = cm_of ctx t - load in
      if headroom > !best_headroom
         || (headroom = !best_headroom && load < !best_load)
      then begin
        best := t;
        best_headroom := headroom;
        best_load := load
      end
    end
  done;
  if !best < 0 then raise (Finalize_failed "no live tile for a fallback home");
  !best

(* Mark the slot at (tile, cycle) — unique — as writing symbol [s] and/or
   setting the condition bit. *)
let mark_slot p ~tile ~cycle ?sym ?(set_cond = false) () =
  let updated = ref false in
  let slots =
    List.map
      (fun sl ->
        if sl.Mapping.tile = tile && sl.Mapping.cycle = cycle then begin
          updated := true;
          {
            sl with
            Mapping.writes_sym =
              (match sym with Some s -> Some s | None -> sl.Mapping.writes_sym);
            set_cond = sl.Mapping.set_cond || set_cond;
          }
        end
        else sl)
      p.slots
  in
  if not !updated then raise (Finalize_failed "mark_slot: slot not found");
  { p with slots }

(* A slot at [home] that already produces [value] and can absorb the symbol
   write for free (its destination becomes the symbol's RF slot). *)
let free_writer_slot p ~home ~value ~min_cycle =
  let defines sl =
    sl.Mapping.tile = home
    && sl.Mapping.writes_sym = None
    && sl.Mapping.cycle >= min_cycle
    &&
    match sl.Mapping.action, value with
    | Mapping.Aop { node = j; _ }, Mapping.Vnode j' -> j = j'
    | Mapping.Amove { value = v; _ }, _ -> v = value
    | Mapping.Acopy v, _ -> v = value
    | Mapping.Aop _, (Mapping.Vsym _ | Mapping.Vimm _) -> false
  in
  List.filter defines p.slots
  |> List.sort (fun a b -> compare b.Mapping.cycle a.Mapping.cycle)
  |> function
  | [] -> None
  | sl :: _ -> Some sl

let add_copy ctx p ~tile ~value ~min_cycle ?sym ?(set_cond = false) () =
  let ready =
    match value with
    | Mapping.Vimm _ -> 0
    | Mapping.Vnode _ | Mapping.Vsym _ -> (
      match List.filter (fun (t, _) -> t = tile) (locations ctx p value) with
      | [] -> raise (Finalize_failed "add_copy: value not local")
      | locs -> List.fold_left (fun acc (_, r) -> min acc r) max_int locs)
  in
  let c = Occupancy.first_free_at_or_after p.occ tile (max ready min_cycle) in
  Occupancy.occupy p.occ tile c;
  let slot =
    {
      Mapping.tile;
      cycle = c;
      action = Mapping.Acopy value;
      writes_sym = sym;
      set_cond;
    }
  in
  let p = { p with slots = slot :: p.slots; n_moves = p.n_moves + 1 } in
  let p = bump_horizon p c in
  let p =
    match value with
    | Mapping.Vsym s when home_of ctx p s = Some tile -> note_sym_read p s c
    | Mapping.Vsym _ | Mapping.Vnode _ | Mapping.Vimm _ -> p
  in
  (p, c)

(* Order live-out items so that an item reading symbol [s'] is processed
   before the item writing [s'] (read-before-write on the home RF slot).
   A dependency cycle (a swap) has no valid order; it is rejected — the
   frontend never emits one. *)
let order_live_outs items =
  (* [other_reader_of s item] holds when [item] reads symbol [s]'s old value
     (a self-assignment [s := s] constrains nothing). *)
  let other_reader_of s (s_written, operand) =
    match operand with
    | Cdfg.Sym s' -> s' = s && s_written <> s
    | Cdfg.Node _ | Cdfg.Imm _ -> false
  in
  let rec go acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      (* An item may be emitted once no remaining item still needs to read
         the symbol it writes. *)
      let ready, blocked =
        List.partition
          (fun (s, _) -> not (List.exists (other_reader_of s) remaining))
          remaining
      in
      (match ready with
       | [] ->
         raise
           (Finalize_failed
              "live-out dependency cycle (symbol swap) is not supported")
       | _ -> go (List.rev_append ready acc) blocked)
  in
  go [] items

let finalize ctx p =
  try
    let p = copy_pstate p in
    let items = order_live_outs ctx.block.Cdfg.live_out in
    let write_cycle = Hashtbl.create 4 in
    let p =
      List.fold_left
        (fun p (s, operand) ->
          let value = operand_value operand in
          let p, home =
            match home_of ctx p s with
            | Some h -> (p, h)
            | None ->
              let h =
                match value with
                | Mapping.Vnode _ | Mapping.Vsym _ -> (
                  match locations ctx p value with
                  | (t, _) :: _ -> t
                  | [] -> least_loaded_tile ctx p)
                | Mapping.Vimm _ -> least_loaded_tile ctx p
              in
              ({ p with homes_new = (s, h) :: p.homes_new }, h)
          in
          let min_cycle = max 0 (sym_read_cycle p s) in
          let p, cw =
            match value with
            | Mapping.Vimm _ ->
              add_copy ctx p ~tile:home ~value ~min_cycle ~sym:s ()
            | Mapping.Vnode _ | Mapping.Vsym _ -> (
              (* Self-assignment to the same slot is a no-op. *)
              match value with
              | Mapping.Vsym s' when s' = s ->
                (p, max 0 (sym_read_cycle p s))
              | _ ->
                let p =
                  if List.exists (fun (t, _) -> t = home) (locations ctx p value)
                  then p
                  else
                    match route_into ctx p ~value ~dst:home with
                    | Some (p, _) -> p
                    | None ->
                      raise (Finalize_failed "live-out routing blocked")
                in
                (match free_writer_slot p ~home ~value ~min_cycle with
                 | Some sl ->
                   ( mark_slot p ~tile:sl.Mapping.tile ~cycle:sl.Mapping.cycle
                       ~sym:s (),
                     sl.Mapping.cycle )
                 | None -> add_copy ctx p ~tile:home ~value ~min_cycle ~sym:s ()))
          in
          Hashtbl.replace write_cycle s cw;
          p)
        p items
    in
    (* Condition export for conditional terminators. *)
    let p =
      match ctx.block.Cdfg.terminator with
      | Cdfg.Jump _ | Cdfg.Return -> p
      | Cdfg.Branch (cond, _, _) -> (
        match cond with
        | Cdfg.Node j ->
          let op_slot =
            List.find
              (fun sl ->
                match sl.Mapping.action with
                | Mapping.Aop { node; _ } -> node = j
                | Mapping.Amove _ | Mapping.Acopy _ -> false)
              p.slots
          in
          mark_slot p ~tile:op_slot.Mapping.tile ~cycle:op_slot.Mapping.cycle
            ~set_cond:true ()
        | Cdfg.Sym s ->
          let home =
            match home_of ctx p s with
            | Some h -> h
            | None -> raise (Finalize_failed "branch on undefined symbol")
          in
          let min_cycle =
            match Hashtbl.find_opt write_cycle s with
            | Some cw -> cw + 1 (* read the freshly written value *)
            | None -> 0
          in
          let value = Mapping.Vsym s in
          fst (add_copy ctx p ~tile:home ~value ~min_cycle ~set_cond:true ())
        | Cdfg.Imm k ->
          let tile = least_loaded_tile ctx p in
          fst
            (add_copy ctx p ~tile ~value:(Mapping.Vimm k) ~min_cycle:0
               ~set_cond:true ()))
    in
    Some p
  with Finalize_failed _ -> None

(* ---- driver ---------------------------------------------------------- *)

let map_block ?routes ?(deadline = Cgra_util.Deadline.never) ~config ~cgra
    ~committed ~homes ~rng ~work cdfg bi =
  let t_start = Cgra_util.Clock.now () in
  let alloc_start = Gc.allocated_bytes () in
  let block = cdfg.Cdfg.blocks.(bi) in
  let nt = Cgra.tile_count cgra in
  let hosts_home = Array.make nt false in
  Array.iter (fun h -> if h >= 0 then hosts_home.(h) <- true) homes;
  let all_tiles = List.init nt Fun.id in
  let able =
    Array.map
      (fun n ->
        List.filter (fun t -> Cgra.can_execute cgra t n.Cdfg.opcode) all_tiles)
      block.Cdfg.nodes
  in
  (* For kernels that use only a small fraction of the aggregate context
     capacity, the context-aware flows enumerate candidates smallest
     context memory first, so exact (cycle, moves) ties settle on the tile
     that is cheaper to fetch from and to leak — a gentle energy bias.
     Capacity-bound kernels keep the neutral order: for them feasibility,
     not placement cost, decides. *)
  let aware =
    (config.Flow_config.acmap || config.Flow_config.ecmap
     || config.Flow_config.cab)
    && Cdfg.node_count cdfg <= config.Flow_config.energy_bias_nodes
  in
  let able_sorted =
    if aware then
      let cm t = cgra.Cgra.tiles.(t).cm_words in
      Array.map
        (fun tiles ->
          List.stable_sort (fun a b -> compare (cm a) (cm b)) tiles)
        able
    else able
  in
  let ctx =
    {
      config;
      cgra;
      cdfg;
      bi;
      deadline;
      block;
      nnodes = Array.length block.Cdfg.nodes;
      committed;
      homes;
      hosts_home;
      tally = fresh_tally ();
      routes = (match routes with Some r -> r | None -> build_routes cgra);
      able;
      able_sorted;
    }
  in
  let info = Sched.analyse cdfg bi in
  let recomputes = ref 0 in
  let peak = ref 1 in
  let rounds_done = ref 0 in
  let children_total = ref 0 in
  let acmap_kills = ref 0 in
  let ecmap_kills = ref 0 in
  let prune_survivors = ref 0 in
  let finalize_failures = ref 0 in
  let budget = ref config.Flow_config.recompute_budget in
  let stats () =
    {
      block = bi;
      block_name = block.Cdfg.name;
      rounds = !rounds_done;
      attempts = ctx.tally.attempts;
      children = !children_total;
      route_failures = ctx.tally.route_failures;
      acmap_kills = !acmap_kills;
      ecmap_kills = !ecmap_kills;
      prune_survivors = !prune_survivors;
      finalize_failures = !finalize_failures;
      recomputes = !recomputes;
      population_peak = !peak;
      wall_seconds = Cgra_util.Clock.elapsed_s t_start;
      alloc_words =
        (Gc.allocated_bytes () -. alloc_start)
        /. float_of_int (Sys.word_size / 8);
    }
  in
  let acmap_filter children =
    if config.Flow_config.acmap then begin
      let kept = List.filter (acmap_ok ctx) children in
      acmap_kills := !acmap_kills + List.length children - List.length kept;
      kept
    end
    else children
  in
  let rec rounds pop = function
    | [] -> Ok pop
    | node_id :: rest ->
      (* Round boundary: filters and pruning behind us, state consistent. *)
      if Cgra_util.Deadline.expired ctx.deadline then
        raise
          (Timed_out
             { at_block = bi; where = "search round " ^ block.Cdfg.name });
      incr rounds_done;
      let children = expand_population ctx pop node_id in
      children_total := !children_total + List.length children;
      let children = acmap_filter children in
      let children =
        if children <> [] then children
        else begin
          (* Graph transformation: re-computation. *)
          let rec_children =
            if !budget <= 0 then []
            else
              List.filter_map
                (fun p ->
                  match expand_with_recompute ctx p node_id with
                  | Some p' ->
                    decr budget;
                    incr recomputes;
                    Some p'
                  | None -> None)
                pop
          in
          children_total := !children_total + List.length rec_children;
          acmap_filter rec_children
        end
      in
      if children = [] then
        Error
          (Printf.sprintf "block %s: no feasible binding for node %d (%s)"
             block.Cdfg.name node_id
             (Opcode.to_string block.Cdfg.nodes.(node_id).Cdfg.opcode))
      else begin
        peak := max !peak (List.length children);
        let pop = stochastic_prune ctx rng children in
        prune_survivors := !prune_survivors + List.length pop;
        let pop =
          if config.Flow_config.ecmap then begin
            let kept = List.filter (ecmap_ok ctx) pop in
            ecmap_kills := !ecmap_kills + List.length pop - List.length kept;
            kept
          end
          else pop
        in
        if pop = [] then
          Error
            (Printf.sprintf
               "block %s: exact context-memory pruning emptied the population \
                at node %d"
               block.Cdfg.name node_id)
        else rounds pop rest
      end
  in
  let result =
    match rounds [ initial_pstate ctx ] info.Sched.order with
    | Error _ as e -> e
    | Ok pop ->
      (* Live-out writes and condition export are mandatory: they must not be
         blocked by CAB blacklisting (CAB constrains the *binding* step only),
         so finalisation routes with the blacklist disabled and the exact
         filter below judges the result. *)
      let fctx =
        { ctx with config = { config with Flow_config.cab = false } }
      in
      let finalized = List.filter_map (finalize fctx) pop in
      finalize_failures := List.length pop - List.length finalized;
      let finalized =
        if config.Flow_config.ecmap then begin
          let kept = List.filter (ecmap_ok ~reserve:false ctx) finalized in
          ecmap_kills := !ecmap_kills + List.length finalized - List.length kept;
          kept
        end
        else finalized
      in
      (match
         List.sort (fun a b -> compare (cost ctx a) (cost ctx b)) finalized
       with
       | [] ->
         Error
           (Printf.sprintf "block %s: no partial mapping survived finalisation"
              block.Cdfg.name)
       | best :: _ ->
         let length =
           (* at least one cycle so the controller has a section to run *)
           max best.horizon 1
         in
         Ok
           {
             bb_mapping =
               { Mapping.bb = bi; length; slots = List.rev best.slots };
             new_homes = best.homes_new;
             stats = stats ();
           })
  in
  work := !work + ctx.tally.attempts;
  match result with Error _ as e -> e | Ok _ as ok -> ok
