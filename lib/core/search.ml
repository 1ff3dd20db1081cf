module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode
module Cgra = Cgra_arch.Cgra
module Rng = Cgra_util.Rng

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

type tally = { mutable attempts : int; mutable route_failures : int }

(* A partial mapping, updated in place.  [avail.(v)] lists the (tile,
   ready-cycle) pairs where value [v] can be read; value ids are node ids,
   then [nnodes + sym].  A binding attempt is tried on its parent in place
   and undone ([trial]); [copy_pstate], which shares the immutable lists
   and copies a handful of flat arrays (the occupancy of all tiles lives in
   one [Occupancy.t]), runs only for the partial mappings that survive
   pruning and for finalisation. *)
type pstate = {
  occ : Occupancy.t;
  avail : (int * int) list array;
  place_cycle : int array; (* node -> latest cycle it executes at, -1 unplaced *)
  mutable slots : Mapping.slot list; (* reversed *)
  mutable homes_new : (int * int) list;
  mutable sym_read : (int * int) list;
      (* sym -> latest read cycle of its home slot *)
  mutable n_moves : int;
  mutable horizon : int;
  mutable pushed : int list;
      (* value ids whose [avail] list the running trial extended, newest
         first; [] outside a trial *)
}

(* One candidate path of a (src, dst) pair.  An operation reads its
   operands from its own RF or a torus neighbour's, so the moves that
   bring an operand stop one hop short: [prefix] is [path] without its
   last hop, [hops] its length and [landing] its last tile, where the value
   lands (-1 when [hops = 0]). *)
type route = { path : int list; prefix : int list; hops : int; landing : int }

type routes = route list array

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
  hosts_home : Bytes.t; (* tile -> hosts a committed symbol home ('\001') *)
  tally : tally; (* binding attempts — the deterministic effort counter *)
  routes : routes;
      (* candidate paths per (src, dst), flattened [src * ntiles + dst]:
         routing is queried for the same few pairs on every binding attempt
         of the block, so the paths are interned once per flow run ([Flow]
         precomputes the table and hands it to every block) instead of per
         block or per probe *)
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

(* The tiles that host a symbol home — committed, or among [homes] (a
   state's [homes_new]) — as a byte per tile.  During binding they keep
   [home_reserve] words free for the mandatory live-out writes of this and
   later blocks.  Built once per expansion: a binding adds at most the tile
   it binds, because a first-touched symbol is homed there. *)
let reserved_tiles ctx homes =
  let r = Bytes.copy ctx.hosts_home in
  List.iter (fun (_, h) -> Bytes.set r h '\001') homes;
  r

(* Capacity seen during binding, with [r] from [reserved_tiles]. *)
let binding_cm ctx r t =
  if Bytes.get r t <> '\000' then
    cm_of ctx t - ctx.config.Flow_config.home_reserve
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
    pushed = [];
  }

let copy_pstate p =
  {
    p with
    occ = Occupancy.copy p.occ;
    avail = Array.copy p.avail;
    place_cycle = Array.copy p.place_cycle;
    pushed = [];
  }

(* Home tile of symbol [s], or -1 while it has none. *)
let home_tile ctx p s =
  let rec find = function
    | [] -> ctx.homes.(s)
    | (s', h) :: rest -> if s' = s then h else find rest
  in
  find p.homes_new

let sym_read_cycle p s =
  match List.assoc_opt s p.sym_read with Some c -> c | None -> -1

let note_sym_read p s cycle =
  if cycle > sym_read_cycle p s then
    p.sym_read <- (s, cycle) :: List.remove_assoc s p.sym_read

(* Locations where a value can currently be read, lazily seeding symbol
   values at their home tile (available since block entry, cycle 0). *)
let locations ctx p = function
  | Mapping.Vimm _ -> []
  | Mapping.Vnode i -> p.avail.(i)
  | Mapping.Vsym s ->
    let h = home_tile ctx p s in
    let base = if h >= 0 then [ (h, 0) ] else [] in
    base @ p.avail.(ctx.nnodes + s)

let vid ctx = function
  | Mapping.Vnode i -> i
  | Mapping.Vsym s -> ctx.nnodes + s
  | Mapping.Vimm _ -> invalid_arg "Search.vid: immediates have no id"

(* [value] becomes readable on [tile] from [cycle].  A trial journals the
   push, so that [trial] can pop it again. *)
let add_avail ctx ~trial p value tile cycle =
  let id = vid ctx value in
  p.avail.(id) <- (tile, cycle) :: p.avail.(id);
  if trial then p.pushed <- id :: p.pushed

let bump_horizon p c = if c + 1 > p.horizon then p.horizon <- c + 1

(* Current exact context estimate of a tile inside this block (used by CAB
   and ECMAP): committed words + instructions so far + pnops of the current
   occupancy over the current horizon. *)
let words_now ctx p t = ctx.committed.(t) + Occupancy.words p.occ t

let blacklisted ctx r p t =
  ctx.config.Flow_config.cab && words_now ctx p t + 1 > binding_cm ctx r t

(* ---- scoring --------------------------------------------------------- *)

(* What pruning reads of one binding: its (cycle, moves) key, the cost of
   the partial mapping it yields and the ACMAP and ECMAP verdicts on that
   mapping.  [parent] and [tile] name the binding, which is replayed on a
   copy of [parent] only if the candidate survives pruning
   ([materialise]); [tile = -1] marks a partial mapping that is already
   built — [parent] itself, as for the re-computation children. *)
type candidate = {
  parent : pstate;
  tile : int;
  cycle : int;
  moves : int;
  cost : int;
  acmap_ok : bool;
  ecmap_ok : bool;
}

(* Quadratic penalty once a tile's context memory fills beyond 3/4 — the
   exploration bias of the context-aware flow: among latency-equivalent
   partial mappings, prefer those that keep headroom on small-CM tiles for
   the blocks still to come. *)
let pressure ctx p t =
  let over = (4 * words_now ctx p t) - (3 * cm_of ctx t) in
  if over > 0 then over * over else 0

(* ACMAP (Section III-D-2): the approximate, cheap estimate — instruction
   count plus at most one pnop (a single gap indicator).  Deliberately
   crude: it keeps partial mappings whose real pnop count will overflow
   (they die at the final validation — the paper's "abundance of invalid
   mappings" for ACMAP-only) and can drop fitting ones whose gaps would
   have been filled. *)
let acmap_over ctx p t ~cap =
  let gap = min 1 (Occupancy.pnops_optimistic p.occ t) in
  ctx.committed.(t) + Occupancy.busy_count p.occ t + gap > cap

(* ECMAP (Section III-D-3): exact pnop count over the cycles mapped so
   far.  During binding rounds, like ACMAP, it sees the home-tile reserve;
   the final check after live-out placement uses the true capacity
   ([fits]). *)
let ecmap_over ctx p t ~cap = words_now ctx p t > cap

let count b = if b then 1 else 0

(* The scoring terms of a partial mapping, tile by tile and summed: the
   memory pressure and the tiles over ACMAP's and ECMAP's capacity.  A
   trial changes only the tiles it occupies, so the terms of its parent,
   taken once per expansion, are corrected on those tiles alone. *)
type terms = {
  pressure_of : int array;
  acmap_of : bool array;
  ecmap_of : bool array;
  pressure_sum : int;
  acmap_count : int;
  ecmap_count : int;
}

let terms ctx r p =
  let nt = ntiles ctx in
  let pressure_of = Array.make nt 0 in
  let acmap_of = Array.make nt false and ecmap_of = Array.make nt false in
  let sum = ref 0 and acmap = ref 0 and ecmap = ref 0 in
  for t = 0 to nt - 1 do
    let cap = binding_cm ctx r t in
    pressure_of.(t) <- pressure ctx p t;
    acmap_of.(t) <- acmap_over ctx p t ~cap;
    ecmap_of.(t) <- ecmap_over ctx p t ~cap;
    sum := !sum + pressure_of.(t);
    acmap := !acmap + count acmap_of.(t);
    ecmap := !ecmap + count ecmap_of.(t)
  done;
  {
    pressure_of;
    acmap_of;
    ecmap_of;
    pressure_sum = !sum;
    acmap_count = !acmap;
    ecmap_count = !ecmap;
  }

(* The cost is schedule length, then routing moves, plus the memory
   pressure when ECMAP or CAB is on: the basic flow of [1] is not
   memory-aware.  A verdict passes when no tile is over. *)
let candidate ctx p ~tile ~cycle ~moves ~pressure ~acmap ~ecmap =
  let config = ctx.config in
  let base =
    (p.horizon * 256) + (config.Flow_config.move_weight * p.n_moves)
  in
  {
    parent = p;
    tile;
    cycle;
    moves;
    cost =
      (if config.Flow_config.ecmap || config.Flow_config.cab then
         base + pressure
       else base);
    acmap_ok = acmap = 0;
    ecmap_ok = ecmap = 0;
  }

(* A partial mapping that is already built, as a candidate. *)
let built ctx p =
  let b = terms ctx (reserved_tiles ctx p.homes_new) p in
  candidate ctx p ~tile:(-1) ~cycle:0 ~moves:0 ~pressure:b.pressure_sum
    ~acmap:b.acmap_count ~ecmap:b.ecmap_count

(* Whether the [i]-th occupancy change since the checkpoint is the first
   one on its tile. *)
let first_change g i t =
  let rec go j = j >= i || (Occupancy.changed_tile g j <> t && go (j + 1)) in
  go 0

(* Score a trial binding on [tile], applied in place to the parent whose
   terms are [b]: the parent's terms corrected on every tile the trial
   occupied, under the binding capacities of [r] plus [pinned] (the bound
   tile when a first-touched symbol was homed there, or -1).  The terms
   matter only in the memory-aware flows and to ACMAP. *)
let score ctx r b ~pinned p ~tile ~cycle ~moves =
  let config = ctx.config in
  let sum = ref b.pressure_sum in
  let acmap = ref b.acmap_count and ecmap = ref b.ecmap_count in
  if
    config.Flow_config.ecmap || config.Flow_config.cab
    || config.Flow_config.acmap
  then
    for i = 0 to Occupancy.changes p.occ - 1 do
      let t = Occupancy.changed_tile p.occ i in
      if first_change p.occ i t then begin
        let cap =
          if t = pinned then cm_of ctx t - config.Flow_config.home_reserve
          else binding_cm ctx r t
        in
        sum := !sum - b.pressure_of.(t) + pressure ctx p t;
        acmap :=
          !acmap - count b.acmap_of.(t) + count (acmap_over ctx p t ~cap);
        ecmap :=
          !ecmap - count b.ecmap_of.(t) + count (ecmap_over ctx p t ~cap)
      end
    done;
  candidate ctx p ~tile ~cycle ~moves ~pressure:!sum ~acmap:!acmap
    ~ecmap:!ecmap

(* ECMAP after live-out placement: every tile within its true capacity. *)
let fits ctx p =
  let ok = ref true in
  for t = 0 to ntiles ctx - 1 do
    if ecmap_over ctx p t ~cap:(cm_of ctx t) then ok := false
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

(* Move [value] from [src] along [path], each hop's move in the earliest
   free slot of that hop tile, in place; returns the arrival cycle.  A
   trial books only what scoring and the later operands read — the
   occupancy, the value's new locations, the move count and the horizon —
   and leaves the slots and the symbol reads to the replay. *)
let apply_path ctx ~trial p ~value ~src ~ready path =
  let rec go prev ready = function
    | [] -> ready
    | hop :: rest ->
      let c = Occupancy.first_free_at_or_after p.occ hop ready in
      Occupancy.occupy p.occ hop c;
      add_avail ctx ~trial p value hop (c + 1);
      p.n_moves <- p.n_moves + 1;
      bump_horizon p c;
      if not trial then begin
        p.slots <-
          {
            Mapping.tile = hop;
            cycle = c;
            action = Mapping.Amove { value; from_tile = prev };
            writes_sym = None;
            set_cond = false;
          }
          :: p.slots;
        match value with
        | Mapping.Vsym s when home_tile ctx p s = prev -> note_sym_read p s c
        | Mapping.Vsym _ | Mapping.Vnode _ | Mapping.Vimm _ -> ()
      end;
      go hop (c + 1) rest
  in
  go src ready path

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

let route_of_path path =
  match List.rev path with
  | [] | [ _ ] -> { path; prefix = []; hops = 0; landing = -1 }
  | _last :: (landing :: _ as rev_prefix) ->
    let prefix = List.rev rev_prefix in
    { path; prefix; hops = List.length prefix; landing }

(* Candidate paths per (src, dst) pair: the two deterministic shapes
   (row-first, column-first), once when they coincide, each kept only if
   it avoids dead tiles and severed links — on a pristine array both
   always do.  When both are broken the deterministic BFS detour is the
   sole candidate, and a partitioned pair has no candidates at all — the
   binding that needs it then fails routing, which the beam search treats
   like any other infeasible placement. *)
let build_routes cgra =
  let nt = Cgra.tile_count cgra in
  Array.init (nt * nt) (fun i ->
      let src = i / nt and dst = i mod nt in
      let row = Cgra.route_geometric cgra ~src ~dst
      and col = route_col_first cgra ~src ~dst in
      let shapes = if row = col then [ row ] else [ row; col ] in
      let paths =
        match List.filter (Cgra.path_ok cgra ~src) shapes with
        | [] -> Option.to_list (Cgra.route_opt cgra ~src ~dst)
        | ps -> ps
      in
      List.map route_of_path paths)

let paths_of ctx ~src ~dst = ctx.routes.((src * ntiles ctx) + dst)

let no_route = { path = []; prefix = []; hops = 0; landing = -1 }

(* The best route [pick_route] has seen so far. *)
type pick = {
  mutable arrival : int;
  mutable src : int;
  mutable ready : int;
  mutable route : route; (* [no_route]: none yet *)
}

(* [compare] on two int lists of equal length. *)
let rec compare_prefix a b =
  match a, b with
  | x :: a', y :: b' -> if x <> y then Int.compare x y else compare_prefix a' b'
  | _ -> 0

(* Weigh the routes from [src] (where the value is ready at [ready])
   against [best], in the order of [compare] on (arrival, hops, src, ready,
   moves) tuples.  The moves are each route's [prefix], and routes without
   one are skipped; with [~into] they are its whole [path], zero-hop paths
   included.  A path is one hop longer than its prefix, so [hops] orders
   whole paths as well. *)
let rec pick_route ~into p best ~src ~ready = function
  | [] -> ()
  | r :: rest ->
    if into || r.hops > 0 then begin
      let moves = if into then r.path else r.prefix in
      let arrival = probe_path p ~ready moves in
      let b = best.route in
      let better =
        b == no_route
        || arrival < best.arrival
        || arrival = best.arrival
           && (r.hops < b.hops
              || r.hops = b.hops
                 && (src < best.src
                    || src = best.src
                       && (ready < best.ready
                          || ready = best.ready
                             && compare_prefix moves
                                  (if into then b.path else b.prefix)
                                < 0)))
      in
      if better then begin
        best.arrival <- arrival;
        best.src <- src;
        best.ready <- ready;
        best.route <- r
      end
    end;
    pick_route ~into p best ~src ~ready rest

(* Land [value] in [dst]'s own register file, unless it is already there:
   the mandatory live-out writes, whose destination is a fixed RF slot.
   Chooses, over the value's current locations and their paths to [dst],
   the option with the earliest arrival, fewest hops.  False when no path
   reaches [dst]. *)
let route_into ctx p ~value ~dst =
  let locs = locations ctx p value in
  List.exists (fun (t, _) -> t = dst) locs
  ||
  let best = { arrival = 0; src = 0; ready = 0; route = no_route } in
  List.iter
    (fun (src, ready) ->
      pick_route ~into:true p best ~src ~ready (paths_of ctx ~src ~dst))
    locs;
  best.route != no_route
  && begin
    ignore
      (apply_path ctx ~trial:false p ~value ~src:best.src ~ready:best.ready
         best.route.path
        : int);
    true
  end

(* Make [value] readable by an operation on [dst]: the PE input muxes read
   the local RF or any torus neighbour's RF directly (Fig 1), so only
   routes longer than one hop insert moves — and those stop at a neighbour
   of [dst].  Some (ready cycle, source tile), or None when no location of
   the value reaches [dst].  A direct read takes the least (ready,
   distance, tile) over the locations on [dst] or a neighbour; otherwise
   the least (arrival, hops, src, ready, prefix) over the locations' move
   routes is applied.  Both are folds over the locations, with the home
   tile of a symbol first, as [locations] lists them. *)
let route_usable ctx ~trial p ~value ~dst =
  match value with
  | Mapping.Vimm _ -> Some (0, dst)
  | Mapping.Vnode _ | Mapping.Vsym _ -> (
    let home =
      match value with
      | Mapping.Vsym s -> home_tile ctx p s
      | Mapping.Vnode _ | Mapping.Vimm _ -> -1
    in
    let avail = p.avail.(vid ctx value) in
    let dist t =
      if t = dst then 0 else if Cgra.distance ctx.cgra t dst = 1 then 1 else 2
    in
    (* (ready, distance, tile) of the best direct read; distance 2: none *)
    let rec direct br bd bt = function
      | [] -> if bd <= 1 then Some (br, bt) else None
      | (t, r) :: rest ->
        let d = dist t in
        if d <= 1
           && (bd > 1 || r < br || r = br && (d < bd || d = bd && t < bt))
        then direct r d t rest
        else direct br bd bt rest
    in
    let hd = if home >= 0 then dist home else 2 in
    match direct 0 hd home avail with
    | Some _ as read -> read
    | None ->
      let best = { arrival = 0; src = 0; ready = 0; route = no_route } in
      if home >= 0 then
        pick_route ~into:false p best ~src:home ~ready:0
          (paths_of ctx ~src:home ~dst);
      List.iter
        (fun (src, ready) ->
          pick_route ~into:false p best ~src ~ready (paths_of ctx ~src ~dst))
        avail;
      if best.route == no_route then None
      else
        let arrival =
          apply_path ctx ~trial p ~value ~src:best.src ~ready:best.ready
            best.route.prefix
        in
        Some (arrival, best.route.landing))

(* ---- binding one operation ----------------------------------------- *)

let operand_value = function
  | Cdfg.Node j -> Mapping.Vnode j
  | Cdfg.Sym s -> Mapping.Vsym s
  | Cdfg.Imm k -> Mapping.Vimm k

(* Bind DFG node [node_id] on [tile] in [p], in place: route every operand,
   pin first-touched symbol homes here, book the cycle.  Returns the cycle,
   or -1 when routing fails — [p] is then half-bound, and the caller undoes
   or drops it.  A [trial] binding books only what scoring reads (see
   [apply_path]) and skips the op's slot, its symbol reads, its result's
   location and [place_cycle]: none of them steers this binding. *)
let bind ctx ~trial p ~node_id ~tile =
  let node = ctx.block.Cdfg.nodes.(node_id) in
  (* [acc] collects (ready, source tile) per operand, reversed. *)
  let rec bring acc = function
    | [] -> Some (List.rev acc)
    | operand :: rest -> (
      match operand with
      | Cdfg.Imm _ -> bring ((0, tile) :: acc) rest
      | Cdfg.Sym s when home_tile ctx p s < 0 ->
        (* First touch of an undefined symbol: pin its home here — the
           location-constraint choice that distinguishes partial
           mappings. *)
        p.homes_new <- (s, tile) :: p.homes_new;
        bring ((0, tile) :: acc) rest
      | Cdfg.Sym _ | Cdfg.Node _ -> (
        match
          route_usable ctx ~trial p ~value:(operand_value operand) ~dst:tile
        with
        | None -> None
        | Some (ready, src) -> bring ((ready, src) :: acc) rest))
  in
  match bring [] node.Cdfg.operands with
  | None -> -1
  | Some operand_info ->
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
    bump_horizon p c;
    if not trial then begin
      let operand_tiles = List.map snd operand_info in
      p.slots <-
        {
          Mapping.tile;
          cycle = c;
          action = Mapping.Aop { node = node_id; operand_tiles };
          writes_sym = None;
          set_cond = false;
        }
        :: p.slots;
      (* A symbol operand read out of its home RF slot — locally or through
         the neighbour mux — constrains the slot's overwrite cycle. *)
      List.iter2
        (fun operand (_, srct) ->
          match operand with
          | Cdfg.Sym s when home_tile ctx p s = srct -> note_sym_read p s c
          | Cdfg.Sym _ | Cdfg.Node _ | Cdfg.Imm _ -> ())
        node.Cdfg.operands operand_info;
      if Opcode.has_result node.Cdfg.opcode then
        add_avail ctx ~trial:false p (Mapping.Vnode node_id) tile (c + 1);
      if c > p.place_cycle.(node_id) then p.place_cycle.(node_id) <- c
    end;
    c

(* One binding attempt: bind [node_id] on [tile] in the parent [p] itself,
   score the result, then undo it — the occupancy journal, the journaled
   location pushes and the saved scalar fields restore [p] exactly.  None
   when routing fails.  [r] and [b] are [p]'s [reserved_tiles] and
   [terms]. *)
let trial ctx r b p ~node_id ~tile =
  ctx.tally.attempts <- ctx.tally.attempts + 1;
  let n_moves = p.n_moves and horizon = p.horizon and homes = p.homes_new in
  Occupancy.checkpoint p.occ;
  let cycle = bind ctx ~trial:true p ~node_id ~tile in
  let candidate =
    if cycle < 0 then begin
      ctx.tally.route_failures <- ctx.tally.route_failures + 1;
      None
    end
    else
      let pinned = if p.homes_new == homes then -1 else tile in
      Some (score ctx r b ~pinned p ~tile ~cycle ~moves:(p.n_moves - n_moves))
  in
  Occupancy.rollback p.occ;
  List.iter (fun id -> p.avail.(id) <- List.tl p.avail.(id)) p.pushed;
  p.pushed <- [];
  p.n_moves <- n_moves;
  p.horizon <- horizon;
  p.homes_new <- homes;
  candidate

(* The partial mapping a surviving candidate stands for: a copy of its
   parent with the binding replayed in full.  The replay routes exactly as
   the trial did (same state, same choices) and is not a binding
   attempt. *)
let materialise ctx node_id c =
  if c.tile < 0 then c.parent
  else begin
    let p = copy_pstate c.parent in
    ignore (bind ctx ~trial:false p ~node_id ~tile:c.tile : int);
    p
  end

(* A binding attempt built eagerly on a copy of [p] — the re-computation
   transformation's, which chains two bindings.  None when routing
   fails. *)
let place_node ctx p ~node_id ~tile =
  ctx.tally.attempts <- ctx.tally.attempts + 1;
  let p = copy_pstate p in
  if bind ctx ~trial:false p ~node_id ~tile < 0 then begin
    ctx.tally.route_failures <- ctx.tally.route_failures + 1;
    None
  end
  else Some p

(* Keep the non-blacklisted candidates, or everything when CAB blocks them
   all: binding somewhere beats dying here — the exact pruning and final
   validation will judge the overflow.  The able-tile enumeration (and the
   energy-bias sort of the context-aware flows) is pstate-independent, so
   it is precomputed per node in [ctx.able_sorted]; only this cheap filter
   runs per expansion. *)
let candidate_tiles ctx r p tiles =
  match List.filter (fun t -> not (blacklisted ctx r p t)) tiles with
  | [] -> tiles
  | unblocked -> unblocked

let by_key a b =
  if a.cycle <> b.cycle then Int.compare a.cycle b.cycle
  else Int.compare a.moves b.moves

(* Expand one partial mapping with the feasible bindings of [node_id],
   keeping the [expand_per_state] locally-best candidates. *)
let expand_state ctx p node_id =
  let r = reserved_tiles ctx p.homes_new in
  let b = terms ctx r p in
  let candidates =
    List.filter_map
      (fun tile -> trial ctx r b p ~node_id ~tile)
      (candidate_tiles ctx r p ctx.able_sorted.(node_id))
  in
  take ctx.config.Flow_config.expand_per_state
    (List.stable_sort by_key candidates)

(* Expand the whole population for one round, on the calling domain: a
   trial binds in its parent and undoes itself, so the states are expanded
   one after the other. *)
let expand_population ctx pop node_id =
  (* Expansion boundary: the last poll before the all-OCaml hot path. *)
  if Cgra_util.Deadline.expired ctx.deadline then
    raise
      (Timed_out
         { at_block = ctx.bi; where = "search expansion " ^ ctx.block.Cdfg.name });
  List.concat_map (fun p -> expand_state ctx p node_id) pop

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
          | Some p1 -> place_node ctx p1 ~node_id ~tile)
      producers
  in
  List.find_map try_tile
    (candidate_tiles ctx (reserved_tiles ctx p.homes_new) p ctx.able.(node_id))

(* ---- pruning -------------------------------------------------------- *)

let by_cost a b = Int.compare a.cost b.cost

(* Stochastic threshold pruning of the basic flow: children within the
   slack of the best cost survive; the rest survive with [keep_prob]; the
   population is finally capped at [beam_width]. *)
let stochastic_prune ctx rng candidates =
  match List.stable_sort by_cost candidates with
  | [] -> []
  | best :: _ as sorted ->
    let threshold =
      int_of_float
        (float_of_int best.cost *. (1.0 +. ctx.config.Flow_config.prune_slack))
    in
    let survivors =
      List.filter
        (fun c ->
          c.cost <= threshold
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
  p.slots <- slots

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

(* Copy [value] into [tile]'s RF at or after [min_cycle], in place; returns
   the copy's cycle. *)
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
  p.slots <-
    {
      Mapping.tile;
      cycle = c;
      action = Mapping.Acopy value;
      writes_sym = sym;
      set_cond;
    }
    :: p.slots;
  p.n_moves <- p.n_moves + 1;
  bump_horizon p c;
  (match value with
   | Mapping.Vsym s when home_tile ctx p s = tile -> note_sym_read p s c
   | Mapping.Vsym _ | Mapping.Vnode _ | Mapping.Vimm _ -> ());
  c

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

(* Place the block's live-out writes and condition export on a copy of
   [p]; None when that fails. *)
let finalize ctx p =
  try
    let p = copy_pstate p in
    let items = order_live_outs ctx.block.Cdfg.live_out in
    let write_cycle = Hashtbl.create 4 in
    List.iter
      (fun (s, operand) ->
        let value = operand_value operand in
        let home =
          match home_tile ctx p s with
          | h when h >= 0 -> h
          | _ ->
            let h =
              match value with
              | Mapping.Vnode _ | Mapping.Vsym _ -> (
                match locations ctx p value with
                | (t, _) :: _ -> t
                | [] -> least_loaded_tile ctx p)
              | Mapping.Vimm _ -> least_loaded_tile ctx p
            in
            p.homes_new <- (s, h) :: p.homes_new;
            h
        in
        let min_cycle = max 0 (sym_read_cycle p s) in
        let cw =
          match value with
          | Mapping.Vimm _ ->
            add_copy ctx p ~tile:home ~value ~min_cycle ~sym:s ()
          (* Self-assignment to the same slot is a no-op. *)
          | Mapping.Vsym s' when s' = s -> min_cycle
          | Mapping.Vnode _ | Mapping.Vsym _ -> (
            if not (route_into ctx p ~value ~dst:home) then
              raise (Finalize_failed "live-out routing blocked");
            match free_writer_slot p ~home ~value ~min_cycle with
            | Some sl ->
              mark_slot p ~tile:sl.Mapping.tile ~cycle:sl.Mapping.cycle ~sym:s
                ();
              sl.Mapping.cycle
            | None -> add_copy ctx p ~tile:home ~value ~min_cycle ~sym:s ())
        in
        Hashtbl.replace write_cycle s cw)
      items;
    (* Condition export for conditional terminators. *)
    (match ctx.block.Cdfg.terminator with
     | Cdfg.Jump _ | Cdfg.Return -> ()
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
         let home = home_tile ctx p s in
         if home < 0 then raise (Finalize_failed "branch on undefined symbol");
         let min_cycle =
           match Hashtbl.find_opt write_cycle s with
           | Some cw -> cw + 1 (* read the freshly written value *)
           | None -> 0
         in
         let value = Mapping.Vsym s in
         ignore
           (add_copy ctx p ~tile:home ~value ~min_cycle ~set_cond:true () : int)
       | Cdfg.Imm k ->
         let tile = least_loaded_tile ctx p in
         ignore
           (add_copy ctx p ~tile ~value:(Mapping.Vimm k) ~min_cycle:0
              ~set_cond:true ()
             : int)));
    Some p
  with Finalize_failed _ -> None

(* ---- driver ---------------------------------------------------------- *)

let map_block ?routes ?(deadline = Cgra_util.Deadline.never) ~config ~cgra
    ~committed ~homes ~rng ~work cdfg bi =
  let t_start = Cgra_util.Clock.now () in
  let alloc_start = Gc.allocated_bytes () in
  let block = cdfg.Cdfg.blocks.(bi) in
  let nt = Cgra.tile_count cgra in
  let hosts_home = Bytes.make nt '\000' in
  Array.iter (fun h -> if h >= 0 then Bytes.set hosts_home h '\001') homes;
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
      tally = { attempts = 0; route_failures = 0 };
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
      let kept = List.filter (fun c -> c.acmap_ok) children in
      acmap_kills := !acmap_kills + List.length children - List.length kept;
      kept
    end
    else children
  in
  (* Each round prunes candidates, not states: only the survivors of the
     top-K selection, ACMAP, the stochastic pruning and ECMAP become
     partial mappings. *)
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
      let children =
        match acmap_filter children with
        | _ :: _ as kept -> kept
        | [] ->
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
                    Some (built ctx p')
                  | None -> None)
                pop
          in
          children_total := !children_total + List.length rec_children;
          acmap_filter rec_children
      in
      if children = [] then
        Error
          (Printf.sprintf "block %s: no feasible binding for node %d (%s)"
             block.Cdfg.name node_id
             (Opcode.to_string block.Cdfg.nodes.(node_id).Cdfg.opcode))
      else begin
        peak := max !peak (List.length children);
        let kept = stochastic_prune ctx rng children in
        prune_survivors := !prune_survivors + List.length kept;
        let kept =
          if config.Flow_config.ecmap then begin
            let fit = List.filter (fun c -> c.ecmap_ok) kept in
            ecmap_kills := !ecmap_kills + List.length kept - List.length fit;
            fit
          end
          else kept
        in
        if kept = [] then
          Error
            (Printf.sprintf
               "block %s: exact context-memory pruning emptied the population \
                at node %d"
               block.Cdfg.name node_id)
        else rounds (List.map (materialise ctx node_id) kept) rest
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
          let kept = List.filter (fits ctx) finalized in
          ecmap_kills := !ecmap_kills + List.length finalized - List.length kept;
          kept
        end
        else finalized
      in
      (match List.stable_sort by_cost (List.map (built ctx) finalized) with
       | [] ->
         Error
           (Printf.sprintf "block %s: no partial mapping survived finalisation"
              block.Cdfg.name)
       | { parent = best; _ } :: _ ->
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
