(** Population-based mapping of one basic block.

    Implements the inner loop of the paper's Fig 4: for each operation in
    the list-scheduling order, every surviving partial mapping is expanded
    with the feasible (tile, cycle, route) bindings — an incremental
    sub-graph match where operands are made tile-local by inserting move
    instructions along torus shortest paths — then the partial-mapping
    population is pruned: the approximate context-memory filter (ACMAP),
    the stochastic threshold pruning of the basic flow, and the exact
    context-memory filter (ECMAP).  With constraint-aware binding (CAB)
    enabled, context-memory-full tiles are blacklisted before binding.
    Each binding is tried and scored in its parent partial mapping in
    place, then undone; pruning runs on those scores, and only the
    bindings that survive it are built into partial mappings of their
    own.

    When an operation cannot be bound in any partial mapping the binder
    applies the graph transformations of Section III-B: re-routing is
    inherent (the alternative row-first / column-first paths), and
    re-computation duplicates a producer node on the destination tile. *)

type block_stats = {
  block : int;             (** basic-block index *)
  block_name : string;
  rounds : int;            (** binding rounds run (operations bound) *)
  attempts : int;          (** binding attempts — the deterministic effort
                               unit; equals this block's contribution to
                               the flow's [work] counter *)
  children : int;          (** partial mappings generated by expansion,
                               before any filter (includes re-computation
                               children) *)
  route_failures : int;    (** binding attempts whose operand routing found
                               no usable path *)
  acmap_kills : int;       (** children removed by the approximate filter *)
  ecmap_kills : int;       (** states removed by the exact filter, binding
                               rounds and final validation combined *)
  prune_survivors : int;   (** sum over rounds of the population size after
                               stochastic pruning *)
  finalize_failures : int; (** survivors whose live-out placement failed *)
  recomputes : int;        (** re-computation transformations used *)
  population_peak : int;   (** widest child population seen *)
  wall_seconds : float;    (** wall-clock time mapping this block; a
                               non-deterministic field — excluded from the
                               [search_report] artifact, included in the
                               [--trace] dump *)
  alloc_words : float;     (** words allocated while mapping this block
                               ([Gc.allocated_bytes] delta).  Stable for a
                               fixed build, but host/compiler dependent
                               like [wall_seconds] — excluded
                               from byte-reproducible artifacts; the bench
                               [alloc_check] smoke guards it against
                               regression *)
}
(** Per-block search telemetry.  Every counter except [wall_seconds] and
    [alloc_words] is a deterministic function of (CDFG, CGRA, config):
    identical across hosts and load. *)

type outcome = {
  bb_mapping : Mapping.bb_mapping;
  new_homes : (int * int) list;  (** symbol homes fixed while mapping this
                                     block, [(sym, tile)] *)
  stats : block_stats;           (** telemetry for this block's search *)
}

(** What kind of failure a block mapper (or the whole flow) reports,
    beside its one-line reason. *)
type verdict =
  | Dead_end
      (** no mapping found, nothing proved: every beam failure, the
          flow's own (invalid CDFG, RF slots, cyclic DFG, home conflict,
          CM overflow), and the exact backend blocked by what earlier
          blocks committed *)
  | Proved_unsat
      (** the exact backend proved the block unmappable under its
          encoding, even in isolation — no retry can beat it *)
  | Budget_spent  (** the exact backend ran out of conflicts *)
  | Expired of { where : string }
      (** an armed {!Cgra_util.Deadline.t} fired; [where] names the
          boundary that observed it.  Not a verdict about the kernel:
          never retried, cached or reported as unmappable *)

type routes
(** Candidate route paths per (src, dst) pair, each with the prefix that
    stops one hop short of the destination precomputed. *)

val build_routes : Cgra_arch.Cgra.t -> routes
(** The route table of an array: the deterministic row-first and
    column-first shapes on pristine arrays (one when they coincide), the
    surviving shapes (or the BFS detour, or nothing) on degraded ones.
    The table depends only on the array, so callers mapping several blocks
    should build it once and pass it to every {!map_block} — [Flow]
    interns one table per flow run. *)

exception Timed_out of { at_block : int; where : string }
(** Raised (out of {!map_block}, and out of the exact backend's probes)
    when a cooperative deadline fires mid-search.  [where] names the
    boundary that observed expiry — useful to report how far a
    cancelled map had progressed.  Only ever raised when an armed
    {!Cgra_util.Deadline.t} actually expires; [Flow] catches it and
    converts it into a failure with verdict {!Expired}. *)

val map_block :
  routes:routes ->
  ?deadline:Cgra_util.Deadline.t ->
  config:Flow_config.t ->
  cgra:Cgra_arch.Cgra.t ->
  committed:int array ->
  homes:int array ->
  rng:Cgra_util.Rng.t ->
  work:int ref ->
  Cgra_ir.Cdfg.t ->
  int ->
  (outcome, string) result
(** [map_block ~config ~cgra ~committed ~homes ~rng ~work cdfg bi] maps
    block [bi].  [committed.(t)] is the exact context-word usage of tile
    [t] by already-committed blocks; [homes.(s)] is the home tile of
    symbol [s] or [-1] when not yet fixed.  Neither array is mutated.
    [routes] is the route table of {!build_routes} for [cgra].  [work] is
    incremented once per binding attempt — a deterministic search-effort
    counter (unlike wall-clock time it is identical across hosts, load
    and parallelism, so figures derived from it are reproducible
    byte-for-byte).  The search runs on the calling
    domain.

    [deadline] is polled once per binding round, before the population
    is expanded; expiry raises {!Timed_out}.  An armed deadline that
    does not fire leaves the result byte-identical to a run without one
    — the token is never an input to the search, only an observer. *)
