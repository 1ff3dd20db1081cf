(** Top-level mapping flow (Fig 4 of the paper).

    Traverses the CDFG basic blocks — forward control-flow order in the
    basic flow, descending weight order Wbb in the context-aware flow —
    maps each block with {!Search.map_block}, commits the best per-block
    mapping (fixing symbol homes and accumulating per-tile context usage),
    and finally validates the context-memory inequality of Section III-C.
    Flows without exact pruning can produce over-full mappings; those are
    reported as failures here, which is what yields the "no mapping found"
    zeros of Fig 6.

    The flow only maps: it binds the CDFG it is given.  Choosing and
    optimizing the lowering is [Cgra_exp.Toolchain]'s job, and a failure
    reports its kind as a {!Search.verdict}, never as a phrase in its
    reason. *)

type escalation = {
  e_attempt : int;           (** 0 = the configuration as given *)
  e_config : Flow_config.t;  (** the configuration this attempt ran with *)
  e_reason : string;         (** why this attempt failed *)
  e_at_block : int option;
}
(** One failed rung of the retry ladder — a reseeded retry, with
    [Flow_config.degrade] an escalation, or the exact backend's greedy
    or spread pass: the configuration it ran with and the failure it
    hit. *)

val escalation_to_string : escalation -> string
(** One line: the attempt, what it ran, the reason and the block it
    died at.  A beam rung shows its seed and search knobs (beam width,
    children per state, keep probability, threshold slack); an exact
    rung, which reads none of them, names its pass ([exact greedy pass]
    at attempt 0, [exact spread pass] after). *)

type failure = {
  verdict : Search.verdict;
      (** the kind of failure: the exact backend's {!Search.Proved_unsat}
          and {!Search.Budget_spent}, {!Search.Expired} when an armed
          {!Cgra_util.Deadline.t} cut the run short (its [where] names
          the boundary that observed expiry: search round, exact probe,
          flow block loop), and {!Search.Dead_end} for everything else —
          beam failures, the flow's own, and a portfolio whose two sides
          both failed.  An [Expired] failure is {e not} a verdict about
          the kernel: callers must never cache or report it as
          "unmappable", and the retry ladder never retries one. *)
  reason : string;
      (** one line, printed, sent over the wire and rendered into
          reports; code tells failures apart by [verdict], never by
          this wording *)
  at_block : int option;  (** block where the search died, if any *)
  work : int;
      (** binding attempts (solver conflicts on the exact backend) spent
          before giving up, over every rung of the ladder *)
  gave_up : escalation list;
      (** the full ladder trace, one entry per exhausted rung (a
          portfolio whose two sides both failed lists the beam's rungs,
          then the exact backend's); [[]] when the deadline cut the run
          short, and when the kernel failed a precondition (an invalid
          CDFG, or more symbol variables than RF slots), which {!run}
          checks once before any rung or backend runs *)
}

type stats = {
  work : int;
      (** total binding attempts — the deterministic compile-effort
          counter used by Fig 9, identical across hosts and [--jobs]
          values (wall-clock time is not) *)
  retries_used : int;
      (** failed rungs before the successful one, [List.length
          escalations]: 0 when the first attempt mapped, 1 when the exact
          backend's spread pass mapped after its greedy pass failed *)
  search : Search.block_stats list;
      (** per-block search telemetry of the {e successful} attempt, one
          entry per block it searched, in traversal order (the run's
          traversal order, re-computations and population peak derive
          from it).  Every counter except
          [Search.block_stats.wall_seconds] and [alloc_words] is
          deterministic; when [retries_used = 0], the per-block
          [attempts] sum to [work]. *)
  escalations : escalation list;
      (** the failed rungs that preceded this success, in order; [[]]
          when the first attempt mapped *)
}

type result = (Mapping.t * stats, failure) Stdlib.result

val commit_homes :
  homes:int array ->
  at_block:int ->
  work:int ->
  (int * int) list ->
  (unit, failure) Stdlib.result
(** [commit_homes ~homes ~at_block ~work pins] applies the [(sym, tile)]
    home pins a block's mapping fixed, mutating [homes].  A pin that
    conflicts with an already-committed home returns a typed [Error]
    (naming the symbol and both tiles) instead of crashing — the condition
    is a mapper invariant violation, unreachable through {!run} with
    validated CDFGs, and this seam exists so the defence is testable.
    Entries preceding a conflicting pin stay committed; the flow aborts on
    [Error], so the array is never reused after one. *)

val traversal_order : Flow_config.traversal -> Cgra_ir.Cdfg.t -> int list
(** Forward: weak topological order of the CFG from the entry.  Weighted:
    descending block weight Wbb, forward order breaking ties. *)

val run :
  ?config:Flow_config.t ->
  ?deadline:Cgra_util.Deadline.t ->
  Cgra_arch.Cgra.t ->
  Cgra_ir.Cdfg.t ->
  result
(** Maps the kernel.  Deterministic for a fixed [config.seed].

    [deadline] arms cooperative cancellation: the flow polls it at every
    block boundary, the beam search once per binding round, the exact
    backend before every probe and inside the solver.  Expiry aborts the
    in-flight attempt in bounded time and returns a {!failure} with
    verdict {!Search.Expired}; retries and the escalation ladder never
    resume after one, and a portfolio race with either side cut short is
    reported as timed out as a whole (keeping the winner would make the
    bytes depend on where the deadline landed).  An armed deadline that never fires leaves the result
    byte-identical to an un-deadlined run — the token is an observer,
    never an input.

    A failed attempt climbs one retry ladder, recording each rung — see
    {!stats.escalations} and {!failure.gave_up}.  On the beam, without
    [config.degrade] the rungs reseed the stochastic pruning (seed +
    1000k for k <= [config.retries]); with it they escalate (reseeded
    pruning, wider beam, relaxed thresholds; at most
    [config.max_attempts] rungs).  The exact backend is deterministic
    and reads none of those knobs, so it gets two rungs with the given
    configuration whatever they say: a greedy pass over the blocks,
    then a pass from fresh state with {!Exact.map_block}'s spread
    heuristics.  A rung that fails with a {!Search.Proved_unsat} proof
    ends the ladder, since no further rung can beat it.  A failure
    reports its last rung, with the [work] of every rung. *)

val run_partial :
  ?config:Flow_config.t ->
  ?deadline:Cgra_util.Deadline.t ->
  base:Mapping.t ->
  dirty:bool array ->
  homes:int array ->
  Cgra_arch.Cgra.t ->
  result
(** [run_partial ~config ~base ~dirty ~homes cgra] remaps only the dirty
    blocks of [base] onto [cgra] (degraded by [config.faults]), reusing
    every block [b] with [dirty.(b) = false] verbatim: its placement is
    kept, its exact context words are pre-committed before the search
    starts, and the home pins in [homes] ([homes.(s)] = kept tile of
    symbol [s], [-1] = free to re-pin) are pre-applied.  The result merges
    the surviving and freshly-searched blocks into one mapping over
    [base.cdfg], whose node ids the surviving placements reference.

    The caller owns the dirty-set contract: every block whose placed
    tiles, routes, or referenced symbol homes touch a fault must be dirty,
    and [homes] must not keep a symbol on a faulted tile
    ([Cgra_verify.Repair] computes both from the diagnosis).  Reused
    placements are {e not} re-validated here beyond the final context-fit
    check — the repair loop re-checks the merged mapping independently.

    The retry ladder behaves as in {!run}; determinism for a fixed
    [config.seed] is preserved. *)
