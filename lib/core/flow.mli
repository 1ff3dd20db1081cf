(** Top-level mapping flow (Fig 4 of the paper).

    Traverses the CDFG basic blocks — forward control-flow order in the
    basic flow, descending weight order Wbb in the context-aware flow —
    maps each block with {!Search.map_block}, commits the best per-block
    mapping (fixing symbol homes and accumulating per-tile context usage),
    and finally validates the context-memory inequality of Section III-C.
    Flows without exact pruning can produce over-full mappings; those are
    reported as failures here, which is what yields the "no mapping found"
    zeros of Fig 6. *)

type escalation = {
  e_attempt : int;           (** 0 = the configuration as given *)
  e_seed : int;              (** stochastic-pruning seed of this attempt *)
  e_beam_width : int;
  e_expand_per_state : int;
  e_keep_prob : float;
  e_prune_slack : float;
  e_reason : string;         (** why this attempt failed *)
  e_at_block : int option;
}
(** One failed rung of the retry ladder — a reseeded retry, or with
    [Flow_config.degrade] an escalation: the search knobs it ran with and
    the failure it hit. *)

val escalation_to_string : escalation -> string

type failure = {
  reason : string;
  at_block : int option;  (** block where the search died, if any *)
  work : int;  (** binding attempts spent before giving up (all retries) *)
  gave_up : escalation list;
      (** the full ladder trace, one entry per exhausted rung; [[]] when
          the deadline cut the run short *)
  timed_out : string option;
      (** [Some where] iff the run was cut short by an expired
          {!Cgra_util.Deadline.t}: [where] names the boundary that
          observed expiry (search round, exact probe, flow block loop).
          A timed-out failure is {e not} a verdict about the kernel —
          callers must never cache or report it as "unmappable", and the
          retry/escalation ladders never retry one.  [None] for every
          ordinary dead-end. *)
}

type stats = {
  recomputes : int;
  population_peak : int;
  traversal_order : int list;
  work : int;
      (** total binding attempts — the deterministic compile-effort
          counter used by Fig 9, identical across hosts and [--jobs]
          values (wall-clock time is not) *)
  retries_used : int;
      (** re-seeded retries consumed before the successful attempt; 0 when
          the first attempt mapped *)
  search : Search.block_stats list;
      (** per-block search telemetry of the {e successful} attempt, in
          traversal order.  Every counter except
          [Search.block_stats.wall_seconds] is deterministic; when
          [retries_used = 0] the per-block [attempts] sum to [work]. *)
  opt : Cgra_opt.Pipeline.report option;
      (** per-pass statistics of the pre-mapping optimization, when
          [config.optimize] was set *)
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

val proved_unsat : string -> bool
(** Whether a failure [reason] is the exact backend's proof that no
    mapping exists under its encoding — a verdict no retry can beat. *)

val budget_exhausted : string -> bool
(** Whether a failure [reason] is the exact backend giving up on its
    conflict budget. *)

val run :
  ?config:Flow_config.t ->
  ?deadline:Cgra_util.Deadline.t ->
  ?opt_verify:Cgra_opt.Pipeline.verifier ->
  Cgra_arch.Cgra.t ->
  Cgra_ir.Cdfg.t ->
  result
(** Maps the kernel.  Deterministic for a fixed [config.seed].

    [deadline] arms cooperative cancellation: the flow polls it at every
    block boundary, the beam search at every round and expansion
    boundary, the exact backend before every probe and inside the
    solver.  Expiry aborts the in-flight attempt in bounded time and
    returns a {!failure} with [timed_out = Some where]; retries and the
    escalation ladder never resume after one, and a portfolio race with
    either side cut short is reported as timed out as a whole (keeping
    the winner would make the bytes depend on where the deadline
    landed).  An armed deadline that never fires leaves the result
    byte-identical to an un-deadlined run — the token is an observer,
    never an input.

    A failed attempt climbs one retry ladder, recording each rung — see
    {!stats.escalations} and {!failure.gave_up}.  Without
    [config.degrade] the rungs reseed the stochastic pruning (seed +
    1000k for k <= [config.retries]); with it they escalate (reseeded
    pruning, wider beam, relaxed thresholds; at most
    [config.max_attempts] rungs).

    When [config.optimize] is set, the CDFG first goes through the
    [cgra_opt] pipeline, differentially verified against [opt_verify]
    (callers with kernel-specific inputs should pass them; default:
    {!Cgra_opt.Pipeline.default_verifier}).  A pipeline bug raises
    {!Cgra_opt.Pipeline.Verification_failed} rather than mapping a
    wrong program. *)

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
    [base.cdfg] — the optimization pipeline never reruns, because the
    surviving placements reference the already-optimized CDFG's node ids.

    The caller owns the dirty-set contract: every block whose placed
    tiles, routes, or referenced symbol homes touch a fault must be dirty,
    and [homes] must not keep a symbol on a faulted tile
    ([Cgra_verify.Repair] computes both from the diagnosis).  Reused
    placements are {e not} re-validated here beyond the final context-fit
    check — the repair loop re-checks the merged mapping independently.

    The retry ladder behaves as in {!run}; determinism for a fixed
    [config.seed] is preserved. *)
