(** Exact per-block mapping through the CDCL SAT solver.

    The CM-aware mapping problem of one basic block — node -> (tile,
    cycle) placement, torus-neighbour operand routing, operand-before-
    use timing, live-out symbol writes, condition export, occupancy
    exclusivity and the exact per-tile context-word capacity (busy
    words plus compressed pnop words) under the already-committed
    usage of earlier blocks — is encoded to CNF and solved for the
    smallest feasible schedule length (DESIGN.md §5g documents the
    variable layout and constraint groups).

    The backend is deterministic end to end: the encoding enumerates
    items, tiles and cycles in a fixed order and the solver is
    restart-reproducible, so the decoded mapping is a pure function of
    (CDFG, CGRA, committed usage, homes) — byte-identical at any
    [--jobs] value, like the beam search. *)

val conflict_budget : int
(** Conflicts each solver invocation may spend before the backend
    gives up with a typed budget-exhausted failure (deterministic, so
    a budget failure is reproducible too). *)

val map_block :
  ?spread:int list ->
  ?deadline:Cgra_util.Deadline.t ->
  cgra:Cgra_arch.Cgra.t ->
  committed:int array ->
  homes:int array ->
  work:int ref ->
  Cgra_ir.Cdfg.t ->
  int ->
  (Search.outcome, Search.verdict * string) result
(** Drop-in counterpart of {!Search.map_block} (no RNG, no route
    table: the encoding enumerates the neighbour reads itself).
    [committed.(t)] context words are subtracted from tile [t]'s
    capacity; [homes.(s) >= 0] pins symbol [s]'s home.

    [spread], when given, lists the blocks still to map after this one
    and turns on the spread heuristics; the flow gives it on the second
    rung of the exact backend's retry ladder ({!Flow.run}).  For
    every symbol one context word per remaining writer is reserved on
    its home tile, whether the home is already pinned or chosen by this
    very model.  The block's own words per tile are first capped at its
    share of the free capacity, weighted by node count against the
    remaining blocks; when that budgeted solve fails the block is
    solved again with the reserves alone.  The isolation probe behind
    the UNSAT proof never applies either heuristic.

    On success the outcome carries the decoded [bb_mapping], the homes
    newly pinned by the model, and search telemetry whose [attempts]
    field counts solver conflicts ([work] is advanced by the same
    amount, and by the conflicts of a failed budgeted solve too).  The
    schedule length is the shortest the probes found, not a proven
    minimum: the refinement step counts a probe that spent its conflict
    budget as infeasible, so the length is minimal only when every
    shorter probe was refuted.  On failure the verdict is
    {!Search.Proved_unsat} for a proof that the block is unmappable
    under the encoding even in isolation (zero committed words, all
    homes free), {!Search.Dead_end} when only the committed context
    blocks it, and {!Search.Budget_spent} when a probe ran out of
    conflicts; the message says which in words.

    [deadline] is polled before every schedule-length probe and inside
    the solver (restart boundaries, every 256 conflicts); expiry
    raises {!Search.Timed_out} naming the probe it interrupted.  An
    armed deadline that never fires leaves the result byte-identical
    to a run without one. *)
