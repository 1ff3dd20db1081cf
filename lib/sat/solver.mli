(** A small self-contained CDCL SAT solver.

    Features: two-watched-literal propagation, first-UIP clause
    learning, Luby-sequence restarts, VSIDS variable activity with
    phase saving.  The solver is fully deterministic: decisions break
    activity ties by lowest variable index, activities evolve by a
    fixed arithmetic schedule, and nothing consults the wall clock or
    [Random].  Given the same sequence of [new_var]/[add_clause]
    calls, [solve] always returns the same outcome and (when [Sat])
    the same model — the property the exact mapping backend needs to
    keep artifacts byte-identical at any [--jobs] value.

    Variables are positive integers allocated by {!new_var}.  A
    literal is a non-zero integer: [v] for the positive literal,
    [-v] for the negation — the familiar DIMACS convention.

    One solver serves a run of instances, each encoded once and then
    solved: every clause goes straight into one flat arena of ints,
    [new_var] only counts, and the first {!solve} of an instance sets
    up the per-variable state and the watch lists once.  That first
    [solve] also closes the clause set — {!new_var} and {!add_clause}
    raise from then on — until {!reset} forgets the instance and keeps
    the storage for the next one.

    Decisions use a cursor over the variables whose activity is still
    zero beside a heap of the bumped ones.  That follows the order a
    heap of every variable gives only until the first activity rescale,
    which can come no earlier than conflict 4,432; once an instance's
    solves pass 1,024 conflicts, the solve starts over with that heap
    instead, replaying the instance's earlier [solve] calls.  Either way the trajectory, and
    with it every outcome, model and count below, is the heap's. *)

type t

type outcome =
  | Sat  (** a satisfying assignment was found; query it with {!value} *)
  | Unsat  (** the clause set is unsatisfiable *)
  | Unknown  (** the conflict budget ran out before a verdict *)

val create : unit -> t

val reset : t -> unit
(** Forget the variables and clauses, keeping the storage: the solver
    then behaves exactly as a fresh {!create}d one (variables numbered
    from 1 again, no learnt clauses, activities and counters back at
    their start, the clause set open), whatever the last instance
    was, refuted included. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its (positive) index.
    Variables are numbered consecutively from 1.  Raises
    [Invalid_argument] once {!solve} has run, until {!reset}. *)

val nvars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause given as a list of literals.  Duplicate literals are
    removed and tautologies ([v] and [-v] together) are dropped.  The
    empty clause marks the instance unsatisfiable.  A literal that is
    0 or names no allocated variable raises [Invalid_argument] and adds
    nothing.  All clauses must be added before calling {!solve}; the
    solver is not incremental, and [add_clause] raises
    [Invalid_argument] once [solve] has run, until {!reset}. *)

val add_clause2 : t -> int -> int -> unit
(** [add_clause2 s a b] is [add_clause s [a; b]] without the list. *)

val add_clause3 : t -> int -> int -> int -> unit
(** [add_clause3 s a b c] is [add_clause s [a; b; c]] without the
    list. *)

val solve :
  ?conflict_budget:int -> ?deadline:Cgra_util.Deadline.t -> t -> outcome
(** Run CDCL search.  [conflict_budget] bounds the total number of
    conflicts before giving up with [Unknown] (default: unlimited).
    [deadline] is polled at every restart boundary and every 256
    conflicts; expiry behaves exactly like budget exhaustion — the
    trail is backtracked to level 0 and [Unknown] is returned, leaving
    the solver state reusable: a later [solve] call on the same solver
    continues from the learnt clauses accumulated so far.  Callers
    that need to distinguish a timeout from a spent budget check
    {!Cgra_util.Deadline.expired} themselves.  A deadline that never
    fires changes nothing: the search trace, outcome and model are
    byte-identical to a run without one. *)

val value : t -> int -> bool
(** [value s v] is the assignment of variable [v] in the model found
    by the last [solve] that returned [Sat].  Raises [Invalid_argument]
    if no model is available. *)

val stats_conflicts : t -> int
(** Total conflicts encountered across the [solve] calls since the
    last {!reset} (deterministic; the exact backend reports this as its
    work measure). *)

val stats_clauses : t -> int
(** Clauses of two or more literals attached so far, problem and
    learnt together (deleted learnt clauses keep their arena slot and
    still count). *)
