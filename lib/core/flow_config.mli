(** Mapping-flow configuration.

    The paper's Fig 4 flow is the basic mapping approach of reference [1]
    plus four optional steps; each step is an independent switch here so
    the experiments can profile every increment (Figs 6-9):

    - {e weighted traversal} of the CDFG (Section III-D-1),
    - {e ACMAP}, approximate context-memory-aware pruning (III-D-2),
    - {e ECMAP}, exact context-memory-aware pruning (III-D-3),
    - {e CAB}, constraint-aware binding with blacklisted tiles (III-D-4). *)

type traversal = Forward | Weighted

type backend =
  | Beam  (** the stochastic beam search of Section III (the default) *)
  | Exact
      (** the CDCL SAT backend ([Cgra_core.Exact]): per-block CNF of
          placement, neighbour routing, operand timing and CM capacity,
          solved for the shortest schedule length its probes find — or
          to a proof that no mapping exists under the encoding.  The
          length is minimal only when every shorter probe was refuted; a
          probe that spends its conflict budget counts as infeasible *)
  | Portfolio
      (** race [Beam] and [Exact] on the domain pool and keep the
          better-by-cost feasible result (ties favour [Beam], so the
          portfolio never regresses the fast path) *)

type t = {
  traversal : traversal;
  acmap : bool;
  ecmap : bool;
  cab : bool;
  beam_width : int;
      (** partial mappings surviving stochastic pruning each round *)
  expand_per_state : int;
      (** binding alternatives kept per partial mapping per operation *)
  prune_slack : float;
      (** threshold function slack: children within
          [(1 + prune_slack) * best_cost] survive deterministically *)
  keep_prob : float;
      (** probability of keeping an over-threshold child (stochastic part) *)
  recompute_budget : int;
      (** re-computation graph transformations allowed per basic block *)
  home_reserve : int;
      (** context words kept free, during binding, on tiles that host a
          symbol home — headroom for the mandatory live-out writes (aware
          flows only) *)
  move_weight : int;
      (** weight of routing moves against schedule length in the
          partial-mapping cost *)
  energy_bias_nodes : int;
      (** kernels with at most this many operation nodes afford the
          energy bias of the aware flows: candidate tiles are enumerated
          smallest context memory first, so placement ties settle on the
          cheapest tile; larger kernels keep the neutral order because
          capacity, not energy, decides for them *)
  retries : int;
      (** extra attempts with reseeded stochastic pruning before giving up
          — only the context-aware flows retry.  Like the [degrade]
          ladder, it is ignored by the deterministic [Exact] backend,
          whose ladder is always its greedy pass, then its spread pass
          ({!Flow.run}). *)
  seed : int;
  expand_jobs : int;
      (** read by nothing: the search expands its population on the
          calling domain.  Kept only until the benchmark's workload
          definitions stop setting it. *)
  degrade : bool;
      (** graceful degradation: the rungs of the flow's retry ladder
          escalate — wider beam, reseeded stochastic pruning, relaxed
          pruning thresholds — instead of only reseeding [retries] times
          (default false; the [Exact] backend ignores it).  Every failed
          rung is recorded in
          {!Flow.stats.escalations} (on success) or
          {!Flow.failure.gave_up} (on exhaustion). *)
  max_attempts : int;
      (** total mapping attempts (the base attempt included) the
          degradation ladder may spend per kernel (default 6); only read
          when [degrade] is set. *)
  faults : Cgra_arch.Cgra.fault list;
      (** permanent-fault map applied to the target array before mapping
          ({!Cgra_arch.Cgra.degrade}): home selection, the ACMAP/ECMAP
          capacity checks and the precomputed route table all see the
          reduced CM capacities and severed links (default [[]] — the
          pristine array, byte-identical to the fault-free flow).  The
          route table is interned once per flow run on the degraded
          array and shared by every attempt of the retry/degradation
          ladder — and by the partial searches of
          {!Flow.run_partial}, which reuses the whole configuration
          (this field included) for the dirty-block re-search. *)
  backend : backend;
      (** which mapper produces each block's placement (default
          [Beam]).  Semantic: the choice changes the artifact bytes,
          so it is part of the serve-store content address. *)
  protection : Cgra_arch.Protection.profile;
      (** context-memory protection applied at simulation and energy
          accounting time (default {!Cgra_arch.Protection.none}).
          Mapping itself is unaffected — check bits live beside the
          context words — but cycles/energy in the artifact change, so
          the profile is part of the serve-store content address. *)
}

val default : t
(** Basic flow of [1]: forward traversal, no memory awareness, beam 24. *)

val basic : t
val with_acmap : t
val with_acmap_ecmap : t
val context_aware : t
(** The full proposed flow: weighted traversal + ACMAP + ECMAP + CAB. *)

val steps_of : t -> string
(** Short label such as ["basic+ACMAP+ECMAP"] used in reports; the
    non-default backends append ["+SAT"] / ["+PORT"]. *)

(** {1 Presets}

    The four flows of the paper's evaluation (Figs 6-9), in one table
    that the harness, the CLIs and the serve key all read. *)

type preset = Basic | With_acmap | With_ecmap | Full

val presets : preset list
(** In increasing order of memory awareness. *)

val of_preset : preset -> t
(** {!basic}, {!with_acmap}, {!with_acmap_ecmap}, {!context_aware}. *)

val preset_label : preset -> string
(** ["basic"], ["basic+ACMAP"], ["basic+ACMAP+ECMAP"],
    ["basic+ACMAP+ECMAP+CAB"] — the report label, which also keys the
    harness's per-cell RNG splits. *)

val preset_names : string list
(** The command-line spellings: ["basic"; "acmap"; "ecmap"; "full"]. *)

val preset_of_string : string -> preset option
(** Parses {!preset_names}, plus ["cab"] as an alias of ["full"]. *)

(** {1 Spellings and the knob table} *)

val backends : backend list

val backend_to_string : backend -> string
(** ["beam"] / ["exact"] / ["portfolio"] — the spelling used by the
    [--backend] CLI flag and the serve-key knob. *)

type knob = {
  name : string;
  print : t -> string;  (** the knob's value in [t], round-trip exact *)
  parse : t -> string -> (t, string) result;
      (** [t] with the knob set from its printed form; [Error] names the
          knob, the bad value and the valid spellings *)
}

val knobs : knob list
(** One entry per semantic field — every field that can change an
    artifact's bytes — in name order.  Not knobs: [expand_jobs] (read
    by nothing) and [faults] (keyed on their own).  Which lowering
    is mapped, and whether [cgra_opt] runs on it, is not a flow setting
    at all: it is the opt mode of [Cgra_exp.Toolchain], keyed on its
    own by the serve key. *)

val to_knobs : t -> (string * string) list
(** Every knob of [t] as a name/value pair, in name order. *)

val of_knobs : (string * string) list -> (t, string) result
(** Apply name/value pairs over {!default}.  Omitted knobs keep their
    defaults; an unknown name or a bad value is an [Error] naming it. *)
