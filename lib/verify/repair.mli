(** Self-repair: detect → diagnose → remap around permanent faults.

    The repair loop models a field scenario: a kernel was mapped on the
    pristine array, the silicon then degraded (the {e injected} fault map
    — ground truth the tool never reads directly), and the runtime only
    observes that architectural invariants now fail.  {!Validator}
    {e detects} the violations on the true degraded array, {!diagnose}
    attributes them back to a candidate fault map:

    - [Cm_overflow] with capacity 0 → [Dead_tile];
    - [Cm_overflow] with reduced capacity → [Cm_rows_stuck] of the
      missing rows (pristine capacity minus observed);
    - [Non_neighbour_read] between pristine-adjacent tiles → [Dead_link];
    - [Lsu_required] → [No_lsu].

    The mapper then {e remaps} on [Cgra.degrade pristine diagnosed]
    through the ordinary flow (the graceful-degradation ladder included
    when [config.degrade] is set).  Diagnosis may under-approximate —
    faults on resources the pristine mapping never used are invisible —
    so the loop iterates detect → diagnose → remap, accumulating faults,
    until the remap is violation-free on the true array (then confirmed
    against the golden memory image in the simulator) or a bounded number
    of rounds is exhausted. *)

type mode =
  | Full         (** every remap re-searches the whole kernel (PR-5 loop) *)
  | Incremental
      (** remaps reuse every block whose placement does not touch the
          diagnosed faults ({!dirty_blocks}) and re-search only the dirty
          ones via {!Cgra_core.Flow.run_partial}, falling back to a full
          remap when the dirty set is everything or the partial search
          fails *)

type remap_kind =
  | Full_remap  (** whole-kernel search (always the case in [Full] mode) *)
  | Partial of { dirty : int; total : int }
      (** incremental remap that re-searched [dirty] of [total] blocks *)

type status =
  | Unaffected
      (** the pristine mapping satisfies every invariant on the degraded
          array: the faults hit unused resources, nothing to repair *)
  | Repaired of {
      mapping : Cgra_core.Mapping.t;  (** remapped on the diagnosed array *)
      rounds : int;                   (** diagnosis rounds spent *)
      escalations : int;  (** degrade-ladder attempts of the final remap *)
      cycles : int;                   (** simulated cycles after repair *)
      energy_pj : float;  (** energy on the degraded array after repair *)
      remap : remap_kind;  (** how the final successful remap was run *)
    }
  | Gave_up of { reason : string; rounds : int }

type trace = {
  injected : Cgra_arch.Cgra.fault list;   (** ground truth *)
  detected : Validator.violation list;    (** first detection pass *)
  diagnosed : Cgra_arch.Cgra.fault list;  (** accumulated diagnosis *)
  status : status;
}

val detect :
  truth:Cgra_arch.Cgra.t -> Cgra_core.Mapping.t -> Validator.violation list
(** The mapping's invariants re-checked against the (degraded) [truth]
    array — {!Validator.check_mapping} with the fabric swapped. *)

val diagnose :
  pristine:Cgra_arch.Cgra.t ->
  Validator.violation list ->
  Cgra_arch.Cgra.fault list
(** Attribute violations to a normalised candidate fault map (sorted,
    deduplicated, [Dead_tile] subsuming same-tile CM/LSU faults). *)

val dirty_blocks :
  Cgra_core.Mapping.t ->
  Cgra_arch.Cgra.fault list ->
  bool array * int array
(** [dirty_blocks m faults] = [(dirty, kept_homes)]: [dirty.(b)] is true
    iff block [b]'s placement touches a fault — an executing tile, an
    operand/move source tile, or the home tile of a symbol the block
    reads or writes is in {!Fault.tiles} of some fault.  [kept_homes.(s)]
    is the symbol's home tile, or [-1] when that home sat on a faulted
    tile (freed for re-pinning; every block referencing such a symbol is
    dirty, so no surviving placement depends on the stale home).
    Soundness contract, qcheck-tested: no surviving ([not dirty.(b)])
    block touches any faulted tile. *)

val repair :
  ?mode:mode ->
  config:Cgra_core.Flow_config.t ->
  injected:Cgra_arch.Cgra.fault list ->
  fresh_mem:(unit -> int array) ->
  golden:int array ->
  Cgra_core.Mapping.t ->
  trace
(** Run the full loop for one injected fault map against the pristine
    mapping.  [golden] is the fault-free memory image the repaired
    program must reproduce; diagnosis runs at most 4 rounds before the
    trial gives up; [mode] (default [Full]) selects whole-kernel or
    incremental remaps — both must converge to a golden-PASS repair,
    incremental just spends less search on it. *)

val status_to_string : status -> string
val trace_to_string : trace -> string
(** Four-line rendering: injected / detected / diagnosed / result. *)

type trial = { index : int; trace : trace }

type summary = {
  trials : int;
  unaffected : int;
  repaired : int;
  partial_repairs : int;
      (** repaired trials whose final remap was {!Partial} — always 0 in
          [Full] mode *)
  gave_up : int;
  mean_cycle_overhead : float;
      (** mean of (repaired - pristine) / pristine cycles over the
          repaired trials; 0 when none *)
  mean_energy_overhead : float;  (** same for total energy *)
}

type campaign = {
  runs : trial list;  (** in trial-index order, independent of [jobs] *)
  summary : summary;
  pristine_cycles : int;
  pristine_energy_pj : float;
}

val run_campaign :
  ?jobs:int ->
  ?mode:mode ->
  seed:int ->
  trials:int ->
  faults:int ->
  key:string ->
  config:Cgra_core.Flow_config.t ->
  fresh_mem:(unit -> int array) ->
  Cgra_core.Mapping.t ->
  campaign
(** [trials] independent repair trials against the pristine mapping, each
    injecting [faults] random permanent faults
    ({!Fault.sample_fault_map}).  Trial [i] draws from the keyed split
    [Rng.seed_of ~base:seed (key ^ "#" ^ i)] and remaps with a seed split
    from [config.seed] the same way, so the campaign is byte-identical at
    any [jobs] value — in either [mode]. *)
