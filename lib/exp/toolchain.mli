(** The tool chain, in one place: lowering → [cgra_opt] pipeline (opt
    mode [Optimized] only) → mapping flow ([Cgra_core.Flow.run]) →
    assembly → independent validation → cycle-level simulation → golden
    check → energy model.

    The experiment harness ({!Runner}), the [cgra_mapd] compute path,
    [cgra_map map] and [fault], the figures, the bench ablations and the
    examples (bar the stage-by-stage quickstart) all go through this
    module, so they cannot disagree on a stage: every program is
    validated, protected runs fetch through the ECC decoder, and energy
    is always priced on the array the mapping targeted (the degraded one
    under a fault map).

    The opt mode lives here and nowhere else: {!cdfg_of} and {!compile}
    pick the lowering, and {!run} runs the pipeline over it; the flow
    maps whatever CDFG it is handed.

    The API splits at the map/execute boundary: {!map} turns a CDFG into a
    validated program, {!execute} runs a program, and {!run} is both.
    Callers that already hold a program reuse the halves: fault campaigns
    inject into a validated program, and the protection report re-runs
    the harness's programs at each protection level through {!execute}. *)

type opt =
  | Default  (** the seed behaviour: inline-optimized lowering *)
  | Raw  (** naive lowering, no optimization at all *)
  | Optimized  (** naive lowering + the [cgra_opt] pipeline *)
(** Which CDFG of a kernel is mapped. *)

val opt_to_string : opt -> string
(** ["default"], ["raw"], ["optimized"] — the serve-protocol spelling. *)

val opt_of_string : string -> opt option

val opt_label : opt -> string
(** [""], ["+RAW"], ["+OPT"] — the harness cell-key suffix, so [Default]
    cells keep the seed harness's keys and RNG splits. *)

val cdfg_of : opt -> Cgra_kernels.Kernel_def.t -> Cgra_ir.Cdfg.t
(** The kernel's inline-optimized CDFG for [Default], its naive lowering
    otherwise. *)

val compile :
  opt -> string -> (Cgra_ir.Cdfg.t, Cgra_lang.Compile.error) result
(** {!cdfg_of} for kernel-language source text: the lowering [opt] maps,
    before {!run} optimizes it. *)

(** Why a run stopped, one constructor per stage. *)
type error =
  | Unmapped of Cgra_core.Flow.failure
      (** map: the flow found no mapping, the deadline fired in the
          flow or between two [cgra_opt] passes ([failure.verdict] is
          [Expired]; from the pipeline its [where] is
          ["cgra_opt <pass>"], with no block and no work), or the
          assembler rejected
          the mapping it found — register-file pressure the search does
          not model, a [Dead_end] whose reason starts ["assembly: "],
          with the flow's [work], no block and an empty [gave_up] *)
  | Unoptimizable of string
      (** optimize: the [cgra_opt] pipeline failed differential
          verification *)
  | Invalid of Cgra_verify.Validator.violation list
      (** validate: the independent validator rejected the program *)
  | Crashed of Cgra_sim.Simulator.error  (** simulate *)
  | Wrong_output
      (** golden: the simulated memory image differs from the golden
          model *)

val error_to_string : error -> string
(** One line.  [Unmapped] renders as its failure's reason, the
    unmappable reason the harness and the daemon report; the other
    stages are prefixed with their name. *)

type mapped = {
  mapping : Cgra_core.Mapping.t;
  stats : Cgra_core.Flow.stats;
  program : Cgra_asm.Assemble.program;  (** validated *)
  opt_report : Cgra_opt.Pipeline.report option;
      (** per-pass statistics, when {!run} optimized the CDFG *)
}

type executed = {
  sim : Cgra_sim.Simulator.result;
  energy : Cgra_power.Energy.breakdown;
}

val map :
  ?deadline:Cgra_util.Deadline.t ->
  config:Cgra_core.Flow_config.t ->
  Cgra_arch.Cgra.t ->
  Cgra_ir.Cdfg.t ->
  (mapped, error) result
(** Map the CDFG as given onto [cgra] (degraded by [config.faults]),
    assemble, validate.  [deadline] bounds the flow.  A failure of the
    flow or of the assembler is [Unmapped]. *)

val validate : Cgra_asm.Assemble.program -> (unit, error) result
(** The validate stage on its own: [Error (Invalid _)] on any violation. *)

val execute :
  ?protection:Cgra_arch.Protection.profile ->
  ?golden:int array ->
  mem:int array ->
  Cgra_asm.Assemble.program ->
  (executed, error) result
(** Simulate on [mem] (updated in place), compare the final image with
    [golden] when given, and price the run on the program's own array.
    A [protection] other than {!Cgra_arch.Protection.none} (the default)
    fetches through the ECC decoder at the default scrub cadence and adds
    the protection energy terms. *)

val run :
  ?deadline:Cgra_util.Deadline.t ->
  ?golden:int array ->
  ?opt:opt ->
  config:Cgra_core.Flow_config.t ->
  mem:int array ->
  Cgra_arch.Cgra.t ->
  Cgra_ir.Cdfg.t ->
  (mapped * executed, error) result
(** {!map} then {!execute} at [config.protection].  The CDFG is the
    lowering [opt] (default [Default]) picked; under [Optimized] the
    [cgra_opt] pipeline runs over it first, differentially verified on
    [mem] when [golden] is given (a kernel with known inputs), else on
    {!Cgra_opt.Pipeline.default_verifier}.  A CDFG that fails
    {!Cgra_ir.Cdfg.validate} skips the pipeline and fails in the flow.
    [deadline] bounds the pipeline and the flow, polled before each pass
    application and at the flow's own boundaries. *)

val run_kernel :
  ?deadline:Cgra_util.Deadline.t ->
  ?opt:opt ->
  config:Cgra_core.Flow_config.t ->
  Cgra_arch.Cgra.t ->
  Cgra_kernels.Kernel_def.t ->
  (mapped * executed, error) result
(** {!run} on a bundled kernel: its {!cdfg_of} [opt] (default [Default]),
    its input image and its golden model. *)
