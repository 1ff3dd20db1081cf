(** The pass manager: runs {!Passes} to a fixpoint with differential
    verification built in.

    After {e every} pass application the manager (a) re-validates the CDFG
    structurally ({!Cgra_ir.Cdfg.validate}) and (b) re-executes the
    optimized CDFG under the {!Cgra_ir.Interp} reference interpreter on
    the verifier's input set, comparing final memory images against the
    unoptimized program.  Any divergence raises {!Verification_failed}
    naming the guilty pass — an optimized CDFG is never returned unless it
    is observationally equal to its input on every verification input. *)

type verifier = {
  mems : int array list;
      (** initial memory images; each run gets a private copy.  Final
          memory is the observable output being compared (matching the
          golden-model check of the experiment harness). *)
  init_syms : (Cgra_ir.Cdfg.sym * int) list;
  max_steps : int;
}

val verifier_of_mems :
  ?init_syms:(Cgra_ir.Cdfg.sym * int) list ->
  ?max_steps:int ->
  int array list ->
  verifier
(** [max_steps] defaults to 1_000_000 (the interpreter's own default). *)

val default_verifier : unit -> verifier
(** Deterministic fallback when no kernel-specific inputs are available
    (e.g. [cgra_map compile --opt] on an arbitrary source file): a zero
    image plus two pseudo-random 4096-word images from a fixed seed.
    Inputs on which the {e reference} run itself faults (out-of-bounds or
    step limit) are skipped — same stance as the harness, which only
    compares runs the golden model completes. *)

exception Verification_failed of string
(** A pass changed observable behaviour or broke a structural invariant.
    The message names the kernel, the pass and the divergence. *)

exception Expired of string
(** The deadline given to {!run} fired; the message names the pass whose
    application it stopped. *)

type pass_stat = { pass : string; removed : int; rewritten : int }

type report = {
  kernel : string;
  nodes_before : int;
  nodes_after : int;
  rounds : int;  (** full pipeline sweeps until the fixpoint *)
  per_pass : pass_stat list;
      (** aggregated over all rounds, in pipeline order *)
}

val run :
  ?passes:Passes.pass list ->
  ?verify:verifier ->
  ?deadline:Cgra_util.Deadline.t ->
  Cgra_ir.Cdfg.t ->
  Cgra_ir.Cdfg.t * report
(** Applies [passes] (default {!Passes.all}) repeatedly until a full sweep
    changes nothing, at most 8 sweeps, verifying after each pass against
    [verify] (default {!default_verifier}).  [deadline] (default
    {!Cgra_util.Deadline.never}) is polled before each pass application:
    once it has fired, [run] raises {!Expired}, so it overruns the
    deadline by at most one verified application.  A deadline that
    never fires changes nothing.  The input CDFG must be valid
    ([Invalid_argument] otherwise — callers such as [Flow.run] validate
    first and surface their own error). *)

val render_report : report -> string
(** Per-pass statistics as an ASCII table plus a node-count summary
    line. *)
