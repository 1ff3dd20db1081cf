(** Regeneration of every table and figure of the paper's evaluation.

    Each renderer runs (or reuses) the needed tool-chain cells and renders
    a plain-text artifact shaped like the paper's: same rows, same series,
    same normalisations.  Every renderer reads its settings from one
    explicit {!params} record and from nothing else, so a table is a
    function of its inputs. *)

type params = {
  opt : Toolchain.opt;
      (** the lowering every harness cell maps — the bench [--opt] flag.
          {!fig5} and {!opt_report} keep their own CDFGs and ignore it. *)
  fault_trials : int;
      (** single-bit trials per kernel of {!fault_report} and per cell and
          level of {!protection_report}; positive *)
  repair_trials : int;  (** trials per cell of {!repair_report}; positive *)
  repair_faults : int;
      (** random permanent faults per {!repair_report} trial; positive *)
  repair_mode : Cgra_verify.Repair.mode;  (** {!repair_report}'s remap *)
  protection : Cgra_arch.Protection.profile;
      (** context-memory protection of the {!fault_report} campaigns *)
  quick : bool;  (** shrink the {!optimality_report} grid *)
}

val default : params
(** The bench driver's defaults: [Default] lowering, 120 fault trials, 30
    repair trials of 2 faults, [Full] remaps, no protection, the full
    optimality grid. *)

val table1 : params -> string
(** Table I — the four context-memory configurations. *)

val fig2 : params -> string
(** Fig 2 — the motivation: per-tile context-word usage of the basic
    (context-unaware) mapping of matrix multiplication on HOM64, showing
    the hot load-store tiles and the waste elsewhere. *)

val fig5 : params -> string
(** Fig 5 — per-basic-block pnop and move counts of the FFT kernel under
    the weighted traversal, normalised to the forward traversal. *)

val fig6 : params -> string
(** Fig 6 — latency per kernel and configuration, basic + ACMAP,
    normalised to the basic mapping on HOM64; 0 marks "no mapping". *)

val fig7 : params -> string
(** Fig 7 — same with basic + ACMAP + ECMAP. *)

val fig8 : params -> string
(** Fig 8 — same with the full flow (+ CAB). *)

val fig9 : params -> string
(** Fig 9 — average compilation time after each added step, normalised to
    the basic flow. *)

val fig10 : params -> string
(** Fig 10 — execution cycles of basic@HOM64 and context-aware@HET1/HET2
    normalised to the CPU, with the speed-up summary. *)

val fig11 : params -> string
(** Fig 11 — area breakdown of HOM64/HET1/HET2 against the CPU system. *)

val table2 : params -> string
(** Table II — energy in uJ for CPU / basic@HOM64 / aware@HET1 /
    aware@HET2 with gain factors and the summary statistics the abstract
    quotes. *)

val opt_report : params -> string
(** Not in the paper: what the [cgra_opt] pipeline recovers from the
    naive lowering, per kernel — per-pass node statistics, then context
    usage / latency / binding attempts / energy of the raw vs optimized
    CDFG under the basic flow on all four configurations ("-" marks
    configurations the raw kernel does not even fit). *)

val search_report : params -> string
(** Not in the paper: per-block beam-search telemetry of the full
    context-aware flow on HET2 — rounds, binding attempts, children
    generated, routing failures, ACMAP/ECMAP kills, stochastic-pruning
    survivors, finalisation failures, re-computations and population
    peak, plus per-kernel work and retry totals.  Deterministic effort
    counts only (no wall-clock), so it reproduces byte-for-byte on any
    host at any [--jobs]. *)

exception Artifact_error of { artifact : string; reason : string }
(** An artifact's precondition does not hold (e.g. a kernel the paper maps
    refuses to map) — a harness bug.  Registered with
    [Printexc.register_printer]. *)

val fault_report : params -> string
(** Not in the paper: per-kernel single-bit fault-injection campaigns
    ([Cgra_verify.Fault]) over the full context-aware flow on HET2 —
    injection counts per target (context memory, constant pool, register
    file) and outcome counts (masked / wrong-output / crash / hang), with
    [fault_trials] trials per kernel.  Under a [protection] other than
    none, campaigns run through the ECC fetch path and the table gains
    detected / corrected columns.
    Deterministic: per-trial keyed RNG splits make the table byte-identical
    at any [--jobs] value and across reruns with the same seed. *)

val protection_report : params -> string
(** Not in the paper: the pay-for-protection grid.  Per (kernel, Table-I
    configuration) cell of the full context-aware flow, one CM-only
    single-bit injection campaign per protection level (none / parity /
    secded) over the {e same} upset sites, tabulating masked / detected /
    corrected / escaped counts and the fault-free energy overhead of each
    level vs the unprotected run.  Uses [fault_trials] for the per-cell
    trial count and sweeps all three levels whatever [protection] says.
    Deterministic at any [--jobs] value. *)

val repair_report : params -> string
(** Not in the paper: permanent-fault survivability table over the
    [Cgra_verify.Repair] detect → diagnose → remap loop, per kernel and
    Table-I configuration under the full context-aware flow
    ([repair_trials] trials of [repair_faults] faults, remapped in
    [repair_mode]) — counts of unaffected / repaired (with the
    incremental-remap subset in the [inc] column) / gave-up trials, the
    survivability fraction, and the mean cycle/energy overhead of the
    repaired mappings vs the pristine ones, plus one example repair
    trace.  Deterministic at any [--jobs] value; per-cell campaign
    wall-clock (host-dependent) is printed to stderr, never into the
    returned report. *)

val optimality_report : params -> string
(** Not in the paper: the exact SAT backend ([Cgra_core.Exact]) re-maps
    every (kernel, configuration) cell of the full context-aware flow
    and the table lays its total context words, simulated cycles and
    energy next to the beam search's.  Cells the exact backend proves
    infeasible read "UNSAT under encoding" — a proof that no move-free
    mapping exists at any schedule length (DESIGN.md §5g), which the
    beam may still beat with move chains.  Every exact mapping is
    re-checked by the validator and against the golden model before it
    is tabulated.  Both backends map the [opt] lowering; [quick] shrinks
    the grid to two kernels (FIR, FFT) on HOM64/HOM32 for CI smoke runs.
    Deterministic at any [--jobs] value. *)

val artifacts : (string * (params -> string)) list
(** Name-to-renderer table of the paper artifacts, in paper order — the
    single source of truth for the bench driver's artifact lookup. *)

val extra_artifacts : (string * (params -> string)) list
(** Beyond-the-paper artifacts ({!opt_report}, {!search_report},
    {!fault_report}, {!protection_report}, {!repair_report},
    {!optimality_report}); not part of the paper set {!artifacts}. *)

val all_artifacts : (string * (params -> string)) list
val artifact_names : string list
