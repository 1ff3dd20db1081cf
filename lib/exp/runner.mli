(** Shared machinery of the experiment harness: runs (kernel x
    configuration x flow) cells through {!Toolchain.run_kernel} — mapping,
    assembly, validation, cycle-level simulation with functional check
    against the golden model, energy — and memoizes the results so every
    figure reuses them.

    The memo cache is thread-safe: {!run_of} and {!cpu_of} may be called
    from any number of domains concurrently (e.g. via {!warm}), and each
    cell is computed exactly once — concurrent requests for an in-flight
    cell block until the producing domain publishes it.

    Determinism: every cell's stochastic search runs on its own split of
    the SplitMix64 stream, keyed by (kernel, configuration, flow), so cell
    results are independent of evaluation order and of the number of
    domains — all artifacts are byte-identical at any [--jobs] value. *)

exception
  Failed of { kernel : string; target : string; error : Toolchain.error }
(** A cell stopped at a stage the harness cannot report numbers from —
    validation, simulation or the golden check ([target] is
    ["<config>/<flow>"] or ["cpu"]).  Each is a tool bug: the failure is
    cached and re-raised to every consumer.  Registered with
    [Printexc.register_printer]. *)

(** Thread-safe single-flight memoisation, the machinery under {!run_of}
    and {!cpu_of}.  Exposed so the exception-safety contract is testable
    in isolation. *)
module Memo : sig
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  (** [create n] is an empty memo with initial capacity [n]. *)

  val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  (** [get m key compute] returns the cached value for [key], computing it
      at most once no matter how many domains ask concurrently (waiters
      block until the claiming domain publishes).  A [compute] that raises
      publishes a cached failure: the exception is re-raised — with its
      original backtrace — to the computing caller and to {e every}
      past-and-future waiter of the key.  The claim is exception-safe
      ([Fun.protect]): an exception that cannot be cached (asynchronous
      interrupt between claim and publish) clears the slot instead of
      leaving a stale [Computing] marker, so the key recomputes rather
      than poisoning every later lookup. *)

  val computed : ('k, 'v) t -> int
  (** Computations claimed (not served from cache) since creation or the
      last {!reset} — failed computes included. *)

  val forget : ('k, 'v) t -> 'k -> unit
  (** Drop the cached value (or cached failure) for one key, so the next
      {!get} recomputes it.  An in-flight [Computing] slot is left
      untouched — removing it would strand the producer's publish and
      its waiters.  The seam the daemon uses to keep deadline-shaped
      outcomes ([Timed_out]) out of the permanent single-flight cache. *)

  val reset : ('k, 'v) t -> unit
  (** Drop all entries and zero {!computed}.  Safe to call while computes
      are in flight: the reset bumps an internal generation counter, so a
      pre-reset compute that later publishes (a value, a cached failure,
      or the async-exception slot clear) is discarded instead of reviving
      a stale — possibly poisoned — entry in the cleared table, and
      waiters blocked on pre-reset in-flight slots are released to
      re-claim their keys fresh. *)
end

val cell_flow_config :
  ?opt:Toolchain.opt ->
  string ->
  Cgra_arch.Config.name ->
  Cgra_core.Flow_config.preset ->
  Cgra_core.Flow_config.t
(** [cell_flow_config slug config preset] is the preset's configuration
    with the seed replaced by the cell-keyed split described above; a
    non-[Default] [opt] adds its {!Toolchain.opt_label} to the key.
    Exposed so tests can reproduce a single cell outside the cache. *)

type cell =
  (Toolchain.mapped * Toolchain.executed, Cgra_core.Flow.failure) result
(** A cell's one outcome: {!Toolchain.run_kernel}'s records — the
    validated program, its flow stats (deterministic [work]), the
    simulation and the energy — or the failure of the map: no mapping
    from the flow, or none the assembler accepts. *)

val run_of :
  ?opt:Toolchain.opt ->
  ?backend:Cgra_core.Flow_config.backend ->
  Cgra_kernels.Kernel_def.t ->
  Cgra_arch.Config.name ->
  Cgra_core.Flow_config.preset ->
  cell
(** Memoized; safe to call concurrently.  [opt] (default [Default])
    selects the kernel's lowering; [Raw] and [Optimized] cells carry
    their mode in the cache key and in the RNG cell key, so they coexist
    with (and never perturb) the [Default] cells.  [backend] (default
    the preset's) picks the mapper; the cache key holds it, and the seed
    stays the preset cell's split, so an [Exact] cell runs with the beam
    cell's configuration but for its backend.  Every cell goes through
    {!Toolchain.run_kernel}: mapped, validated, simulated against the
    golden model and priced.  A failed map is [Error]; any later stage
    failing raises {!Failed}. *)

type cpu_run = {
  cpu_sim : Cgra_cpu.Cpu_sim.result;
  cpu_energy : Cgra_power.Energy.breakdown;
}

val cpu_of : Cgra_kernels.Kernel_def.t -> cpu_run
(** Memoized; also checked against the golden model. *)

val compile_work_of : cell -> int
(** The cell's deterministic compile effort: [stats.work] of a mapped
    cell, [failure.work] of a failed one. *)

val kernels : Cgra_kernels.Kernel_def.t list

val warm : ?jobs:int -> ?opt:Toolchain.opt -> unit -> unit
(** Evaluate the whole grid — every (kernel, configuration, flow) cell in
    [opt] mode (default [Default]) plus the CPU baselines — with up to
    [jobs] domains (default {!Cgra_util.Pool.default_jobs}), filling the
    cache so subsequent figure rendering is pure table lookup.  Byte-identical artifacts at
    any [jobs]. *)

val compute_count : unit -> int
(** Number of cells actually computed (not served from cache) since the
    last {!clear_caches} (or process start), across both caches.  For
    tests: a concurrent storm of [run_of] calls on one key must raise
    this by exactly 1. *)

val clear_caches : unit -> unit
(** Drop both caches and reset {!compute_count} to 0.  Safe under concurrent
    computes: in-flight cells publish into the {e old} generation and are
    discarded (see {!Memo.reset}), so a cleared cache never revives a
    poisoned computation. *)
