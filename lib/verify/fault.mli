(** Deterministic fault-injection campaigns.

    Each trial flips one bit in the program's state — a context-memory
    word of the binary image ({!Cgra_asm.Assemble.encode_tile}), a
    constant-register-file entry, or a live register-file bit at a chosen
    cycle — re-runs the cycle-level simulator, and classifies the result:

    - {e masked}: the final data memory equals the fault-free image;
    - {e wrong-output}: simulation completed but the memory differs;
    - {e crash}: an undecodable context word, or a typed
      {!Cgra_sim.Simulator.Sim_error};
    - {e hang}: execution past 4x the fault-free block count
      ([max_blocks], surfacing as [Runaway]);
    - {e detected} (protected campaigns only): ECC flagged an
      uncorrectable context error and halted the run — a machine check,
      not a silent escape;
    - {e corrected} (protected campaigns only): the run completed with
      the right memory after at least one in-place ECC correction.

    Determinism: trial [i] of a campaign draws from its own keyed split
    [Rng.seed_of ~base:seed (key ^ "#" ^ i)], so the classification — and
    the whole per-trial list — is byte-identical at any [jobs] value and
    across reruns with the same seed. *)

type injection =
  | Context_bit of { tile : int; word : int; bit : int }
  | Crf_bit of { tile : int; index : int; bit : int }
  | Rf_bit of { cycle : int; tile : int; reg : int; bit : int }

type outcome =
  | Masked
  | Wrong_output
  | Crash of string
  | Hang
  | Detected   (** uncorrectable context error caught by ECC *)
  | Corrected  (** completed correctly after in-place ECC correction *)

type trial = { index : int; injection : injection; outcome : outcome }

type summary = {
  trials : int;
  masked : int;
  wrong_output : int;
  crash : int;
  hang : int;
  detected : int;   (** 0 on unprotected campaigns *)
  corrected : int;  (** 0 on unprotected campaigns *)
}

type campaign = {
  summary : summary;
  runs : trial list;  (** in trial-index order, independent of [jobs] *)
  golden_cycles : int;  (** fault-free execution cycles *)
}

val injection_to_string : injection -> string
val outcome_to_string : outcome -> string

val run_campaign :
  ?jobs:int ->
  ?protect:Cgra_arch.Protection.profile ->
  ?cm_only:bool ->
  seed:int ->
  trials:int ->
  key:string ->
  fresh_mem:(unit -> int array) ->
  Cgra_asm.Assemble.program ->
  campaign
(** [run_campaign ~seed ~trials ~key ~fresh_mem program] first runs the
    fault-free program on [fresh_mem ()] to obtain the golden memory
    image, then executes [trials] independent single-fault trials
    (parallelised over [jobs] domains; default
    {!Cgra_util.Pool.default_jobs}).  [key] names the campaign — use a
    distinct key per (kernel, config, flow) point so campaigns draw
    independent streams.  The input [program] is never mutated.

    RF injections target only live tiles of the (possibly degraded)
    array; context and CRF sites are live by construction, since the
    assembled program places no words on dead tiles and none beyond a
    stuck-row-reduced capacity.

    With [?protect] (a non-[none] profile), trials run through the ECC
    fetch path with the default scrub cadence: context upsets are planted
    in the stored image instead of reassembled, uncorrectable errors
    classify as [Detected], corrected-then-completed runs as
    [Corrected].  Injection sampling never consults the profile, so trial
    [i] of a given [key]/[seed] flips the same bit at every protection
    level.  [?cm_only] restricts every trial to context-memory upsets
    (the protection report's mode); default [false].  Omitting both
    keeps the campaign byte-identical to the pre-existing one. *)

val sample_permanent : Cgra_util.Rng.t -> Cgra_arch.Cgra.t -> Cgra_arch.Cgra.fault
(** One random permanent fault on the (pristine) array: 20% dead tile,
    40% stuck CM rows (1..cm of the tile), 25% dead link, 15% broken LSU.
    Draws a bounded number of values from [rng], so sampling is
    deterministic for a given stream position. *)

val sample_fault_map :
  Cgra_util.Rng.t -> Cgra_arch.Cgra.t -> faults:int -> Cgra_arch.Cgra.fault list
(** [faults] independent draws of {!sample_permanent}, in draw order. *)

val tiles : Cgra_arch.Cgra.t -> Cgra_arch.Cgra.fault -> int list
(** Tiles the fault touches: the owning tile for [Dead_tile],
    [Cm_rows_stuck] and [No_lsu]; both endpoints (via
    [Cgra.dir_neighbor] on the torus) for [Dead_link].  The
    incremental-repair dirty-set rule ({!Repair.dirty_blocks}) marks a
    block dirty iff its placement touches one of these tiles. *)
