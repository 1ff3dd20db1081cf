(** Cycle-level simulator of the CGRA executing an assembled program.

    Tiles run lock-step through the context section of the current basic
    block; the global controller sequences blocks using the condition bit
    broadcast by [set_cond] instructions (Fig 1's control bits), adding
    one transition cycle per block.  Loads and stores reach the shared
    data memory through the logarithmic interconnect, modelled as
    [mem_ports] concurrent accesses per cycle — excess accesses stall the
    whole array (the paper's global stall signal).

    Register-file semantics: writes land at the end of a cycle, reads see
    the start-of-cycle state, matching the assembler's assumptions.  Two
    same-cycle writes to one (tile, register) have no defined winner in
    hardware; the simulator detects the conflict during the commit phase
    and raises {!Sim_error} ([Write_conflict]) instead of letting the
    pending-list order decide.

    Every structural check raises a typed {!error} carrying (tile, block,
    cycle) coordinates, so callers — in particular the fault-injection
    campaigns of [Cgra_verify] — can classify failures without parsing
    strings.  The simulator is fully defensive: a corrupted context word
    (out-of-range register, tile or CRF index) produces a typed error,
    never an [Invalid_argument] from an array access.  When several checks
    could fail, the first in execution order reports: tiles run in index
    order within a cycle, and an operation reads its source operands left
    to right, all of them before its operand count is checked.

    The simulator also gathers the per-tile activity counters the energy
    model integrates. *)

type activity = {
  alu_ops : int;        (** non-memory operations executed *)
  mul_ops : int;        (** of which multiplies (costlier) *)
  mem_ops : int;        (** loads + stores issued *)
  moves : int;          (** routing moves and local copies *)
  fetches : int;        (** context words fetched (instructions + pnops) *)
  awake_cycles : int;   (** cycles not clock-gated (executing, not pnop) *)
}

(** Context-memory protection counters, present only on protected runs.
    [detected] counts every non-clean ECC verdict (corrections included);
    [corrected] the subset repaired in place, whether on the fetch path
    or by the scrubber.  [scrub_cycles] are background cycles (one word
    read each) that do not extend execution; [scrub_reads] and [written]
    are per tile, feeding the energy model's scrub-traffic and
    encode-on-write terms. *)
type ecc = {
  detected : int;
  corrected : int;
  scrub_cycles : int;
  scrub_reads : int array;   (** per tile *)
  written : int array;       (** per tile: context words encoded at load *)
}

type result = {
  cycles : int;            (** total, including stalls and transitions *)
  stall_cycles : int;
  blocks_executed : int;
  instructions : int;      (** instructions executed (pnops excluded) *)
  activity : activity array;  (** per tile *)
  ecc : ecc option;        (** [None] unless [run] was given [?protect] *)
}

(** Structured simulation errors.  [block] is the basic-block index of
    the executing section, [cycle] the 0-based cycle within it. *)
type error =
  | Crf_out_of_range of { tile : int; block : int; cycle : int; index : int; pool : int }
  | Rf_out_of_range of { tile : int; block : int; cycle : int; reg : int; rf_words : int }
  | Bad_tile of { tile : int; block : int; cycle : int; target : int; tiles : int }
  | Non_neighbour_read of
      { tile : int; block : int; cycle : int; from_tile : int; distance : int }
  | Mem_out_of_bounds of { tile : int; block : int; cycle : int; addr : int; words : int }
  | Bad_arity of
      { tile : int; block : int; cycle : int; opcode : Cgra_ir.Opcode.t; args : int }
  | Store_with_dst of { tile : int; block : int; cycle : int }
  | Cond_without_result of { tile : int; block : int; cycle : int }
  | Write_conflict of { tile : int; reg : int; block : int; cycle : int }
  | Missing_condition of { block : int }
  | Unexecuted_instructions of { tile : int; block : int; left : int }
  | Runaway of { max_blocks : int }
  | Uncorrectable_cm of { tile : int; word : int; block : int; cycle : int }
      (** ECC detected an uncorrectable context-memory error (double-bit
          under SECDED, any odd flip under parity) — the machine check *)
  | Undecodable_cm of { tile : int; word : int; block : int; cycle : int }
      (** a context word that escaped (or lacked) protection no longer
          decodes to any instruction *)

val error_to_string : error -> string

exception Sim_error of error
(** Also registered with [Printexc.register_printer], so an uncaught
    [Sim_error] still prints a readable message. *)

type rf_fault = {
  at_cycle : int;   (** global cycle (stalls and transitions included) *)
  fault_tile : int;
  fault_reg : int;
  xor_mask : int;   (** XORed into the register when the counter crosses *)
}
(** A register-file bit-upset for the fault-injection campaigns: when the
    global cycle counter crosses [at_cycle], [xor_mask] is XORed into
    [fault_reg] of [fault_tile]. *)

type upset = {
  up_tile : int;
  up_word : int;   (** index into the tile's context image *)
  up_bit : int;    (** 0..63: data bits only, so injection sites are
                       identical at every protection level *)
}
(** A context-memory bit-upset, applied to the stored image before
    execution starts (a configuration-time soft error). *)

type protect = {
  profile : Cgra_arch.Protection.profile;
  upsets : upset list;
  scrub_interval : int;
      (** global cycles between background scrub passes; [<= 0] disables
          scrubbing ({!Cgra_arch.Protection.default_scrub_interval} is
          the conventional value) *)
}
(** Context-memory protection for a run.  Every fetch goes through the
    ECC decoder against check bits computed from the pristine image
    (encode-on-write); single-bit errors are corrected in place under
    SECDED, uncorrectable ones raise {!Sim_error} [Uncorrectable_cm].
    The scrubber additionally sweeps all protected words every
    [scrub_interval] cycles in the background. *)

val protect_of : Cgra_arch.Protection.profile -> protect option
(** The protection a run under [profile] gets: no upsets and the
    {!Cgra_arch.Protection.default_scrub_interval}, or [None] when every
    tile is unprotected, so that the run keeps the plain fetch path and
    its results are bit-identical to a protection-free build. *)

val run :
  ?mem_ports:int ->
  ?max_blocks:int ->
  ?rf_faults:rf_fault list ->
  ?protect:protect ->
  Cgra_asm.Assemble.program ->
  mem:int array ->
  result
(** [run program ~mem] executes from the entry block until [Return],
    mutating [mem].  Symbol RF slots start at zero, matching the
    reference interpreter.  Defaults: [mem_ports = 8],
    [max_blocks = 1_000_000], [rf_faults = []], no protection.  Raises
    {!Sim_error} on a malformed program (missing condition, out-of-range
    memory access, write conflict, runaway loop) and on uncorrectable or
    undecodable context words under [?protect]; raises
    [Invalid_argument] if [mem_ports < 1] or if an [rf_fault] or [upset]
    names a site outside the fabric.

    Both kinds of run share one lock-step loop and differ only in where
    an instruction is fetched from.  Without [?protect] it is read from
    the program's sections ([result.ecc = None]).  With it, every fetch
    checks the stored word through the ECC decoder first — the verdict is
    never cached — and the word is then decoded through a per-word cache
    that fetch-path corrections and the scrubber invalidate when they
    write a repaired word back. *)

val total_activity : result -> activity
