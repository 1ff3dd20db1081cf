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
  | Undecodable_cm of
      { tile : int; word : int; block : int; cycle : int; message : string }
      (** a fetched context word that escaped (or lacked) protection no
          longer decodes to any instruction; [message] is
          {!Cgra_arch.Isa.decode}'s *)

val error_to_string : error -> string

exception Sim_error of error
(** Also registered with [Printexc.register_printer], so an uncaught
    [Sim_error] still prints a readable message. *)

type upset =
  | Context_bit of { tile : int; word : int; bit : int }
      (** flips [bit] (0..63: data bits only, so injection sites are the
          same at every protection level) of [word] in the tile's stored
          context image *)
  | Crf_bit of { tile : int; index : int; bit : int }
      (** flips [bit] (0..31) of entry [index] of the tile's constant
          pool *)
  | Rf_bit of { cycle : int; tile : int; reg : int; bit : int }
      (** flips [bit] (0..31) of register [reg] when the global cycle
          counter (stalls and transitions included) crosses [cycle] *)
(** A single-bit upset, the fault-injection campaigns' event.  Context
    and constant-pool upsets are configuration-time soft errors, applied
    before execution starts to this run's copy of the image or pool (the
    program is never mutated); a register upset strikes mid-run. *)

type protect = {
  profile : Cgra_arch.Protection.profile;
  scrub_interval : int;
      (** global cycles between background scrub passes; [<= 0] disables
          scrubbing ({!Cgra_arch.Protection.default_scrub_interval} is
          the conventional value) *)
}
(** Context-memory protection for a run: the per-tile profile and the
    scrub cadence.  Every fetch from a protected tile goes through the
    ECC decoder against check bits computed from the pristine image
    (encode-on-write); single-bit errors are corrected in place under
    SECDED, uncorrectable ones raise {!Sim_error} [Uncorrectable_cm].
    The scrubber additionally sweeps all protected words every
    [scrub_interval] cycles in the background. *)

val protect_of : Cgra_arch.Protection.profile -> protect option
(** The protection a run under [profile] gets: the
    {!Cgra_arch.Protection.default_scrub_interval}, or [None] when every
    tile is unprotected, so that the run reports no ECC counters and its
    results are bit-identical to a protection-free build. *)

val run :
  ?mem_ports:int ->
  ?max_blocks:int ->
  ?upsets:upset list ->
  ?protect:protect ->
  Cgra_asm.Assemble.program ->
  mem:int array ->
  result
(** [run program ~mem] executes from the entry block until [Return],
    mutating [mem].  Symbol RF slots start at zero, matching the
    reference interpreter.  Defaults: [mem_ports = 8],
    [max_blocks = 1_000_000], no upsets, no protection.  Raises
    {!Sim_error} on a malformed program (missing condition, out-of-range
    memory access, write conflict, runaway loop), on an undecodable
    context word when it is fetched, and on an uncorrectable one under
    [?protect]; raises [Invalid_argument] if [mem_ports < 1] or if an
    upset names a site outside the program or the fabric (tile, context
    word, constant-pool index, register, bit, or a negative cycle).

    Every run shares one lock-step loop and one fetch.  An instruction
    is read from the program's sections until its stored word changes —
    by a context upset or an ECC write-back — and is then decoded from
    the stored word, once per change.  So a context upset reaches a run,
    protected or not, only when its word is fetched.  A tile gets a
    stored image only if it is protected or a context upset hits it: a
    run with neither reads the sections alone.  Under [?protect], every
    fetch from a protected tile first checks the stored word through the
    ECC decoder; the verdict is never cached. *)

val total_activity : result -> activity
