(** Naive-but-credible code generator from {!Cgra_ir.Cdfg.t} to the
    or1k-like ISA — the "compiled with -O3" baseline of Section IV.

    Per basic block: symbol variables live in dedicated registers, node
    results get linear-scan temporaries, address adds with constant
    offsets fold into load/store addressing modes, [Select]/[Min]/[Max]
    expand to compare + conditional move, and immediates fold into
    register-immediate forms where the ISA allows.  When the temporary
    pool runs dry the allocator spills to a scratch region placed after
    the kernel's data (furthest-next-use victim; reloads go through
    reserved scratch registers). *)

type program = {
  cdfg : Cgra_ir.Cdfg.t;
  blocks : Cpu_isa.instr list array;  (** indexed by block id *)
  spill_words : int;  (** scratch memory appended after the data image *)
}

exception Codegen_error of string

val spill_base_reg : int
(** Register the simulator initialises with the spill-area base address. *)

val compile : Cgra_ir.Cdfg.t -> program

val pp : Format.formatter -> program -> unit
