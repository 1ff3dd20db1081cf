(** Imperative construction of {!Cdfg.t} values.

    Used by the kernel-language lowering ({!Cgra_lang}) and by tests that
    build small CDFGs by hand.  Blocks and symbols are declared first so
    terminators can reference forward blocks; nodes are appended in order,
    which guarantees the strictly-decreasing operand invariant of
    {!Cdfg.validate}. *)

type t
type block_handle

val create : string -> t
(** [create kernel_name] starts an empty CDFG. *)

val fresh_sym : t -> string -> Cdfg.sym
(** Declares a symbol variable (cross-block value). *)

val add_block : t -> string -> block_handle
(** Declares a block; the first declared block is the entry. *)

val block_id : block_handle -> int

val add_node :
  ?mem_dep:int list ->
  t -> block_handle -> Opcode.t -> Cdfg.operand list -> Cdfg.operand
(** Appends an operation node; returns its result as an operand.  Raises
    [Invalid_argument] on arity mismatch or if the opcode has no result and
    the returned operand would be used (Store returns a dummy operand that
    must not be consumed). *)

val set_live_out : t -> block_handle -> Cdfg.sym -> Cdfg.operand -> unit
(** Records [sym := operand] at block exit.  A later call for the same
    symbol in the same block replaces the earlier one. *)

val set_terminator : t -> block_handle -> Cdfg.terminator -> unit
(** Must be called exactly once per block before {!finish}. *)

type error =
  | Missing_terminator of { block : string }
      (** {!set_terminator} was never called for [block]. *)
  | Invalid_cdfg of { kernel : string; reason : string }
      (** The frozen CDFG failed {!Cdfg.validate}. *)

val error_to_string : error -> string

exception Build_error of error
(** Registered with [Printexc.register_printer]. *)

val finish : t -> Cdfg.t
(** Freezes the CDFG and validates it; raises {!Build_error} on
    ill-formed input. *)
