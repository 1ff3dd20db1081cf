(** Reference interpreter for {!Cdfg.t}.

    Serves two roles: it produces the golden memory image against which the
    CGRA simulator and the CPU baseline are checked, and it records the
    dynamic basic-block trace used to turn per-block latencies into total
    kernel cycles. *)

type trace = {
  block_counts : int array;  (** executions per block id *)
  block_order : int list;    (** dynamic order, first executed first *)
  steps : int;               (** total blocks executed *)
}

exception Out_of_bounds of { block : string; node : int; addr : int }
(** A load or store escaped the memory image. *)

exception
  Bad_arity of { block : string; node : int; opcode : string; expected : int; got : int }
(** A [Load]/[Store] node carried the wrong operand count — a malformed
    CDFG that slipped past {!Cdfg.validate} (which rejects it when run).
    Named diagnostics instead of the bare [Failure "nth"] the old
    operand indexing died with. *)

exception Step_limit_exceeded
(** The kernel did not return within [max_steps] blocks. *)

val run :
  ?init_syms:(Cdfg.sym * int) list ->
  ?max_steps:int ->
  Cdfg.t ->
  mem:int array ->
  trace
(** [run cdfg ~mem] executes from the entry block until [Return], mutating
    [mem] in place.  Symbol variables start at 0 unless overridden by
    [init_syms].  [max_steps] (default 1_000_000) bounds the number of
    executed blocks. *)
