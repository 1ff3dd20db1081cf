(** Control-Data-Flow Graph — the mapper's input representation.

    Following Section III-A of the paper, a CDFG is a set of basic blocks
    [V(C)] connected by control-flow edges [E(C)]; each basic block is a
    data-flow graph of operation nodes.  Values that live across basic
    blocks are {e symbol variables}: they are pinned to a register-file
    location on one tile (their {e home}) by the mapper, which is what
    creates the location constraints discussed in the paper. *)

type sym = int
(** Symbol-variable id, dense from 0 within one CDFG. *)

type operand =
  | Node of int  (** result of the DFG node with that index in the same block;
                     must reference a strictly earlier node *)
  | Sym of sym   (** value of a symbol variable at block entry *)
  | Imm of int   (** constant, materialised in the constant register file *)

type node = {
  opcode : Opcode.t;
  operands : operand list;
  mem_dep : int list;
      (** ordering-only dependencies on earlier nodes of the same block:
          a load lists the previous store to the same array; a store lists
          the previous store and the loads issued since (anti-dependence).
          The scheduler and binder honour them like data edges. *)
}
(** One DFG operation node. *)

type terminator =
  | Jump of int                       (** unconditional successor block *)
  | Branch of operand * int * int     (** condition, then-block, else-block;
                                          taken when the condition is non-zero *)
  | Return

type block = {
  name : string;
  nodes : node array;                 (** in topological order: operands only
                                          reference earlier nodes *)
  live_out : (sym * operand) list;    (** symbol assignments at block exit *)
  terminator : terminator;
}

type t = {
  kernel_name : string;
  blocks : block array;
  entry : int;
  sym_count : int;
  sym_names : string array;
}

val validate : t -> (unit, string) result
(** Structural well-formedness: operand indices in range and strictly
    decreasing, opcode arities respected, terminator targets in range,
    symbol ids below [sym_count], every block reachable from the entry. *)

val block_count : t -> int
val node_count : t -> int
(** Total operation nodes over all blocks. *)

val cfg : t -> Cgra_graph.Digraph.t
(** The control-flow graph (one digraph node per block, in block order). *)

val dfg_graph : block -> Cgra_graph.Digraph.t
(** The data-dependency digraph of a block (one node per operation;
    edges producer -> consumer).  [Sym] and [Imm] operands contribute no
    edges. *)

val block_weight : t -> int -> int
(** Wbb = n(s) + sum of fan-outs of each symbol variable (Section
    III-D-1). *)

val uses_of_node : block -> int -> int
(** Fan-out of a node: uses by later nodes, by [live_out] and by the
    terminator condition. *)

val order_live_outs : (sym * operand) list -> (sym * operand) list option
(** A block's live-out assignments in an order where every item that
    reads symbol [s]'s old value comes before the item writing [s]
    (read-before-write on [s]'s one register).  The order is built in
    rounds, each taking, in list order, every remaining item whose
    symbol no other remaining item reads.  [None] when the reads form a
    cycle (a swap), which has no such order; the frontend never emits
    one. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing of the whole CDFG. *)
