(** Result of mapping a CDFG onto a CGRA.

    A mapping fixes, per basic block, the (tile, cycle) of every operation
    node, of every routing move and of every symbol-initialisation copy;
    it also fixes the {e home} tile of every symbol variable.  Context
    usage (Section III-C: operations + transformed operations + pnops per
    tile) is derived here on the same {!Occupancy} grid the search
    decides with; the validator recounts it independently. *)

type value =
  | Vnode of int  (** result of the block's DFG node *)
  | Vsym of int   (** current value of a symbol variable *)
  | Vimm of int   (** constant (CRF-resident) *)

type action =
  | Aop of { node : int; operand_tiles : int list }
      (** execute a DFG node; [operand_tiles], aligned with the node's
          operands, names the tile whose RF each operand is read from —
          either the executing tile or a torus neighbour (the PE input
          muxes of Fig 1; immediates record the executing tile) *)
  | Amove of { value : value; from_tile : int }
      (** routing move: pull [value] from the RF of neighbouring
          [from_tile] *)
  | Acopy of value
      (** local copy (symbol initialisation from Imm/Sym, condition
          export) *)

type slot = {
  tile : int;
  cycle : int;
  action : action;
  writes_sym : int option;
      (** result additionally lands in this symbol's home RF slot *)
  set_cond : bool;
}

type bb_mapping = {
  bb : int;
  length : int;  (** schedule length in cycles (>= 1 for non-empty work) *)
  slots : slot list;
}

type usage = { ops : int; moves : int; pnops : int }
(** Per-tile context words: [ops] are DFG operations, [moves] are
    transformed operations (routing moves and copies), [pnops] the
    compressed idle runs. *)

val usage_total : usage -> int

type t = {
  cdfg : Cgra_ir.Cdfg.t;
  cgra : Cgra_arch.Cgra.t;
  bbs : bb_mapping array;    (** indexed by block id *)
  homes : int array;         (** symbol -> home tile *)
}

val block_usage : Cgra_arch.Cgra.t -> bb_mapping -> usage array
(** Per-tile usage of one block, counted on an {!Occupancy} grid — the
    accounting the search decides with and the flow commits. *)

val tile_usage : t -> usage array
(** Per-tile context usage summed over all basic blocks. *)

val fits : t -> bool
(** The inequality of Section III-C: every tile's total usage is within
    its context-memory capacity. *)

val total_ops : t -> int
val total_moves : t -> int
val total_pnops : t -> int

val static_cycles : t -> Cgra_ir.Interp.trace -> int
(** Kernel latency implied by the schedule: sum over the dynamic block
    trace of the block's schedule length, plus one transition cycle per
    executed block (global-controller jump).  The cycle-level simulator
    reproduces this number (plus memory-port stalls). *)

val pp_summary : Format.formatter -> t -> unit
(** Operation, move and pnop totals with the fit check, then one usage
    line per tile.  Callers print their own heading (kernel, flow,
    time): the mapping does not record how it was made. *)

val pp_schedule : Format.formatter -> t * int -> unit
(** [pp_schedule fmt (m, bi)] renders block [bi]'s schedule as a tile x
    cycle grid: [o] an operation, [m] a move, [c] a copy, [.] an idle
    cycle — the visual counterpart of the context-usage accounting. *)
