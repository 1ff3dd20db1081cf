(** Model of the target CGRA (Fig 1 of the paper).

    A grid of tiles (PEs) interconnected through a 2D-mesh torus.  Every
    tile has an ALU, a register file (RF), a constant register file (CRF)
    and its own context memory (CM), decoder and controller; tiles in the
    first [lsu_rows] rows additionally contain a load/store unit connected
    to the shared data memory through a logarithmic interconnect.  The
    evaluation uses a 4x4 array whose first two rows (tiles 1..8 in the
    paper's numbering, ids 0..7 here) are load-store tiles.

    The model also carries a typed {e permanent-fault map}: [degrade]
    yields a well-formed reduced array on which [neighbors], [route_opt]
    and [distance] respect dead tiles and severed links.  A pristine array
    is a degraded array with no faults: [make] and [degrade] build through
    one constructor, so every query runs the same code on both. *)

type tile = {
  id : int;           (** dense id, row-major from 0 *)
  row : int;
  col : int;
  has_lsu : bool;
  cm_words : int;     (** context-memory capacity in instruction words *)
}

type direction = North | South | West | East

type fault =
  | Dead_tile of { tile : int }
      (** The whole PE is unusable: CM reads as size 0, no LSU, and every
          link into the tile is severed. *)
  | Cm_rows_stuck of { tile : int; rows : int }
      (** [rows] context-memory rows are stuck: effective [cm_words]
          shrinks by [rows] (clamped at 0).  Distinct row counts on the
          same tile accumulate. *)
  | Dead_link of { tile : int; dir : direction }
      (** The mesh link leaving [tile] towards [dir] is severed in both
          directions (neighbour reads are bidirectional wires). *)
  | No_lsu of { tile : int }
      (** The load-store unit is broken; the tile still computes. *)

type t = {
  rows : int;
  cols : int;
  tiles : tile array;  (** effective tiles (degraded capacities) *)
  rf_words : int;      (** regular register file: 32 x 8-bit in the paper *)
  crf_words : int;     (** constant register file: 32 x 16-bit *)
  faults : fault list; (** normalised (sorted, deduplicated) fault map *)
  pristine_tiles : tile array;  (** the fabric as built *)
  dead : bool array;   (** per-tile death *)
  severed : (int * int) list;   (** dead links, both orientations, sorted *)
  apsp : int array;
      (** flattened all-pairs BFS distances, [-1] for partitioned pairs *)
}

val make :
  ?rows:int -> ?cols:int -> ?lsu_rows:int -> ?rf_words:int -> ?crf_words:int ->
  cm_of_tile:(int -> int) -> unit -> t
(** Defaults give the paper's 4x4 array with 8 load-store tiles, 32-word RF
    and CRF.  [cm_of_tile id] sets each tile's CM capacity. *)

val tile_count : t -> int

val pristine : t -> bool
(** [true] iff the fault map is empty. *)

val faults : t -> fault list

val alive : t -> int -> bool
(** [false] only for tiles marked [Dead_tile] in the fault map. *)

val base_cm : t -> int -> int
(** The tile's CM capacity before degradation. *)

val link_severed : t -> int -> int -> bool
(** Whether the direct mesh link between two (pristine-)adjacent tiles is
    dead.  Always [false] on pristine arrays. *)

val lsu_tiles : t -> int list
(** Ids of tiles able to execute loads and stores. *)

val can_execute : t -> int -> Cgra_ir.Opcode.t -> bool
(** Whether the opcode may be placed on the tile (LSU restriction; always
    [false] on a dead tile). *)

val dir_neighbor : t -> int -> direction -> int
(** Pristine-geometry torus neighbour in the given direction (ignores
    faults; may equal the tile itself on 1-wide dimensions). *)

val dir_between : t -> int -> int -> direction option
(** Inverse of [dir_neighbor]: the direction from the first tile to the
    second when they are (pristine-)adjacent. *)

val neighbors : t -> int -> int list
(** Torus neighbours in ascending id order; on degraded arrays dead tiles
    have no neighbours and dead links / dead endpoints are filtered out. *)

val unreachable : t -> int
(** Sentinel distance for partitioned tile pairs: [tile_count], strictly
    larger than any simple path. *)

val distance : t -> int -> int -> int
(** BFS hop count over [neighbors] ([unreachable c] when no path exists);
    on a pristine array, the torus Manhattan distance. *)

val route_opt : t -> src:int -> dst:int -> int list option
(** Deterministic shortest path, row direction first: the successive tiles
    {e after} [src], ending with [dst].  [route_opt ~src ~dst:src] is
    [Some []].  The geometric path is kept when intact, otherwise a
    deterministic BFS detour is taken; [None] when the fault map
    partitions the pair. *)

val route_geometric : t -> src:int -> dst:int -> int list
(** The pristine-geometry row-first path, ignoring faults. *)

val path_ok : t -> src:int -> int list -> bool
(** Whether a path (as returned by [route_opt]) avoids every dead tile and
    severed link. *)

val degrade : t -> fault list -> t
(** [degrade c fs] applies [fs] on top of [c]'s existing fault map and
    rebuilds the effective array from the pristine fabric.  The combined
    map is normalised (sorted, deduplicated), so [degrade] is idempotent
    and order-insensitive.  Raises [Invalid_argument] for out-of-range
    tile ids or negative row counts. *)

val direction_of_string : string -> direction option

val fault_to_string : fault -> string
(** S-expression form, e.g. [(cm_rows_stuck 3 8)] — the same syntax
    {!Fault_map} parses. *)

val pp_grid : Format.formatter -> t -> unit
(** Small ASCII rendering of the grid with CM sizes and LSU markers. *)
