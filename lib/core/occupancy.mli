(** Per-tile cycle occupancy within one basic block's schedule.

    The context-memory inequality of Section III-C needs, per tile, the
    number of mapped instructions plus the number of {e pnops} — one pnop
    per maximal run of idle cycles that the tile must actively wait
    through.  The global controller broadcasts section starts and
    clock-gates idle tiles (Fig 1), so a tile entirely idle during a block
    contributes no context words, and trailing idle cycles after a tile's
    last instruction are slept through for free; only {e leading} and
    {e interior} idle runs consume a pnop word.  This module owns that
    accounting so ACMAP (optimistic estimate), ECMAP (exact count), the
    flow's committed words and {!Mapping}'s usage all agree on it.

    One grid holds every tile of an array.  The busy and pnop counts are
    maintained {e incrementally} on {!occupy}, so {!pnops},
    {!pnops_optimistic}, {!busy_count} and {!words} are O(1) — they sit on
    the mapper's hot path (every ACMAP/ECMAP filter and cost evaluation)
    and must not rescan the cycles.  The search tries each binding on its
    parent's grid in place, between a {!checkpoint} and a {!rollback}, and
    {!copy}s a grid (a handful of flat-array allocations whatever the tile
    count) only for the partial mappings that survive pruning. *)

type t
(** The occupancy of every tile of one array. *)

val create : int -> t
(** [create nt] is an all-free grid for [nt] tiles. *)

val copy : t -> t
(** [copy g] is a grid equal to [g] that records nothing, whether or not
    [g] does. *)

val occupy : t -> int -> int -> unit
(** [occupy g t c] marks cycle [c] of tile [t] busy.  Raises
    [Invalid_argument] if already busy or negative. *)

val checkpoint : t -> unit
(** Start recording: every later {!occupy} is journaled until the next
    {!rollback}.  A second [checkpoint] discards the journal so far. *)

val changes : t -> int
(** The number of {!occupy} calls recorded since the {!checkpoint}; 0 when
    not recording. *)

val changed_tile : t -> int -> int
(** [changed_tile g i] is the tile of the [i]-th recorded {!occupy},
    [0 <= i < changes g].  A tile occupied twice is listed twice. *)

val rollback : t -> unit
(** Undo every {!occupy} since the last {!checkpoint} and stop recording:
    every query below answers as it did at the checkpoint. *)

val first_free_at_or_after : t -> int -> int -> int
(** [first_free_at_or_after g t c] is tile [t]'s earliest free cycle
    [>= c]. *)

val busy_count : t -> int -> int
(** The tile's mapped instructions. *)

val pnops : t -> int -> int
(** Exact pnop count of the tile: maximal idle runs before its last busy
    cycle — leading and interior gaps.  0 for an idle tile.
    This is the count ECMAP (Section III-D-3) filters on and the assembler
    materialises. *)

val pnops_optimistic : t -> int -> int
(** ACMAP's approximate count (Section III-D-2): interior idle runs only —
    the leading gap is assumed absorbable by later bindings.  Always
    [<= pnops]. *)

val words : t -> int -> int
(** [busy_count + pnops]: the tile's context words in this block. *)
