(** Independent mapping validator.

    A from-scratch re-check of every architectural invariant of a finished
    mapping and its assembled program — written against the fabric model
    only, sharing no accounting code with the mapper or the assembler, so
    a bug in either shows up as a typed {!violation} instead of a silently
    wrong artifact (the "independent validation" layer the CGRA toolchain
    literature asks for).

    Checks performed:
    - per-tile context words (independently recounted from the slots and
      from the assembled sections) within the tile's CM capacity;
    - every neighbour read — operand tiles, [Amove] sources, [Nbr]/[Imov]
      operands — at torus distance <= 1;
    - schedule legality per block: every value read on a tile was defined
      there strictly earlier (writes land end-of-cycle), or is a symbol
      live-in on its home tile, or an immediate;
    - CRF indices within the tile's constant pool, pools within the CRF
      capacity, RF slots and tile ids within the fabric;
    - section lengths consistent between mapping and program, instruction
      durations within each section, one instruction per (tile, cycle);
    - the binary context image round-trips through {!Cgra_arch.Isa.decode}. *)

type coord = { tile : int; block : int; cycle : int }

type violation =
  | Cm_overflow of { tile : int; words : int; capacity : int }
  | Usage_mismatch of { tile : int; mapping_words : int; program_words : int }
  | Non_neighbour_read of { at : coord; from_tile : int; distance : int }
  | Operand_not_ready of { at : coord; value : string }
  | Bad_crf_index of { at : coord; index : int; pool : int }
  | Crf_pool_overflow of { tile : int; pool : int; capacity : int }
  | Bad_rf_slot of { at : coord; reg : int; rf_words : int }
  | Bad_tile_ref of { at : coord; target : int; tiles : int }
  | Double_issue of { at : coord }
  | Slot_out_of_section of { at : coord; length : int }
  | Section_length_mismatch of
      { block : int; mapping_cycles : int; program_cycles : int }
  | Section_overrun of { tile : int; block : int; duration : int; length : int }
  | Operand_arity of { at : coord; node : int; operands : int; tiles : int }
  | Bad_node_ref of { at : coord; node : int; nodes : int }
  | Bad_home of { sym : int; home : int; tiles : int }
  | Block_index_mismatch of { block : int; bb : int }
  | Encoding_mismatch of { tile : int; word : int; detail : string }
  | Lsu_required of { at : coord; node : int }
      (** an operation needing the load-store unit sits on a tile that has
          none — on degraded arrays also raised for any operation placed on
          a dead tile ({!Cgra_arch.Cgra.can_execute}) *)

val to_string : violation -> string

val check_mapping : Cgra_core.Mapping.t -> violation list
(** Schedule-level invariants re-derived from the slots alone (no
    assembler involved): CM capacity, neighbour distances, operand
    readiness, double issue, section bounds, home sanity. *)

val check_program : Cgra_asm.Assemble.program -> violation list
(** Artifact-level invariants of the assembled per-tile programs: CM
    capacity recounted from the sections, CRF/RF/tile index ranges,
    section lengths and durations, encode/decode round-trip, and the
    cross-check of the mapper's word accounting against the artifact. *)

val check : Cgra_asm.Assemble.program -> violation list
(** {!check_mapping} on the embedded mapping followed by
    {!check_program}; [[]] means the artifact is clean. *)
