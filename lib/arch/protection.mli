(** Context-memory protection profiles.

    Soft errors in the per-tile context memories are the array's dominant
    upset target (they hold the most state and are latch arrays, not
    hardened SRAM).  A {!profile} assigns a {!kind} of protection per CM
    {e size class} — the Table-I bank sizes 64/32/16 — so heterogeneous
    configurations can protect only the large banks.

    The protection choice is purely semantic for the mapper (placement is
    unchanged); it changes simulation (detection, correction, scrubbing —
    {!Cgra_sim.Simulator}), energy ({!Cgra_power.Energy}, the
    pay-for-protection price) and therefore artifact bytes, which is why
    it is part of the serve-store content address
    ({!Cgra_core.Flow_config.t.protection}). *)

type kind =
  | Unprotected
  | Parity  (** 1 check bit: single-bit upsets detected, never corrected *)
  | Secded
      (** Hamming(71,64) + overall parity (8 check bits): single-bit
          upsets corrected in place, double-bit upsets detected *)

type profile = { cm64 : kind; cm32 : kind; cm16 : kind }
(** Protection kind per CM size class: [cm64] covers banks of >= 64
    words, [cm32] banks of >= 32, [cm16] the rest. *)

val none : profile
val uniform : kind -> profile
val parity : profile
val secded : profile

val is_none : profile -> bool
(** [true] iff every class is [Unprotected] — the byte-identical default. *)

val for_cm : profile -> cm_words:int -> kind
(** The kind protecting a bank of [cm_words] (physical capacity). *)

val check_bits_of_kind : kind -> int
(** Check bits stored alongside each 64-bit context word (0, 1 or 8). *)

val default_scrub_interval : int
(** Global cycles between background scrub passes (1024). *)

val profile_to_string : profile -> string
(** Canonical spelling: a uniform kind name ("none", "parity", "secded")
    or "cm64=K,cm32=K,cm16=K" — the serve-key knob value. *)

val profile_of_string : string -> profile option
(** Inverse of {!profile_to_string}; also accepts per-class assignments
    in any order. *)

val valid_values : string
(** Human-readable list of accepted spellings, for CLI error messages. *)
