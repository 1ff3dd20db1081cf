(** One-call frontend: kernel-language source to validated CDFG. *)

type phase =
  | Syntax      (** the parser rejected the input *)
  | Semantic    (** lowering rejected it (undeclared names, bad unroll…) *)
  | Invalid_ir  (** lowering produced a CDFG that fails validation — a
                    compiler bug, not a user error *)

type error = { phase : phase; pos : Ast.pos option; msg : string }
(** A diagnostic.  [pos] is the source position for syntax errors (the
    lowering works on a position-free AST, so semantic errors carry
    [None]). *)

exception Error of error

val error_to_string : error -> string
(** ["syntax error at line L, col C: msg"] / ["semantic error: msg"] —
    what drivers should print. *)

val compile : ?raw:bool -> string -> (Cgra_ir.Cdfg.t, error) result
(** Parse, lower, clean up and validate.  [raw] (default false) lowers
    naively ({!Lower.lower}[ ~naive:true]) and skips the {!Cgra_ir.Opt}
    clean-up: the unoptimized baseline for the [cgra_opt] pipeline. *)

val compile_exn : ?raw:bool -> string -> Cgra_ir.Cdfg.t
(** Like {!compile} but raises {!Error}. *)
