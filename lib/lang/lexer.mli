(** Hand-written lexer for the kernel language. *)

type token =
  | Tint of int
  | Tident of string
  | Tkw of string      (** kernel, var, arr, const, while, for, if, else, unroll, to *)
  | Tpunct of string   (** one of ( ) { } [ ] ; , @ = and the binary operators *)
  | Teof

type t
(** Token stream with one-token lookahead. *)

val of_string : string -> t

val peek : t -> token
val pos : t -> Ast.pos
(** Position of the {e next} token, for error reporting. *)

val next : t -> token
(** Consumes and returns the next token.  Raises {!Ast.Syntax_error} on an
    invalid character or a malformed literal. *)
