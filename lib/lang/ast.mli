(** Abstract syntax of the kernel language.

    A deliberately small C-like language in which the paper's seven
    signal-processing kernels are written: 32-bit integer scalars (which
    lower to symbol variables), flat arrays in the shared data memory,
    [while] loops, [if]/[else], and a compile-time [unroll] loop that the
    lowering expands — standing in for the loop unrolling the original
    LLVM-based flow performs. *)

type binop =
  | Badd | Bsub | Bmul
  | Bshl | Bshrl | Bshra
  | Band | Bor | Bxor
  | Blt | Ble | Beq | Bne | Bgt | Bge

type expr =
  | Int of int
  | Var of string
  | Index of string * expr          (** array element read *)
  | Bin of binop * expr * expr
  | Call of string * expr list      (** intrinsics: min, max, select, abs *)

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr   (** array[index] = value *)
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
      (** [For (init, cond, step, body)]: C-style sugar the lowering
          desugars to [init; while (cond) { body; step; }] *)
  | If of expr * stmt list * stmt list
  | Unroll of string * int * int * stmt list
      (** [Unroll (v, lo, hi, body)]: body repeated for v = lo .. hi-1 with
          [v] bound as a compile-time constant *)

type decl =
  | Dvar of string list             (** scalar symbol variables *)
  | Darr of string * int            (** array name @ base address *)
  | Dconst of string * expr         (** compile-time constant *)

type kernel = { name : string; decls : decl list; body : stmt list }

type pos = { line : int; col : int }

exception Syntax_error of pos * string
