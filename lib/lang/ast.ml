type binop =
  | Badd | Bsub | Bmul
  | Bshl | Bshrl | Bshra
  | Band | Bor | Bxor
  | Blt | Ble | Beq | Bne | Bgt | Bge

type expr =
  | Int of int
  | Var of string
  | Index of string * expr
  | Bin of binop * expr * expr
  | Call of string * expr list

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
  | If of expr * stmt list * stmt list
  | Unroll of string * int * int * stmt list

type decl =
  | Dvar of string list
  | Darr of string * int
  | Dconst of string * expr

type kernel = { name : string; decls : decl list; body : stmt list }

type pos = { line : int; col : int }

exception Syntax_error of pos * string
