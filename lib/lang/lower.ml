module B = Cgra_ir.Builder
module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode

exception Lower_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

let opcode_of_binop = function
  | Ast.Badd -> Opcode.Add
  | Ast.Bsub -> Opcode.Sub
  | Ast.Bmul -> Opcode.Mul
  | Ast.Bshl -> Opcode.Shl
  | Ast.Bshrl -> Opcode.Shrl
  | Ast.Bshra -> Opcode.Shra
  | Ast.Band -> Opcode.And
  | Ast.Bor -> Opcode.Or
  | Ast.Bxor -> Opcode.Xor
  | Ast.Blt -> Opcode.Lt
  | Ast.Ble -> Opcode.Le
  | Ast.Beq -> Opcode.Eq
  | Ast.Bne -> Opcode.Ne
  | Ast.Bgt -> Opcode.Gt
  | Ast.Bge -> Opcode.Ge

let rec const_eval resolve = function
  | Ast.Int n -> Some n
  | Ast.Var v -> resolve v
  | Ast.Index _ -> None
  | Ast.Bin (op, a, b) -> (
    match const_eval resolve a, const_eval resolve b with
    | Some x, Some y -> Some (Opcode.eval (opcode_of_binop op) [ x; y ])
    | _, _ -> None)
  | Ast.Call ("min", [ a; b ]) -> (
    match const_eval resolve a, const_eval resolve b with
    | Some x, Some y -> Some (min x y)
    | _, _ -> None)
  | Ast.Call ("max", [ a; b ]) -> (
    match const_eval resolve a, const_eval resolve b with
    | Some x, Some y -> Some (max x y)
    | _, _ -> None)
  | Ast.Call _ -> None

type env = {
  builder : B.t;
  syms : (string, Cdfg.sym) Hashtbl.t;
  arrays : (string, int) Hashtbl.t;
  mutable consts : (string * int) list; (* shadowing via prepend *)
  mutable name_counter : int;
      (* per-kernel block-name counter: naming must not depend on what else
         this process compiled before (or concurrently, with [--jobs]) *)
  mutable steps : int;  (* lowered so far, see [step] *)
  naive : bool;
      (* [true] disables every inline optimization (value numbering,
         algebraic folds, load reuse) and emits one node per source
         operation — the raw frontend output that [cgra_opt] takes as its
         baseline.  Name resolution ([consts], unroll variables) and the
         [mem_dep] ordering edges are semantics, not optimization, and
         stay on. *)
}

(* Mutable per-block lowering state.  [vars] maps scalars assigned in this
   block to their current operand; [vn] is the local value-numbering table
   for pure operations.  [vn] and [loads] are hash tables, searched for
   every emitted node; a key is added only after a failed lookup, so each
   holds one entry per key. *)
type bctx = {
  handle : B.block_handle;
  mutable vars : (string * Cdfg.operand) list;
  vn : (Opcode.t * Cdfg.operand list, Cdfg.operand) Hashtbl.t;
  loads : (string * int * Cdfg.operand, Cdfg.operand) Hashtbl.t;
      (** (array, store-epoch, address) -> loaded value: loads are reused
          only while no store to the same array intervenes (arrays are
          disjoint regions by language semantics) *)
  mutable epochs : (string * int) list;
  mutable mem_order : (string * (int option * int list)) list;
      (** per array: last store node and loads issued since — sources of
          the ordering-only [mem_dep] edges *)
}

(* Statements, unroll iterations and expression nodes one kernel may
   lower.  The lowering is linear in them, but an unroll count multiplies
   a short source, so this bounds what any kernel source costs to compile
   (a [cgra_mapd] client sends its own).  A 20,000-step unroll of
   [s = s + x[k]] takes about 120,000. *)
let max_steps = 150_000

let step env =
  env.steps <- env.steps + 1;
  if env.steps > max_steps then
    err "kernel lowers to more than %d steps (statements, unroll iterations \
         and expression nodes)"
      max_steps

let new_block env name =
  { handle = B.add_block env.builder name; vars = []; vn = Hashtbl.create 16;
    loads = Hashtbl.create 16; epochs = []; mem_order = [] }

let epoch_of bctx arr =
  match List.assoc_opt arr bctx.epochs with Some e -> e | None -> 0

let bump_epoch bctx arr =
  bctx.epochs <- (arr, epoch_of bctx arr + 1) :: List.remove_assoc arr bctx.epochs

let emit ?mem_dep env bctx opcode operands =
  let pure =
    (not env.naive)
    && match opcode with Opcode.Load | Opcode.Store -> false | _ -> true
  in
  let key = (opcode, operands) in
  match if pure then Hashtbl.find_opt bctx.vn key else None with
  | Some op -> op
  | None ->
    let op = B.add_node ?mem_dep env.builder bctx.handle opcode operands in
    if pure then Hashtbl.add bctx.vn key op;
    op

let mem_state bctx arr =
  match List.assoc_opt arr bctx.mem_order with
  | Some st -> st
  | None -> (None, [])

let node_id = function
  | Cdfg.Node i -> i
  | Cdfg.Sym _ | Cdfg.Imm _ -> invalid_arg "Lower.node_id"

(* Emit a load from [arr]: ordered after the last store to [arr]. *)
let emit_load env bctx arr addr =
  let last_store, loads_since = mem_state bctx arr in
  let mem_dep = match last_store with Some s -> [ s ] | None -> [] in
  let v = emit ~mem_dep env bctx Opcode.Load [ addr ] in
  bctx.mem_order <-
    (arr, (last_store, node_id v :: loads_since))
    :: List.remove_assoc arr bctx.mem_order;
  v

(* Emit a store to [arr]: ordered after the last store and all loads of
   [arr] since (anti-dependence). *)
let emit_store env bctx arr addr value =
  let last_store, loads_since = mem_state bctx arr in
  let mem_dep =
    (match last_store with Some s -> [ s ] | None -> []) @ loads_since
  in
  let st = emit ~mem_dep env bctx Opcode.Store [ addr; value ] in
  let store_id =
    (* Store has no result: recover its index from the block count. *)
    match st with
    | Cdfg.Node i -> i
    | Cdfg.Sym _ | Cdfg.Imm _ -> assert false
  in
  bctx.mem_order <-
    (arr, (Some store_id, [])) :: List.remove_assoc arr bctx.mem_order

let fold2 env bctx opcode a b =
  if env.naive then emit env bctx opcode [ a; b ]
  else
  match a, b with
  | Cdfg.Imm x, Cdfg.Imm y -> Cdfg.Imm (Opcode.eval opcode [ x; y ])
  | _, _ ->
    (* Algebraic identities that a real frontend folds away. *)
    (match opcode, a, b with
     | Opcode.Add, v, Cdfg.Imm 0 | Opcode.Add, Cdfg.Imm 0, v -> v
     | Opcode.Sub, v, Cdfg.Imm 0 -> v
     | Opcode.Mul, v, Cdfg.Imm 1 | Opcode.Mul, Cdfg.Imm 1, v -> v
     | Opcode.Mul, _, Cdfg.Imm 0 | Opcode.Mul, Cdfg.Imm 0, _ -> Cdfg.Imm 0
     | (Opcode.Shl | Opcode.Shrl | Opcode.Shra), v, Cdfg.Imm 0 -> v
     | _, _, _ -> emit env bctx opcode [ a; b ])

let rec lower_expr env bctx e =
  step env;
  match e with
  | Ast.Int n -> Cdfg.Imm n
  | Ast.Var v -> (
    match List.assoc_opt v env.consts with
    | Some n -> Cdfg.Imm n
    | None -> (
      match List.assoc_opt v bctx.vars with
      | Some op -> op
      | None -> (
        match Hashtbl.find_opt env.syms v with
        | Some s -> Cdfg.Sym s
        | None -> err "undeclared variable %s" v)))
  | Ast.Index (a, idx) ->
    let addr = lower_address env bctx a idx in
    if env.naive then emit_load env bctx a addr
    else
      let key = (a, epoch_of bctx a, addr) in
      (match Hashtbl.find_opt bctx.loads key with
       | Some v -> v
       | None ->
         let v = emit_load env bctx a addr in
         Hashtbl.add bctx.loads key v;
         v)
  | Ast.Bin (op, a, b) ->
    let x = lower_expr env bctx a in
    let y = lower_expr env bctx b in
    fold2 env bctx (opcode_of_binop op) x y
  | Ast.Call ("min", [ a; b ]) ->
    fold2 env bctx Opcode.Min (lower_expr env bctx a) (lower_expr env bctx b)
  | Ast.Call ("max", [ a; b ]) ->
    fold2 env bctx Opcode.Max (lower_expr env bctx a) (lower_expr env bctx b)
  | Ast.Call ("abs", [ a ]) ->
    let x = lower_expr env bctx a in
    let neg = fold2 env bctx Opcode.Sub (Cdfg.Imm 0) x in
    fold2 env bctx Opcode.Max x neg
  | Ast.Call ("select", [ c; a; b ]) ->
    let c = lower_expr env bctx c in
    let a = lower_expr env bctx a in
    let b = lower_expr env bctx b in
    (match c with
     | Cdfg.Imm k when not env.naive -> if k <> 0 then a else b
     | Cdfg.Imm _ | Cdfg.Node _ | Cdfg.Sym _ ->
       emit env bctx Opcode.Select [ c; a; b ])
  | Ast.Call (f, args) -> err "unknown intrinsic %s/%d" f (List.length args)

and lower_address env bctx a idx =
  let base =
    match Hashtbl.find_opt env.arrays a with
    | Some b -> b
    | None -> err "undeclared array %s" a
  in
  let i = lower_expr env bctx idx in
  fold2 env bctx Opcode.Add i (Cdfg.Imm base)

let assign env bctx v op =
  if List.mem_assoc v env.consts then err "cannot assign to constant %s" v;
  if not (Hashtbl.mem env.syms v) then err "undeclared variable %s" v;
  bctx.vars <- (v, op) :: List.remove_assoc v bctx.vars

(* Close the current block: commit assigned scalars as live-outs and set
   the terminator. *)
let close env bctx term =
  List.iter
    (fun (v, op) ->
      B.set_live_out env.builder bctx.handle (Hashtbl.find env.syms v) op)
    bctx.vars;
  B.set_terminator env.builder bctx.handle term

let fresh_name env prefix =
  env.name_counter <- env.name_counter + 1;
  Printf.sprintf "%s%d" prefix env.name_counter

let rec lower_stmts env bctx stmts =
  match stmts with
  | [] -> bctx
  | stmt :: rest -> (
    step env;
    match stmt with
    | Ast.Assign (v, e) ->
      assign env bctx v (lower_expr env bctx e);
      lower_stmts env bctx rest
    | Ast.Store (a, idx, e) ->
      let addr = lower_address env bctx a idx in
      let value = lower_expr env bctx e in
      emit_store env bctx a addr value;
      bump_epoch bctx a;
      lower_stmts env bctx rest
    | Ast.Unroll (v, lo, hi, body) ->
      if Hashtbl.mem env.syms v then
        err "unroll variable %s shadows a scalar" v;
      let saved = env.consts in
      let bctx = ref bctx in
      for k = lo to hi - 1 do
        step env;
        env.consts <- (v, k) :: saved;
        bctx := lower_stmts env !bctx body
      done;
      env.consts <- saved;
      lower_stmts env !bctx rest
    | Ast.For (init, cond, step, body) ->
      lower_stmts env bctx (init :: Ast.While (cond, body @ [ step ]) :: rest)
    | Ast.While (cond, body) ->
      let header = new_block env (fresh_name env "while") in
      let body_b = new_block env (fresh_name env "body") in
      let after = new_block env (fresh_name env "after") in
      close env bctx (Cdfg.Jump (B.block_id header.handle));
      let cond_op = lower_expr env header cond in
      close env header
        (Cdfg.Branch (cond_op, B.block_id body_b.handle, B.block_id after.handle));
      let body_end = lower_stmts env body_b body in
      close env body_end (Cdfg.Jump (B.block_id header.handle));
      lower_stmts env after rest
    | Ast.If (cond, then_s, else_s) ->
      let cond_op = lower_expr env bctx cond in
      let then_b = new_block env (fresh_name env "then") in
      let after = new_block env (fresh_name env "endif") in
      let else_target, else_close =
        match else_s with
        | [] -> (B.block_id after.handle, None)
        | _ ->
          let else_b = new_block env (fresh_name env "else") in
          (B.block_id else_b.handle, Some else_b)
      in
      close env bctx
        (Cdfg.Branch (cond_op, B.block_id then_b.handle, else_target));
      let then_end = lower_stmts env then_b then_s in
      close env then_end (Cdfg.Jump (B.block_id after.handle));
      (match else_close with
       | None -> ()
       | Some else_b ->
         let else_end = lower_stmts env else_b else_s in
         close env else_end (Cdfg.Jump (B.block_id after.handle)));
      lower_stmts env after rest)

let lower ?(naive = false) (k : Ast.kernel) =
  let builder = B.create k.Ast.name in
  let env =
    { builder; syms = Hashtbl.create 8; arrays = Hashtbl.create 8; consts = [];
      name_counter = 0; steps = 0; naive }
  in
  let declare = function
    | Ast.Dvar names ->
      List.iter
        (fun v ->
          if Hashtbl.mem env.syms v then err "duplicate variable %s" v;
          Hashtbl.add env.syms v (B.fresh_sym builder v))
        names
    | Ast.Darr (name, base) ->
      if Hashtbl.mem env.arrays name then err "duplicate array %s" name;
      Hashtbl.add env.arrays name base
    | Ast.Dconst (name, e) -> (
      let resolve v = List.assoc_opt v env.consts in
      match const_eval resolve e with
      | Some n -> env.consts <- (name, n) :: env.consts
      | None -> err "const %s is not a compile-time constant" name)
  in
  List.iter declare k.Ast.decls;
  let entry = new_block env "entry" in
  let last = lower_stmts env entry k.Ast.body in
  close env last Cdfg.Return;
  B.finish builder
