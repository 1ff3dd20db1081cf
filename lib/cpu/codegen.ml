module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode

type program = {
  cdfg : Cgra_ir.Cdfg.t;
  blocks : Cpu_isa.instr list array;
  spill_words : int;
}

exception Codegen_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

(* Register map: r0 = 0; r1..r_nsyms = symbol variables; r28 = spill base
   pointer (set up by the simulator); r29..r31 = scratch for immediates and
   spill reloads; the rest are allocatable temporaries. *)
let spill_base_reg = 28
let scratch = [| 29; 30; 31 |]

let sym_reg s = 1 + s

type loc = Lreg of int | Lslot of int

let imm_foldable = function
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Shl | Opcode.Shrl
  | Opcode.Shra | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Lt | Opcode.Le
  | Opcode.Eq | Opcode.Ne | Opcode.Gt | Opcode.Ge -> true
  | Opcode.Min | Opcode.Max | Opcode.Select | Opcode.Load | Opcode.Store ->
    false

(* Addressing-mode selection: a single-use [Add (x, Imm k)] feeding a
   memory operation folds into register+offset form. *)
type fold = { base : Cdfg.operand; offset : int }

let fold_info (b : Cdfg.block) =
  let n = Array.length b.Cdfg.nodes in
  let skip = Array.make n false in
  let fold_of = Array.make n None in
  let addr_fold j =
    match b.Cdfg.nodes.(j) with
    | { Cdfg.opcode = Opcode.Add; operands = [ x; Cdfg.Imm k ]; _ }
    | { Cdfg.opcode = Opcode.Add; operands = [ Cdfg.Imm k; x ]; _ }
      when Cdfg.uses_of_node b j = 1 ->
      Some (j, { base = x; offset = k })
    | _ -> None
  in
  Array.iteri
    (fun i nd ->
      match nd.Cdfg.opcode, nd.Cdfg.operands with
      | Opcode.Load, [ Cdfg.Node j ] -> (
        match addr_fold j with
        | Some (j, f) ->
          skip.(j) <- true;
          fold_of.(i) <- Some f
        | None -> ())
      | Opcode.Store, [ Cdfg.Node j; _ ] -> (
        match addr_fold j with
        | Some (j, f) ->
          skip.(j) <- true;
          fold_of.(i) <- Some f
        | None -> ())
      | _, _ -> ())
    b.Cdfg.nodes;
  (skip, fold_of)

(* Last use index of each node: by later nodes (through folds), by
   live-outs and the branch condition (index [n]). *)
let last_uses (b : Cdfg.block) skip fold_of =
  let n = Array.length b.Cdfg.nodes in
  let last = Array.make n (-1) in
  let use at = function
    | Cdfg.Node j -> if at > last.(j) then last.(j) <- at
    | Cdfg.Sym _ | Cdfg.Imm _ -> ()
  in
  Array.iteri
    (fun i nd ->
      if not skip.(i) then begin
        (match fold_of.(i), nd.Cdfg.opcode, nd.Cdfg.operands with
         | Some f, Opcode.Load, _ -> use i f.base
         | Some f, Opcode.Store, [ _; v ] ->
           use i f.base;
           use i v
         | Some _, _, _ -> error "fold on a non-memory node"
         | None, _, _ -> List.iter (use i) nd.Cdfg.operands)
      end)
    b.Cdfg.nodes;
  List.iter (fun (_, op) -> use n op) b.Cdfg.live_out;
  (match b.Cdfg.terminator with
   | Cdfg.Branch (cond, _, _) -> use n cond
   | Cdfg.Jump _ | Cdfg.Return -> ());
  last

type balloc = {
  mutable code : Cpu_isa.instr list; (* reversed *)
  mutable free : int list;
  mutable active : (int * int) list; (* node, reg *)
  loc : loc option array;
  last : int array;
  mutable next_slot : int;
  mutable max_slot : int;
  mutable scratch_turn : int;
}

let emit a i = a.code <- i :: a.code

let take_scratch a =
  let r = scratch.(a.scratch_turn) in
  a.scratch_turn <- (a.scratch_turn + 1) mod Array.length scratch;
  r

(* Register holding node [j]'s value right now, reloading from the spill
   area if necessary. *)
let node_reg a j =
  match a.loc.(j) with
  | Some (Lreg r) -> r
  | Some (Lslot k) ->
    let r = take_scratch a in
    emit a (Cpu_isa.Load (r, spill_base_reg, k));
    r
  | None -> error "use of node %d before definition" j

let operand_reg a = function
  | Cdfg.Imm 0 -> 0
  | Cdfg.Imm k ->
    let r = take_scratch a in
    emit a (Cpu_isa.Movi (r, k));
    r
  | Cdfg.Sym s -> sym_reg s
  | Cdfg.Node j -> node_reg a j

let spill_slot a =
  let k = a.next_slot in
  a.next_slot <- k + 1;
  if a.next_slot > a.max_slot then a.max_slot <- a.next_slot;
  k

(* Allocate a destination register for node [i], spilling the active value
   with the furthest last use when the pool is dry. *)
let alloc_temp a i =
  let r =
    match a.free with
    | r :: rest ->
      a.free <- rest;
      r
    | [] -> (
      match
        List.sort (fun (x, _) (y, _) -> compare a.last.(y) a.last.(x)) a.active
      with
      | [] -> error "no temporaries and nothing to spill"
      | (victim, r) :: _ ->
        let k = spill_slot a in
        emit a (Cpu_isa.Store (spill_base_reg, r, k));
        a.loc.(victim) <- Some (Lslot k);
        a.active <- List.remove_assoc victim a.active;
        r)
  in
  a.loc.(i) <- Some (Lreg r);
  a.active <- (i, r) :: a.active;
  r

let release_dead a i =
  let dead, alive = List.partition (fun (j, _) -> a.last.(j) <= i) a.active in
  List.iter (fun (_, r) -> a.free <- r :: a.free) dead;
  a.active <- alive

let compile_block (cdfg : Cdfg.t) bi =
  let b = cdfg.Cdfg.blocks.(bi) in
  let nsyms = cdfg.Cdfg.sym_count in
  let first_temp = 1 + nsyms in
  if first_temp >= spill_base_reg then
    error "too many symbol variables for the CPU register file";
  let skip, fold_of = fold_info b in
  let last = last_uses b skip fold_of in
  let a =
    {
      code = [];
      free = List.init (spill_base_reg - first_temp) (fun i -> first_temp + i);
      active = [];
      loc = Array.make (max 1 (Array.length b.Cdfg.nodes)) None;
      last;
      next_slot = 0;
      max_slot = 0;
      scratch_turn = 0;
    }
  in
  let mem_addr i = function
    | [ addr ] | [ addr; _ ] -> (
      match fold_of.(i), addr with
      | Some f, _ -> (operand_reg a f.base, f.offset)
      | None, Cdfg.Imm k -> (0, k)
      | None, (Cdfg.Sym _ | Cdfg.Node _) -> (operand_reg a addr, 0))
    | _ -> error "memory node with wrong arity"
  in
  Array.iteri
    (fun i nd ->
      if not skip.(i) then begin
        a.scratch_turn <- 0;
        (match nd.Cdfg.opcode, nd.Cdfg.operands with
         | Opcode.Load, ops ->
           let base, off = mem_addr i ops in
           let rd = alloc_temp a i in
           emit a (Cpu_isa.Load (rd, base, off))
         | Opcode.Store, ([ _; v ] as ops) ->
           let rv = operand_reg a v in
           let base, off = mem_addr i ops in
           emit a (Cpu_isa.Store (base, rv, off))
         | Opcode.Store, _ -> error "store arity"
         | Opcode.Select, [ c; x; y ] ->
           let rc = operand_reg a c in
           let rx = operand_reg a x in
           let ry = operand_reg a y in
           let rd = alloc_temp a i in
           emit a (Cpu_isa.Cmov (rd, rc, rx, ry))
         | Opcode.Select, _ -> error "select arity"
         | (Opcode.Min | Opcode.Max), [ x; y ] ->
           let rx = operand_reg a x in
           let ry = operand_reg a y in
           let rc = take_scratch a in
           emit a (Cpu_isa.Alu (Opcode.Lt, rc, rx, ry));
           let rd = alloc_temp a i in
           if nd.Cdfg.opcode = Opcode.Min then
             emit a (Cpu_isa.Cmov (rd, rc, rx, ry))
           else emit a (Cpu_isa.Cmov (rd, rc, ry, rx))
         | (Opcode.Min | Opcode.Max), _ -> error "min/max arity"
         | op, [ x; Cdfg.Imm k ] when imm_foldable op ->
           let rx = operand_reg a x in
           let rd = alloc_temp a i in
           emit a (Cpu_isa.Alui (op, rd, rx, k))
         | op, [ Cdfg.Imm k; y ] when imm_foldable op && Opcode.is_commutative op
           ->
           let ry = operand_reg a y in
           let rd = alloc_temp a i in
           emit a (Cpu_isa.Alui (op, rd, ry, k))
         | op, [ x; y ] ->
           let rx = operand_reg a x in
           let ry = operand_reg a y in
           let rd = alloc_temp a i in
           emit a (Cpu_isa.Alu (op, rd, rx, ry))
         | _, _ -> error "unexpected node shape (%s)" (Opcode.to_string nd.Cdfg.opcode));
        release_dead a i
      end)
    b.Cdfg.nodes;
  (* live-outs, reader-before-writer *)
  a.scratch_turn <- 0;
  List.iter
    (fun (s, operand) ->
      match operand with
      | Cdfg.Sym s' when s' = s -> ()
      | Cdfg.Imm k -> emit a (Cpu_isa.Movi (sym_reg s, k))
      | Cdfg.Sym s' -> emit a (Cpu_isa.Mov (sym_reg s, sym_reg s'))
      | Cdfg.Node j -> emit a (Cpu_isa.Mov (sym_reg s, node_reg a j)))
    (match Cdfg.order_live_outs b.Cdfg.live_out with
     | Some items -> items
     | None -> error "live-out dependency cycle (symbol swap) is not supported");
  (match b.Cdfg.terminator with
   | Cdfg.Jump t -> emit a (Cpu_isa.Jmp t)
   | Cdfg.Return -> emit a Cpu_isa.Ret
   | Cdfg.Branch (cond, t, e) ->
     let rc = operand_reg a cond in
     emit a (Cpu_isa.Bnz (rc, t));
     emit a (Cpu_isa.Jmp e));
  (List.rev a.code, a.max_slot)

let compile cdfg =
  (match Cdfg.validate cdfg with
   | Ok () -> ()
   | Error e -> error "invalid CDFG: %s" e);
  let spill = ref 0 in
  let blocks =
    Array.init (Array.length cdfg.Cdfg.blocks) (fun bi ->
        let code, slots = compile_block cdfg bi in
        if slots > !spill then spill := slots;
        code)
  in
  { cdfg; blocks; spill_words = !spill }

let pp fmt p =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun bi code ->
      Format.fprintf fmt "b%d (%s):@," bi p.cdfg.Cdfg.blocks.(bi).Cdfg.name;
      List.iter
        (fun i -> Format.fprintf fmt "  %s@," (Cpu_isa.to_string i))
        code)
    p.blocks;
  Format.fprintf fmt "spill words: %d@]" p.spill_words
