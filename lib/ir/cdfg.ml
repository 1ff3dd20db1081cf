type sym = int

type operand = Node of int | Sym of sym | Imm of int

type node = { opcode : Opcode.t; operands : operand list; mem_dep : int list }

type terminator = Jump of int | Branch of operand * int * int | Return

type block = {
  name : string;
  nodes : node array;
  live_out : (sym * operand) list;
  terminator : terminator;
}

type t = {
  kernel_name : string;
  blocks : block array;
  entry : int;
  sym_count : int;
  sym_names : string array;
}

let block_count c = Array.length c.blocks

let node_count c =
  Array.fold_left (fun acc b -> acc + Array.length b.nodes) 0 c.blocks

let term_targets = function
  | Jump b -> [ b ]
  | Branch (_, t, e) -> [ t; e ]
  | Return -> []

let cfg c =
  let g = Cgra_graph.Digraph.create () in
  Array.iter (fun _ -> ignore (Cgra_graph.Digraph.add_node g)) c.blocks;
  Array.iteri
    (fun i b ->
      List.iter
        (fun dst -> Cgra_graph.Digraph.add_edge g ~src:i ~dst)
        (term_targets b.terminator))
    c.blocks;
  g

let dfg_graph b =
  let g = Cgra_graph.Digraph.create () in
  Array.iter (fun _ -> ignore (Cgra_graph.Digraph.add_node g)) b.nodes;
  Array.iteri
    (fun i n ->
      List.iter
        (function
          | Node j -> Cgra_graph.Digraph.add_edge g ~src:j ~dst:i
          | Sym _ | Imm _ -> ())
        n.operands;
      List.iter (fun j -> Cgra_graph.Digraph.add_edge g ~src:j ~dst:i) n.mem_dep)
    b.nodes;
  g

let validate c =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nblocks = Array.length c.blocks in
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let check_operand bname i op =
    match op with
    | Node j ->
      if j < 0 || j >= i then
        fail "block %s: node %d references node %d (must be earlier)" bname i j
    | Sym s ->
      if s < 0 || s >= c.sym_count then
        fail "block %s: node %d references unknown symbol %d" bname i s
    | Imm _ -> ()
  in
  let check_block bi b =
    Array.iteri
      (fun i n ->
        if List.length n.operands <> Opcode.arity n.opcode then
          fail "block %s: node %d (%s) has arity %d, expected %d" b.name i
            (Opcode.to_string n.opcode)
            (List.length n.operands) (Opcode.arity n.opcode);
        List.iter (check_operand b.name i) n.operands;
        List.iter
          (fun j ->
            if j < 0 || j >= i then
              fail "block %s: node %d mem-depends on node %d (must be earlier)"
                b.name i j)
          n.mem_dep)
      b.nodes;
    let nnodes = Array.length b.nodes in
    let check_value_operand what op =
      match op with
      | Node j ->
        if j < 0 || j >= nnodes then
          fail "block %s: %s references node %d out of range" b.name what j
        else if not (Opcode.has_result b.nodes.(j).opcode) then
          fail "block %s: %s references node %d which has no result" b.name what j
      | Sym s ->
        if s < 0 || s >= c.sym_count then
          fail "block %s: %s references unknown symbol %d" b.name what s
      | Imm _ -> ()
    in
    List.iter
      (fun (s, op) ->
        if s < 0 || s >= c.sym_count then
          fail "block %s: live_out defines unknown symbol %d" b.name s;
        check_value_operand "live_out" op)
      b.live_out;
    (match b.terminator with
     | Branch (cond, _, _) -> check_value_operand "branch condition" cond
     | Jump _ | Return -> ());
    List.iter
      (fun dst ->
        if dst < 0 || dst >= nblocks then
          fail "block %s: terminator targets unknown block %d" b.name dst)
      (term_targets b.terminator);
    ignore bi
  in
  if nblocks = 0 then err "CDFG has no blocks"
  else if c.entry < 0 || c.entry >= nblocks then err "entry block out of range"
  else
    match Array.iteri check_block c.blocks with
    | () ->
      let g = cfg c in
      let reach = Cgra_graph.Digraph.reachable_from g [ c.entry ] in
      (try
         Array.iteri
           (fun i b ->
             if not reach.(i) then fail "block %s unreachable from entry" b.name)
           c.blocks;
         (* Every block's internal DFG must be acyclic, which the
            strictly-decreasing operand rule already guarantees; assert it
            anyway as a safety net for future builders. *)
         Array.iter
           (fun b ->
             match Cgra_graph.Digraph.topo_sort (dfg_graph b) with
             | Ok _ -> ()
             | Error ids ->
               fail "block %s: cyclic DFG through nodes %s" b.name
                 (String.concat ", " (List.map string_of_int ids)))
           c.blocks;
         Ok ()
       with Bad msg -> Error msg)
    | exception Bad msg -> Error msg

let syms_in_block c bi =
  let b = c.blocks.(bi) in
  let fanout = Hashtbl.create 8 in
  let present s =
    if not (Hashtbl.mem fanout s) then Hashtbl.add fanout s 0
  in
  let use = function
    | Sym s -> present s; Hashtbl.replace fanout s (Hashtbl.find fanout s + 1)
    | Node _ | Imm _ -> ()
  in
  Array.iter (fun n -> List.iter use n.operands) b.nodes;
  List.iter
    (fun (s, op) ->
      present s;
      use op)
    b.live_out;
  (match b.terminator with
   | Branch (cond, _, _) -> use cond
   | Jump _ | Return -> ());
  Hashtbl.fold (fun s f acc -> (s, f) :: acc) fanout []
  |> List.sort compare

let block_weight c bi =
  let syms = syms_in_block c bi in
  List.length syms + List.fold_left (fun acc (_, f) -> acc + f) 0 syms

let uses_of_node b i =
  let count = ref 0 in
  let use = function Node j when j = i -> incr count | Node _ | Sym _ | Imm _ -> () in
  Array.iter (fun n -> List.iter use n.operands) b.nodes;
  List.iter (fun (_, op) -> use op) b.live_out;
  (match b.terminator with
   | Branch (cond, _, _) -> use cond
   | Jump _ | Return -> ());
  !count

(* An item is emitted once no remaining item still reads the symbol it
   writes; a self-assignment [s := s] constrains nothing. *)
let order_live_outs items =
  let other_reader_of s (s_written, operand) =
    match operand with
    | Sym s' -> s' = s && s_written <> s
    | Node _ | Imm _ -> false
  in
  let rec go acc remaining =
    match remaining with
    | [] -> Some (List.rev acc)
    | _ -> (
      let ready, blocked =
        List.partition
          (fun (s, _) -> not (List.exists (other_reader_of s) remaining))
          remaining
      in
      match ready with
      | [] -> None
      | _ -> go (List.rev_append ready acc) blocked)
  in
  go [] items

let pp_operand syms fmt = function
  | Node i -> Format.fprintf fmt "n%d" i
  | Sym s -> Format.fprintf fmt "%s" syms.(s)
  | Imm k -> Format.fprintf fmt "#%d" k

let pp fmt c =
  Format.fprintf fmt "@[<v>kernel %s (entry %s)@," c.kernel_name
    c.blocks.(c.entry).name;
  Array.iteri
    (fun bi b ->
      Format.fprintf fmt "@[<v 2>block %s (w=%d):@," b.name (block_weight c bi);
      Array.iteri
        (fun i n ->
          Format.fprintf fmt "n%d = %s" i (Opcode.to_string n.opcode);
          List.iter (fun op -> Format.fprintf fmt " %a" (pp_operand c.sym_names) op)
            n.operands;
          Format.fprintf fmt "@,")
        b.nodes;
      List.iter
        (fun (s, op) ->
          Format.fprintf fmt "%s := %a@," c.sym_names.(s)
            (pp_operand c.sym_names) op)
        b.live_out;
      (match b.terminator with
       | Jump t -> Format.fprintf fmt "jump %s" c.blocks.(t).name
       | Branch (cond, t, e) ->
         Format.fprintf fmt "branch %a ? %s : %s" (pp_operand c.sym_names) cond
           c.blocks.(t).name c.blocks.(e).name
       | Return -> Format.fprintf fmt "return");
      Format.fprintf fmt "@]@,")
    c.blocks;
  Format.fprintf fmt "@]"
