(* Exact SAT backend: encode one basic block's CM-aware mapping
   problem to CNF, search for the minimal feasible schedule length,
   decode the model back to a [Mapping.bb_mapping].

   The encoding is move-free: an operand is read either from the
   executing tile or straight from a torus neighbour's RF through the
   PE input mux, so feasibility requires producer and consumer within
   distance one.  That is the same read primitive the beam search
   uses; the beam additionally inserts move chains for longer hauls,
   which the CNF deliberately leaves out — "UNSAT" therefore always
   means "under the current encoding" (see DESIGN.md §5g).

   Variable groups, per schedule-length hypothesis [h]:

   - x(i,t,c)   item [i] executes on tile [t] at cycle [c]
   - y(j,t,c)   node [j]'s result sits in tile [t]'s RF before [c]
                (i.e. [j] executed there at some cycle < c)
   - z(i,c)     item [i] executed somewhere at some cycle < c
   - hv(s,t)    free symbol [s] is homed on tile [t]
   - busy(t,c)  some item occupies (t,c)
   - after(t,c) some item occupies (t,c') with c' >= c
   - ps(t,c)    cycle [c] starts a compressed idle run on [t] that is
                followed by an instruction — exactly the runs the pnop
                compression charges one context word for
   - Sinz counter registers for tiles whose remaining capacity is
     below [h] (busy + ps words per cycle never exceed one, so wider
     capacities cannot overflow and need no counter)

   Items are the block's operation nodes, one write-copy per live-out
   that is not absorbed into its producer's slot, and one
   condition-export copy for a [Branch] on a symbol or immediate. *)

module Cdfg = Cgra_ir.Cdfg
module Cgra = Cgra_arch.Cgra
module Clock = Cgra_util.Clock
module Deadline = Cgra_util.Deadline
module S = Cgra_sat.Solver
module Cnf = Cgra_sat.Cnf

let conflict_budget = 20_000

type item =
  | Op of int
  | Wcopy of { sym : int; value : Mapping.value }
  | Ccopy of { value : Mapping.value }

let value_of_operand = function
  | Cdfg.Node j -> Mapping.Vnode j
  | Cdfg.Sym s -> Mapping.Vsym s
  | Cdfg.Imm k -> Mapping.Vimm k

(* A literal that may be constantly true or false: home tiles of
   pinned symbols and out-of-window placements fold to constants
   instead of allocating variables.  Every encoder variable is used as
   its positive literal, so an int carries all three cases: [ff] (0),
   [tt] (-1), or the variable itself. *)
let ff = 0
let tt = -1

type model = {
  m_place : (int * int) array; (* item -> (tile, cycle) *)
  m_homes : (int * int) list; (* newly pinned (sym, tile) *)
}

(* A kernel-wide home-adjacency group: some alive tile [t] (able to
   execute [g_exec] when restricted) must satisfy [home s = t] for
   every anchor and [home s] in [t]'s closed neighbourhood for every
   near symbol.  These are necessary conditions on symbol homes that
   EVERY move-free mapping of the whole kernel imposes — adding them
   to every per-block solve keeps a home pinned by an early block
   consistent with some assignment for the blocks still to come. *)
type group = {
  g_exec : Cgra_ir.Opcode.t option;
  g_anchors : int list; (* homes that must equal the executing tile *)
  g_near : int list; (* homes on the tile itself or a torus neighbour *)
}

type block_ctx = {
  bi : int;
  blk : Cdfg.block;
  n_nodes : int;
  items : item array;
  absorbed : int option array; (* node -> live-out sym written in place *)
  cond_node : int option; (* Branch on Node j: set_cond on j's slot *)
  writers : (int * int) list; (* (sym, writer item) *)
  syms : int list; (* symbols needing a home, ascending *)
  groups : group list; (* kernel-wide home-adjacency conditions *)
  lb : int array; (* per-item earliest cycle *)
  db : int array; (* per-item depth below: longest strict chain under it *)
  h_lb : int;
  h_cap : int;
}

(* Extract the groups from every block of the kernel.  Per node: its
   absorbed live-out symbol and the symbols whose write copies pull the
   node's result (both execute on the symbol's home) anchor the node's
   tile; its [Sym] operands must home within reach.  A write copy of a
   symbol's value into another symbol reads it from the home RF itself:
   both homes coincide. *)
let home_groups cdfg =
  let groups = ref [] in
  Array.iter
    (fun blk ->
      let n_nodes = Array.length blk.Cdfg.nodes in
      let node_anchor = Array.make (max 1 n_nodes) [] in
      let absorbed = Array.make (max 1 n_nodes) false in
      List.iter
        (fun (s, operand) ->
          match operand with
          | Cdfg.Node j when not absorbed.(j) ->
            absorbed.(j) <- true;
            node_anchor.(j) <- s :: node_anchor.(j)
          | Cdfg.Node j -> node_anchor.(j) <- s :: node_anchor.(j)
          | Cdfg.Sym s' when s' <> s ->
            groups :=
              { g_exec = None; g_anchors = [ s; s' ]; g_near = [] }
              :: !groups
          | Cdfg.Sym _ | Cdfg.Imm _ -> ())
        blk.Cdfg.live_out;
      Array.iteri
        (fun n nd ->
          let near =
            List.sort_uniq compare
              (List.filter_map
                 (function Cdfg.Sym s -> Some s | _ -> None)
                 nd.Cdfg.operands)
          in
          let anchors = List.sort_uniq compare node_anchor.(n) in
          if anchors <> [] || List.length near >= 2 then
            groups :=
              { g_exec = Some nd.Cdfg.opcode;
                g_anchors = anchors;
                g_near = near }
              :: !groups)
        blk.Cdfg.nodes)
    cdfg.Cdfg.blocks;
  List.sort_uniq compare !groups

let build_ctx cdfg bi =
  let blk = cdfg.Cdfg.blocks.(bi) in
  let n_nodes = Array.length blk.Cdfg.nodes in
  let absorbed = Array.make (max 1 n_nodes) None in
  let wcopies = ref [] in
  List.iter
    (fun (s, operand) ->
      match operand with
      | Cdfg.Node j when absorbed.(j) = None -> absorbed.(j) <- Some s
      | _ -> wcopies := (s, value_of_operand operand) :: !wcopies)
    blk.Cdfg.live_out;
  let wcopies = List.rev !wcopies in
  let cond_node, ccopy =
    match blk.Cdfg.terminator with
    | Cdfg.Branch (Cdfg.Node j, _, _) -> (Some j, None)
    | Cdfg.Branch (operand, _, _) ->
      (None, Some (Ccopy { value = value_of_operand operand }))
    | Cdfg.Jump _ | Cdfg.Return -> (None, None)
  in
  let items =
    Array.of_list
      (List.init n_nodes (fun n -> Op n)
      @ List.map (fun (sym, value) -> Wcopy { sym; value }) wcopies
      @ match ccopy with None -> [] | Some c -> [ c ])
  in
  let writers =
    List.concat
      [
        List.concat
          (List.init n_nodes (fun j ->
               match absorbed.(j) with None -> [] | Some s -> [ (s, j) ]));
        List.mapi (fun k (s, _) -> (s, n_nodes + k)) wcopies;
      ]
  in
  let syms =
    let tbl = Hashtbl.create 8 in
    let touch s = Hashtbl.replace tbl s () in
    List.iter (fun (s, _) -> touch s) blk.Cdfg.live_out;
    Array.iter
      (fun nd ->
        List.iter
          (function Cdfg.Sym s -> touch s | Cdfg.Node _ | Cdfg.Imm _ -> ())
          nd.Cdfg.operands)
      blk.Cdfg.nodes;
    Array.iter
      (function
        | Wcopy { value = Mapping.Vsym s; _ } | Ccopy { value = Mapping.Vsym s }
          ->
          touch s
        | Op _ | Wcopy _ | Ccopy _ -> ())
      items;
    Hashtbl.fold (fun s () acc -> s :: acc) tbl [] |> List.sort compare
  in
  let info = if n_nodes = 0 then None else Some (Sched.analyse cdfg bi) in
  let asap n =
    match info with None -> 0 | Some i -> i.Sched.asap.(n)
  in
  let lb =
    Array.map
      (function
        | Op n -> asap n
        | Wcopy { value = Mapping.Vnode j; _ } -> asap j + 1
        | Wcopy _ | Ccopy _ -> 0)
      items
  in
  let n_items = Array.length items in
  (* Depth below each item: the longest chain of strictly-later items
     hanging under it.  Item [i] can then never sit later than cycle
     [h - 1 - db.(i)], which both prunes the placement windows and
     sharpens the schedule-length lower bound to the critical path
     [max (lb + db + 1)].  Strict edges mirror the CNF's sequencing
     constraints: operand-before-use, memory ordering, write-copy
     after its producer, condition export after the symbol write. *)
  let db = Array.make (max 1 n_items) 0 in
  let succ = Array.make (max 1 n_items) [] in
  Array.iteri
    (fun m nd ->
      List.iter
        (function Cdfg.Node j -> succ.(j) <- m :: succ.(j) | _ -> ())
        nd.Cdfg.operands;
      List.iter (fun d -> succ.(d) <- m :: succ.(d)) nd.Cdfg.mem_dep)
    blk.Cdfg.nodes;
  Array.iteri
    (fun i item ->
      match item with
      | Wcopy { value = Mapping.Vnode j; _ } -> succ.(j) <- i :: succ.(j)
      | Ccopy { value = Mapping.Vsym s } -> (
        match List.assoc_opt s writers with
        | Some w -> succ.(w) <- i :: succ.(w)
        | None -> ())
      | Op _ | Wcopy _ | Ccopy _ -> ())
    items;
  (* Relax to a fixpoint; edges point from lower to higher item index,
     so one descending pass converges, but iterating keeps the bound
     correct even if that invariant ever shifts. *)
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes <= n_items do
    changed := false;
    incr passes;
    for i = n_items - 1 downto 0 do
      List.iter
        (fun d ->
          if db.(d) + 1 > db.(i) then begin
            db.(i) <- db.(d) + 1;
            changed := true
          end)
        succ.(i)
    done
  done;
  let h_lb = ref 1 in
  Array.iteri
    (fun i l -> h_lb := max !h_lb (l + db.(i) + 1))
    lb;
  let h_lb = !h_lb in
  let h_cap = max h_lb n_items in
  {
    bi;
    blk;
    n_nodes;
    items;
    absorbed;
    cond_node;
    writers;
    syms;
    groups = home_groups cdfg;
    lb;
    db;
    h_lb;
    h_cap;
  }

(* One solver invocation at schedule-length hypothesis [h].  Everything
   is enumerated in a fixed order (items ascending, tiles ascending,
   cycles ascending), so variable numbering — and with it the solver
   trace and the model — is deterministic. *)
let attempt ~cgra ~committed ~budget ~future ~homes ~ctx ~deadline h =
  let solver = S.create () in
  let nt = Cgra.tile_count cgra in
  (* Future-write reserves (spread pass only; [future] is all
     zeros otherwise): every remaining block that writes symbol [s]
     must later place at least one context word on [s]'s home tile, so
     that many words are held back from pinned homes up front — and,
     below, charged against in-flight home choices through hv padding. *)
  let reserve = Array.make nt 0 in
  Array.iteri
    (fun s fw ->
      if fw > 0 && homes.(s) >= 0 && homes.(s) < nt then
        reserve.(homes.(s)) <- reserve.(homes.(s)) + fw)
    future;
  let cap =
    Array.init nt (fun t ->
        cgra.Cgra.tiles.(t).Cgra.cm_words - committed.(t) - reserve.(t))
  in
  let usable t = Cgra.alive cgra t && cap.(t) > 0 in
  let alive_tiles =
    List.filter (Cgra.alive cgra) (List.init nt (fun t -> t))
  in
  let usable_tiles = List.filter usable alive_tiles in
  (* Closed torus neighbourhoods, computed once per attempt. *)
  let nbr1 = Array.init nt (fun t -> t :: Cgra.neighbors cgra t) in
  let { blk; n_nodes; items; absorbed; cond_node = _; writers; syms; groups; lb; db; _ }
      =
    ctx
  in
  let n_items = Array.length items in
  (* Per-item placement window: ALAP bound from the depth below. *)
  let ub i = h - 1 - db.(i) in
  (* Clause emitters over possibly-constant literals.  Literal order
     inside a clause is free (the solver sorts); the order of clauses
     and of [new_var] calls is what fixes the instance. *)
  let imp x l =
    (* x -> l *)
    if l = ff then S.add_clause solver [ -x ]
    else if l <> tt then S.add_clause solver [ -x; l ]
  in
  let imp2 x a b =
    (* x -> a \/ b, for [a] and [b] never [tt] *)
    S.add_clause solver
      (if a = ff then if b = ff then [ -x ] else [ -x; b ]
       else if b = ff then [ -x; a ]
       else [ -x; a; b ])
  in
  (* [lit t] for each of [tiles] that is not [ff], consed onto [acc];
     for literal functions that never return [tt]. *)
  let rec lits_over lit acc = function
    | [] -> acc
    | t :: rest ->
      let l = lit t in
      lits_over lit (if l = ff then acc else l :: acc) rest
  in
  (* Symbol homes: pinned syms fold to constants, free syms get hv
     variables over the alive tiles (a home needs no context word, so
     capacity-full tiles still qualify). *)
  (* hv variables for EVERY still-free symbol, not just the block's
     own: the kernel-wide adjacency groups below range over all of
     them, so a home this block pins stays consistent with some
     assignment for the symbols it never touches — lookahead without
     commitment (only the block's own symbols are extracted into
     [m_homes]). *)
  let block_free_syms = List.filter (fun s -> homes.(s) < 0) syms in
  let free_syms =
    List.filter
      (fun s -> homes.(s) < 0)
      (List.init (Array.length homes) (fun s -> s))
  in
  (* [hv.(s * nt + t)]: the variable homing free symbol [s] on tile [t],
     or 0 (dead tile, or [s] pinned). *)
  let hv = Array.make (Array.length homes * nt) 0 in
  List.iter
    (fun s ->
      Cnf.exactly_one solver
        (List.map
           (fun t ->
             let v = S.new_var solver in
             hv.((s * nt) + t) <- v;
             v)
           alive_tiles))
    free_syms;
  let home_lit s t =
    if homes.(s) >= 0 then if homes.(s) = t then tt else ff
    else hv.((s * nt) + t)
  in
  (* x -> [s] homes on [t] or a torus neighbour of it. *)
  let imp_home_near x s t =
    if homes.(s) < 0 then
      S.add_clause solver (-x :: lits_over (home_lit s) [] nbr1.(t))
    else if not (List.mem homes.(s) nbr1.(t)) then S.add_clause solver [ -x ]
  in
  (* Kernel-wide home-adjacency groups: each needs some candidate tile
     hosting its anchors with every near symbol's home within reach.
     Tiles contradicting an already-pinned home are filtered out here;
     a group whose symbols are all pinned was honoured by the block
     that pinned them, so only groups touching a free symbol encode. *)
  let free s = homes.(s) < 0 in
  List.iter
    (fun g ->
      if List.exists free g.g_anchors || List.exists free g.g_near then begin
        let candidates =
          List.filter
            (fun t ->
              (match g.g_exec with
              | Some op -> Cgra.can_execute cgra t op
              | None -> true)
              && List.for_all
                   (fun a -> homes.(a) < 0 || homes.(a) = t)
                   g.g_anchors
              && List.for_all
                   (fun s -> homes.(s) < 0 || List.mem homes.(s) nbr1.(t))
                   g.g_near)
            alive_tiles
        in
        match candidates with
        | [] ->
          (* No tile can ever host this group: honest immediate UNSAT. *)
          S.add_clause solver []
        | _ ->
          let sels =
            List.map
              (fun t ->
                let sel = S.new_var solver in
                List.iter
                  (fun a -> if free a then imp sel (home_lit a t))
                  g.g_anchors;
                List.iter
                  (fun s -> if free s then imp_home_near sel s t)
                  g.g_near;
                sel)
              candidates
          in
          S.add_clause solver sels
      end)
    groups;
  (* Placement domains and x variables. *)
  let dom =
    Array.map
      (fun item ->
        let tiles =
          match item with
          | Op n ->
            List.filter
              (fun t -> Cgra.can_execute cgra t blk.Cdfg.nodes.(n).Cdfg.opcode)
              usable_tiles
          | Wcopy { sym; _ } ->
            if homes.(sym) >= 0 then
              List.filter (fun t -> t = homes.(sym)) usable_tiles
            else usable_tiles
          | Ccopy { value = Mapping.Vsym s } ->
            if homes.(s) >= 0 then
              List.filter (fun t -> t = homes.(s)) usable_tiles
            else usable_tiles
          | Ccopy _ -> usable_tiles
        in
        tiles)
      items
  in
  (* [x.(xi i t c)]: item [i] on tile [t] at cycle [c], or 0. *)
  let x = Array.make (n_items * nt * h) 0 in
  let xi i t c = ((i * nt) + t) * h + c in
  Array.iteri
    (fun i tiles ->
      List.iter
        (fun t ->
          for c = lb.(i) to ub i do
            x.(xi i t c) <- S.new_var solver
          done)
        tiles)
    dom;
  let xl i t c = if c < 0 || c >= h then ff else x.(xi i t c) in
  (* Exactly-one placement per item (an empty domain is an immediate,
     honest UNSAT: no tile can host the item at any cycle). *)
  Array.iteri
    (fun i _ ->
      let vars = ref [] in
      List.iter
        (fun t ->
          for c = ub i downto lb.(i) do
            let v = x.(xi i t c) in
            if v <> 0 then vars := v :: !vars
          done)
        dom.(i);
      Cnf.exactly_one solver !vars)
    items;
  (* y(j,t,c): node j executed on t strictly before c.  Only for nodes
     whose result is read as a [Vnode]. *)
  let node_read = Array.make (max 1 n_nodes) false in
  Array.iter
    (fun nd ->
      List.iter
        (function Cdfg.Node j -> node_read.(j) <- true | _ -> ())
        nd.Cdfg.operands)
    blk.Cdfg.nodes;
  Array.iter
    (function
      | Wcopy { value = Mapping.Vnode j; _ } -> node_read.(j) <- true
      | Op _ | Wcopy _ | Ccopy _ -> ())
    items;
  (* [y.(yi j t c)], 0 where no variable exists. *)
  let y = Array.make (n_nodes * nt * h) 0 in
  let yi j t c = ((j * nt) + t) * h + c in
  for j = 0 to n_nodes - 1 do
    if node_read.(j) then begin
      let first = lb.(j) + 1 in
      List.iter
        (fun t ->
          for c = first to h - 1 do
            y.(yi j t c) <- S.new_var solver
          done;
          for c = first to h - 1 do
            let yc = y.(yi j t c) in
            let prev = if c = first then ff else y.(yi j t (c - 1)) in
            let xc = xl j t (c - 1) in
            (* yc <-> prev \/ x(j,t,c-1) *)
            imp2 yc prev xc;
            if prev <> ff then S.add_clause solver [ -prev; yc ];
            if xc <> ff then S.add_clause solver [ -xc; yc ]
          done)
        dom.(j)
    end
  done;
  let yl j t c = if c < 1 || c >= h then ff else y.(yi j t c) in
  (* z(i,c): item i executed anywhere strictly before c.  Needed for
     memory-ordering edges and for symbol write/read sequencing. *)
  let z_needed = Array.make n_items false in
  Array.iter
    (fun nd -> List.iter (fun m -> z_needed.(m) <- true) nd.Cdfg.mem_dep)
    blk.Cdfg.nodes;
  List.iter (fun (_, w) -> z_needed.(w) <- true) writers;
  (* [z.(i * h + c)], 0 where no variable exists. *)
  let z = Array.make (n_items * h) 0 in
  for i = 0 to n_items - 1 do
    if z_needed.(i) then begin
      for c = 1 to h - 1 do
        z.((i * h) + c) <- S.new_var solver
      done;
      for c = 1 to h - 1 do
        let zc = z.((i * h) + c) in
        let prev = if c = 1 then ff else z.((i * h) + c - 1) in
        let row = lits_over (fun t -> xl i t (c - 1)) [] dom.(i) in
        S.add_clause solver (-zc :: (if prev = ff then row else prev :: row));
        if prev <> ff then S.add_clause solver [ -prev; zc ];
        List.iter
          (fun t ->
            let v = xl i t (c - 1) in
            if v <> ff then S.add_clause solver [ -v; zc ])
          dom.(i)
      done
    end
  done;
  let zl i c = if c < 1 then ff else if c >= h then tt else z.((i * h) + c) in
  (* Operand, ordering and symbol-home constraints per placement. *)
  let for_each_x i f =
    List.iter
      (fun t ->
        for c = lb.(i) to ub i do
          let v = x.(xi i t c) in
          if v <> 0 then f t c v
        done)
      dom.(i)
  in
  Array.iteri
    (fun i item ->
      match item with
      | Op n ->
        let nd = blk.Cdfg.nodes.(n) in
        for_each_x i (fun t c v ->
            List.iter
              (function
                | Cdfg.Imm _ -> ()
                | Cdfg.Node m ->
                  S.add_clause solver
                    (-v :: lits_over (fun t' -> yl m t' c) [] nbr1.(t))
                | Cdfg.Sym s -> imp_home_near v s t)
              nd.Cdfg.operands;
            List.iter (fun m -> imp v (zl m c)) nd.Cdfg.mem_dep;
            match absorbed.(n) with
            | Some s -> imp v (home_lit s t)
            | None -> ())
      | Wcopy { sym; value } ->
        for_each_x i (fun t c v ->
            imp v (home_lit sym t);
            match value with
            | Mapping.Vnode j -> imp v (yl j t c)
            | Mapping.Vsym s' -> imp v (home_lit s' t)
            | Mapping.Vimm _ -> ())
      | Ccopy { value } -> (
        (match value with
        | Mapping.Vsym s -> for_each_x i (fun t _ v -> imp v (home_lit s t))
        | Mapping.Vnode _ | Mapping.Vimm _ -> ());
        (* A branch on a written symbol tests the new value: the export
           copy must run strictly after the write. *)
        match value with
        | Mapping.Vsym s -> (
          match List.assoc_opt s writers with
          | Some w -> for_each_x i (fun _ c v -> imp v (zl w c))
          | None -> ())
        | Mapping.Vnode _ | Mapping.Vimm _ -> ()))
    items;
  (* Writer-after-readers: overwriting a symbol's home slot must wait
     for every reader of the old value. [not z(w,c)] says the writer
     has not run before cycle c, i.e. runs at c or later. *)
  List.iter
    (fun (s, w) ->
      let readers = ref [] in
      Array.iteri
        (fun n nd ->
          if
            List.exists
              (function Cdfg.Sym s' -> s' = s | _ -> false)
              nd.Cdfg.operands
          then readers := n :: !readers)
        blk.Cdfg.nodes;
      Array.iteri
        (fun i item ->
          match item with
          | Wcopy { value = Mapping.Vsym s'; _ } when s' = s && i <> w ->
            readers := i :: !readers
          | _ -> ())
        items;
      List.iter
        (fun r ->
          if r <> w then
            for_each_x r (fun _ c v ->
                let zv = zl w c in
                if zv = tt then S.add_clause solver [ -v ]
                else if zv <> ff then S.add_clause solver [ -v; -zv ]))
        !readers)
    writers;
  (* Occupancy exclusivity, busy/after/pnop-start chains and the exact
     capacity counter per tile. *)
  let busy = Array.make (nt * h) 0 in
  let after = Array.make (nt * h) 0 in
  let ps = Array.make (nt * h) 0 in
  List.iter
    (fun t ->
      for c = 0 to h - 1 do
        busy.((t * h) + c) <- S.new_var solver;
        after.((t * h) + c) <- S.new_var solver;
        ps.((t * h) + c) <- S.new_var solver
      done;
      for c = 0 to h - 1 do
        let b = busy.((t * h) + c) in
        let occupants = ref [] in
        for i = n_items - 1 downto 0 do
          let v = x.(xi i t c) in
          if v <> 0 then occupants := v :: !occupants
        done;
        Cnf.at_most_one solver !occupants;
        S.add_clause solver (-b :: !occupants);
        List.iter (fun v -> S.add_clause solver [ -v; b ]) !occupants;
        let a = after.((t * h) + c) in
        let nxt = if c = h - 1 then ff else after.((t * h) + c + 1) in
        imp2 a b nxt;
        S.add_clause solver [ -b; a ];
        if nxt <> ff then S.add_clause solver [ -nxt; a ];
        let p = ps.((t * h) + c) in
        S.add_clause solver [ -p; -b ];
        S.add_clause solver [ -p; a ];
        if c > 0 then begin
          let pb = busy.((t * h) + c - 1) in
          S.add_clause solver [ -p; pb ];
          S.add_clause solver [ b; -a; -pb; p ]
        end
        else S.add_clause solver [ b; -a; p ]
      done;
      (* busy and ps are disjoint per cycle, so at most [h] words can
         accrue: tiles with cap >= h cannot overflow.  A spread budget
         (spread pass) tightens the bound below the remaining
         capacity to leave headroom for later blocks; a free symbol
         homing here with future writers pads the counter with that
         many copies of its hv literal, charging the reserve the
         moment the model picks the home. *)
      let bound =
        match budget with
        | None -> cap.(t)
        | Some b -> min cap.(t) b.(t)
      in
      let pad = ref [] in
      List.iter
        (fun s ->
          let fw = future.(s) in
          let v = hv.((s * nt) + t) in
          if fw > 0 && v <> 0 then
            for _ = 1 to fw do
              pad := v :: !pad
            done)
        free_syms;
      if bound < h + List.length !pad then begin
        let words = ref !pad in
        for c = h - 1 downto 0 do
          words := busy.((t * h) + c) :: ps.((t * h) + c) :: !words
        done;
        Cnf.at_most_k solver !words bound
      end)
    usable_tiles;
  (* A free symbol with future writers cannot home on a tile without
     room for them: tiles outside the usable set place no words and so
     never meet the padded counter above — forbid the home directly. *)
  List.iter
    (fun t ->
      if not (usable t) then
        List.iter
          (fun s ->
            let v = hv.((s * nt) + t) in
            if future.(s) > max 0 cap.(t) && v <> 0 then
              S.add_clause solver [ -v ])
          free_syms)
    alive_tiles;
  (* Solve and extract. *)
  match S.solve ~conflict_budget ~deadline solver with
  | S.Unsat -> (`Unsat, S.stats_conflicts solver)
  | S.Unknown when Deadline.expired deadline ->
    (* A deadline-induced [Unknown] must not masquerade as budget
       exhaustion: the grow/refine loop would keep probing other
       schedule lengths and "bounded-time abort" would become
       "one more 20k-conflict probe per length". *)
    raise
      (Search.Timed_out
         { at_block = ctx.bi; where = "exact solve " ^ ctx.blk.Cdfg.name })
  | S.Unknown -> (`Unknown, S.stats_conflicts solver)
  | S.Sat ->
    let place =
      Array.mapi
        (fun i _ ->
          let found = ref (-1, -1) in
          List.iter
            (fun t ->
              for c = lb.(i) to h - 1 do
                let v = x.(xi i t c) in
                if v <> 0 && S.value solver v then found := (t, c)
              done)
            dom.(i);
          !found)
        items
    in
    let new_homes =
      List.map
        (fun s ->
          let t =
            List.find (fun t -> S.value solver hv.((s * nt) + t)) alive_tiles
          in
          (s, t))
        block_free_syms
    in
    (`Sat { m_place = place; m_homes = new_homes }, S.stats_conflicts solver)

(* Doubling then binary refinement over the schedule length: SAT(h) is
   monotone in h (trailing idle cycles are free), the item count caps
   any compacted feasible schedule, so UNSAT at the cap is a proof.
   A budget-exhausted [Unknown] during growth just moves on to the
   next length (larger instances are usually easier to satisfy) but
   taints any terminal UNSAT — a proof needs every length refuted for
   real.  During refinement [Unknown] conservatively keeps the best
   known model. *)
let solve_block ~cgra ~committed ~budget ~future ~homes ~ctx ~deadline =
  let conflicts = ref 0 in
  let solves = ref 0 in
  let attempt h =
    (* Probe boundary: checked before building the next CNF instance,
       so an expired deadline costs at most one solver tail (≤ 256
       conflicts) plus one encoding, never a full extra probe. *)
    if Deadline.expired deadline then
      raise
        (Search.Timed_out
           { at_block = ctx.bi; where = "exact probe " ^ ctx.blk.Cdfg.name });
    incr solves;
    let r, c = attempt ~cgra ~committed ~budget ~future ~homes ~ctx ~deadline h in
    conflicts := !conflicts + c;
    r
  in
  let unknown_seen = ref false in
  let rec grow h last_bad =
    match attempt h with
    | `Sat m -> `Found (last_bad, h, m)
    | (`Unknown | `Unsat) as r ->
      if r = `Unknown then unknown_seen := true;
      if h >= ctx.h_cap then if !unknown_seen then `Budget else `Unsat
      else grow (min ctx.h_cap (2 * h)) h
  in
  let result =
    match grow ctx.h_lb (ctx.h_lb - 1) with
    | `Unsat -> `Unsat
    | `Budget -> `Budget
    | `Found (lo, hi, m) ->
      let rec refine lo hi m =
        if hi - lo <= 1 then (hi, m)
        else
          let mid = (lo + hi) / 2 in
          match attempt mid with
          | `Sat m' -> refine lo mid m'
          | `Unsat | `Unknown -> refine mid hi m
      in
      let h, m = refine lo hi m in
      `Mapped (h, m)
  in
  (result, !conflicts, !solves)

let decode ~ctx ~homes (model : model) =
  let { blk; items; absorbed; cond_node; _ } = ctx in
  let home_of s =
    if homes.(s) >= 0 then homes.(s) else List.assoc s model.m_homes
  in
  let tile_of_node j = fst model.m_place.(j) in
  let slots =
    Array.to_list
      (Array.mapi
         (fun i item ->
           let tile, cycle = model.m_place.(i) in
           match item with
           | Op n ->
             let nd = blk.Cdfg.nodes.(n) in
             let operand_tiles =
               List.map
                 (function
                   | Cdfg.Imm _ -> tile
                   | Cdfg.Sym s -> home_of s
                   | Cdfg.Node m -> tile_of_node m)
                 nd.Cdfg.operands
             in
             {
               Mapping.tile;
               cycle;
               action = Mapping.Aop { node = n; operand_tiles };
               writes_sym = absorbed.(n);
               set_cond = cond_node = Some n;
             }
           | Wcopy { sym; value } ->
             {
               Mapping.tile;
               cycle;
               action = Mapping.Acopy value;
               writes_sym = Some sym;
               set_cond = false;
             }
           | Ccopy { value } ->
             {
               Mapping.tile;
               cycle;
               action = Mapping.Acopy value;
               writes_sym = None;
               set_cond = true;
             })
         items)
  in
  let slots =
    List.sort
      (fun a b ->
        if a.Mapping.cycle <> b.Mapping.cycle then
          compare a.Mapping.cycle b.Mapping.cycle
        else compare a.Mapping.tile b.Mapping.tile)
      slots
  in
  let length =
    List.fold_left (fun acc sl -> max acc (sl.Mapping.cycle + 1)) 1 slots
  in
  (slots, length)

(* One block under the committed context, at most [budget.(t)] of its
   own words on tile [t] when a budget is given, [future.(s)] words
   reserved on [s]'s home tile. *)
let map_within ~budget ~future ~deadline ~cgra ~committed ~homes ~work cdfg
    bi =
  let t0 = Clock.now () in
  let ctx = build_ctx cdfg bi in
  let stats ~rounds ~attempts =
    {
      Search.block = bi;
      block_name = ctx.blk.Cdfg.name;
      rounds;
      attempts;
      children = 0;
      route_failures = 0;
      acmap_kills = 0;
      ecmap_kills = 0;
      prune_survivors = 0;
      finalize_failures = 0;
      recomputes = 0;
      population_peak = 1;
      wall_seconds = Clock.elapsed_s t0;
      alloc_words = 0.0;
    }
  in
  if Array.length ctx.items = 0 then
    Ok
      {
        Search.bb_mapping = { Mapping.bb = bi; length = 1; slots = [] };
        new_homes = [];
        stats = stats ~rounds:0 ~attempts:0;
      }
  else begin
    let result, conflicts, solves =
      solve_block ~cgra ~committed ~budget ~future ~homes ~ctx ~deadline
    in
    work := !work + conflicts;
    match result with
    | `Mapped (_h, model) ->
      let slots, length = decode ~ctx ~homes model in
      Ok
        {
          Search.bb_mapping = { Mapping.bb = bi; length; slots };
          new_homes = model.m_homes;
          stats = stats ~rounds:solves ~attempts:conflicts;
        }
    | `Budget ->
      Error
        ( Search.Budget_spent,
          Printf.sprintf
            "block %d (%s): exact backend exhausted its conflict budget \
             (%d conflicts over %d solves)"
            bi ctx.blk.Cdfg.name conflicts solves )
    | `Unsat ->
      (* Distinguish "blocked by what earlier blocks committed" from a
         kernel-level infeasibility: re-solve in isolation (no
         committed words, every home free).  Any full mapping of the
         kernel restricts to an isolated solution of this block, so
         isolated-UNSAT at the cap proves the whole kernel unmappable
         under the encoding. *)
      let zero = Array.make (Cgra.tile_count cgra) 0 in
      let free = Array.make (Array.length homes) (-1) in
      (* The isolation probe must stay a true feasibility check: no
         spread budget, no reserves, full capacity. *)
      let iso, iso_conflicts, iso_solves =
        solve_block ~cgra ~committed:zero ~budget:None
          ~future:(Array.make (Array.length homes) 0)
          ~homes:free ~ctx ~deadline
      in
      work := !work + iso_conflicts;
      ignore iso_solves;
      Error
        (match iso with
        | `Unsat ->
          ( Search.Proved_unsat,
            Printf.sprintf
              "block %d (%s): proved UNSAT under the exact encoding (no \
               placement at any schedule length <= %d, even in isolation)"
              bi ctx.blk.Cdfg.name ctx.h_cap )
        | `Mapped _ ->
          ( Search.Dead_end,
            Printf.sprintf
              "block %d (%s): exact backend found no mapping under the \
               committed context (the block is feasible in isolation)"
              bi ctx.blk.Cdfg.name )
        | `Budget ->
          (* Blocked under the committed context, and the isolation probe
             could not tell why.  Counted as a spent budget, as the
             optimality report has always printed it ("budget
             exhausted"); no cheap cell reaches this case. *)
          ( Search.Budget_spent,
            Printf.sprintf
              "block %d (%s): exact backend found no mapping under the \
               committed context (isolation probe hit the conflict budget)"
              bi ctx.blk.Cdfg.name ))
  end

(* The spread pass's two heuristics, for a flow pass that follows a
   greedy one which dead-ended on the committed context.  The budget
   caps the block's own context words per tile at its proportional
   share of the remaining free capacity (weight = nodes + 1 against the
   blocks still to map), so early blocks leave headroom instead of
   clustering on the solver's favourite tiles; [None] when no block is
   left to share with. *)
let spread_budget ~cgra ~committed cdfg bi rest =
  let weight b = Array.length cdfg.Cdfg.blocks.(b).Cdfg.nodes + 1 in
  let w = weight bi in
  let rest_w = List.fold_left (fun a b -> a + weight b) 0 rest in
  if rest_w = 0 then None
  else
    Some
      (Array.init (Cgra.tile_count cgra) (fun t ->
           let free = cgra.Cgra.tiles.(t).Cgra.cm_words - committed.(t) in
           if free <= 0 then 0
           else ((free * w) + w + rest_w - 1) / (w + rest_w)))

(* The reserves: how many of the blocks still to map write each symbol —
   that many context words are held back on the symbol's home tile. *)
let future_writes cdfg ~homes rest =
  let fw = Array.make (Array.length homes) 0 in
  List.iter
    (fun b ->
      List.iter
        (fun (s, _) -> fw.(s) <- fw.(s) + 1)
        cdfg.Cdfg.blocks.(b).Cdfg.live_out)
    rest;
  fw

let map_block ?spread ?(deadline = Deadline.never) ~cgra ~committed ~homes
    ~work cdfg bi =
  let map ~budget ~future =
    map_within ~budget ~future ~deadline ~cgra ~committed ~homes ~work cdfg
      bi
  in
  match spread with
  | None -> map ~budget:None ~future:(Array.make (Array.length homes) 0)
  | Some rest -> (
    let future = future_writes cdfg ~homes rest in
    match spread_budget ~cgra ~committed cdfg bi rest with
    | None -> map ~budget:None ~future
    | Some _ as budget -> (
      match map ~budget ~future with
      | Ok _ as ok -> ok
      | Error _ ->
        (* The share was too tight for this block: fall back to its full
           remaining capacity, reserves kept. *)
        map ~budget:None ~future))
