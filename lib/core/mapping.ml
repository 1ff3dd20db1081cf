type value = Vnode of int | Vsym of int | Vimm of int

type action =
  | Aop of { node : int; operand_tiles : int list }
  | Amove of { value : value; from_tile : int }
  | Acopy of value

type slot = {
  tile : int;
  cycle : int;
  action : action;
  writes_sym : int option;
  set_cond : bool;
}

type bb_mapping = { bb : int; length : int; slots : slot list }

type usage = { ops : int; moves : int; pnops : int }

let usage_total u = u.ops + u.moves + u.pnops

type t = {
  cdfg : Cgra_ir.Cdfg.t;
  cgra : Cgra_arch.Cgra.t;
  bbs : bb_mapping array;
  homes : int array;
}

(* Counted on the occupancy grid the search decides with: a tile's busy
   cycles are its ops and moves, its idle runs the pnops. *)
let block_usage cgra bm =
  let nt = Cgra_arch.Cgra.tile_count cgra in
  let occ = Occupancy.create nt in
  let ops = Array.make nt 0 in
  List.iter
    (fun s ->
      Occupancy.occupy occ s.tile s.cycle;
      match s.action with
      | Aop _ -> ops.(s.tile) <- ops.(s.tile) + 1
      | Amove _ | Acopy _ -> ())
    bm.slots;
  Array.init nt (fun t ->
      {
        ops = ops.(t);
        moves = Occupancy.busy_count occ t - ops.(t);
        pnops = Occupancy.pnops occ t;
      })

let tile_usage m =
  let total =
    Array.make (Cgra_arch.Cgra.tile_count m.cgra) { ops = 0; moves = 0; pnops = 0 }
  in
  Array.iter
    (fun bm ->
      Array.iteri
        (fun t u ->
          total.(t) <-
            { ops = total.(t).ops + u.ops;
              moves = total.(t).moves + u.moves;
              pnops = total.(t).pnops + u.pnops })
        (block_usage m.cgra bm))
    m.bbs;
  total

let fits m =
  Array.for_all2
    (fun u (tile : Cgra_arch.Cgra.tile) -> usage_total u <= tile.cm_words)
    (tile_usage m) m.cgra.Cgra_arch.Cgra.tiles

let sum_usage m f =
  Array.fold_left (fun acc u -> acc + f u) 0 (tile_usage m)

let total_ops m = sum_usage m (fun u -> u.ops)
let total_moves m = sum_usage m (fun u -> u.moves)
let total_pnops m = sum_usage m (fun u -> u.pnops)

let static_cycles m (trace : Cgra_ir.Interp.trace) =
  let total = ref 0 in
  Array.iteri
    (fun bi count -> total := !total + (count * (m.bbs.(bi).length + 1)))
    trace.block_counts;
  !total

let pp_summary fmt m =
  let usage = tile_usage m in
  Format.fprintf fmt "@[<v>ops=%d moves=%d pnops=%d fits=%b@," (total_ops m)
    (total_moves m) (total_pnops m) (fits m);
  Array.iteri
    (fun t u ->
      Format.fprintf fmt "T%02d: %3d/%3d (ops %d, moves %d, pnops %d)@," t
        (usage_total u)
        m.cgra.Cgra_arch.Cgra.tiles.(t).cm_words u.ops u.moves u.pnops)
    usage;
  Format.fprintf fmt "@]"

let pp_schedule fmt ((m : t), bi) =
  let bm = m.bbs.(bi) in
  let nt = Cgra_arch.Cgra.tile_count m.cgra in
  let grid = Array.make_matrix nt (max 1 bm.length) '.' in
  List.iter
    (fun s ->
      grid.(s.tile).(s.cycle) <-
        (match s.action with Aop _ -> 'o' | Amove _ -> 'm' | Acopy _ -> 'c'))
    bm.slots;
  Format.fprintf fmt "@[<v>block %s (%d cycles):@,"
    m.cdfg.Cgra_ir.Cdfg.blocks.(bi).Cgra_ir.Cdfg.name bm.length;
  Array.iteri
    (fun t row ->
      Format.fprintf fmt "T%02d %s@," t (String.init bm.length (Array.get row)))
    grid;
  Format.fprintf fmt "(o = operation, m = move, c = copy, . = idle)@]"
