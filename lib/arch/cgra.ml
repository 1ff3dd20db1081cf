type tile = {
  id : int;
  row : int;
  col : int;
  has_lsu : bool;
  cm_words : int;
}

type direction = North | South | West | East

type fault =
  | Dead_tile of { tile : int }
  | Cm_rows_stuck of { tile : int; rows : int }
  | Dead_link of { tile : int; dir : direction }
  | No_lsu of { tile : int }

type t = {
  rows : int;
  cols : int;
  tiles : tile array;
  rf_words : int;
  crf_words : int;
  faults : fault list;
  pristine_tiles : tile array;
  dead : bool array;
  severed : (int * int) list;
  apsp : int array;
}

let tile_count c = Array.length c.tiles

let pristine c = c.faults = []
let faults c = c.faults
let alive c id = not c.dead.(id)
let base_cm c id = c.pristine_tiles.(id).cm_words
let link_severed c a b = List.mem (a, b) c.severed

let lsu_tiles c =
  Array.to_list c.tiles
  |> List.filter_map (fun t -> if t.has_lsu then Some t.id else None)

let can_execute c id op =
  alive c id
  && (if Cgra_ir.Opcode.needs_lsu op then c.tiles.(id).has_lsu else true)

let id_of c ~row ~col =
  let row = ((row mod c.rows) + c.rows) mod c.rows in
  let col = ((col mod c.cols) + c.cols) mod c.cols in
  (row * c.cols) + col

let dir_neighbor c id dir =
  let t = c.tiles.(id) in
  match dir with
  | North -> id_of c ~row:(t.row - 1) ~col:t.col
  | South -> id_of c ~row:(t.row + 1) ~col:t.col
  | West -> id_of c ~row:t.row ~col:(t.col - 1)
  | East -> id_of c ~row:t.row ~col:(t.col + 1)

let dir_between c a b =
  List.find_opt (fun d -> dir_neighbor c a d = b) [ North; South; West; East ]

let neighbors c id =
  let t = c.tiles.(id) in
  let cand =
    [ id_of c ~row:(t.row - 1) ~col:t.col;
      id_of c ~row:(t.row + 1) ~col:t.col;
      id_of c ~row:t.row ~col:(t.col - 1);
      id_of c ~row:t.row ~col:(t.col + 1) ]
  in
  let base = List.filter (fun n -> n <> id) (List.sort_uniq compare cand) in
  if not (alive c id) then []
  else List.filter (fun n -> alive c n && not (link_severed c id n)) base

(* Signed wrap-around delta with the smallest magnitude; ties (exactly half
   the ring) resolve to the positive direction so routes are deterministic. *)
let ring_delta size a b =
  let d = ((b - a) mod size + size) mod size in
  if d * 2 > size then d - size else d

let unreachable c = Array.length c.tiles

let distance c a b =
  let v = c.apsp.((a * Array.length c.tiles) + b) in
  if v < 0 then unreachable c else v

let route_geometric c ~src ~dst =
  let td = c.tiles.(dst) in
  let rec go row col acc =
    let dr = ring_delta c.rows row td.row in
    let dc = ring_delta c.cols col td.col in
    if dr = 0 && dc = 0 then List.rev acc
    else if dr <> 0 then
      let row = ((row + compare dr 0) mod c.rows + c.rows) mod c.rows in
      go row col (id_of c ~row ~col :: acc)
    else
      let col = ((col + compare dc 0) mod c.cols + c.cols) mod c.cols in
      go row col (id_of c ~row ~col :: acc)
  in
  let ts = c.tiles.(src) in
  go ts.row ts.col []

let path_ok c ~src path =
  alive c src
  &&
  let rec go prev = function
    | [] -> true
    | hop :: rest -> alive c hop && not (link_severed c prev hop) && go hop rest
  in
  go src path

let bfs_route c ~src ~dst =
  if src = dst then Some []
  else
    let n = Array.length c.tiles in
    let parent = Array.make n (-1) in
    let visited = Array.make n false in
    visited.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if (not !found) && not visited.(v) then begin
            visited.(v) <- true;
            parent.(v) <- u;
            if v = dst then found := true else Queue.add v q
          end)
        (neighbors c u)
    done;
    if not !found then None
    else
      let rec build v acc =
        if v = src then acc else build parent.(v) (v :: acc)
      in
      Some (build dst [])

let route_opt c ~src ~dst =
  if src = dst then Some []
  else if not (alive c src && alive c dst) then None
  else
    let g = route_geometric c ~src ~dst in
    if path_ok c ~src g then Some g else bfs_route c ~src ~dst

let compute_apsp c =
  let n = Array.length c.tiles in
  let d = Array.make (n * n) (-1) in
  for src = 0 to n - 1 do
    d.((src * n) + src) <- 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let du = d.((src * n) + u) in
      List.iter
        (fun v ->
          if d.((src * n) + v) < 0 then begin
            d.((src * n) + v) <- du + 1;
            Queue.add v q
          end)
        (neighbors c u)
    done
  done;
  d

(* The effective array of [c]'s fabric under the normalised fault map
   [faults].  Pristine ([faults = []]) and degraded arrays alike are built
   here, so every query reads one model: per-tile death, severed links and
   all-pairs BFS distances.  On a fault-free torus the BFS distance is the
   ring-delta Manhattan distance, a torus being a product of cycles. *)
let build c faults =
  let n = Array.length c.pristine_tiles in
  let dead = Array.make n false in
  let cm_cut = Array.make n 0 in
  let no_lsu = Array.make n false in
  let severed = ref [] in
  List.iter
    (function
      | Dead_tile { tile } -> dead.(tile) <- true
      | Cm_rows_stuck { tile; rows } -> cm_cut.(tile) <- cm_cut.(tile) + rows
      | No_lsu { tile } -> no_lsu.(tile) <- true
      | Dead_link { tile; dir } ->
          let nb = dir_neighbor c tile dir in
          if nb <> tile then severed := (tile, nb) :: (nb, tile) :: !severed)
    faults;
  let tiles =
    Array.map
      (fun t ->
        if dead.(t.id) then { t with has_lsu = false; cm_words = 0 }
        else
          { t with
            has_lsu = t.has_lsu && not no_lsu.(t.id);
            cm_words = max 0 (t.cm_words - cm_cut.(t.id)) })
      c.pristine_tiles
  in
  let c' =
    { c with
      tiles;
      faults;
      dead;
      severed = List.sort_uniq compare !severed;
      apsp = [||] }
  in
  { c' with apsp = compute_apsp c' }

let make ?(rows = 4) ?(cols = 4) ?(lsu_rows = 2) ?(rf_words = 32)
    ?(crf_words = 32) ~cm_of_tile () =
  if rows <= 0 || cols <= 0 then invalid_arg "Cgra.make: empty grid";
  let tile id =
    let row = id / cols and col = id mod cols in
    { id; row; col; has_lsu = row < lsu_rows; cm_words = cm_of_tile id }
  in
  let tiles = Array.init (rows * cols) tile in
  build
    { rows; cols; tiles; rf_words; crf_words; faults = [];
      pristine_tiles = tiles; dead = [||]; severed = []; apsp = [||] }
    []

let degrade c fs =
  let n = Array.length c.pristine_tiles in
  let check_tile ctx tile =
    if tile < 0 || tile >= n then
      invalid_arg
        (Printf.sprintf "Cgra.degrade: %s names tile %d outside 0..%d" ctx tile
           (n - 1))
  in
  List.iter
    (function
      | Dead_tile { tile } -> check_tile "dead_tile" tile
      | Cm_rows_stuck { tile; rows } ->
          check_tile "cm_rows_stuck" tile;
          if rows < 0 then
            invalid_arg "Cgra.degrade: cm_rows_stuck with negative rows"
      | Dead_link { tile; _ } -> check_tile "dead_link" tile
      | No_lsu { tile } -> check_tile "no_lsu" tile)
    fs;
  let faults = List.sort_uniq compare (c.faults @ fs) in
  if faults = c.faults then c else build c faults

let direction_to_string = function
  | North -> "north"
  | South -> "south"
  | West -> "west"
  | East -> "east"

let direction_of_string s =
  match String.lowercase_ascii s with
  | "north" | "n" -> Some North
  | "south" | "s" -> Some South
  | "west" | "w" -> Some West
  | "east" | "e" -> Some East
  | _ -> None

let fault_to_string = function
  | Dead_tile { tile } -> Printf.sprintf "(dead_tile %d)" tile
  | Cm_rows_stuck { tile; rows } ->
      Printf.sprintf "(cm_rows_stuck %d %d)" tile rows
  | Dead_link { tile; dir } ->
      Printf.sprintf "(dead_link %d %s)" tile (direction_to_string dir)
  | No_lsu { tile } -> Printf.sprintf "(no_lsu %d)" tile

let pp_grid fmt c =
  Format.fprintf fmt "@[<v>";
  for r = 0 to c.rows - 1 do
    for col = 0 to c.cols - 1 do
      let t = c.tiles.((r * c.cols) + col) in
      let mark =
        if not (alive c t.id) then "x" else if t.has_lsu then "*" else " "
      in
      Format.fprintf fmt "[T%02d%s cm=%-3d] " t.id mark t.cm_words
    done;
    Format.fprintf fmt "@,"
  done;
  if pristine c then Format.fprintf fmt "(* = load-store tile)@]"
  else Format.fprintf fmt "(* = load-store tile, x = dead tile)@]"
