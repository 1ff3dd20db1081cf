let pad s w =
  let n = String.length s in
  if n >= w then s else s ^ String.make (w - n) ' '

let pad_left s w =
  let n = String.length s in
  if n >= w then s else String.make (w - n) ' ' ^ s

let render_aligned ~header ~align ~rows =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows
  in
  let fill r =
    let missing = ncols - List.length r in
    if missing <= 0 then r else r @ List.init missing (fun _ -> "")
  in
  let all = List.map fill (header :: rows) in
  let widths = Array.make ncols 0 in
  let note_widths row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter note_widths all;
  let dir i =
    match List.nth_opt align i with Some `R -> `R | Some `L | None -> `L
  in
  let line row =
    let cells =
      List.mapi
        (fun i cell ->
          match dir i with
          | `L -> pad cell widths.(i)
          | `R -> pad_left cell widths.(i))
        row
    in
    let s = String.concat "  " cells in
    (* trim trailing spaces *)
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do decr n done;
    String.sub s 0 !n
  in
  let sep =
    Array.to_list widths
    |> List.map (fun w -> String.make w '-')
    |> String.concat "  "
  in
  let body = List.map line rows in
  String.concat "\n" ((line (fill header)) :: sep :: body) ^ "\n"

let render ~header ~rows = render_aligned ~header ~align:[] ~rows

let float_cell v =
  if Float.is_integer v && Float.abs v < 1e6 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else if Float.abs v >= 1.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.3f" v

let bar ~scale ~width v =
  if v <= 0.0 then "(none)"
  else
    let n = int_of_float (Float.round (v *. scale)) in
    let n = max 1 (min width n) in
    String.make n '#'

let bar_chart ~title series =
  let width = 50 in
  let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 series in
  let scale = if vmax <= 0.0 then 0.0 else float_of_int width /. vmax in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 series
  in
  let line (label, v) =
    Printf.sprintf "  %s  %s %s" (pad label label_w) (bar ~scale ~width v)
      (float_cell v)
  in
  String.concat "\n" ((title ^ ":") :: List.map line series) ^ "\n"

let grouped_chart ~title ~group_labels rows =
  let width = 40 in
  let vmax =
    List.fold_left
      (fun acc (_, vs) -> List.fold_left Float.max acc vs)
      0.0 rows
  in
  let scale = if vmax <= 0.0 then 0.0 else float_of_int width /. vmax in
  let glabel_w =
    List.fold_left (fun acc l -> max acc (String.length l)) 0 group_labels
  in
  let block (label, vs) =
    let lines =
      List.map2
        (fun g v ->
          Printf.sprintf "    %s  %s %s" (pad g glabel_w) (bar ~scale ~width v)
            (float_cell v))
        group_labels vs
    in
    String.concat "\n" (("  " ^ label) :: lines)
  in
  String.concat "\n" ((title ^ ":") :: List.map block rows) ^ "\n"
