(* Spans recorded by the benchmark around its own calls into each layer.
   Spans stay in memory and are written out once, at exit, so recording
   costs two clock reads and a list push. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  layer : string;
  req : int;  (** the unit of work (cell or round) the span serves *)
  start_ns : int64;
  end_ns : int64;
}

type t = { enabled : bool; mutable next : int; mutable spans : span list }

let create ~enabled = { enabled; next = 0; spans = [] }

(* [with_span t ~layer ~req ~parent f] runs [f id] inside a span; [id]
   is the parent to give the spans [f] opens.  Disabled recorders call
   [f] directly. *)
let with_span t ?(parent = -1) ~layer ~req f =
  if not t.enabled then f (-1)
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start_ns = Cgra_util.Clock.now_ns () in
    let finish () =
      let s = { id; parent; layer; req; start_ns; end_ns = Cgra_util.Clock.now_ns () } in
      t.spans <- s :: t.spans
    in
    match f id with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let spans t = List.rev t.spans

let dur s = Int64.sub s.end_ns s.start_ns

(* A span's self time: its duration minus the part of its interval that
   its children cover.  Children are clipped to the parent and merged,
   so overlapping children are not subtracted twice. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun c ->
               let a = max c.start_ns s.start_ns and b = min c.end_ns s.end_ns in
               if Int64.compare a b < 0 then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b)
            else (acc, reach))
          (0L, Int64.min_int) ivs
      in
      (s, Int64.sub (dur s) covered))
    spans

(* Total self time per layer, in milliseconds, with the span count;
   [scale s ms] adjusts span [s]'s self time before it is added. *)
let self_ms_by_layer ?(scale = fun _ ms -> ms) spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let ms, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl s.layer) in
      Hashtbl.replace tbl s.layer (ms +. scale s (Int64.to_float self /. 1e6), n + 1))
    (self_times spans);
  tbl

let to_json s =
  Json.Obj
    [ ("id", Json.Num (float s.id)); ("parent", Json.Num (float s.parent));
      ("layer", Json.Str s.layer); ("req", Json.Num (float s.req));
      ("start_ns", Json.Num (Int64.to_float s.start_ns));
      ("end_ns", Json.Num (Int64.to_float s.end_ns)) ]

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter (fun s -> output_string oc (Json.to_string (to_json s) ^ "\n")) spans)
