(* Turns a workload's measurements into the named metrics BENCHMARK.json
   declares, and prints them.  BENCHMARK.json is the one place metric
   names, units, directions and bounds are written down; a declared name
   this module cannot produce is an error, not a silent zero. *)

type metric = { name : string; unit_ : string; better : string; bound : float option }

type spec = { end_to_end : metric list; per_layer : metric list }

let load_spec path =
  let ( let* ) = Result.bind in
  let* text =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error e -> Error e
  in
  let* json = Json.parse text in
  let metrics key =
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m, Json.member "better" m) with
        | Some (Json.Str name), Some (Json.Str unit_), Some (Json.Str better) ->
          Some { name; unit_; better; bound = Option.bind (Json.member "bound" m) Json.to_num }
        | _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member key json)))
  in
  Ok { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

let end_to_end (r : Workloads.result) =
  [
    ("setup_s", r.Workloads.setup_s);
    ("latency_ms_p50", r.Workloads.p50_ms);
    ("latency_ms_p90", r.Workloads.p90_ms);
    ("throughput_per_s", r.Workloads.throughput);
    ("peak_rss_mb", r.Workloads.peak_rss_mb);
  ]
  @ r.Workloads.quality

(* Names of the counters reported as they are, over the reference
   round. *)
let plain_counters =
  [ "lang.nodes"; "search.attempts"; "search.children"; "search.route_failures";
    "search.acmap_kills"; "search.ecmap_kills"; "search.retries"; "exact.probes";
    "exact.conflicts"; "exact.unsat_verdicts"; "validate.violations"; "artifact.bytes";
    "fault.masked"; "fault.wrong"; "fault.crash"; "fault.hang"; "fault.corrected";
    "fault.detected" ]

(* Layer name in the span file, metric name, scale from milliseconds. *)
let span_layers =
  [ ("lang", "lang.ms", 1.0); ("core.beam", "search.ms", 1.0);
    ("core.exact", "exact.ms", 1.0); ("asm", "asm.ms", 1.0);
    ("verify.validator", "validate.ms", 1.0); ("sim", "sim.ms", 1.0);
    ("power", "energy.us", 1e3); ("serve.artifact", "render.us", 1e3);
    ("bench.unit", "bench.other_ms", 1.0) ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per-layer metrics of a traced run.  Times are self time per unit of
   work (cell or round) over the whole timed part, scaled to the
   reference host like the end-to-end times, so the layer times plus
   bench.other_ms add up to the mean unit latency.  Spans are on the
   monotonic clock the probes are stamped with. *)
let per_layer (ctx : Workloads.ctx) (r : Workloads.result) =
  let slowdown = Hostspeed.slowdown ctx.Workloads.hs in
  let by_layer =
    Span.self_ms_by_layer (Span.spans ctx.Workloads.tr) ~scale:(fun s ms ->
        ms /. slowdown ~at:(Int64.to_float s.Span.start_ns /. 1e9))
  in
  let self layer = fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_layer layer)) in
  let get tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
  let det = get ctx.Workloads.det and total = get ctx.Workloads.total in
  let units = float (max 1 r.Workloads.units) in
  List.map (fun (layer, name, scale) -> (name, self layer *. scale /. units)) span_layers
  @ List.map (fun name -> (name, det name)) plain_counters
  @ [
      ("search.survivor_ratio", ratio (det "search.prune_survivors") (det "search.children"));
      ("search.alloc_words_per_attempt",
       ratio (det "search.alloc_words") (det "search.block_attempts"));
      ("search.block_ms_max", total "search.block_ms_max");
      ("exact.ms_per_probe", ratio (self "core.exact") (total "exact.probes"));
      ("sim.cycles_per_s", ratio (total "sim.cycles") (self "sim" /. 1e3));
    ]
  @ r.Workloads.extra

(* The metrics a run prints: every declared name, in declaration order.
   Workload-specific metrics a workload does not exercise read 0. *)
let select declared produced ~default_zero =
  match
    List.find_opt
      (fun m -> not (List.mem_assoc m.name produced || default_zero m.name))
      declared
  with
  | Some m -> Error ("BENCHMARK.json declares a metric this workload does not produce: " ^ m.name)
  | None ->
    Ok (List.map (fun m -> (m, Option.value ~default:0.0 (List.assoc_opt m.name produced))) declared)

(* Workload-specific per-layer metrics: absent from workloads that do not
   exercise their layer. *)
let workload_specific name =
  List.exists
    (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    [ "fault.ms_per_trial." ]

(* Every round-0 counter is a pure function of the seed and the code,
   except allocation, which depends on the compiler build. *)
let fingerprint (ctx : Workloads.ctx) (r : Workloads.result) =
  let det =
    Hashtbl.fold (fun k v acc -> if k = "search.alloc_words" then acc else (k, v) :: acc)
      ctx.Workloads.det []
    @ r.Workloads.quality
    |> List.sort compare
  in
  (* Lines sorted: the fingerprint does not depend on the order cells ran
     in or on how the two serving threads interleaved. *)
  let lines =
    String.split_on_char '\n' (Buffer.contents ctx.Workloads.fp)
    @ List.map (fun (k, v) -> Printf.sprintf "%s %s" k (Json.num_to_string v)) det
  in
  let text = String.concat "\n" (List.sort compare lines) in
  (Digest.to_hex (Digest.string text), det)

let print_human metrics =
  List.iter
    (fun (m, v) -> Printf.printf "  %-32s %16s %s\n" m.name (Json.num_to_string v) m.unit_)
    metrics

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct); ("attempted", Json.Num (float attempted));
      ("failed", Json.Num (float failed));
      ("metrics",
       Json.Obj
         (List.map
            (fun (m, v) -> (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
            metrics)) ]
