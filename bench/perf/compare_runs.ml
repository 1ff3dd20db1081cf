(* [perf.exe compare A B]: medians of the runs recorded in two files, per
   workload and metric, against the bounds in BENCHMARK.json.

   A record file is the standard output of one or more [perf.exe run]
   invocations, concatenated: each run prints a header line (workload,
   seed, fingerprint, deterministic values) and, as its last line, the
   result object.  Runs of the same workload and seed must agree on the
   fingerprint and on every deterministic value; any difference is
   flagged, as is an end-to-end median that got worse by more than its
   bound. *)

type run = {
  workload : string;
  seed : int;
  trace : bool;
  fingerprint : string;
  det : (string * float) list;
  p50_ms : float;  (** the workload's latency p50, traced or not *)
  metrics : (string * float) list;
}

let read_runs path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let parsed = List.filter_map (fun l -> Result.to_option (Json.parse l)) lines in
  let str k j = Option.bind (Json.member k j) Json.to_str in
  let num k j = Option.bind (Json.member k j) Json.to_num in
  let pairs = function
    | Some (Json.Obj kvs) -> kvs
    | _ -> []
  in
  let rec go acc = function
    | header :: result :: rest when str "workload" header <> None && Json.member "metrics" result <> None ->
      let run =
        {
          workload = Option.get (str "workload" header);
          seed = int_of_float (Option.value ~default:(-1.0) (num "seed" header));
          trace = Json.member "trace" header = Some (Json.Bool true);
          fingerprint = Option.value ~default:"" (str "fingerprint" header);
          det = List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num v)) (pairs (Json.member "det" header));
          p50_ms = Option.value ~default:nan (num "latency_ms_p50" header);
          metrics =
            List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (num "value" v))
              (pairs (Json.member "metrics" result));
        }
      in
      go (run :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] parsed

(* Relative change of [b] against [a], signed so that positive is worse. *)
let worsening ~better a b =
  if a = 0.0 then 0.0
  else
    let d = (b -. a) /. Float.abs a in
    if better = "higher" then -.d else d

(* Tracing overhead of one workload in one file: how much higher the
   median latency p50 of its traced runs is than that of its untraced
   runs. *)
let tracing_overhead runs w =
  let p50 trace =
    Array.of_list
      (List.filter_map
         (fun r -> if r.workload = w && r.trace = trace then Some r.p50_ms else None)
         runs)
  in
  let off = p50 false and on = p50 true in
  if Array.length off = 0 || Array.length on = 0 then None
  else Some (Stats.median on, Stats.median off)

let run ~spec a_path b_path =
  let a = read_runs a_path and b = read_runs b_path in
  let flags = ref 0 in
  let flag fmt = Printf.ksprintf (fun s -> incr flags; print_endline ("FLAG " ^ s)) fmt in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  List.iter
    (fun w ->
      List.iter
        (fun (side, runs) ->
          match tracing_overhead runs w with
          | Some (on, off) ->
            Printf.printf "\n%s tracing overhead (%s): latency_ms_p50 traced %.6g, untraced %.6g: %+.1f%%\n"
              w side on off (100.0 *. ((on /. off) -. 1.0))
          | None -> ())
        [ ("A", a); ("B", b) ];
      let of_w rs trace = List.filter (fun r -> r.workload = w && r.trace = trace) rs in
      (* Same workload and seed: deterministic outputs must be identical. *)
      let same_w = List.filter (fun r -> r.workload = w) in
      List.iter
        (fun ra ->
          List.iter
            (fun rb ->
              if rb.seed = ra.seed then begin
                if ra.fingerprint <> rb.fingerprint then
                  flag "%s seed %d: fingerprint %s -> %s" w ra.seed ra.fingerprint rb.fingerprint;
                List.iter
                  (fun (k, va) ->
                    match List.assoc_opt k rb.det with
                    | Some vb when vb <> va ->
                      flag "%s seed %d: deterministic %s %s -> %s" w ra.seed k
                        (Json.num_to_string va) (Json.num_to_string vb)
                    | _ -> ())
                  ra.det
              end)
            (same_w b))
        (same_w a);
      List.iter
        (fun (trace, metrics) ->
          let ra = of_w a trace and rb = of_w b trace in
          if ra <> [] && rb <> [] then begin
            Printf.printf "\n%s (%s; %d runs vs %d runs)\n" w
              (if trace then "traced, per layer" else "end to end") (List.length ra)
              (List.length rb);
            Printf.printf "  %-32s %14s %14s %9s %8s %8s %7s\n" "metric" "A median" "B median"
              "worse by" "A spread" "B spread" "bound";
            List.iter
              (fun (m : Report.metric) ->
                let values rs =
                  Array.of_list (List.filter_map (fun r -> List.assoc_opt m.Report.name r.metrics) rs)
                in
                let va = values ra and vb = values rb in
                if Array.length va > 0 && Array.length vb > 0 then begin
                  let ma = Stats.median va and mb = Stats.median vb in
                  let w_by = worsening ~better:m.Report.better ma mb in
                  let spread v =
                    if Array.length v < 2 || Stats.median v = 0.0 then "-"
                    else Printf.sprintf "%.1f%%" (100.0 *. Stats.spread v)
                  in
                  Printf.printf "  %-32s %14.6g %14.6g %8.1f%% %8s %8s %7s\n" m.Report.name ma mb
                    (100.0 *. w_by) (spread va) (spread vb)
                    (match m.Report.bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-");
                  match m.Report.bound with
                  | Some bound when w_by > bound ->
                    flag "%s %s: worse by %.1f%%, bound %.0f%%" w m.Report.name (100.0 *. w_by)
                      (100.0 *. bound)
                  | _ -> ()
                end)
              metrics
          end)
        [ (false, spec.Report.end_to_end); (true, spec.Report.per_layer) ])
    workloads;
  Printf.printf "\n%d flag(s)\n" !flags;
  if !flags = 0 then 0 else 1
