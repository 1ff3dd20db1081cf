(* perf.exe: the benchmark of the CM-aware toolchain.

   perf.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
   perf.exe compare A B

   [run] prints every metric by name and unit, a header line with the
   run's fingerprint, and as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report
   the end-to-end metrics, traced runs the per-layer ones and write their
   spans to _build/perf/trace-<workload>-<seed>.jsonl.  The exit code is 1 when
   any output check failed.  Run it from the root of the repository,
   where BENCHMARK.json is. *)

open Perf_lib

let spec_path = "BENCHMARK.json"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 1) fmt

let load_spec () =
  match Report.load_spec spec_path with
  | Ok s -> s
  | Error e -> die "cannot read %s: %s" spec_path e

let run (r : Cli.run) =
  let spec = load_spec () in
  let ctx = Workloads.make_ctx r in
  let result =
    match Workloads.run ctx with
    | res -> res
    | exception e -> die "%s failed: %s" r.Cli.workload (Printexc.to_string e)
  in
  let fingerprint, det = Report.fingerprint ctx result in
  let metrics =
    if r.Cli.trace then
      Report.select spec.Report.per_layer (Report.per_layer ctx result)
        ~default_zero:Report.workload_specific
    else
      Report.select spec.Report.end_to_end (Report.end_to_end result) ~default_zero:(fun _ -> false)
  in
  let metrics = match metrics with Ok m -> m | Error e -> die "%s" e in
  if r.Cli.trace then begin
    let path =
      Workloads.scratch_path (Printf.sprintf "trace-%s-%d.jsonl" r.Cli.workload r.Cli.seed)
    in
    Span.write_jsonl path (Span.spans ctx.Workloads.tr);
    Printf.eprintf "perf: spans written to %s\n" path
  end;
  let n = result.Workloads.samples in
  let probe_ms = Hostspeed.probe_ms ctx.Workloads.hs in
  Printf.printf "%s seed %d: %d units in %.2f s (%.2f s CPU), set-up %.3f s%s\n" r.Cli.workload
    r.Cli.seed result.Workloads.units result.Workloads.wall_s result.Workloads.cpu_s
    result.Workloads.setup_s
    (if r.Cli.quick then " (quick: smoke output, not metrics)" else "");
  Printf.printf "  host speed probe %.3f ms (median), reference %.3f ms: times are scaled by %.3f\n"
    probe_ms (Hostspeed.reference_s *. 1e3) (Hostspeed.reference_s *. 1e3 /. probe_ms);
  if not (Stats.supports ~n 0.9) then
    Printf.printf "  note: %d latency samples; fewer than 10 lie beyond p90\n" n;
  Report.print_human metrics;
  Printf.printf "  fingerprint %s\n" fingerprint;
  let attempted = ctx.Workloads.attempted and failed = ctx.Workloads.failed in
  if attempted = 0 then die "%s checked no output" r.Cli.workload;
  let header =
    Json.Obj
      [ ("workload", Json.Str r.Cli.workload); ("seed", Json.Num (float r.Cli.seed));
        ("trace", Json.Bool r.Cli.trace); ("quick", Json.Bool r.Cli.quick);
        ("fingerprint", Json.Str fingerprint);
        ("det", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) det));
        (* measured traced and untraced alike: [compare] reports the
           difference as the tracing overhead *)
        ("latency_ms_p50", Json.Num result.Workloads.p50_ms);
        ("probe_ms", Json.Num probe_ms);
        ("host",
         Json.Obj
           [ ("nproc", Json.Num (float (Domain.recommended_domain_count ())));
             ("ocaml", Json.Str Sys.ocaml_version) ]) ]
  in
  print_endline (Json.to_string header);
  print_endline
    (Json.to_string (Report.result_json ~correct:(failed = 0) ~attempted ~failed metrics));
  exit (if failed = 0 then 0 else 1)

let () =
  match Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Error e -> die "%s" e
  | Ok (Cli.Compare { a; b }) -> exit (Compare_runs.run ~spec:(load_spec ()) a b)
  | Ok (Cli.Run r) -> run r
