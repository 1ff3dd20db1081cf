(* Tests of the benchmark's own arithmetic: order statistics, scaling to
   the reference host, span self time, and command-line parsing. *)

open Perf_lib

let check_float msg expected got = Alcotest.(check (float 1e-9)) msg expected got

(* ---- statistics --------------------------------------------------------- *)

let test_median () =
  check_float "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "even: mean of the middle pair" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

(* Reference values from Python: statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let close msg want got = Alcotest.(check (list (float 1e-9))) msg want got in
  close "1..10" [ 2.75; 5.5; 8.25 ] (Stats.quartiles (Array.init 10 (fun i -> float (i + 1))));
  close "two samples" [ 0.75; 1.5; 2.25 ] (Stats.quartiles [| 2.0; 1.0 |]);
  close "1..7" [ 2.0; 4.0; 6.0 ] (Stats.quartiles (Array.init 7 (fun i -> float (i + 1))));
  check_float "spread 1..10" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float (i + 1))))

let test_percentile_rule () =
  let xs n = Array.init n (fun i -> float (i + 1)) in
  check_float "nearest-rank p90 of 1..100" 90.0 (Stats.percentile (xs 100) 0.9);
  check_float "p50 of 1..10" 5.0 (Stats.percentile (xs 10) 0.5);
  Alcotest.(check int) "100 samples: 10 beyond p90" 10 (Stats.beyond ~n:100 0.9);
  Alcotest.(check bool) "p90 needs 100 samples" true (Stats.supports ~n:100 0.9);
  Alcotest.(check bool) "99 samples are too few" false (Stats.supports ~n:99 0.9);
  Alcotest.(check bool) "p50 with 20 samples" true (Stats.supports ~n:20 0.5);
  Alcotest.(check bool) "p99 needs 1000" false (Stats.supports ~n:999 0.99)

let test_windows () =
  let xs = [| 1.; 2.; 3.; 4.; 9.; 9.; 9.; 9.; 1.; 1.; 1.; 5.; 7. |] in
  (* windows [1..4] [9..] [1 1 1 5]; the trailing 7 is a partial window *)
  check_float "median of the window medians" 2.0 (Stats.windowed_percentile ~window:4 xs 0.5);
  check_float "median of the window maxima" 5.0 (Stats.windowed_percentile ~window:4 xs 1.0);
  check_float "fewer samples than a window" 3.0 (Stats.windowed_percentile ~window:10 [| 3.; 1.; 5. |] 0.5)

(* ---- host speed ------------------------------------------------------- *)

(* A unit is scaled by the median of the probes nearest to it in time,
   not by the run's: a slow period slows its own units only. *)
let test_hostspeed () =
  let r = Hostspeed.reference_s in
  let hs = Hostspeed.create () in
  check_float "no probes: unscaled" 1.0 (Hostspeed.slowdown hs ~at:0.0);
  (* 20 probes at the reference speed over t = 0..1.9 s, then 20 at half
     that speed over t = 10..11.9 s, one of them interrupted *)
  let probes =
    List.init 20 (fun i -> (0.1 *. float i, r))
    @ List.init 20 (fun i -> (10.0 +. (0.1 *. float i), if i = 7 then 40.0 *. r else 2.0 *. r))
  in
  hs.Hostspeed.samples <- List.rev probes;
  let slowdown = Hostspeed.slowdown hs in
  check_float "fast period" 1.0 (slowdown ~at:1.0);
  check_float "slow period, the outlier outvoted" 2.0 (slowdown ~at:11.0);
  check_float "before the first probe" 1.0 (slowdown ~at:(-5.0));
  check_float "after the last probe" 2.0 (slowdown ~at:60.0);
  check_float "a window never spans both periods" 1.0 (slowdown ~at:2.5);
  check_float "median probe" (1.5e3 *. r) (Hostspeed.probe_ms hs);
  Alcotest.(check bool) "the probe does the same work every time" true
    (Hostspeed.work () = Hostspeed.work ())

(* ---- spans -------------------------------------------------------------- *)

let span ~id ~parent ~layer a b =
  { Span.id; parent; layer; req = 0; start_ns = Int64.of_int a; end_ns = Int64.of_int b }

let test_self_time () =
  let spans =
    [ span ~id:0 ~parent:(-1) ~layer:"unit" 0 100;
      span ~id:1 ~parent:0 ~layer:"a" 10 40;
      span ~id:2 ~parent:0 ~layer:"b" 30 60;  (* overlaps a *)
      span ~id:3 ~parent:1 ~layer:"c" 15 20;
      span ~id:4 ~parent:0 ~layer:"d" 90 120 (* runs past its parent *) ]
  in
  let self = List.map (fun (s, ns) -> (s.Span.layer, Int64.to_int ns)) (Span.self_times spans) in
  Alcotest.(check (list (pair string int)))
    "duration minus the union of children, clipped"
    [ ("unit", 100 - 50 - 10); ("a", 30 - 5); ("b", 30); ("c", 5); ("d", 30) ]
    self;
  let by_layer = Span.self_ms_by_layer spans in
  check_float "per-layer total in ms" 40e-6 (fst (Hashtbl.find by_layer "unit"))

let test_recorder () =
  let t = Span.create ~enabled:true in
  Span.with_span t ~layer:"unit" ~req:7 (fun parent ->
      Span.with_span t ~parent ~layer:"inner" ~req:7 ignore);
  (match Span.spans t with
   | [ inner; outer ] ->
     Alcotest.(check string) "inner closes first" "inner" inner.Span.layer;
     Alcotest.(check int) "parent link" outer.Span.id inner.Span.parent;
     Alcotest.(check int) "root" (-1) outer.Span.parent;
     Alcotest.(check bool) "nested interval" true
       (inner.Span.start_ns >= outer.Span.start_ns && inner.Span.end_ns <= outer.Span.end_ns)
   | l -> Alcotest.failf "expected two spans, got %d" (List.length l));
  let off = Span.create ~enabled:false in
  Alcotest.(check int) "disabled recorder still runs the body" 3
    (Span.with_span off ~layer:"x" ~req:0 (fun _ -> 3));
  Alcotest.(check int) "and records nothing" 0 (List.length (Span.spans off))

(* ---- command line ------------------------------------------------------- *)

let run_of args =
  match Cli.parse ("run" :: args) with
  | Ok (Cli.Run r) -> r
  | Ok _ -> Alcotest.fail "not a run command"
  | Error e -> Alcotest.failf "rejected: %s" e

let error_of args =
  match Cli.parse args with Error e -> e | Ok _ -> Alcotest.failf "accepted %s" (String.concat " " args)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_cli () =
  let r = run_of [ "--workload"; "exact_grid" ] in
  Alcotest.(check string) "workload" "exact_grid" r.Cli.workload;
  Alcotest.(check int) "default seed" Cli.default_seed r.Cli.seed;
  check_float "default seconds" Cli.default_seconds r.Cli.seconds;
  Alcotest.(check bool) "untraced" false r.Cli.trace;
  let r = run_of [ "--workload"; "fault_campaign"; "--seed"; "42"; "--seconds"; "7"; "--trace"; "1" ] in
  Alcotest.(check (pair int bool)) "seed and trace" (42, true) (r.Cli.seed, r.Cli.trace);
  check_float "seconds" 7.0 r.Cli.seconds;
  let q = run_of [ "--quick"; "--workload"; "beam_grid" ] in
  Alcotest.(check bool) "quick" true q.Cli.quick;
  check_float "quick shortens the timed part" Cli.quick_seconds q.Cli.seconds;
  let e = error_of [ "run"; "--workload"; "bogus" ] in
  List.iter
    (fun w -> Alcotest.(check bool) ("error names " ^ w) true (contains e w))
    Cli.workloads;
  ignore (error_of [ "run"; "--workload"; "beam_grid"; "--seed"; "abc" ]);
  ignore (error_of [ "run"; "--workload"; "beam_grid"; "--seed"; "-3" ]);
  ignore (error_of [ "run"; "--workload"; "beam_grid"; "--trace"; "2" ]);
  ignore (error_of [ "run"; "--workload"; "beam_grid"; "--seconds"; "0" ]);
  ignore (error_of [ "run"; "--workload"; "beam_grid"; "--frobnicate" ]);
  ignore (error_of [ "run"; "--seed"; "3" ]);
  ignore (error_of [ "bench" ])

(* The binary turns a rejected command line into exit code 1 and names
   the valid workloads. *)
let test_exit_code () =
  let err = Filename.temp_file "perf" ".err" in
  let code =
    Sys.command (Printf.sprintf "./perf.exe run --workload bogus 2> %s > /dev/null" (Filename.quote err))
  in
  let msg = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  Alcotest.(check int) "exit code" 1 code;
  List.iter (fun w -> Alcotest.(check bool) ("stderr names " ^ w) true (contains msg w)) Cli.workloads;
  Alcotest.(check int) "bad seed" 1
    (Sys.command "./perf.exe run --workload beam_grid --seed x 2> /dev/null > /dev/null")

(* ---- JSON and reporting ------------------------------------------------- *)

let test_json () =
  let v =
    Json.Obj
      [ ("a", Json.Num 1.2034000000000001); ("n", Json.Num 1000.0); ("s", Json.Str "q\"\n");
        ("l", Json.Arr [ Json.Bool true; Json.Null ]) ]
  in
  let text = Json.to_string v in
  Alcotest.(check bool) "integers print without a fraction" true (contains text "\"n\": 1000,");
  Alcotest.(check bool) "round trip" true (Json.parse text = Ok v);
  Alcotest.(check bool) "trailing garbage" true (Result.is_error (Json.parse "{} x"))

let test_select () =
  let m name = { Report.name; unit_ = "ms"; better = "lower"; bound = None } in
  (match Report.select [ m "a"; m "b" ] [ ("b", 2.0); ("a", 1.0) ] ~default_zero:(fun _ -> false) with
   | Ok [ (x, 1.0); (y, 2.0) ] when x.Report.name = "a" && y.Report.name = "b" -> ()
   | _ -> Alcotest.fail "declaration order, values kept");
  Alcotest.(check bool) "a declared name nobody produces" true
    (Result.is_error (Report.select [ m "a"; m "typo" ] [ ("a", 1.0) ] ~default_zero:(fun _ -> false)));
  Alcotest.(check bool) "workload-specific names read 0 elsewhere" true
    (Report.select [ m "fault.ms_per_trial.x" ] [] ~default_zero:Report.workload_specific
     = Ok [ (m "fault.ms_per_trial.x", 0.0) ]);
  check_float "worse when a lower-is-better value rises" 0.1
    (Compare_runs.worsening ~better:"lower" 10.0 11.0);
  check_float "worse when a higher-is-better value falls" 0.1
    (Compare_runs.worsening ~better:"higher" 10.0 9.0)

(* ---- known answers ------------------------------------------------------ *)

(* An exact cell that gives up is a failed check: must-map cells must
   map, and dc_filter must be proved UNSAT, not merely left unmapped. *)
let test_exact_verdicts () =
  let ctx =
    Workloads.make_ctx
      { Cli.workload = "exact_grid"; seed = 1; seconds = 1.0; trace = false; quick = true }
  in
  let failed_by slug reason =
    let before = ctx.Workloads.failed in
    Workloads.check_exact_verdict ctx ~what:(slug ^ "@HOM64") slug (Workloads.Unmapped reason);
    ctx.Workloads.failed - before
  in
  let budget = "block 1 (loop): exact backend exhausted its conflict budget (20000 conflicts over 3 solves)" in
  let committed = "block 1 (loop): exact backend found no mapping under the committed context" in
  let proof = "block 1 (loop): proved UNSAT under the exact encoding (no placement at any schedule length <= 9, even in isolation)" in
  Alcotest.(check int) "fir: budget exhausted" 1 (failed_by "fir" budget);
  Alcotest.(check int) "fft: no mapping under the committed context" 1 (failed_by "fft" committed);
  Alcotest.(check int) "fir: an UNSAT proof is wrong too" 1 (failed_by "fir" proof);
  Alcotest.(check int) "dc_filter: budget exhausted is no proof" 1 (failed_by "dc_filter" budget);
  Alcotest.(check int) "dc_filter: proved UNSAT" 0 (failed_by "dc_filter" proof);
  Alcotest.(check int) "every verdict was checked" 5 ctx.Workloads.attempted

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "ten samples beyond the percentile" `Quick test_percentile_rule;
          Alcotest.test_case "windowed percentile" `Quick test_windows ] );
      ("hostspeed", [ Alcotest.test_case "scaling by the nearest probes" `Quick test_hostspeed ]);
      ( "spans",
        [ Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder ] );
      ( "cli",
        [ Alcotest.test_case "parse" `Quick test_cli;
          Alcotest.test_case "exit code 1 names the workloads" `Quick test_exit_code ] );
      ( "report",
        [ Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "metric selection and direction" `Quick test_select ] );
      ( "checks", [ Alcotest.test_case "exact verdicts" `Quick test_exact_verdicts ] );
    ]
