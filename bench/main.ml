(* Benchmark and reproduction harness: regenerates the paper's tables and
   figures (and the beyond-the-paper reports) from one explicit
   [Cgra_exp.Figures.params] record built from the command line, and runs
   the Bechamel micro-benchmarks, the ablations and the smoke checks.
   [main.exe --help] documents every target and flag; EXPERIMENTS.md
   records the paper-vs-measured numbers. *)

open Bechamel
open Toolkit

module Figures = Cgra_exp.Figures

let print_artifact params render =
  print_endline (render params);
  print_newline ()

(* The paper set, used by [all] and the micro benches; [list] and the
   target lookup also see the extras (opt_report, search_report, ...). *)
let run_all_artifacts params =
  List.iter (fun (_, render) -> print_artifact params render) Figures.artifacts

(* ---- Bechamel micro-benchmarks --------------------------------------- *)

let fir = Option.get (Cgra_kernels.Kernels.by_slug "fir")
let fir_cdfg = Cgra_kernels.Kernel_def.cdfg fir

let map_fir config flow =
  match Cgra_core.Flow.run ~config:flow (Cgra_arch.Config.cgra config) fir_cdfg with
  | Ok (m, _) -> m
  | Error f -> failwith f.Cgra_core.Flow.reason

let fir_mapping = lazy (map_fir Cgra_arch.Config.HOM64 Cgra_core.Flow_config.basic)
let fir_program = lazy (Cgra_asm.Assemble.assemble (Lazy.force fir_mapping))
let fir_cpu = lazy (Cgra_cpu.Codegen.compile fir_cdfg)

(* One Test.make per paper table/figure: each measures regenerating that
   artifact with a warm run cache (the mapping work itself is benchmarked
   separately below). *)
let artifact_tests params =
  List.map
    (fun (name, render) ->
      Test.make ~name:("artifact/" ^ name)
        (Staged.stage (fun () -> render params)))
    Figures.artifacts

let pipeline_tests =
  [ Test.make ~name:"frontend/compile-fir"
      (Staged.stage (fun () ->
           Cgra_lang.Compile.compile_exn fir.Cgra_kernels.Kernel_def.source));
    Test.make ~name:"mapper/basic-fir-hom64"
      (Staged.stage (fun () ->
           map_fir Cgra_arch.Config.HOM64 Cgra_core.Flow_config.basic));
    Test.make ~name:"mapper/aware-fir-het2"
      (Staged.stage (fun () ->
           map_fir Cgra_arch.Config.HET2 Cgra_core.Flow_config.context_aware));
    Test.make ~name:"assembler/fir"
      (Staged.stage (fun () -> Cgra_asm.Assemble.assemble (Lazy.force fir_mapping)));
    Test.make ~name:"simulator/fir"
      (Staged.stage (fun () ->
           let mem = Cgra_kernels.Kernel_def.fresh_mem fir in
           Cgra_sim.Simulator.run (Lazy.force fir_program) ~mem));
    Test.make ~name:"cpu-sim/fir"
      (Staged.stage (fun () ->
           let mem = Cgra_kernels.Kernel_def.fresh_mem fir in
           Cgra_cpu.Cpu_sim.run (Lazy.force fir_cpu) ~mem));
    Test.make ~name:"interp/fir"
      (Staged.stage (fun () ->
           let mem = Cgra_kernels.Kernel_def.fresh_mem fir in
           Cgra_ir.Interp.run fir_cdfg ~mem)) ]

let run_micro params =
  (* Warm the experiment cache so artifact benches measure rendering, not
     first-run mapping. *)
  List.iter (fun (_, render) -> ignore (render params)) Figures.artifacts;
  let tests = artifact_tests params @ pipeline_tests in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  print_endline "Bechamel micro-benchmarks (ns per run):";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "  %-28s %12.0f ns\n%!" name ns
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests

(* ---- Ablations (DESIGN.md section 6) --------------------------------- *)

module Toolchain = Cgra_exp.Toolchain

let ablation_beam () =
  print_endline "Ablation: beam width of the full flow (FFT @ HET2)";
  let k = Option.get (Cgra_kernels.Kernels.by_slug "fft") in
  let cgra = Cgra_arch.Config.cgra Cgra_arch.Config.HET2 in
  List.iter
    (fun beam ->
      let config =
        { Cgra_core.Flow_config.context_aware with beam_width = beam }
      in
      let t0 = Cgra_util.Clock.now () in
      match Toolchain.run_kernel ~config cgra k with
      | Ok (m, x) ->
        Printf.printf "  beam %3d: mapped, %d cycles, %d moves, %.2fs\n%!"
          beam x.Toolchain.sim.Cgra_sim.Simulator.cycles
          (Cgra_core.Mapping.total_moves m.Toolchain.mapping)
          (Cgra_util.Clock.elapsed_s t0)
      | Error e ->
        Printf.printf "  beam %3d: FAILED (%s), %.2fs\n%!" beam
          (Toolchain.error_to_string e)
          (Cgra_util.Clock.elapsed_s t0))
    [ 4; 8; 16; 32; 48 ]

let ablation_seeds () =
  print_endline "Ablation: stochastic-pruning seed (MatM @ HET1, full flow)";
  let k = Option.get (Cgra_kernels.Kernels.by_slug "matm") in
  let cgra = Cgra_arch.Config.cgra Cgra_arch.Config.HET1 in
  List.iter
    (fun seed ->
      let config = { Cgra_core.Flow_config.context_aware with seed } in
      match Toolchain.run_kernel ~config cgra k with
      | Ok (m, x) ->
        Printf.printf "  seed %4d: mapped, %d cycles, %d context words max\n%!"
          seed x.Toolchain.sim.Cgra_sim.Simulator.cycles
          (Array.fold_left
             (fun acc u -> max acc (Cgra_core.Mapping.usage_total u))
             0
             (Cgra_core.Mapping.tile_usage m.Toolchain.mapping))
      | Error e ->
        Printf.printf "  seed %4d: FAILED (%s)\n%!" seed (Toolchain.error_to_string e))
    [ 42; 7; 1234 ]

(* Re-simulates one program at several port counts, so it takes the
   pipeline's validated program and drives the simulator itself. *)
let ablation_ports () =
  print_endline "Ablation: data-memory ports (Convolution @ HOM64, basic flow)";
  let k = Option.get (Cgra_kernels.Kernels.by_slug "convolution") in
  let cgra = Cgra_arch.Config.cgra Cgra_arch.Config.HOM64 in
  match
    Toolchain.map ~config:Cgra_core.Flow_config.default cgra
      (Cgra_kernels.Kernel_def.cdfg k)
  with
  | Error e -> Printf.printf "  mapping failed: %s\n" (Toolchain.error_to_string e)
  | Ok { Toolchain.program; _ } ->
    List.iter
      (fun ports ->
        let mem = Cgra_kernels.Kernel_def.fresh_mem k in
        let r = Cgra_sim.Simulator.run ~mem_ports:ports program ~mem in
        Printf.printf "  %2d ports: %d cycles (%d stalls)\n%!" ports
          r.Cgra_sim.Simulator.cycles r.Cgra_sim.Simulator.stall_cycles)
      [ 1; 2; 4; 8 ]

let ablation_cfg_simplification () =
  print_endline
    "Ablation: trivial-block elimination (controller transition cycles)";
  List.iter
    (fun k ->
      let plain = Cgra_kernels.Kernel_def.cdfg k in
      let simple = Cgra_ir.Opt.simplify_cfg plain in
      let run cdfg =
        match
          Toolchain.run ~golden:(Cgra_kernels.Kernel_def.run_golden k)
            ~config:Cgra_core.Flow_config.basic
            ~mem:(Cgra_kernels.Kernel_def.fresh_mem k)
            (Cgra_arch.Config.cgra Cgra_arch.Config.HOM64) cdfg
        with
        | Error _ -> None
        | Ok (_, x) -> Some x.Toolchain.sim.Cgra_sim.Simulator.cycles
      in
      match run plain, run simple with
      | Some a, Some b ->
        Printf.printf "  %-14s %5d -> %5d cycles (%d blocks -> %d)\n%!"
          k.Cgra_kernels.Kernel_def.name a b
          (Cgra_ir.Cdfg.block_count plain)
          (Cgra_ir.Cdfg.block_count simple)
      | _, _ -> Printf.printf "  %-14s (mapping failed)\n%!" k.Cgra_kernels.Kernel_def.name)
    Cgra_kernels.Kernels.all;
  print_endline
    "  (the lowering attaches live-outs to join blocks, so this suite has\n\
    \   no trivial blocks; the pass pays off on if/else-heavy kernels)"

let ablation_if_conversion () =
  print_endline "Ablation: if-conversion (predication via select)";
  let src =
    {|kernel threshold { arr x @ 0; arr o @ 32; var i, v, r;
      for (i = 0; i < 24; i = i + 1) {
        v = x[i];
        r = 0;
        if (v > 8) { r = v * 3 + 1; } else { r = 0 - v; }
        o[i] = r;
      } }|}
  in
  let cdfg = Cgra_lang.Compile.compile_exn src in
  let conv = Cgra_ir.Opt.simplify_cfg (Cgra_ir.Opt.if_convert cdfg) in
  let run label c =
    let mem = Array.make 64 0 in
    for k = 0 to 23 do
      mem.(k) <- (k * 7) mod 17
    done;
    let golden = Array.copy mem in
    ignore (Cgra_ir.Interp.run c ~mem:golden);
    match
      Toolchain.run ~golden ~config:Cgra_core.Flow_config.basic ~mem
        (Cgra_arch.Config.cgra Cgra_arch.Config.HOM64) c
    with
    | Error e ->
      Printf.printf "  %-14s mapping failed: %s\n%!" label (Toolchain.error_to_string e)
    | Ok (_, x) ->
      Printf.printf "  %-14s %5d cycles over %2d blocks\n%!" label
        x.Toolchain.sim.Cgra_sim.Simulator.cycles (Cgra_ir.Cdfg.block_count c)
  in
  run "branchy" cdfg;
  run "if-converted" conv

let run_ablations () =
  ablation_beam ();
  ablation_seeds ();
  ablation_ports ();
  ablation_cfg_simplification ();
  ablation_if_conversion ()

(* ---- allocation-budget smoke check ----------------------------------- *)

(* Budgets for the search, in allocated words per binding attempt:
   FIR @ HOM64 under the basic flow, and MatM @ HET2
   under the paper's context-aware flow, the largest block.  A binding
   attempt is scored on its parent state in place and undone; only the
   partial mappings that survive pruning are copied.  The copy's cost
   grows with the block, so the MatM budget is the one that catches a
   return of the per-attempt copy (1135.1 words/attempt with it, against
   577.0 for FIR).  The measured figures are stable for a fixed build but
   not byte-portable across compiler versions, so these are regression
   bounds with headroom (~1.5x the values measured at the time of
   recording, 200.3 and 274.7), not exact expectations. *)
let search_budgets_words_per_attempt =
  [ ("FIR@HOM64 basic", "fir", Cgra_arch.Config.HOM64,
     Cgra_core.Flow_config.basic, 300.0);
    ("MatM@HET2 context-aware", "matm", Cgra_arch.Config.HET2,
     Cgra_core.Flow_config.context_aware, 410.0) ]

(* Budgets for the simulator's lock-step loop, in minor words allocated
   per simulated cycle of one [Simulator.run] (FIR @ HET2, full flow, set-up
   included), unprotected and SECDED at the default scrub cadence.  The
   same kind of bound: ~1.5x the values measured at the time of recording
   (52.7 and 58.6 words/cycle, ~90 % of it operand lists and results). *)
let sim_budget_words_per_cycle =
  [ ("unprotected", Cgra_arch.Protection.none, 80.0);
    ("secded", Cgra_arch.Protection.secded, 90.0) ]

(* Budget for the exact backend, in words allocated per SAT probe of
   [Flow.run] (FIR @ HOM64, basic flow, [backend = Exact]): building each
   probe's instance and solving it.  Counted with [Gc.allocated_bytes],
   so arrays allocated straight into the major heap count too.  The
   same kind of bound again: ~1.5x the value measured at the time of
   recording (347,359 words/probe).  Solver storage allocated afresh
   for every probe, with every clause built as a list, took 610,198
   and fails it. *)
let exact_budget_words_per_probe = 520_000.0

let check_budget ~what ~unit per budget =
  Printf.printf "alloc_check: %s = %.1f %s (budget %.1f)\n" what per unit
    budget;
  if per > budget then begin
    Printf.eprintf
      "alloc_check: FAIL — %s allocation regressed past the recorded budget\n"
      what;
    false
  end
  else true

let search_alloc_ok () =
  List.map
    (fun (what, slug, config_id, config, budget) ->
      let k = Option.get (Cgra_kernels.Kernels.by_slug slug) in
      match
        Cgra_core.Flow.run ~config (Cgra_arch.Config.cgra config_id)
          (Cgra_kernels.Kernel_def.cdfg k)
      with
      | Error f ->
        Printf.eprintf "alloc_check: %s must map: %s\n" what
          f.Cgra_core.Flow.reason;
        exit 1
      | Ok (_, stats) ->
        let words, attempts =
          List.fold_left
            (fun (w, a) (b : Cgra_core.Search.block_stats) ->
              ( w +. b.Cgra_core.Search.alloc_words,
                a + b.Cgra_core.Search.attempts ))
            (0.0, 0) stats.Cgra_core.Flow.search
        in
        Printf.printf "alloc_check: %.0f words over %d binding attempts (%s)\n"
          words attempts what;
        check_budget ~what:("search " ^ what) ~unit:"words/attempt"
          (words /. float_of_int (max 1 attempts))
          budget)
    search_budgets_words_per_attempt
  |> List.for_all Fun.id

let sim_alloc_ok () =
  let module Sim = Cgra_sim.Simulator in
  let program =
    match
      Toolchain.map ~config:Cgra_core.Flow_config.context_aware
        (Cgra_arch.Config.cgra Cgra_arch.Config.HET2)
        fir_cdfg
    with
    | Ok { Toolchain.program; _ } -> program
    | Error e ->
      Printf.eprintf "alloc_check: FIR must map on HET2: %s\n"
        (Toolchain.error_to_string e);
      exit 1
  in
  List.map
    (fun (level, profile, budget) ->
      let protect = Sim.protect_of profile in
      let mem = Cgra_kernels.Kernel_def.fresh_mem fir in
      let before = Gc.minor_words () in
      let r = Sim.run ?protect program ~mem in
      let words = Gc.minor_words () -. before in
      Printf.printf "alloc_check: %.0f words over %d simulated cycles (%s)\n"
        words r.Sim.cycles level;
      check_budget ~what:("simulator " ^ level) ~unit:"words/cycle"
        (words /. float_of_int (max 1 r.Sim.cycles))
        budget)
    sim_budget_words_per_cycle
  |> List.for_all Fun.id

let exact_alloc_ok () =
  let config =
    { Cgra_core.Flow_config.basic with
      Cgra_core.Flow_config.backend = Cgra_core.Flow_config.Exact }
  in
  let before = Gc.allocated_bytes () in
  match
    Cgra_core.Flow.run ~config
      (Cgra_arch.Config.cgra Cgra_arch.Config.HOM64)
      fir_cdfg
  with
  | Error f ->
    Printf.eprintf "alloc_check: FIR must map exactly on HOM64: %s\n"
      f.Cgra_core.Flow.reason;
    exit 1
  | Ok (_, stats) ->
    let words =
      (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
    in
    (* the exact backend reports its probes (solver calls) as rounds *)
    let probes =
      List.fold_left
        (fun n (b : Cgra_core.Search.block_stats) -> n + b.Cgra_core.Search.rounds)
        0 stats.Cgra_core.Flow.search
    in
    Printf.printf "alloc_check: %.0f words over %d exact probes\n" words probes;
    check_budget ~what:"exact backend" ~unit:"words/probe"
      (words /. float_of_int (max 1 probes))
      exact_budget_words_per_probe

let run_alloc_check () =
  (* every check always runs and reports *)
  let search = search_alloc_ok () in
  let sim = sim_alloc_ok () in
  let exact = exact_alloc_ok () in
  if search && sim && exact then print_endline "alloc_check: OK" else exit 1

(* ---- serve_report ------------------------------------------------------ *)

(* Latency profile of the cgra_mapd daemon (a command, not an artifact:
   wall-clock numbers are machine-dependent and must not leak into the
   deterministic artifact set).  An in-process server on a private
   socket/store is measured per kernel: cold-miss latency (compute +
   store write), store-hit latency, and the hit/miss ratio the daemon
   exists to deliver.  Finally a 4-client hammer measures warm
   throughput over concurrent connections. *)
let run_serve_report () =
  let module Serve = Cgra_serve in
  let tmp tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgra-serve-report-%d-%s" (Unix.getpid ()) tag)
  in
  let socket_path = tmp "sock" in
  let server =
    Serve.Server.start
      {
        Serve.Server.socket_path;
        tcp_port = None;
        store_root = Some (tmp "store");
        jobs = None;
        verbose = false;
        deadline_ms = None;
        queue_limit = None;
        io_timeout_s = None;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop server;
      Serve.Server.wait server;
      ignore (Serve.Store.clear (Serve.Server.store server)))
    (fun () ->
      let ep = Serve.Client.Unix_socket socket_path in
      let request_bytes spec =
        match Serve.Client.map ~fallback:false ep spec with
        | Ok (Serve.Client.Artifact { bytes; _ }) -> Some bytes
        | Ok (Serve.Client.Unmappable _) -> None
        | Ok (Serve.Client.Timed_out { where }) ->
          Printf.eprintf "serve_report: unexpected timeout (%s)\n" where;
          exit 1
        | Error e ->
          Printf.eprintf "serve_report: %s\n"
            (Serve.Client.map_error_to_string e);
          exit 1
      in
      let time f =
        let t0 = Cgra_util.Clock.now () in
        let r = f () in
        (r, Cgra_util.Clock.elapsed_s t0)
      in
      let hit_samples = 25 in
      let rows =
        List.filter_map
          (fun k ->
            let slug = k.Cgra_kernels.Kernel_def.slug in
            match
              Serve.Key.spec_of_bundled ~slug ~config:Cgra_arch.Config.HET2
                ~flow:Cgra_core.Flow_config.context_aware ~opt:Serve.Key.Default
                ~faults:[]
            with
            | Error e ->
              Printf.eprintf "serve_report: %s\n" e;
              exit 1
            | Ok spec -> (
              match time (fun () -> request_bytes spec) with
              | None, _ -> None (* unmappable: nothing to serve *)
              | Some bytes, miss_s ->
                (* median of repeated hits, robust to scheduler noise *)
                let hits =
                  List.init hit_samples (fun _ ->
                      snd (time (fun () -> ignore (request_bytes spec))))
                  |> List.sort compare
                in
                let hit_s = List.nth hits (hit_samples / 2) in
                Some
                  [
                    slug;
                    string_of_int (String.length bytes);
                    Printf.sprintf "%.1f" (miss_s *. 1e3);
                    Printf.sprintf "%.1f" (hit_s *. 1e6);
                    Printf.sprintf "%.0fx" (miss_s /. hit_s);
                  ]))
          Cgra_kernels.Kernels.all
      in
      print_string
        (Cgra_util.Text_table.render_aligned
           ~header:
             [ "kernel"; "artifact B"; "miss ms"; "hit us"; "miss/hit" ]
           ~align:[ `L; `R; `R; `R; `R ] ~rows);
      (* warm throughput: 4 clients, every request a store hit *)
      let clients = 4 and per_client = 50 in
      let spec =
        match
          Serve.Key.spec_of_bundled ~slug:"fir" ~config:Cgra_arch.Config.HET2
            ~flow:Cgra_core.Flow_config.context_aware ~opt:Serve.Key.Default
            ~faults:[]
        with
        | Ok s -> s
        | Error e ->
          Printf.eprintf "serve_report: %s\n" e;
          exit 1
      in
      let (), wall =
        time (fun () ->
            List.init clients (fun _ ->
                Domain.spawn (fun () ->
                    for _ = 1 to per_client do
                      ignore (request_bytes spec)
                    done))
            |> List.iter Domain.join)
      in
      Printf.printf
        "\nthroughput: %d clients x %d warm requests in %.2f s = %.0f req/s\n"
        clients per_client wall
        (float_of_int (clients * per_client) /. wall))

(* ---- resilience_report ------------------------------------------------- *)

(* Behaviour of the supervision layer under induced failure (a command,
   not an artifact: wall-clock numbers are machine-dependent).  Three
   sections: a deadline sweep on a deliberately hard request (the SAT
   backend on matm@HOM32 — tens of seconds uncancelled), typed
   backpressure under an overloaded compute queue, and crash recovery —
   store debris swept at restart, warm hits byte-identical across the
   "crash".  [--quick] trims the sweep for CI smoke. *)
let run_resilience_report ~quick () =
  let module Serve = Cgra_serve in
  let module FC = Cgra_core.Flow_config in
  let tmp tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgra-resilience-%d-%s" (Unix.getpid ()) tag)
  in
  let time f =
    let t0 = Cgra_util.Clock.now () in
    let r = f () in
    (r, Cgra_util.Clock.elapsed_s t0)
  in
  let spec_exn ~slug ~config ~flow =
    match
      Serve.Key.spec_of_bundled ~slug ~config ~flow ~opt:Serve.Key.Default
        ~faults:[]
    with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "resilience_report: %s\n" e;
      exit 1
  in
  let slow_spec ~seed =
    spec_exn ~slug:"matm" ~config:Cgra_arch.Config.HOM32
      ~flow:{ FC.context_aware with FC.backend = FC.Exact; seed }
  in
  let fast_spec = spec_exn ~slug:"fir" ~config:Cgra_arch.Config.HET2
      ~flow:FC.context_aware
  in
  let with_server ?deadline_ms ?queue_limit ~tag ~jobs f =
    let socket_path = tmp (tag ^ ".sock") in
    let server =
      Serve.Server.start
        {
          Serve.Server.socket_path;
          tcp_port = None;
          store_root = Some (tmp (tag ^ ".store"));
          jobs = Some jobs;
          verbose = false;
          deadline_ms;
          queue_limit;
          io_timeout_s = Some 5.0;
        }
    in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.request_stop server;
        Serve.Server.wait server)
      (fun () -> f server (Serve.Client.Unix_socket socket_path))
  in
  let outcome_of = function
    | Ok (Serve.Client.Artifact { bytes; _ }) ->
      Printf.sprintf "artifact (%d B)" (String.length bytes)
    | Ok (Serve.Client.Unmappable _) -> "unmappable"
    | Ok (Serve.Client.Timed_out { where }) -> "timed out @ " ^ where
    | Error e -> "error: " ^ Serve.Client.map_error_to_string e
  in
  (* 1. deadline sweep: the request must come back typed, promptly, and
     never be cached — each probe recomputes *)
  let sweep = if quick then [ 200 ] else [ 100; 300; 1000 ] in
  let rows =
    List.map
      (fun deadline_ms ->
        with_server ~tag:(Printf.sprintf "dl%d" deadline_ms) ~jobs:2
          (fun _server ep ->
            let r, s =
              time (fun () ->
                  Serve.Client.map ~fallback:false ~deadline_ms ep
                    (slow_spec ~seed:0))
            in
            [
              string_of_int deadline_ms;
              Printf.sprintf "%.0f" (s *. 1e3);
              outcome_of r;
            ]))
      sweep
  in
  print_string
    (Cgra_util.Text_table.render_aligned
       ~header:[ "deadline ms"; "response ms"; "outcome (matm@HOM32 exact)" ]
       ~align:[ `R; `R; `L ] ~rows);
  (* 2. overload: distinct slow cache-missing keys against one worker;
     everything past the queue limit must shed, typed, immediately *)
  let clients = if quick then 4 else 6 in
  with_server ~tag:"shed" ~jobs:1 ~queue_limit:2 ~deadline_ms:1000
    (fun _server ep ->
      let results = Array.make clients (Error "unset") in
      let (), wall =
        time (fun () ->
            let threads =
              List.init clients (fun i ->
                  Thread.create
                    (fun () ->
                      results.(i) <-
                        (match
                           Serve.Client.map ~fallback:false ep
                             (slow_spec ~seed:(i + 1))
                         with
                        | Ok (Serve.Client.Timed_out _) -> Ok "timed out"
                        | Ok _ -> Ok "served"
                        | Error (Serve.Client.Rejected _) -> Ok "shed"
                        | Error (Serve.Client.Unreachable _) ->
                          Error "unreachable"))
                    ())
            in
            List.iter Thread.join threads)
      in
      let count tag =
        Array.to_list results
        |> List.filter (( = ) (Ok tag))
        |> List.length
      in
      print_string
        (Cgra_util.Text_table.render_aligned
           ~header:
             [ "clients"; "queue limit"; "timed out"; "shed"; "wall s" ]
           ~align:[ `R; `R; `R; `R; `R ]
           ~rows:
             [
               [
                 string_of_int clients;
                 "2";
                 string_of_int (count "timed out");
                 string_of_int (count "shed");
                 Printf.sprintf "%.2f" wall;
               ];
             ]));
  (* 3. crash recovery: compute, plant the debris a SIGKILLed writer
     leaves, restart on the same store, and check the sweep plus a
     byte-identical warm hit *)
  let root = tmp "crash.store" in
  let socket_path = tmp "crash.sock" in
  let config =
    {
      Serve.Server.socket_path;
      tcp_port = None;
      store_root = Some root;
      jobs = Some 2;
      verbose = false;
      deadline_ms = None;
      queue_limit = None;
      io_timeout_s = None;
    }
  in
  let first = Serve.Server.start config in
  let md5_before, cold_ms =
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.request_stop first;
        Serve.Server.wait first)
      (fun () ->
        let r, s =
          time (fun () ->
              Serve.Client.map ~fallback:false
                (Serve.Client.Unix_socket socket_path) fast_spec)
        in
        match r with
        | Ok (Serve.Client.Artifact { bytes; _ }) ->
          (Digest.to_hex (Digest.string bytes), s *. 1e3)
        | other ->
          Printf.eprintf "resilience_report: fir did not map (%s)\n"
            (outcome_of other);
          exit 1)
  in
  (* the debris a writer killed mid-store-write would leave *)
  Out_channel.with_open_bin (Filename.concat root "tmp.1.0.0") (fun oc ->
      Out_channel.output_string oc "torn");
  let swept = Serve.Store.scan (Serve.Store.open_ ~root ()) in
  let second = Serve.Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop second;
      Serve.Server.wait second;
      ignore (Serve.Store.clear (Serve.Server.store second)))
    (fun () ->
      let r, s =
        time (fun () ->
            Serve.Client.map ~fallback:false
              (Serve.Client.Unix_socket socket_path) fast_spec)
      in
      let identical, cached =
        match r with
        | Ok
            (Serve.Client.Artifact
               { bytes; source = Serve.Client.Daemon { cached }; _ }) ->
          (Digest.to_hex (Digest.string bytes) = md5_before, cached)
        | _ -> (false, false)
      in
      print_string
        (Cgra_util.Text_table.render_aligned
           ~header:
             [
               "cold ms";
               "orphans swept";
               "warm ms";
               "warm cached";
               "bytes identical";
             ]
           ~align:[ `R; `R; `R; `R; `R ]
           ~rows:
             [
               [
                 Printf.sprintf "%.0f" cold_ms;
                 string_of_int swept.Serve.Store.orphans;
                 Printf.sprintf "%.1f" (s *. 1e3);
                 string_of_bool cached;
                 string_of_bool identical;
               ];
             ]);
      if not identical then begin
        Printf.eprintf
          "resilience_report: artifact changed across the restart\n";
        exit 1
      end)

(* ---- command line ------------------------------------------------------ *)

let run (params : Figures.params) target =
  let warm () = Cgra_exp.Runner.warm ?jobs:params.jobs ~opt:params.opt () in
  match target with
  | None ->
    warm ();
    run_all_artifacts params;
    run_micro params;
    run_ablations ()
  | Some `All ->
    warm ();
    run_all_artifacts params
  | Some `Micro -> run_micro params
  | Some `Ablation -> run_ablations ()
  | Some `Alloc_check -> run_alloc_check ()
  | Some `Serve_report -> run_serve_report ()
  | Some `Resilience_report -> run_resilience_report ~quick:params.quick ()
  | Some `List -> List.iter print_endline Figures.artifact_names
  | Some (`Artifact render) ->
    (* a single artifact computes only its own cells *)
    print_artifact params render

open Cmdliner

let target =
  let commands =
    [ ("all", `All); ("micro", `Micro); ("ablation", `Ablation);
      ("alloc_check", `Alloc_check); ("serve_report", `Serve_report);
      ("resilience_report", `Resilience_report); ("list", `List) ]
  in
  let targets =
    List.map (fun (name, render) -> (name, `Artifact render))
      Figures.all_artifacts
    @ commands
  in
  Arg.(value & pos 0 (some (enum targets)) None
       & info [] ~docv:"TARGET"
           ~doc:("An artifact name ($(b,main.exe list) prints them) or "
                 ^ doc_alts_enum commands
                 ^ ".  Without a target, every paper artifact is \
                    regenerated, then the micro-benchmarks and the \
                    ablations run."))

(* Campaign sizes must be positive: a zero or negative count would
   silently render an empty table. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let protection =
  let module P = Cgra_arch.Protection in
  let parse s =
    match P.profile_of_string s with
    | Some p -> Ok p
    | None ->
      Error (`Msg (Printf.sprintf "unknown value %S (valid: %s)" s P.valid_values))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (P.profile_to_string p))

let params =
  let d = Figures.default in
  let opt =
    Arg.(value & flag
         & info [ "opt" ]
             ~doc:"Map every harness cell from the cgra_opt-optimized \
                   kernels (naive lowering + differential-verified pass \
                   pipeline) instead of the default inline-optimized \
                   lowering.  $(b,fig5) and $(b,opt_report) keep their own \
                   CDFGs and ignore the flag.")
  in
  let trials =
    Arg.(value & opt (some positive) None
         & info [ "trials" ] ~docv:"N"
             ~doc:(Printf.sprintf
                     "Size the fault_report and protection_report injection \
                      campaigns (default %d per kernel or cell) and the \
                      repair_report survivability campaigns (default %d per \
                      cell).  The tables are deterministic for a given \
                      $(docv) at any --jobs."
                     d.fault_trials d.repair_trials))
  in
  let faults =
    Arg.(value & opt positive d.repair_faults
         & info [ "faults" ] ~docv:"N"
             ~doc:"Random permanent faults each repair_report trial \
                   injects.  Per-cell campaign wall-clock goes to stderr.")
  in
  let protect =
    Arg.(value & opt protection d.protection
         & info [ "protect" ] ~docv:"LEVEL"
             ~doc:"Run the fault_report campaigns through the \
                   context-memory ECC fetch path ($(b,none), $(b,parity), \
                   $(b,secded), or a per-size-class csv such as \
                   cm64=secded,cm32=parity,cm16=none) and add the \
                   detected/corrected columns.  protection_report always \
                   sweeps all three uniform levels.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Shrink the optimality_report grid to FIR and FFT on \
                   HOM64 and HOM32, and trim resilience_report's sweeps, \
                   so CI can smoke them.  Quick and full tables differ.")
  in
  let jobs =
    Arg.(value & opt (some int) d.jobs
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Warm the whole experiment grid on $(docv) domains \
                   before $(b,all) or the run without a target, and run the \
                   fault, protection and repair campaigns' trials on them \
                   (default: the machine's recommended domain count; 0 or \
                   less runs sequentially).  Artifact output is \
                   byte-identical at any $(docv).")
  in
  let make opt trials repair_faults protection quick jobs =
    { Figures.opt = (if opt then Cgra_exp.Toolchain.Optimized else d.opt);
      fault_trials = Option.value trials ~default:d.fault_trials;
      repair_trials = Option.value trials ~default:d.repair_trials;
      repair_faults; protection; quick; jobs }
  in
  Term.(const make $ opt $ trials $ faults $ protect $ quick $ jobs)

let () =
  let man =
    [ `S Manpage.s_description;
      `P "$(b,alloc_check) maps FIR on HOM64 with the basic flow and MatM \
          on HET2 with the full flow, and fails if the allocated words per \
          binding attempt regress past their recorded budgets, then simulates FIR on HET2, unprotected and \
          SECDED, and fails if the minor words per simulated cycle regress \
          past theirs, then maps FIR on HOM64 with the exact backend and \
          fails if the words allocated per SAT probe regress past theirs.";
      `P "$(b,serve_report) and $(b,resilience_report) measure an \
          in-process cgra_mapd daemon; their wall-clock numbers are \
          host-dependent.  Every artifact is deterministic." ]
  in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on a usage error or a failed check." ]
  in
  let cmd =
    Cmd.v
      (Cmd.info "main.exe" ~man ~exits
         ~doc:"regenerate the paper's tables and figures, run the \
               micro-benchmarks, ablations and smoke checks")
      Term.(const run $ params $ target)
  in
  exit (match Cmd.eval_value ~catch:false cmd with Ok _ -> 0 | Error _ -> 1)
