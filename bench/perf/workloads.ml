(* The three workloads.  Each one sets up (timed, repeated, median kept),
   runs its timed part for the requested number of seconds in whole
   rounds, checks every output against a reference that does not come
   from the code under test, and returns its measurements.  Times are
   CPU time scaled to a reference host by probes of the host's speed
   taken beside the work (see [Hostspeed]).

   Layers are timed from outside: a span around each call the benchmark
   makes into a layer's public function, and counters read from what
   those functions already return.  Nothing inside the program is
   instrumented. *)

module K = Cgra_kernels.Kernel_def
module FC = Cgra_core.Flow_config
module Config = Cgra_arch.Config
module Rng = Cgra_util.Rng
module Clock = Cgra_util.Clock
module Serve = Cgra_serve

(* ---- shared state of one run ------------------------------------------ *)

type ctx = {
  run : Cli.run;
  tr : Span.t;
  mutable attempted : int;
  mutable failed : int;
  det : (string, float) Hashtbl.t;
      (** counters over the reference round (round 0): deterministic for
          a given seed *)
  total : (string, float) Hashtbl.t;  (** counters over the whole timed part *)
  fp : Buffer.t;  (** fingerprint material: deterministic outputs only *)
  hs : Hostspeed.t;  (** probes of the host's speed, taken beside the work *)
}

let make_ctx run =
  {
    run;
    tr = Span.create ~enabled:run.Cli.trace;
    attempted = 0;
    failed = 0;
    det = Hashtbl.create 32;
    total = Hashtbl.create 32;
    fp = Buffer.create 1024;
    hs = Hostspeed.create ();
  }

(* One checked operation: [ok = false] is a failed check, reported on
   stderr and counted against [attempted]. *)
let check ctx ok fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.attempted <- ctx.attempted + 1;
      if not ok then begin
        ctx.failed <- ctx.failed + 1;
        prerr_endline ("perf: check failed: " ^ msg)
      end)
    fmt

let bump tbl name x =
  Hashtbl.replace tbl name (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))

(* Counters go to the whole-run table, and also to the deterministic
   table while the reference round runs.  Set-up ([round < 0]) counts in
   neither. *)
let count ctx ~round name x =
  if round >= 0 then begin
    bump ctx.total name x;
    if round = 0 then bump ctx.det name x
  end

(* Keeps the largest value seen in the timed part. *)
let maximize ctx ~round name x =
  if round >= 0 then
    let prev = Option.value ~default:x (Hashtbl.find_opt ctx.total name) in
    Hashtbl.replace ctx.total name (Float.max prev x)

let note ctx fmt = Printf.ksprintf (fun s -> Buffer.add_string ctx.fp (s ^ "\n")) fmt

(* Every time in a result but [wall_s] and [cpu_s] is CPU time scaled to
   the reference host (see [Hostspeed]). *)
type result = {
  setup_s : float;  (** median over the set-up repetitions *)
  wall_s : float;  (** length of the timed part *)
  cpu_s : float;
      (** CPU time of this process over the timed part: well below
          [wall_s] means other tenants held the host's cores *)
  units : int;  (** cells or rounds completed in the timed part *)
  samples : int;  (** latency samples behind [p50_ms] and [p90_ms] *)
  p50_ms : float;
  p90_ms : float;
  throughput : float;
  peak_rss_mb : float;
  quality : (string * float) list;  (** the code_* and mapped_cells metrics *)
  extra : (string * float) list;  (** workload-specific per-layer metrics *)
}

(* VmHWM of this process. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt v " %f kB" (fun kb -> kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:nan

(* Repeats [f] at least three times and until two seconds of CPU time
   have gone into it, at most nine times, probing the host's speed before
   each repetition; returns each repetition's start on the wall clock and
   its CPU time, and the last value.  Set-up runs more than once so that
   one slow start does not decide [setup_s], and a cheap set-up runs more
   often than a costly one because one slow start moves it more. *)
let timed_setup ctx f =
  let min_reps, max_reps, min_s = if ctx.run.Cli.quick then (1, 1, 0.0) else (3, 9, 2.0) in
  let rec go reps spent last =
    let n = List.length reps in
    if n >= max_reps || (n >= min_reps && spent >= min_s) then (reps, Option.get last)
    else begin
      Hostspeed.probe ctx.hs;
      let at = Clock.now () and c0 = Hostspeed.cpu () in
      let v = f () in
      let d = Hostspeed.cpu () -. c0 in
      go ((at, d) :: reps) (spent +. d) (Some v)
    end
  in
  go [] 0.0 None

(* One unit of work (a cell, a fault round), after a probe of the host's
   speed if one is due: returns the unit's start on the wall clock, its
   CPU time, and its value. *)
let timed_unit ctx f =
  Hostspeed.tick ctx.hs;
  let at = Clock.now () and c0 = Hostspeed.cpu () in
  let v = f () in
  (at, Hostspeed.cpu () -. c0, v)

(* Set-up repetitions or units, each a start on the wall clock and a CPU
   time, scaled to the reference host; call it after the timed part, so
   that every probe near a unit counts. *)
let scaled ctx units =
  let slowdown = Hostspeed.slowdown ctx.hs in
  Array.of_list (List.map (fun (at, d) -> d /. slowdown ~at) units)

(* Runs [round r] for r = 0, 1, ... while the timed part has wall time
   left, always finishing the round it started, so every run covers each
   input equally often.  Returns the wall time and the CPU time of the
   timed part. *)
let timed_rounds ctx round =
  let t0 = Clock.now () and c0 = Hostspeed.cpu () in
  let rec go r =
    if r = 0 || Clock.elapsed_s t0 < ctx.run.Cli.seconds then begin
      round r;
      go (r + 1)
    end
  in
  go 0;
  (Clock.elapsed_s t0, Hostspeed.cpu () -. c0)

(* Work per second of the median round: a burst of contention the
   scaling missed moves the rounds it covers, not the rate, where the
   mean would fold it in. *)
let round_rate ~per_round round_times = per_round /. Stats.median round_times

let kernel slug =
  match Cgra_kernels.Kernels.by_slug slug with
  | Some k -> k
  | None -> invalid_arg ("unknown kernel " ^ slug)

(* Shuffled copy of [xs]; the order is part of the generated input. *)
let shuffled ~seed key xs =
  let a = Array.of_list xs in
  Rng.shuffle (Rng.create (Rng.seed_of ~base:seed key)) a;
  Array.to_list a

(* ---- one cold compile: source to checked artifact ---------------------- *)

(* What a user of the generated code sees: run time, code size, energy,
   and the artifact's MD5. *)
type code = { cycles : int; ctx_words : int; energy_pj : float; digest : string }

type verdict = Mapped of Cgra_asm.Assemble.program * code | Unmapped of string

let layer_of_backend = function
  | FC.Exact -> "core.exact"
  | FC.Beam | FC.Portfolio -> "core.beam"

(* The stages of [Cgra_serve.Compute.run], plus the validator [Runner]
   applies, each in its own span under the cell's root span.  Nothing is
   memoised: every call compiles from source. *)
let compile_cell ctx ~tr ~round ~req ~flow (k, golden) config =
  let span ~parent layer f = Span.with_span tr ~parent ~layer ~req (fun _ -> f ()) in
  Span.with_span tr ~layer:"bench.unit" ~req @@ fun parent ->
  let span layer f = span ~parent layer f in
  let cell = Printf.sprintf "%s@%s" k.K.slug (Config.to_string config) in
  match span "lang" (fun () -> Cgra_lang.Compile.compile k.K.source) with
  | Error e ->
    check ctx false "%s: frontend: %s" cell (Cgra_lang.Compile.error_to_string e);
    Unmapped "frontend"
  | Ok cdfg -> (
    count ctx ~round "lang.nodes" (float (Cgra_ir.Cdfg.node_count cdfg));
    let cgra = Config.cgra config in
    let exact = flow.FC.backend = FC.Exact in
    match span (layer_of_backend flow.FC.backend) (fun () -> Cgra_core.Flow.run ~config:flow cgra cdfg) with
    | Error f ->
      count ctx ~round (if exact then "exact.conflicts" else "search.attempts")
        (float f.Cgra_core.Flow.work);
      Unmapped f.Cgra_core.Flow.reason
    | Ok (mapping, stats) -> (
      let module S = Cgra_core.Search in
      let sum f = float (List.fold_left (fun a b -> a + f b) 0 stats.Cgra_core.Flow.search) in
      if exact then begin
        count ctx ~round "exact.probes" (sum (fun b -> b.S.rounds));
        count ctx ~round "exact.conflicts" (sum (fun b -> b.S.attempts))
      end
      else begin
        count ctx ~round "search.attempts" (float stats.Cgra_core.Flow.work);
        count ctx ~round "search.block_attempts" (sum (fun b -> b.S.attempts));
        count ctx ~round "search.children" (sum (fun b -> b.S.children));
        count ctx ~round "search.route_failures" (sum (fun b -> b.S.route_failures));
        count ctx ~round "search.acmap_kills" (sum (fun b -> b.S.acmap_kills));
        count ctx ~round "search.ecmap_kills" (sum (fun b -> b.S.ecmap_kills));
        count ctx ~round "search.prune_survivors" (sum (fun b -> b.S.prune_survivors));
        count ctx ~round "search.retries" (float stats.Cgra_core.Flow.retries_used);
        count ctx ~round "search.alloc_words"
          (List.fold_left (fun a b -> a +. b.S.alloc_words) 0.0 stats.Cgra_core.Flow.search);
        List.iter
          (fun b -> maximize ctx ~round "search.block_ms_max" (b.S.wall_seconds *. 1e3))
          stats.Cgra_core.Flow.search
      end;
      match span "asm" (fun () -> Cgra_asm.Assemble.assemble mapping) with
      | exception Cgra_asm.Assemble.Assembly_error e ->
        check ctx false "%s: assembler: %s" cell e;
        Unmapped ("assembly: " ^ e)
      | program -> (
        let violations = span "verify.validator" (fun () -> Cgra_verify.Validator.check program) in
        count ctx ~round "validate.violations" (float (List.length violations));
        check ctx (violations = []) "%s: validator: %s" cell
          (String.concat "; " (List.map Cgra_verify.Validator.to_string violations));
        let mem = K.fresh_mem k in
        match span "sim" (fun () -> Cgra_sim.Simulator.run program ~mem) with
        | exception Cgra_sim.Simulator.Sim_error e ->
          check ctx false "%s: simulator: %s" cell (Cgra_sim.Simulator.error_to_string e);
          Unmapped "simulation failed"
        | sim ->
          check ctx (mem = golden) "%s: simulated memory differs from the golden model" cell;
          count ctx ~round "sim.cycles" (float sim.Cgra_sim.Simulator.cycles);
          let energy = span "power" (fun () -> Cgra_power.Energy.cgra cgra sim) in
          let bytes =
            span "serve.artifact" (fun () ->
                match
                  Serve.Key.spec_of_bundled ~slug:k.K.slug ~config ~flow
                    ~opt:Serve.Key.Default ~faults:[]
                with
                | Error e -> failwith e
                | Ok spec ->
                  Serve.Artifact.render ~key_digest:(Serve.Key.digest spec) ~spec
                    program sim energy)
          in
          count ctx ~round "artifact.bytes" (float (String.length bytes));
          Mapped
            ( program,
              {
                cycles = sim.Cgra_sim.Simulator.cycles;
                ctx_words = Array.fold_left ( + ) 0 (Cgra_asm.Assemble.context_words program);
                energy_pj = energy.Cgra_power.Energy.total_pj;
                digest = Serve.Artifact.digest bytes;
              } ))))

let quality_of codes =
  (* Summed in sorted order, so the float total does not depend on the
     order the cells ran in. *)
  let sum f = List.fold_left ( +. ) 0.0 (List.sort Float.compare (List.map f codes)) in
  [
    ("code_cycles", sum (fun c -> float c.cycles));
    ("code_ctx_words", sum (fun c -> float c.ctx_words));
    ("code_energy_nj", sum (fun c -> c.energy_pj /. 1e3));
    ("mapped_cells", float (List.length codes));
  ]

let codes_of verdicts =
  List.filter_map (function Mapped (_, c) -> Some c | Unmapped _ -> None) verdicts

let verdict_line = function
  | Mapped (_, c) -> "mapped " ^ c.digest
  | Unmapped reason -> "unmapped " ^ reason

(* The full context-aware flow with its default seed, as `cgra_map map`
   runs it.  Set-up maps with it, so set-up does the same work whatever
   the run's seed; the timed part draws a flow seed per cell. *)
let default_flow ~backend =
  {
    FC.context_aware with
    FC.backend;
    expand_jobs = 1;
    retries = (if backend = FC.Exact then 0 else FC.context_aware.FC.retries);
  }

let flow_for ~backend ~seed key = { (default_flow ~backend) with FC.seed = Rng.seed_of ~base:seed key }

(* ---- beam_grid and exact_grid ------------------------------------------ *)

let grid_kernels = [ "fir"; "convolution"; "sep_filter"; "fft"; "dc_filter" ]

(* Known answers, from EXPERIMENTS.md.  The full beam flow maps every
   cell but FFT on HOM32, the flow's known unmappable cell.  The exact
   backend's move-free encoding maps the other four kernels on every
   configuration and proves dc_filter infeasible on every one. *)
let beam_must_fail slug config = slug = "fft" && config = Config.HOM32
let exact_must_be_unsat slug = slug = "dc_filter"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The exact backend reports a kernel-level infeasibility proof only in
   its failure message; [Flow.run] tells a proof from a dead end by the
   same phrase. *)
let proved_unsat reason = contains reason "proved UNSAT"

(* Every exact cell must reach its known answer.  Giving up — a spent
   conflict budget, no mapping under the committed context — is a wrong
   verdict on every cell, dc_filter's included. *)
let check_exact_verdict ctx ~what slug v =
  let want_unsat = exact_must_be_unsat slug in
  let ok =
    match v with
    | Mapped _ -> not want_unsat
    | Unmapped reason -> want_unsat && proved_unsat reason
  in
  check ctx ok "%s: exact verdict %s, expected %s" what (verdict_line v)
    (if want_unsat then "proved UNSAT" else "mapped")

let check_beam_verdict ctx ~what slug config mapped =
  let want_fail = beam_must_fail slug config in
  check ctx (mapped <> want_fail) "%s: %s, expected %s" what
    (if mapped then "mapped" else "unmapped")
    (if want_fail then "unmapped" else "mapped")

let grid ctx ~backend =
  let seed = ctx.run.Cli.seed in
  let exact = backend = FC.Exact in
  let inputs = List.map (fun s -> let k = kernel s in (k, K.run_golden k)) grid_kernels in
  let cells = List.concat_map (fun kg -> List.map (fun c -> (kg, c)) Config.all) inputs in
  let untraced = Span.create ~enabled:false in
  (* Set-up compiles one untimed cell per kernel: code paging in and
     heap growth happen there, not in the first timed round. *)
  let setup, () =
    timed_setup ctx (fun () ->
        List.iter
          (fun kg ->
            ignore
              (compile_cell ctx ~tr:untraced ~round:(-1) ~req:(-1)
                 ~flow:(default_flow ~backend) kg Config.HOM64))
          inputs)
  in
  (* every cell's start and CPU time, newest first *)
  let timed = ref [] and reference = ref [] and req = ref 0 in
  let wall_s, cpu_s =
    timed_rounds ctx (fun round ->
        List.iter
          (fun (((k, _) as kg), config) ->
            let key = Printf.sprintf "%s/%s/%d" k.K.slug (Config.to_string config) round in
            let at, d, v =
              timed_unit ctx (fun () ->
                  compile_cell ctx ~tr:ctx.tr ~round ~req:!req ~flow:(flow_for ~backend ~seed key) kg
                    config)
            in
            timed := (at, d) :: !timed;
            incr req;
            if exact then begin
              (match v with
               | Unmapped r when proved_unsat r -> count ctx ~round "exact.unsat_verdicts" 1.0
               | Unmapped _ | Mapped _ -> ());
              check_exact_verdict ctx ~what:key k.K.slug v
            end
            else
              check_beam_verdict ctx ~what:key k.K.slug config
                (match v with Mapped _ -> true | Unmapped _ -> false);
            if round = 0 then begin
              reference := v :: !reference;
              note ctx "%s/%s %s" k.K.slug (Config.to_string config) (verdict_line v)
            end)
          (shuffled ~seed (Printf.sprintf "order/%d" round) cells))
  in
  let latencies = scaled ctx (List.rev !timed) in
  let per_round = List.length cells in
  let pct p = 1e3 *. Stats.windowed_percentile ~window:per_round latencies p in
  (* a round's time: the sum of its cells' *)
  let round_times =
    Array.init (Array.length latencies / per_round) (fun r ->
        Array.fold_left ( +. ) 0.0 (Array.sub latencies (r * per_round) per_round))
  in
  {
    setup_s = Stats.median (scaled ctx setup);
    wall_s;
    cpu_s;
    units = Array.length latencies;
    samples = Array.length latencies;
    p50_ms = pct 0.5;
    p90_ms = pct 0.9;
    throughput = round_rate ~per_round:(float per_round) round_times;
    peak_rss_mb = peak_rss_mb ();
    quality = quality_of (codes_of !reference);
    extra = [];
  }

(* ---- fault_campaign ---------------------------------------------------- *)

(* One round runs a chunk of [chunk_trials] trials for every kernel at
   both protection levels.  The round is the unit of latency: chunk
   times differ tenfold between kernels and levels, so a percentile over
   single chunks would land on the edge between two of them and jump
   from run to run, while a round holds every kind once. *)
let chunk_trials = 10

(* About a second of rounds: the window the latency percentiles are
   taken over before their median across the run. *)
let rounds_per_window = 10

(* Two protection levels per kernel: unprotected with mixed CM, CRF and
   RF upsets, and SECDED-protected context memory under CM-only upsets,
   where no upset may escape. *)
let levels = [ ("none", None); ("secded", Some Cgra_arch.Protection.secded) ]

let fault_campaign ctx =
  let module F = Cgra_verify.Fault in
  let seed = ctx.run.Cli.seed in
  let untraced = Span.create ~enabled:false in
  let setup, programs =
    timed_setup ctx (fun () ->
        List.map
          (fun k ->
            let v =
              compile_cell ctx ~tr:untraced ~round:(-1) ~req:(-1)
                ~flow:(default_flow ~backend:FC.Beam) (k, K.run_golden k) Config.HET2
            in
            check ctx (match v with Mapped _ -> true | Unmapped _ -> false)
              "%s@HET2: the full flow must map every kernel (%s)" k.K.slug (verdict_line v);
            (k, v))
          (List.map kernel grid_kernels))
  in
  let programs =
    List.filter_map (function k, Mapped (p, c) -> Some (k, p, c) | _, Unmapped _ -> None) programs
  in
  let chunks = List.concat_map (fun p -> List.map (fun l -> (p, l)) levels) programs in
  (* per level: every chunk's start and CPU time *)
  let per_level = Hashtbl.create 2 in
  let chunk ~round ~parent ((k, program, _), (level, protect)) =
    let key = Printf.sprintf "%s/HET2/%s" k.K.slug level in
    let at = Clock.now () and c0 = Hostspeed.cpu () in
    let c =
      Span.with_span ctx.tr ~parent ~layer:"verify.fault" ~req:round (fun _ ->
          F.run_campaign ~jobs:1 ?protect ~cm_only:(protect <> None)
            ~seed:(Rng.seed_of ~base:seed (Printf.sprintf "%s/%d" key round))
            ~trials:chunk_trials ~key
            ~fresh_mem:(fun () -> K.fresh_mem k)
            program)
    in
    Hashtbl.add per_level level (at, Hostspeed.cpu () -. c0);
    let s = c.F.summary in
    let escapes = s.F.wrong_output + s.F.crash + s.F.hang in
    check ctx
      (s.F.trials = chunk_trials && s.F.masked + escapes + s.F.detected + s.F.corrected = s.F.trials)
      "%s round %d: outcome counts do not add up to %d trials" key round chunk_trials;
    if protect <> None then
      check ctx (escapes = 0) "%s round %d: %d CM upsets escaped SECDED" key round escapes;
    List.iter
      (fun (name, n) -> count ctx ~round name (float n))
      [ ("fault.masked", s.F.masked); ("fault.wrong", s.F.wrong_output);
        ("fault.crash", s.F.crash); ("fault.hang", s.F.hang);
        ("fault.corrected", s.F.corrected); ("fault.detected", s.F.detected) ];
    if round = 0 then
      note ctx "%s masked=%d wrong=%d crash=%d hang=%d corrected=%d detected=%d" key
        s.F.masked s.F.wrong_output s.F.crash s.F.hang s.F.corrected s.F.detected
  in
  let timed = ref [] in
  let wall_s, cpu_s =
    timed_rounds ctx (fun round ->
        let at, d, () =
          timed_unit ctx (fun () ->
              Span.with_span ctx.tr ~layer:"bench.unit" ~req:round (fun parent ->
                  List.iter (chunk ~round ~parent)
                    (shuffled ~seed (Printf.sprintf "order/%d" round) chunks)))
        in
        timed := (at, d) :: !timed)
  in
  let round_times = scaled ctx (List.rev !timed) in
  let pct p = 1e3 *. Stats.windowed_percentile ~window:rounds_per_window round_times p in
  let trials_per_round = float (List.length chunks * chunk_trials) in
  {
    setup_s = Stats.median (scaled ctx setup);
    wall_s;
    cpu_s;
    units = Array.length round_times;
    samples = Array.length round_times;
    p50_ms = pct 0.5;
    p90_ms = pct 0.9;
    throughput = round_rate ~per_round:trials_per_round round_times;
    peak_rss_mb = peak_rss_mb ();
    quality = quality_of (List.map (fun (_, _, c) -> c) programs);
    extra =
      List.map
        (fun (level, _) ->
          let chunks = scaled ctx (Hashtbl.find_all per_level level) in
          let trials = Array.length chunks * chunk_trials in
          ("fault.ms_per_trial." ^ level, 1e3 *. Array.fold_left ( +. ) 0.0 chunks /. float trials))
        levels;
  }

(* ---- scratch files ---------------------------------------------------- *)

(* Span files go under the build directory of the working directory:
   the benchmark reads and writes nothing outside the checkout it runs
   in, and leaves nothing there that is not already ignored. *)
let scratch_root = Filename.concat "_build" "perf"

let scratch_path name =
  List.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    [ Filename.dirname scratch_root; scratch_root ];
  Filename.concat scratch_root name

let run ctx =
  match ctx.run.Cli.workload with
  | "beam_grid" -> grid ctx ~backend:FC.Beam
  | "exact_grid" -> grid ctx ~backend:FC.Exact
  | "fault_campaign" -> fault_campaign ctx
  | w -> invalid_arg ("unknown workload " ^ w)
