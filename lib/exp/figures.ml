module K = Cgra_kernels.Kernel_def
module Config = Cgra_arch.Config
module M = Cgra_core.Mapping
module FC = Cgra_core.Flow_config
module Flow = Cgra_core.Flow
module T = Cgra_util.Text_table

let configs = Config.all

(* An artifact whose preconditions do not hold (e.g. a kernel the paper
   maps refuses to map) — a harness bug, reported as a typed error. *)
exception Artifact_error of { artifact : string; reason : string }

let () =
  Printexc.register_printer (function
    | Artifact_error { artifact; reason } ->
      Some (Printf.sprintf "Figures.Artifact_error (%s: %s)" artifact reason)
    | _ -> None)

let artifact_error artifact fmt =
  Printf.ksprintf (fun reason -> raise (Artifact_error { artifact; reason })) fmt

(* A mapped harness cell's simulated cycles and energy. *)
let cycles (_, x) = x.Toolchain.sim.Cgra_sim.Simulator.cycles
let energy_uj (_, x) =
  Cgra_power.Energy.(to_uj x.Toolchain.energy.total_pj)

type params = {
  opt : Toolchain.opt;
  fault_trials : int;
  repair_trials : int;
  repair_faults : int;
  protection : Cgra_arch.Protection.profile;
  quick : bool;
  jobs : int option;
}

let default =
  {
    opt = Toolchain.Default;
    fault_trials = 120;
    repair_trials = 30;
    repair_faults = 2;
    protection = Cgra_arch.Protection.none;
    quick = false;
    jobs = None;
  }

let table1 (_ : params) =
  "Table I: context-memory configurations\n"
  ^ T.render
      ~header:
        [ "Config"; "Load-store tiles"; "Tiles CM64"; "Tiles CM32";
          "Tiles CM16"; "Total" ]
      ~rows:(Config.table1_rows ())

(* ---- Fig 2: context usage of the context-unaware mapping ------------ *)

let fig2 p =
  let k = Option.get (Cgra_kernels.Kernels.by_slug "matm") in
  match Runner.run_of ~opt:p.opt k Config.HOM64 FC.Basic with
  | Error f -> artifact_error "fig2" "basic matm must map: %s" f.Flow.reason
  | Ok (m, _) ->
    let usage = M.tile_usage m.Toolchain.mapping in
    let series =
      Array.to_list
        (Array.mapi
           (fun t u ->
             let cap =
               (Config.cgra Config.HOM64).Cgra_arch.Cgra.tiles.(t).cm_words
             in
             ( Printf.sprintf "T%02d%s" t (if t < 8 then "*" else " "),
               100.0 *. float_of_int (M.usage_total u) /. float_of_int cap ))
           usage)
    in
    let used =
      Array.fold_left (fun acc u -> acc + M.usage_total u) 0 usage
    in
    "Fig 2: context-memory usage (%) of the basic mapping, MatM on HOM64\n"
    ^ T.bar_chart ~title:"per-tile usage (* = load-store tile)" series
    ^ Printf.sprintf
        "total: %d of 1024 words used — the distribution, not the total,\n\
         is what forces oversized context memories.\n"
        used

(* ---- Fig 5: traversal study on FFT ---------------------------------- *)

let per_block_moves_pnops (m : M.t) =
  Array.map
    (fun bm ->
      Array.fold_left
        (fun (mv, pn) u -> (mv + u.M.moves, pn + u.M.pnops))
        (0, 0) (M.block_usage m.M.cgra bm))
    m.M.bbs

let fig5 (_ : params) =
  let k = Option.get (Cgra_kernels.Kernels.by_slug "fft") in
  let cdfg = K.cdfg k in
  let cgra = Config.cgra Config.HOM64 in
  let forward_cfg = FC.basic in
  let weighted_cfg = { forward_cfg with FC.traversal = FC.Weighted } in
  let map_with cfg =
    match Toolchain.map ~config:cfg cgra cdfg with
    | Ok r -> r.Toolchain.mapping
    | Error e ->
      artifact_error "fig5" "FFT should map on HOM64: %s"
        (Toolchain.error_to_string e)
  in
  let fwd = per_block_moves_pnops (map_with forward_cfg) in
  let wt = per_block_moves_pnops (map_with weighted_cfg) in
  let rows =
    List.init (Array.length fwd) (fun bi ->
        let mf, pf = fwd.(bi) and mw, pw = wt.(bi) in
        let ratio a b = if b = 0 then (if a = 0 then "1.00" else "-") else T.float_cell (float_of_int a /. float_of_int b) in
        [ cdfg.Cgra_ir.Cdfg.blocks.(bi).Cgra_ir.Cdfg.name;
          string_of_int mw; string_of_int mf; ratio mw mf;
          string_of_int pw; string_of_int pf; ratio pw pf ])
  in
  let total f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr in
  let mv_w = total fst wt and mv_f = total fst fwd in
  let pn_w = total snd wt and pn_f = total snd fwd in
  let pct a b = 100.0 *. (1.0 -. (float_of_int a /. float_of_int (max 1 b))) in
  "Fig 5: FFT per-block moves and pnops, weighted traversal vs forward\n"
  ^ T.render
      ~header:
        [ "Block"; "moves(WT)"; "moves(fwd)"; "ratio"; "pnops(WT)";
          "pnops(fwd)"; "ratio" ]
      ~rows
  ^ Printf.sprintf
      "totals: moves %d vs %d (%.0f%% reduction), pnops %d vs %d (%.0f%% reduction)\n"
      mv_w mv_f (pct mv_w mv_f) pn_w pn_f (pct pn_w pn_f)

(* ---- Figs 6-8: latency sweeps --------------------------------------- *)

let baseline_cycles p k =
  match Runner.run_of ~opt:p.opt k Config.HOM64 FC.Basic with
  | Ok r -> cycles r
  | Error f ->
    artifact_error "fig6-8" "basic mapping must fit HOM64 for %s: %s" k.K.name
      f.Flow.reason

let latency_figure ~title ~flow p =
  let rows =
    List.map
      (fun k ->
        let base = float_of_int (baseline_cycles p k) in
        let values =
          List.map
            (fun config ->
              match Runner.run_of ~opt:p.opt k config flow with
              | Ok r -> float_of_int (cycles r) /. base
              | Error _ -> 0.0)
            configs
        in
        (k.K.name, values))
      Runner.kernels
  in
  title ^ " (latency normalised to basic@HOM64; 0 = no mapping found)\n"
  ^ T.grouped_chart ~title:(FC.preset_label flow)
      ~group_labels:(List.map Config.to_string configs)
      rows

let fig6 = latency_figure ~title:"Fig 6" ~flow:FC.With_acmap
let fig7 = latency_figure ~title:"Fig 7" ~flow:FC.With_ecmap
let fig8 = latency_figure ~title:"Fig 8" ~flow:FC.Full

(* ---- Fig 9: compilation time ---------------------------------------- *)

(* Reported in deterministic search-effort units (binding attempts), not
   wall-clock seconds: effort is what the flow actually spends compile
   time on, and unlike seconds it is identical across hosts, system load
   and [--jobs] values — which keeps this artifact byte-reproducible.
   Measured wall-clock times are recorded in EXPERIMENTS.md. *)
let fig9 p =
  let mean_work flow =
    let samples =
      List.concat_map
        (fun k ->
          List.map
            (fun config ->
              Runner.run_of ~opt:p.opt k config flow
              |> Runner.compile_work_of |> float_of_int)
            configs)
        Runner.kernels
    in
    List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)
  in
  let base = mean_work FC.Basic in
  let series =
    List.map
      (fun flow -> (FC.preset_label flow, mean_work flow /. base))
      FC.presets
  in
  Printf.sprintf
    "Fig 9: average compilation effort normalised to the basic flow\n%s(basic flow mean: %.0f binding attempts per kernel-configuration;\n effort is deterministic, so this figure reproduces byte-for-byte)\n"
    (T.bar_chart ~title:"compile-effort ratio" series)
    base

(* ---- Fig 10: execution time vs CPU ---------------------------------- *)

let fig10 p =
  let header =
    [ "Kernel"; "CPU cyc"; "HOM64 basic"; "norm"; "HET1 aware"; "norm";
      "HET2 aware"; "norm" ]
  in
  let speedups = ref [] in
  let rows =
    List.map
      (fun k ->
        let cpu = (Runner.cpu_of k).Runner.cpu_sim.Cgra_cpu.Cpu_sim.cycles in
        let cell config flow =
          match Runner.run_of ~opt:p.opt k config flow with
          | Ok r ->
            let norm = float_of_int (cycles r) /. float_of_int cpu in
            if flow = FC.Full then speedups := (1.0 /. norm) :: !speedups;
            (string_of_int (cycles r), T.float_cell norm)
          | Error _ -> ("-", "-")
        in
        let b, bn = cell Config.HOM64 FC.Basic in
        let h1, h1n = cell Config.HET1 FC.Full in
        let h2, h2n = cell Config.HET2 FC.Full in
        [ k.K.name; string_of_int cpu; b; bn; h1; h1n; h2; h2n ])
      Runner.kernels
  in
  let sp = !speedups in
  let avg = List.fold_left ( +. ) 0.0 sp /. float_of_int (List.length sp) in
  let mx = List.fold_left Float.max 0.0 sp in
  let mn = List.fold_left Float.min infinity sp in
  "Fig 10: execution time normalised to the or1k-class CPU\n"
  ^ T.render ~header ~rows
  ^ Printf.sprintf
      "context-aware speed-up vs CPU: average %.1fx, max %.1fx, min %.1fx\n"
      avg mx mn

(* ---- Fig 11: area ---------------------------------------------------- *)

let fig11 (_ : params) =
  let module A = Cgra_power.Area in
  let cpu = A.cpu_breakdown () in
  let cpu_total = A.total cpu in
  let render_system name components =
    let rows =
      List.map
        (fun c -> [ c.A.label; Printf.sprintf "%.0f" c.A.um2 ])
        components
      @ [ [ "TOTAL";
            Printf.sprintf "%.0f (%.2fx CPU)" (A.total components)
              (A.total components /. cpu_total) ] ]
    in
    name ^ "\n" ^ T.render ~header:[ "Component"; "um^2" ] ~rows
  in
  "Fig 11: area comparison with the CPU system\n"
  ^ render_system "CPU system" cpu
  ^ String.concat ""
      (List.filter_map
         (fun cfg ->
           match cfg with
           | Config.HOM32 -> None (* as in the paper's figure *)
           | Config.HOM64 | Config.HET1 | Config.HET2 ->
             Some
               (render_system
                  ("CGRA " ^ Config.to_string cfg)
                  (A.cgra_breakdown (Config.cgra cfg))))
         configs)

(* ---- Table II: energy ------------------------------------------------ *)

let table2 p =
  let module E = Cgra_power.Energy in
  let gains_vs_basic = ref [] and gains_vs_cpu = ref [] in
  let rows =
    List.map
      (fun k ->
        let cpu_uj = E.to_uj (Runner.cpu_of k).Runner.cpu_energy.E.total_pj in
        let cgra config flow =
          match Runner.run_of ~opt:p.opt k config flow with
          | Ok r -> Some (energy_uj r)
          | Error _ -> None
        in
        let basic = cgra Config.HOM64 FC.Basic in
        let het1 = cgra Config.HET1 FC.Full in
        let het2 = cgra Config.HET2 FC.Full in
        let cell v =
          match v with
          | None -> [ "-"; "-" ]
          | Some uj ->
            [ T.float_cell uj; Printf.sprintf "%.0fx" (cpu_uj /. uj) ]
        in
        (match basic, het1 with
         | Some b, Some h ->
           gains_vs_basic := (b /. h) :: !gains_vs_basic;
           gains_vs_cpu := (cpu_uj /. h) :: !gains_vs_cpu
         | _, _ -> ());
        (match basic, het2 with
         | Some b, Some h -> gains_vs_basic := (b /. h) :: !gains_vs_basic
         | _, _ -> ());
        [ k.K.name; T.float_cell cpu_uj ] @ cell basic @ cell het1 @ cell het2)
      Runner.kernels
  in
  let stats l =
    let n = float_of_int (List.length l) in
    ( List.fold_left ( +. ) 0.0 l /. n,
      List.fold_left Float.max 0.0 l,
      List.fold_left Float.min infinity l )
  in
  let avg_b, max_b, min_b = stats !gains_vs_basic in
  let avg_c, max_c, min_c = stats !gains_vs_cpu in
  "Table II: energy in uJ (gain factors vs the CPU)\n"
  ^ T.render
      ~header:
        [ "Kernel"; "CPU"; "HOM64 basic"; "gain"; "HET1 aware"; "gain";
          "HET2 aware"; "gain" ]
      ~rows
  ^ Printf.sprintf
      "context-aware vs basic mapping: average %.1fx (max %.1fx, min %.1fx)\n"
      avg_b max_b min_b
  ^ Printf.sprintf
      "context-aware vs CPU:           average %.0fx (max %.0fx, min %.0fx)\n"
      avg_c max_c min_c

(* ---- Opt report: the cgra_opt pipeline, statically and end-to-end ---- *)

(* Not part of the paper (the original flow compiled at -O3, so its
   mapper never saw unoptimized DFGs); this artifact quantifies what the
   [cgra_opt] pipeline recovers from the naive lowering.  Uses the basic
   mapping flow so the numbers isolate the optimizer, not the search.
   It maps both lowerings whatever [p.opt] says. *)
let opt_report (_ : params) =
  let module P = Cgra_opt.Pipeline in
  (* static: pipeline on the naive lowering, per-pass statistics *)
  let static =
    List.map
      (fun k ->
        let raw = K.cdfg_raw k in
        let _, rep =
          P.run ~verify:(P.verifier_of_mems [ K.fresh_mem k ]) raw
        in
        (k, rep))
      Runner.kernels
  in
  let pass_names =
    List.map
      (fun (p : Cgra_opt.Passes.pass) -> p.Cgra_opt.Passes.name)
      Cgra_opt.Passes.all
  in
  let static_rows =
    List.map
      (fun (k, (rep : P.report)) ->
        let cut =
          100.0
          *. float_of_int (rep.P.nodes_before - rep.P.nodes_after)
          /. float_of_int (max 1 rep.P.nodes_before)
        in
        [ k.K.name;
          string_of_int rep.P.nodes_before;
          string_of_int rep.P.nodes_after;
          Printf.sprintf "-%.0f%%" cut;
          string_of_int rep.P.rounds ]
        @ List.map
            (fun (s : P.pass_stat) ->
              Printf.sprintf "%d+%d" s.P.removed s.P.rewritten)
            rep.P.per_pass)
      static
  in
  (* end-to-end: map the raw and the optimized CDFG with the basic flow *)
  let flow = FC.Basic in
  let usage_of (m, _) =
    let usage = M.tile_usage m.Toolchain.mapping in
    let total = Array.fold_left (fun a u -> a + M.usage_total u) 0 usage in
    let peak = Array.fold_left (fun a u -> max a (M.usage_total u)) 0 usage in
    (total, peak)
  in
  let node_wins = ref 0 and ctx_wins = ref 0 in
  List.iter
    (fun (_, (rep : P.report)) ->
      if rep.P.nodes_after < rep.P.nodes_before then incr node_wins)
    static;
  let mapping_rows =
    List.concat_map
      (fun k ->
        let ctx_better = ref false in
        let rows =
          List.map
            (fun config ->
              let raw = Runner.run_of ~opt:Toolchain.Raw k config flow in
              let opt = Runner.run_of ~opt:Toolchain.Optimized k config flow in
              let pair f =
                match raw, opt with
                | Ok r, Ok o ->
                  let fr, fo = (f r, f o) in
                  [ fr; fo ]
                | Ok r, Error _ -> [ f r; "-" ]
                | Error _, Ok o -> [ "-"; f o ]
                | Error _, Error _ -> [ "-"; "-" ]
              in
              (match raw, opt with
               | Ok r, Ok o ->
                 if fst (usage_of o) < fst (usage_of r) then ctx_better := true
               | _, Ok _ ->
                 (* raw does not even fit: the optimizer turned an
                    unmappable kernel into a mappable one *)
                 ctx_better := true
               | _, _ -> ());
              [ k.K.name; Config.to_string config ]
              @ pair (fun r -> string_of_int (fst (usage_of r)))
              @ pair (fun r -> string_of_int (snd (usage_of r)))
              @ pair (fun r -> string_of_int (cycles r))
              @ [ string_of_int (Runner.compile_work_of raw);
                  string_of_int (Runner.compile_work_of opt) ]
              @ pair (fun r -> T.float_cell (energy_uj r)))
            configs
        in
        if !ctx_better then incr ctx_wins;
        rows)
      Runner.kernels
  in
  "Opt report: the cgra_opt pipeline on the naive lowering\n"
  ^ "per-pass statistics (removed+rewritten nodes, all rounds):\n"
  ^ T.render
      ~header:([ "Kernel"; "raw"; "opt"; "cut"; "rounds" ] @ pass_names)
      ~rows:static_rows
  ^ "\nend-to-end with the basic flow (raw vs optimized; - = no mapping):\n"
  ^ T.render
      ~header:
        [ "Kernel"; "Config"; "ctx"; "ctx'"; "peak"; "peak'"; "cyc"; "cyc'";
          "attempts"; "attempts'"; "uJ"; "uJ'" ]
      ~rows:mapping_rows
  ^ Printf.sprintf
      "node count reduced on %d/7 kernels; total context usage reduced on \
       %d/7 kernels\n\
       (every optimized mapping above passed the simulator-vs-interpreter \
       output check)\n"
      !node_wins !ctx_wins

(* ---- Search report: per-block telemetry of the mapper's beam search -- *)

(* Not part of the paper: an observability artifact over the full
   context-aware flow on HET2 (the headline configuration).  Every number
   is a deterministic search-effort count — identical across hosts, load
   and [--jobs] — so this report reproduces byte-for-byte; per-block
   wall-clock times are deliberately excluded (the [--trace] option of
   [cgra_map map] dumps them as JSONL for profiling). *)
let search_report p =
  let module S = Cgra_core.Search in
  let config = Config.HET2 and flow = FC.Full in
  let num = string_of_int in
  let block_rows = ref [] and summary_rows = ref [] in
  List.iter
    (fun k ->
      match Runner.run_of ~opt:p.opt k config flow with
      | Error f ->
        summary_rows := [ k.K.name; "-"; "-"; "unmappable: " ^ f.Flow.reason ]
                        :: !summary_rows
      | Ok ({ Toolchain.stats; _ }, _) ->
        List.iteri
          (fun i (bs : S.block_stats) ->
            block_rows :=
              [ (if i = 0 then k.K.name else "");
                bs.S.block_name; num bs.S.rounds; num bs.S.attempts;
                num bs.S.children; num bs.S.route_failures;
                num bs.S.acmap_kills; num bs.S.ecmap_kills;
                num bs.S.prune_survivors; num bs.S.finalize_failures;
                num bs.S.recomputes; num bs.S.population_peak ]
              :: !block_rows)
          stats.Flow.search;
        summary_rows :=
          [ k.K.name; num stats.Flow.work;
            num stats.Flow.retries_used;
            num (List.length stats.Flow.search) ]
          :: !summary_rows)
    Runner.kernels;
  let align = [ `L; `L; `R; `R; `R; `R; `R; `R; `R; `R; `R; `R ] in
  "Search report: beam-search telemetry, "
  ^ FC.preset_label flow ^ " on " ^ Config.to_string config ^ "\n"
  ^ "per block (deterministic effort counts; reproduces byte-for-byte):\n"
  ^ T.render_aligned ~align
      ~header:
        [ "Kernel"; "Block"; "rounds"; "attempts"; "children"; "noroute";
          "acmap-"; "ecmap-"; "kept"; "fin-"; "recomp"; "peak" ]
      ~rows:(List.rev !block_rows)
  ^ "\nper kernel (work = binding attempts over all attempts incl. retries):\n"
  ^ T.render_aligned ~align:[ `L; `R; `R; `R ]
      ~header:[ "Kernel"; "work"; "retries"; "blocks" ]
      ~rows:(List.rev !summary_rows)
  ^ "columns: children = partial mappings generated by expansion; noroute = \
     binding\n\
     attempts with no usable operand route; acmap-/ecmap- = states removed \
     by the\n\
     approximate/exact context-memory filter; kept = population after \
     stochastic\n\
     pruning (summed over rounds); fin- = live-out placement failures; \
     peak =\n\
     widest child population of any round.\n"

(* ---- Fault report: single-bit injection campaigns -------------------- *)

(* Not part of the paper: the fault-tolerance experiment the [cgra_verify]
   layer enables.  Per kernel, [p.fault_trials] single-bit upsets are
   injected into the context memory image, the constant pools or live RF
   state of the full-flow HET2 mapping, and each outcome classified.
   Campaign trials draw from per-trial keyed RNG splits, so the table is
   byte-identical at any [--jobs] value and across reruns. *)
let fault_seed = 7

let fault_report p =
  let module F = Cgra_verify.Fault in
  let config = Config.HET2 and flow = FC.Full in
  let trials = p.fault_trials and prot = p.protection in
  (* The detected/corrected columns exist only on protected campaigns, so
     the protection-off table stays byte-identical to the historical
     fault_report. *)
  let protected_ = not (Cgra_arch.Protection.is_none prot) in
  let num = string_of_int in
  let rows =
    List.map
      (fun k ->
        match Runner.run_of ~opt:p.opt k config flow with
        | Error f ->
          [ k.K.name; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
          @ (if protected_ then [ "-"; "-" ] else [])
          @ [ "-"; "unmappable: " ^ f.Flow.reason ]
        | Ok ({ Toolchain.program; _ }, _) ->
          let key =
            k.K.slug ^ "/" ^ Config.to_string config ^ "/"
            ^ FC.preset_label flow ^ "/fault"
          in
          let c =
            F.run_campaign ?jobs:p.jobs ~protect:prot ~seed:fault_seed
              ~trials ~key
              ~fresh_mem:(fun () -> K.fresh_mem k)
              program
          in
          let by_class p =
            List.length
              (List.filter (fun (t : F.trial) -> p t.F.injection) c.F.runs)
          in
          let cm = by_class (function F.Context_bit _ -> true | _ -> false) in
          let crf = by_class (function F.Crf_bit _ -> true | _ -> false) in
          let rf = by_class (function F.Rf_bit _ -> true | _ -> false) in
          let s = c.F.summary in
          [ k.K.name; num cm; num crf; num rf; num s.F.masked;
            num s.F.wrong_output; num s.F.crash; num s.F.hang ]
          @ (if protected_ then [ num s.F.detected; num s.F.corrected ]
             else [])
          @ [ Printf.sprintf "%.1f%%"
                (100.0 *. float_of_int s.F.masked /. float_of_int s.F.trials);
              num c.F.golden_cycles ])
      Runner.kernels
  in
  Printf.sprintf
    "Fault report: single-bit injection campaigns, %s on %s\n\
     %d trials per kernel, seed %d; injections: CM = context-memory image \
     bit,\n\
     CRF = constant-pool bit, RF = live register bit at a random cycle.\n\
     Outcomes: masked = golden memory image reproduced; wrong = completed \
     with a\n\
     different image; crash = undecodable word or typed Sim_error; hang = \
     past 4x\n\
     the fault-free block count.  Deterministic at any --jobs value.\n"
    (FC.preset_label flow) (Config.to_string config) trials fault_seed
  ^ (if protected_ then
       Printf.sprintf
         "Context-memory protection: %s (scrub every %d cycles).  detected \
          =\n\
          uncorrectable error caught by ECC (halted, not silent); \
          corrected =\n\
          completed correctly after in-place ECC correction.\n"
         (Cgra_arch.Protection.profile_to_string prot)
         Cgra_arch.Protection.default_scrub_interval
     else "")
  ^ T.render_aligned
      ~align:
        ([ `L; `R; `R; `R; `R; `R; `R; `R ]
        @ (if protected_ then [ `R; `R ] else [])
        @ [ `R; `R ])
      ~header:
        ([ "Kernel"; "CM"; "CRF"; "RF"; "masked"; "wrong"; "crash"; "hang" ]
        @ (if protected_ then [ "detected"; "corrected" ] else [])
        @ [ "masked%"; "cycles" ])
      ~rows

(* ---- Protection report: pay-for-protection grid ---------------------- *)

(* Not part of the paper: the ECC cost/benefit experiment the protection
   subsystem enables.  Per (kernel, Table-I configuration) cell of the
   full context-aware flow, one context-memory-only injection campaign
   runs at each protection level over the *same* upset sites (the
   campaign key is shared and sampling never consults the profile), and
   the fault-free run is re-simulated under protection for the energy
   overhead column.  Per-trial keyed RNG splits keep the grid
   byte-identical at any [--jobs] value. *)
let protection_seed = 13

let protection_report p =
  let module F = Cgra_verify.Fault in
  let module E = Cgra_power.Energy in
  let module P = Cgra_arch.Protection in
  let flow = FC.Full in
  let trials = p.fault_trials in
  let num = string_of_int in
  let esc_totals = ref [] (* (level label, escaped, trials) *) in
  let ovh_totals = ref [] (* (level label, +E%) *) in
  let note lbl esc n = esc_totals := (lbl, esc, n) :: !esc_totals in
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun config ->
            match Runner.run_of ~opt:p.opt k config flow with
            | Error _ ->
              [ k.K.name; Config.to_string config; "-"; "-"; "-"; "-"; "-";
                "-"; "-"; "-" ]
            | Ok ({ Toolchain.program; _ }, x) ->
              let key =
                k.K.slug ^ "/" ^ Config.to_string config ^ "/"
                ^ FC.preset_label flow ^ "/protect"
              in
              let campaign level =
                F.run_campaign ?jobs:p.jobs ~protect:level ~cm_only:true
                  ~seed:protection_seed ~trials ~key
                  ~fresh_mem:(fun () -> K.fresh_mem k)
                  program
              in
              let escaped (s : F.summary) =
                s.F.wrong_output + s.F.crash + s.F.hang
              in
              let overhead level lbl =
                let e =
                  match
                    Toolchain.execute ~protection:level ~golden:(K.run_golden k)
                      ~mem:(K.fresh_mem k) program
                  with
                  | Ok x -> x.Toolchain.energy
                  | Error e ->
                    artifact_error "protection_report" "%s on %s at %s: %s"
                      k.K.name (Config.to_string config) lbl
                      (Toolchain.error_to_string e)
                in
                let pct =
                  100.0
                  *. ((e.E.total_pj /. x.Toolchain.energy.E.total_pj) -. 1.0)
                in
                ovh_totals := (lbl, pct) :: !ovh_totals;
                Printf.sprintf "%+.1f%%" pct
              in
              let n = campaign P.none in
              let pa = campaign P.parity in
              let se = campaign P.secded in
              note "none" (escaped n.F.summary) trials;
              note "parity" (escaped pa.F.summary) trials;
              note "secded" (escaped se.F.summary) trials;
              [ k.K.name; Config.to_string config;
                num n.F.summary.F.masked; num (escaped n.F.summary);
                num pa.F.summary.F.detected; num (escaped pa.F.summary);
                overhead P.parity "parity";
                num se.F.summary.F.corrected; num (escaped se.F.summary);
                overhead P.secded "secded" ])
          configs)
      Runner.kernels
  in
  let level_escapes lbl =
    List.fold_left
      (fun (e, n) (l, esc, t) -> if l = lbl then (e + esc, n + t) else (e, n))
      (0, 0) !esc_totals
  in
  let mean_ovh lbl =
    let vs = List.filter_map (fun (l, v) -> if l = lbl then Some v else None) !ovh_totals in
    List.fold_left ( +. ) 0.0 vs /. float_of_int (max 1 (List.length vs))
  in
  let e0, n0 = level_escapes "none" in
  let e1, _ = level_escapes "parity" in
  let e2, _ = level_escapes "secded" in
  Printf.sprintf
    "Protection report: context-memory upsets vs ECC, %s flow\n\
     %d CM-only single-bit trials per cell and protection level, seed %d; \
     the\n\
     same upset sites are replayed at none / parity / secded (the \
     campaign key\n\
     is shared and injection sampling never consults the profile).\n\
     esc = escaped upsets (wrong-output + crash + hang); det = halted by \
     a\n\
     parity machine-check; corr = corrected in place and completed; +E = \
     fault-\n\
     free energy overhead vs the unprotected run (check-on-fetch, \
     encode-on-\n\
     write, scrub traffic every %d cycles, check-bit leakage).\n\
     Deterministic at any --jobs value.\n"
    (FC.preset_label flow) trials protection_seed P.default_scrub_interval
  ^ T.render_aligned
      ~align:[ `L; `L; `R; `R; `R; `R; `R; `R; `R; `R ]
      ~header:
        [ "Kernel"; "Config"; "mask0"; "esc0"; "det-p"; "esc-p"; "+E-p";
          "corr-s"; "esc-s"; "+E-s" ]
      ~rows
  ^ Printf.sprintf
      "(columns suffixed 0 / -p / -s: unprotected, parity, secded)\n\
       escaped upsets: none %d/%d, parity %d, secded %d; mean energy \
       overhead:\n\
       parity %+.1f%%, secded %+.1f%% — SECDED buys zero escapes at a \
       bounded,\n\
       reported price.\n"
      e0 n0 e1 e2 (mean_ovh "parity") (mean_ovh "secded")

(* Not part of the paper: permanent-fault survivability through the
   [Cgra_verify.Repair] detect -> diagnose -> remap loop.  Per kernel and
   Table-I configuration, [p.repair_trials] random [p.repair_faults]-fault
   maps are injected under the full context-aware mapping; each trial
   either leaves the mapping untouched (faults on unused resources),
   repairs it by remapping on the diagnosed degraded array, or gives up.
   Per-trial keyed RNG splits keep the table byte-identical at any
   [--jobs] value. *)
let repair_seed = 11

let repair_report p =
  let module R = Cgra_verify.Repair in
  let flow = FC.Full in
  let trials = p.repair_trials and faults = p.repair_faults in
  let num = string_of_int in
  let pct a b = Printf.sprintf "%.1f%%" (100.0 *. float_of_int a /. float_of_int (max 1 b)) in
  let example = ref None in
  (* Per-cell campaign wall-clock, for the stderr timing table below: the
     numbers are host-dependent, so they must stay out of the (byte-
     reproducible) report itself. *)
  let timings = ref [] in
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun config ->
            match Runner.run_of ~opt:p.opt k config flow with
            | Error f ->
              [ k.K.name; Config.to_string config; "-"; "-"; "-"; "-"; "-";
                "-"; "-"; "unmappable: " ^ f.Flow.reason ]
            | Ok ({ Toolchain.mapping; _ }, _) ->
              let key =
                k.K.slug ^ "/" ^ Config.to_string config ^ "/"
                ^ FC.preset_label flow ^ "/repair"
              in
              (* No [~opt] here: the repair seeds are keyed without the
                 opt suffix, so [--opt repair_report] keeps its bytes. *)
              let config_flow =
                { (Runner.cell_flow_config k.K.slug config flow) with
                  Cgra_core.Flow_config.degrade = true }
              in
              let t0 = Cgra_util.Clock.now () in
              let c =
                R.run_campaign ?jobs:p.jobs ~seed:repair_seed ~trials ~faults
                  ~key ~config:config_flow
                  ~fresh_mem:(fun () -> K.fresh_mem k)
                  mapping
              in
              timings :=
                (k.K.name, Config.to_string config,
                 Cgra_util.Clock.elapsed_s t0)
                :: !timings;
              (if !example = None then
                 match
                   List.find_opt
                     (fun (t : R.trial) ->
                       match t.R.trace.R.status with
                       | R.Repaired _ -> true
                       | _ -> false)
                     c.R.runs
                 with
                 | Some t ->
                   example :=
                     Some
                       (Printf.sprintf "%s on %s, trial %d:\n%s" k.K.name
                          (Config.to_string config) t.R.index
                          (R.trace_to_string t.R.trace))
                 | None -> ());
              let s = c.R.summary in
              [ k.K.name; Config.to_string config; num s.R.unaffected;
                num s.R.repaired; num s.R.partial_repairs; num s.R.gave_up;
                pct (s.R.unaffected + s.R.repaired) s.R.trials;
                (if s.R.repaired = 0 then "-"
                 else Printf.sprintf "%+.1f%%" (100.0 *. s.R.mean_cycle_overhead));
                (if s.R.repaired = 0 then "-"
                 else Printf.sprintf "%+.1f%%" (100.0 *. s.R.mean_energy_overhead));
                num c.R.pristine_cycles ])
          configs)
      Runner.kernels
  in
  (* Host-dependent timing goes to stderr so stdout stays byte-identical
     at any --jobs value (and across hosts). *)
  if !timings <> [] then begin
    let trows =
      List.rev_map
        (fun (kn, cn, s) -> [ kn; cn; Printf.sprintf "%.2f" s ])
        !timings
    in
    prerr_string
      ("repair_report campaign wall-clock (host-dependent):\n"
      ^ T.render_aligned ~align:[ `L; `L; `R ]
          ~header:[ "Kernel"; "Config"; "seconds" ]
          ~rows:trows)
  end;
  Printf.sprintf
    "Repair report: permanent-fault survivability, %s flow\n\
     %d trials per cell, %d random permanent fault(s) per trial, seed %d.\n\
     Each trial degrades the array under the pristine mapping; violated\n\
     invariants are detected (validator), diagnosed back to a fault map \
     and\n\
     remapped on the degraded array (detect -> diagnose -> remap).\n\
     unaffected = pristine mapping still valid; repaired = remap clean on \
     the\n\
     true degraded array and golden-equal in simulation; survive%% = \
     both.\n\
     inc = repaired trials whose final remap re-searched only the dirty\n\
     blocks.\n\
     Overheads are means over repaired trials vs the pristine mapping.\n\
     Deterministic at any --jobs value.\n"
    (FC.preset_label flow) trials faults repair_seed
  ^ T.render_aligned
      ~align:[ `L; `L; `R; `R; `R; `R; `R; `R; `R; `R ]
      ~header:
        [ "Kernel"; "Config"; "unaff"; "repaired"; "inc"; "gave-up";
          "survive%"; "cycle-ovh"; "energy-ovh"; "cycles0" ]
      ~rows
  ^
  match !example with
  | None -> "\nNo successful repair in this campaign.\n"
  | Some e -> "\nExample repair trace — " ^ e ^ "\n"

(* ---- Optimality report: beam search vs the exact SAT backend --------- *)

(* Not part of the paper: the exact backend re-maps every (kernel,
   configuration) cell of the full context-aware flow and the table puts
   its context words, cycles and energy next to the beam's.  Both sides
   are harness cells, the exact one keyed by its backend and seeded like
   the beam's.  The exact
   flow is move-free, so "UNSAT" always reads "under the exact encoding"
   (DESIGN.md §5g): the beam may still map the same cell with move
   chains.  Both sides map the same lowering ([p.opt]) and are
   deterministic, so the report reproduces byte-for-byte at any [--jobs]
   value.  [p.quick] shrinks the grid for CI smoke runs. *)
let optimality_report p =
  let quick = p.quick in
  let kernels =
    if quick then
      List.filter
        (fun k -> List.mem k.K.slug [ "fir"; "fft" ])
        Runner.kernels
    else Runner.kernels
  in
  let configs = if quick then [ Config.HOM64; Config.HOM32 ] else configs in
  let columns = function
    | Ok (({ Toolchain.mapping; _ }, _) as r) ->
      [ string_of_int
          (Array.fold_left
             (fun acc u -> acc + M.usage_total u)
             0 (M.tile_usage mapping));
        string_of_int (cycles r);
        T.float_cell (energy_uj r) ]
    | Error _ -> [ "-"; "-"; "-" ]
  in
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun config ->
            let beam = Runner.run_of ~opt:p.opt k config FC.Full in
            let exact =
              Runner.run_of ~opt:p.opt ~backend:FC.Exact k config FC.Full
            in
            let note =
              match exact with
              | Ok _ -> ""
              | Error f -> (
                match f.Flow.verdict with
                | Cgra_core.Search.Proved_unsat -> "UNSAT under encoding"
                | Cgra_core.Search.Budget_spent -> "budget exhausted"
                | Cgra_core.Search.Dead_end | Cgra_core.Search.Expired _ ->
                  "no mapping")
            in
            [ k.K.name; Config.to_string config ] @ columns beam @ columns exact
            @ [ note ])
          configs)
      kernels
  in
  Printf.sprintf
    "Optimality report: context-aware beam search vs the exact SAT backend%s\n\
     Per cell: total committed context words, simulated cycles and energy \
     of the\n\
     beam flow (%s) next to the exact backend's (same flow, --backend \
     exact).\n\
     The exact encoding is move-free, so \"UNSAT under encoding\" proves \
     no\n\
     move-free mapping exists at any schedule length (DESIGN.md 5g) — \
     the beam\n\
     may still map that cell with move chains.  Deterministic at any \
     --jobs value.\n"
    (if quick then " (quick grid)" else "")
    (FC.preset_label FC.Full)
  ^ T.render_aligned
      ~align:[ `L; `L; `R; `R; `R; `R; `R; `R; `L ]
      ~header:
        [ "Kernel"; "Config"; "beam wd"; "beam cyc"; "beam uJ";
          "exact wd"; "exact cyc"; "exact uJ"; "exact note" ]
      ~rows

(* ---- the artifact name table ------------------------------------------ *)

let artifacts =
  [ ("table1", table1); ("fig2", fig2); ("fig5", fig5); ("fig6", fig6);
    ("fig7", fig7); ("fig8", fig8); ("fig9", fig9); ("fig10", fig10);
    ("fig11", fig11); ("table2", table2) ]

let extra_artifacts =
  [ ("opt_report", opt_report); ("search_report", search_report);
    ("fault_report", fault_report); ("protection_report", protection_report);
    ("repair_report", repair_report);
    ("optimality_report", optimality_report) ]
let all_artifacts = artifacts @ extra_artifacts
let artifact_names = List.map fst all_artifacts
