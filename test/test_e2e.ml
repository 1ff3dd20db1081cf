(* End-to-end tests of the paper's headline claims, through the full
   tool-chain (frontend -> mapper -> assembler -> simulator -> energy). *)

module R = Cgra_exp.Runner
module Toolchain = Cgra_exp.Toolchain
module Flow = Cgra_core.Flow
module FC = Cgra_core.Flow_config
module Config = Cgra_arch.Config
module M = Cgra_core.Mapping
module E = Cgra_power.Energy

let kernel slug = Option.get (Cgra_kernels.Kernels.by_slug slug)

let mapped_exn slug config flow =
  match R.run_of (kernel slug) config flow with
  | Ok r -> r
  | Error f ->
    Alcotest.fail (Printf.sprintf "%s should map: %s" slug f.Flow.reason)

let test_basic_fits_hom64 () =
  (* the premise of Section IV-B: the basic mapping fits HOM64 for the
     whole kernel set *)
  List.iter
    (fun k ->
      match R.run_of k Config.HOM64 FC.Basic with
      | Ok _ -> ()
      | Error f -> Alcotest.fail (k.Cgra_kernels.Kernel_def.name ^ ": " ^ f.Flow.reason))
    R.kernels

let test_big_kernels_overflow_hom32_basic () =
  (* matmul, the non-separable filter and the FFT cannot fit 32-word
     contexts without memory awareness (Figs 6-7) *)
  List.iter
    (fun slug ->
      match R.run_of (kernel slug) Config.HOM32 FC.Basic with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (slug ^ " should overflow HOM32"))
    [ "matm"; "non_sep_filter"; "fft" ]

let test_aware_maps_het () =
  (* the headline: the context-aware flow maps every kernel on both
     heterogeneous configurations, i.e. with roughly half the context
     memory of HOM64 *)
  List.iter
    (fun k ->
      List.iter
        (fun config ->
          match R.run_of k config FC.Full with
          | Ok _ -> ()
          | Error f ->
            Alcotest.fail
              (Printf.sprintf "%s on %s: %s" k.Cgra_kernels.Kernel_def.name
                 (Config.to_string config) f.Flow.reason))
        [ Config.HET1; Config.HET2 ])
    R.kernels

let test_basic_fails_het_for_big_kernels () =
  (* ...while the memory-blind basic flow cannot use them *)
  List.iter
    (fun slug ->
      match R.run_of (kernel slug) Config.HET2 FC.Basic with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (slug ^ " basic should fail HET2"))
    [ "matm"; "non_sep_filter" ]

let test_acmap_weaker_than_ecmap () =
  (* Fig 6 vs Fig 7: ACMAP alone finds no solution for the non-separable
     filter on the heterogeneous configurations; adding ECMAP does *)
  (match R.run_of (kernel "non_sep_filter") Config.HET1 FC.With_acmap with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "ACMAP alone should fail NonSep on HET1");
  ignore (mapped_exn "non_sep_filter" Config.HET1 FC.With_ecmap)

let test_aware_energy_gain () =
  (* Table II: the context-aware mapping on HET beats basic on HOM64 *)
  List.iter
    (fun k ->
      match R.run_of k Config.HOM64 FC.Basic, R.run_of k Config.HET2 FC.Full with
      | Ok (_, b), Ok (_, h) ->
        let gain = b.Toolchain.energy.E.total_pj /. h.Toolchain.energy.E.total_pj in
        Alcotest.(check bool)
          (Printf.sprintf "%s gains energy (%.2fx)" k.Cgra_kernels.Kernel_def.name gain)
          true (gain > 1.0)
      | _, _ -> Alcotest.fail "both flows should map")
    R.kernels

let test_cgra_beats_cpu () =
  (* Fig 10 / Table II: the CGRA wins on both cycles and energy *)
  List.iter
    (fun k ->
      let cpu = R.cpu_of k in
      match R.run_of k Config.HET2 FC.Full with
      | Ok (_, x) ->
        Alcotest.(check bool) (k.Cgra_kernels.Kernel_def.name ^ " faster") true
          (x.Toolchain.sim.Cgra_sim.Simulator.cycles
           < cpu.R.cpu_sim.Cgra_cpu.Cpu_sim.cycles);
        Alcotest.(check bool) (k.Cgra_kernels.Kernel_def.name ^ " greener") true
          (x.Toolchain.energy.E.total_pj < cpu.R.cpu_energy.E.total_pj /. 2.0)
      | Error f -> Alcotest.fail f.Flow.reason)
    R.kernels

let test_aware_uses_less_context () =
  (* the aware mapping on HET2 uses at most the 512 total words, half of
     HOM64's 1024 — and the per-tile usage respects every capacity *)
  List.iter
    (fun k ->
      match R.run_of k Config.HET2 FC.Full with
      | Ok (m, _) ->
        let usage = M.tile_usage m.Toolchain.mapping in
        let total = Array.fold_left (fun a u -> a + M.usage_total u) 0 usage in
        Alcotest.(check bool) "within half the HOM64 budget" true (total <= 512)
      | Error f -> Alcotest.fail f.Flow.reason)
    R.kernels

let test_fig5_reductions () =
  (* Section III-D-1: the weighted traversal reduces moves and pnops *)
  let s = Cgra_exp.Figures.(fig5 default) in
  Alcotest.(check bool) "report generated" true (String.length s > 100)

let test_artifacts_render () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " renders") true
        (String.length (f Cgra_exp.Figures.default) > 50))
    [ ("table1", Cgra_exp.Figures.table1);
      ("fig2", Cgra_exp.Figures.fig2);
      ("fig11", Cgra_exp.Figures.fig11) ]

let suite =
  [ ( "end-to-end",
      [ Alcotest.test_case "basic fits HOM64" `Slow test_basic_fits_hom64;
        Alcotest.test_case "big kernels overflow HOM32" `Slow
          test_big_kernels_overflow_hom32_basic;
        Alcotest.test_case "aware flow maps HET1/HET2" `Slow test_aware_maps_het;
        Alcotest.test_case "basic fails HET for big kernels" `Slow
          test_basic_fails_het_for_big_kernels;
        Alcotest.test_case "ACMAP weaker than ECMAP" `Slow
          test_acmap_weaker_than_ecmap;
        Alcotest.test_case "aware energy gain" `Slow test_aware_energy_gain;
        Alcotest.test_case "CGRA beats CPU" `Slow test_cgra_beats_cpu;
        Alcotest.test_case "half the context memory" `Slow
          test_aware_uses_less_context;
        Alcotest.test_case "Fig 5 renders" `Slow test_fig5_reductions;
        Alcotest.test_case "artifacts render" `Quick test_artifacts_render ] ) ]
