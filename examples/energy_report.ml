(* Energy anatomy of a mapping: where the picojoules go.

     dune exec examples/energy_report.exe [kernel-slug]

   Breaks a kernel's CGRA energy into context-memory fetches, compute,
   routing moves, data memory and leakage, for the basic mapping on HOM64
   against the context-aware mapping on HET1/HET2 — making the paper's
   mechanism visible: the heterogeneous configurations win on fetch and
   leakage while the compute and data-memory terms stay put. *)

module Config = Cgra_arch.Config
module E = Cgra_power.Energy
module K = Cgra_kernels.Kernel_def
module Toolchain = Cgra_exp.Toolchain

let report k config flow label =
  match Toolchain.run_kernel ~config:flow (Config.cgra config) k with
  | Error (Toolchain.Unmapped f) ->
    Format.printf "%-22s no mapping (%s)@." label f.Cgra_core.Flow.reason
  | Error e -> failwith (Toolchain.error_to_string e)
  | Ok (_, { Toolchain.sim = r; energy = e }) ->
    Format.printf
      "%-22s %6d cycles | fetch %6.0f  compute %6.0f  moves %5.0f  dmem %6.0f  leak %6.0f | total %7.0f pJ@."
      label r.Cgra_sim.Simulator.cycles e.E.fetch_pj e.E.compute_pj e.E.moves_pj
      e.E.memory_pj e.E.leakage_pj e.E.total_pj

let () =
  let slug = if Array.length Sys.argv > 1 then Sys.argv.(1) else "convolution" in
  match Cgra_kernels.Kernels.by_slug slug with
  | None ->
    Format.printf "unknown kernel %s; available: %s@." slug
      (String.concat ", " Cgra_kernels.Kernels.slugs);
    exit 1
  | Some k ->
    Format.printf "energy anatomy of %s@." k.K.name;
    report k Config.HOM64 Cgra_core.Flow_config.basic "HOM64 / basic";
    report k Config.HOM64 Cgra_core.Flow_config.context_aware "HOM64 / aware";
    report k Config.HET1 Cgra_core.Flow_config.context_aware "HET1  / aware";
    report k Config.HET2 Cgra_core.Flow_config.context_aware "HET2  / aware";
    let cpu = Cgra_cpu.Cpu_sim.run (Cgra_cpu.Codegen.compile (K.cdfg k)) ~mem:(K.fresh_mem k) in
    let e = E.cpu cpu in
    Format.printf
      "%-22s %6d cycles | fetch %6.0f  compute %6.0f  moves %5s  dmem %6.0f  leak %6.0f | total %7.0f pJ@."
      "CPU   / -O3-class" cpu.Cgra_cpu.Cpu_sim.cycles e.E.fetch_pj e.E.compute_pj
      "-" e.E.memory_pj e.E.leakage_pj e.E.total_pj
