(* Design-space exploration: minimise the context memory for a kernel set.

     dune exec examples/design_space.exe

   The paper's motivation: the context memory dominates PE area, so a
   designer wants the smallest configuration that still runs the target
   application domain.  This example sweeps the four Table I
   configurations (plus a deliberately undersized one) for every bundled
   kernel with the context-aware flow, and reports where the mapper finds
   solutions and at what latency/energy. *)

module Config = Cgra_arch.Config
module K = Cgra_kernels.Kernel_def
module Toolchain = Cgra_exp.Toolchain

let tiny_cgra =
  (* an aggressive design point: 32-word CMs on the load-store rows,
     8-word CMs everywhere else (total 320) *)
  Cgra_arch.Cgra.make ~cm_of_tile:(fun id -> if id < 8 then 32 else 8) ()

let targets =
  List.map (fun c -> (Config.to_string c, Config.cgra c)) Config.all
  @ [ ("TINY", tiny_cgra) ]

let () =
  Format.printf "%-14s" "kernel";
  List.iter (fun (name, _) -> Format.printf " %12s" name) targets;
  Format.printf "@.";
  List.iter
    (fun k ->
      Format.printf "%-14s" k.K.name;
      List.iter
        (fun (_, cgra) ->
          match
            Toolchain.run_kernel ~config:Cgra_core.Flow_config.context_aware cgra k
          with
          | Error (Toolchain.Unmapped _) -> Format.printf " %12s" "-"
          | Error e -> failwith (Toolchain.error_to_string e)
          | Ok (_, { Toolchain.sim; energy }) ->
            Format.printf " %6dc/%3.0fnJ" sim.Cgra_sim.Simulator.cycles
              (energy.Cgra_power.Energy.total_pj /. 1000.0))
        targets;
      Format.printf "@.")
    Cgra_kernels.Kernels.all;
  Format.printf
    "@.('-' = the context-aware flow found no mapping for that design point)@.";
  Format.printf
    "Reading: HET2 halves HOM64's context memory yet still runs everything;@.";
  Format.printf
    "the TINY point shows where the application domain stops fitting.@."
