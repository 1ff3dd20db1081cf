(* Scaling study: the tool-chain beyond the paper's 4x4 array.

     dune exec examples/scaling.exe

   The paper evaluates a 4x4 CGRA; the architecture model, the mapper and
   the simulator are size-generic, so this example maps the kernel suite
   onto 4x4, 4x8 and 8x8 tori (first two rows load-store, as in the
   paper) with 32-word context memories everywhere, and reports latency —
   showing where more tiles help (wide data-parallel kernels) and where
   they cannot (serial recurrences like the DC filter). *)

module K = Cgra_kernels.Kernel_def
module Toolchain = Cgra_exp.Toolchain

let arrays =
  [ ("4x4/32", Cgra_arch.Cgra.make ~rows:4 ~cols:4 ~cm_of_tile:(fun _ -> 32) ());
    ("4x8/32", Cgra_arch.Cgra.make ~rows:4 ~cols:8 ~cm_of_tile:(fun _ -> 32) ());
    ("8x8/32", Cgra_arch.Cgra.make ~rows:8 ~cols:8 ~cm_of_tile:(fun _ -> 32) ()) ]

let () =
  Format.printf "%-14s %10s %10s %10s@." "kernel" "4x4/32" "4x8/32" "8x8/32";
  List.iter
    (fun k ->
      Format.printf "%-14s" k.K.name;
      List.iter
        (fun (_, cgra) ->
          match
            Toolchain.run_kernel ~config:Cgra_core.Flow_config.context_aware cgra k
          with
          | Error (Toolchain.Unmapped _) -> Format.printf " %10s" "-"
          | Error e -> failwith (Toolchain.error_to_string e)
          | Ok (_, { Toolchain.sim; _ }) ->
            Format.printf " %9dc" sim.Cgra_sim.Simulator.cycles)
        arrays;
      Format.printf "@.")
    Cgra_kernels.Kernels.all;
  Format.printf
    "@.('-' = does not fit 32-word context memories, exactly as on HOM32.)@.";
  Format.printf
    "Only the kernel with spare instruction-level parallelism (MatM)@.";
  Format.printf
    "profits from more tiles; the memory-bound filters and the serial DC@.";
  Format.printf
    "recurrence do not — the paper's 4x4 array is well matched to this@.";
  Format.printf
    "kernel class.  Every mapping still verifies against the golden model.@."
