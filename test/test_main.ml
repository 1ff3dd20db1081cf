(* Aggregate test runner: one alcotest binary over all library suites. *)

let () =
  Alcotest.run "cgra-repro"
    (Test_util.suite @ Test_graph.suite @ Test_ir.suite @ Test_lang.suite
   @ Test_arch.suite @ Test_core.suite @ Test_asm_sim.suite @ Test_cpu.suite
   @ Test_power.suite @ Test_kernels.suite @ Test_opt.suite @ Test_fuzz.suite
   @ Test_parallel.suite @ Test_serve.suite @ Test_verify.suite
   @ Test_protect.suite @ Test_sim.suite @ Test_sat.suite @ Test_search.suite
   @ Test_e2e.suite)
