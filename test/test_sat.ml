(* The CDCL solver, the CNF helpers, and the exact SAT mapping
   backend: solver unit tests, beam/exact equivalence on the kernel
   suite, and portfolio determinism. *)

module S = Cgra_sat.Solver
module Cnf = Cgra_sat.Cnf

let fresh n =
  let s = S.create () in
  let vs = Array.init n (fun _ -> S.new_var s) in
  (s, vs)

(* -- solver units -------------------------------------------------- *)

let test_trivial_sat () =
  let s, v = fresh 2 in
  S.add_clause s [ v.(0); v.(1) ];
  S.add_clause s [ -v.(0); v.(1) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v1 true" true (S.value s v.(1))

let test_trivial_unsat () =
  let s, v = fresh 1 in
  S.add_clause s [ v.(0) ];
  S.add_clause s [ -v.(0) ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_empty_clause_unsat () =
  let s, _ = fresh 3 in
  S.add_clause s [];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_no_clauses_sat () =
  let s, _ = fresh 5 in
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

(* Pigeonhole: n+1 pigeons into n holes is UNSAT and requires real
   clause learning to prove at n = 5 within a sane budget. *)
let pigeonhole n =
  let s = S.create () in
  let x = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> S.new_var s)) in
  for p = 0 to n do
    Cnf.exactly_one s (Array.to_list x.(p) |> List.map (fun v -> v))
  done;
  for h = 0 to n - 1 do
    Cnf.at_most_one s (Array.to_list (Array.map (fun row -> row.(h)) x))
  done;
  s

let test_pigeonhole_unsat () =
  let s = pigeonhole 5 in
  Alcotest.(check bool) "php(6,5) unsat" true (S.solve s = S.Unsat)

(* Graph colouring of C5 (odd cycle): 2 colours UNSAT, 3 colours SAT.
   Exercises exactly_one plus binary clauses. *)
let colour_cycle n_vertices n_colours =
  let s = S.create () in
  let c =
    Array.init n_vertices (fun _ ->
        Array.init n_colours (fun _ -> S.new_var s))
  in
  Array.iter (fun row -> Cnf.exactly_one s (Array.to_list row)) c;
  for v = 0 to n_vertices - 1 do
    let w = (v + 1) mod n_vertices in
    for k = 0 to n_colours - 1 do
      S.add_clause s [ -c.(v).(k); -c.(w).(k) ]
    done
  done;
  s

let test_colouring () =
  Alcotest.(check bool) "C5/2 unsat" true (S.solve (colour_cycle 5 2) = S.Unsat);
  Alcotest.(check bool) "C5/3 sat" true (S.solve (colour_cycle 5 3) = S.Sat)

let test_at_most_k () =
  (* sum of 6 literals <= 3, forced 4 true -> UNSAT *)
  let s, v = fresh 6 in
  Cnf.at_most_k s (Array.to_list v) 3;
  for i = 0 to 3 do
    S.add_clause s [ v.(i) ]
  done;
  Alcotest.(check bool) "4 > 3 unsat" true (S.solve s = S.Unsat);
  (* and <= 3 with exactly 3 forced true is SAT, others can be false *)
  let s, v = fresh 6 in
  Cnf.at_most_k s (Array.to_list v) 3;
  for i = 0 to 2 do
    S.add_clause s [ v.(i) ]
  done;
  Alcotest.(check bool) "3 <= 3 sat" true (S.solve s = S.Sat)

let test_budget_unknown () =
  let s = pigeonhole 7 in
  Alcotest.(check bool) "tiny budget gives Unknown" true
    (S.solve ~conflict_budget:5 s = S.Unknown)

let test_model_deterministic () =
  (* Same construction twice -> identical models, bit for bit. *)
  let build () =
    let s = S.create () in
    let v = Array.init 40 (fun _ -> S.new_var s) in
    for i = 0 to 38 do
      S.add_clause s [ v.(i); v.(i + 1) ];
      if i mod 3 = 0 then S.add_clause s [ -v.(i); v.((i + 7) mod 40) ]
    done;
    Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
    Array.map (fun var -> S.value s var) v
  in
  let m1 = build () and m2 = build () in
  Alcotest.(check bool) "identical models" true (m1 = m2)

(* -- cooperative cancellation -------------------------------------- *)

module Deadline = Cgra_util.Deadline

(* An expired deadline cancels mimicking budget exhaustion, so the
   solver state stays consistent: the same instance must be solvable to
   completion afterwards, with the same verdict and model a fresh
   solver produces. *)
let test_cancel_then_resume () =
  let expired = Deadline.after_ms 0 in
  (* UNSAT instance *)
  let s = pigeonhole 5 in
  Alcotest.(check bool) "expired deadline -> Unknown" true
    (S.solve ~deadline:expired s = S.Unknown);
  Alcotest.(check bool) "same solver finishes the proof afterwards" true
    (S.solve s = S.Unsat);
  (* SAT instance: the post-cancel model matches a fresh solver's *)
  let build () =
    let s = S.create () in
    let v = Array.init 40 (fun _ -> S.new_var s) in
    for i = 0 to 38 do
      S.add_clause s [ v.(i); v.(i + 1) ];
      if i mod 3 = 0 then S.add_clause s [ -v.(i); v.((i + 7) mod 40) ]
    done;
    (s, v)
  in
  let s1, v1 = build () in
  Alcotest.(check bool) "cancelled" true
    (S.solve ~deadline:expired s1 = S.Unknown);
  Alcotest.(check bool) "resumed to sat" true (S.solve s1 = S.Sat);
  let s2, v2 = build () in
  Alcotest.(check bool) "fresh sat" true (S.solve s2 = S.Sat);
  Alcotest.(check bool) "model identical to an uncancelled solver" true
    (Array.map (S.value s1) v1 = Array.map (S.value s2) v2)

(* qcheck: on random 3-CNF instances, an armed-but-never-fired deadline
   is an observer — verdict and model are those of a plain solve — and
   a cancelled solver re-solves to exactly the fresh solver's answer. *)
let arb_cnf =
  let open QCheck.Gen in
  let gen =
    int_range 3 12 >>= fun n_vars ->
    int_range 1 40 >>= fun n_clauses ->
    let lit = int_range 1 n_vars >>= fun v -> map (fun b -> if b then v else -v) bool in
    list_size (return n_clauses) (list_size (int_range 1 3) lit)
  in
  QCheck.make
    ~print:(fun cs ->
      String.concat "; "
        (List.map
           (fun c -> String.concat " " (List.map string_of_int c))
           cs))
    gen

let build_cnf clauses =
  let s = S.create () in
  let n = List.fold_left (List.fold_left (fun m l -> max m (abs l))) 0 clauses in
  let vars = Array.init n (fun _ -> S.new_var s) in
  List.iter
    (fun c ->
      S.add_clause s
        (List.map (fun l -> if l > 0 then vars.(l - 1) else -vars.(-l - 1)) c))
    clauses;
  (s, vars)

let model_of s vars verdict =
  match verdict with
  | S.Sat -> Some (Array.map (S.value s) vars)
  | S.Unsat | S.Unknown -> None

let prop_deadline_observer =
  QCheck.Test.make ~name:"unfired deadline leaves verdict and model alone"
    ~count:200 arb_cnf (fun clauses ->
      let s_plain, v_plain = build_cnf clauses in
      let plain = S.solve s_plain in
      let s_armed, v_armed = build_cnf clauses in
      let armed = S.solve ~deadline:(Deadline.after_ms 3_600_000) s_armed in
      plain = armed
      && model_of s_plain v_plain plain = model_of s_armed v_armed armed)

let prop_cancel_reusable =
  QCheck.Test.make ~name:"solver is reusable after a mid-solve cancel"
    ~count:200 arb_cnf (fun clauses ->
      let s_fresh, v_fresh = build_cnf clauses in
      let fresh_verdict = S.solve s_fresh in
      let s_cancel, v_cancel = build_cnf clauses in
      let cancelled = S.solve ~deadline:(Deadline.after_ms 0) s_cancel in
      let resumed = S.solve s_cancel in
      (* a contradiction provable at decision level 0 beats the deadline
         to the verdict — that is still deterministic, so allowed *)
      (cancelled = S.Unknown || cancelled = fresh_verdict)
      && resumed = fresh_verdict
      && model_of s_fresh v_fresh fresh_verdict
         = model_of s_cancel v_cancel resumed)

(* -- exact backend end-to-end -------------------------------------- *)

module FC = Cgra_core.Flow_config
module Flow = Cgra_core.Flow
module M = Cgra_core.Mapping
module Config = Cgra_arch.Config
module K = Cgra_kernels.Kernel_def
module R = Cgra_exp.Runner

let kernel slug = Option.get (Cgra_kernels.Kernels.by_slug slug)

(* The full context-aware flow for [slug]@[config] with the given
   backend — the same per-cell configuration the experiment runner
   uses, so these tests exercise exactly what the reports tabulate. *)
let cell_config slug config backend =
  { (R.cell_flow_config slug config FC.Full) with FC.backend; retries = 0 }

let run_cell slug config backend =
  let k = kernel slug in
  Flow.run
    ~config:(cell_config slug config backend)
    (Config.cgra config) (K.cdfg k)

(* Every exact mapping must survive the independent validator and
   compute the kernel's golden memory image — cheap cells only, the
   full grid is the bench's optimality_report. *)
let test_exact_equivalence () =
  List.iter
    (fun (slug, config) ->
      let k = kernel slug in
      match run_cell slug config FC.Exact with
      | Error f ->
        Alcotest.failf "%s@%s: exact backend failed: %s" slug
          (Config.to_string config)
          f.Flow.reason
      | Ok (mapping, _) ->
        let program = Cgra_asm.Assemble.assemble mapping in
        (match Cgra_verify.Validator.check program with
        | [] -> ()
        | vs ->
          Alcotest.failf "%s@%s: validator: %s" slug
            (Config.to_string config)
            (String.concat "; "
               (List.map Cgra_verify.Validator.to_string vs)));
        let mem = K.fresh_mem k in
        ignore (Cgra_sim.Simulator.run program ~mem);
        Alcotest.(check bool)
          (Printf.sprintf "%s@%s: golden image" slug
             (Config.to_string config))
          true
          (mem = K.run_golden k))
    [ ("fir", Config.HOM64); ("fir", Config.HOM32);
      ("convolution", Config.HOM32) ]

(* The portfolio's contract: never worse than the beam under the
   flow's own cost (schedule length dominating, then routing moves);
   ties keep the beam result. *)
let mapping_cost config m =
  Array.fold_left (fun acc bm -> acc + (256 * bm.M.length)) 0 m.M.bbs
  + (config.FC.move_weight * M.total_moves m)

let test_portfolio_never_worse () =
  List.iter
    (fun slug ->
      let config = Config.HOM32 in
      let fc_beam = cell_config slug config FC.Beam in
      match (run_cell slug config FC.Beam, run_cell slug config FC.Portfolio)
      with
      | Ok (bm, _), Ok (pm, _) ->
        Alcotest.(check bool)
          (slug ^ ": portfolio cost <= beam cost")
          true
          (mapping_cost fc_beam pm <= mapping_cost fc_beam bm)
      | Error f, _ ->
        Alcotest.failf "%s: beam failed: %s" slug f.Flow.reason
      | _, Error f ->
        Alcotest.failf "%s: portfolio failed: %s" slug f.Flow.reason)
    [ "fir"; "convolution"; "sep_filter" ]

(* Determinism invariant: the racing layer must not leak scheduling
   noise into the artifact — the assembled program is byte-identical
   at any degree of expansion parallelism. *)
let test_portfolio_jobs_identical () =
  let digest_at jobs =
    let fc =
      { (cell_config "fir" Config.HOM32 FC.Portfolio) with
        FC.expand_jobs = jobs }
    in
    match Flow.run ~config:fc (Config.cgra Config.HOM32) (K.cdfg (kernel "fir")) with
    | Error f -> Alcotest.failf "fir portfolio jobs=%d failed: %s" jobs f.Flow.reason
    | Ok (mapping, _) ->
      (* [compile_seconds] is honest wall-clock; everything else must
         reproduce bit for bit, so zero it before hashing. *)
      let mapping = { mapping with M.compile_seconds = 0.0 } in
      Digest.string
        (Marshal.to_string (Cgra_asm.Assemble.assemble mapping) [])
  in
  let d1 = digest_at 1 in
  Alcotest.(check string) "jobs 1 = jobs 2" d1 (digest_at 2);
  Alcotest.(check string) "jobs 1 = jobs 8" d1 (digest_at 8)

(* The determinism contract of the deadline: armed but never fired, it
   is an observer — the assembled program is byte-identical to a run
   with no deadline at all, for every backend (beam search rounds,
   exact probes, and the portfolio race's combine rule). *)
let test_deadline_unfired_identical () =
  let digest_of ?deadline backend =
    let fc = cell_config "fir" Config.HOM32 backend in
    match
      Flow.run ~config:fc ?deadline (Config.cgra Config.HOM32)
        (K.cdfg (kernel "fir"))
    with
    | Error f ->
      Alcotest.failf "fir %s failed: %s" (FC.backend_to_string backend)
        f.Flow.reason
    | Ok (mapping, _) ->
      let mapping = { mapping with M.compile_seconds = 0.0 } in
      Digest.string (Marshal.to_string (Cgra_asm.Assemble.assemble mapping) [])
  in
  let armed = Cgra_util.Deadline.after_ms 3_600_000 in
  List.iter
    (fun backend ->
      Alcotest.(check string)
        (FC.backend_to_string backend ^ ": unfired deadline is bytes-neutral")
        (digest_of backend)
        (digest_of ~deadline:armed backend))
    [ FC.Beam; FC.Exact; FC.Portfolio ]

(* An expired deadline surfaces as the typed failure, never as an
   exception, and records where the search observed it. *)
let test_deadline_fired_typed () =
  let fc = cell_config "fir" Config.HOM32 FC.Beam in
  match
    Flow.run ~config:fc ~deadline:(Cgra_util.Deadline.after_ms 0)
      (Config.cgra Config.HOM32) (K.cdfg (kernel "fir"))
  with
  | Ok _ -> Alcotest.fail "expired deadline cannot produce a mapping"
  | Error f -> (
    match f.Flow.timed_out with
    | Some where ->
      Alcotest.(check bool) "where is recorded" true (String.length where > 0)
    | None -> Alcotest.failf "failure not typed as timeout: %s" f.Flow.reason)

(* The optimality report's two sides map the same lowering: under
   [opt = Optimized] the FFT@HOM64 row's beam columns are the optimized
   harness cell, and its exact columns are the exact backend run on the
   optimized kernel under the report's own exact configuration. *)
let test_optimality_report_opt () =
  let module T = Cgra_util.Text_table in
  let module E = Cgra_power.Energy in
  let module Toolchain = Cgra_exp.Toolchain in
  let module Figures = Cgra_exp.Figures in
  let opt = Toolchain.Optimized in
  let k = kernel "fft" and config = Config.HOM64 in
  let report =
    Figures.optimality_report { Figures.default with opt; quick = true }
  in
  let columns words cycles (energy : E.breakdown) =
    [ string_of_int words; string_of_int cycles;
      T.float_cell (E.to_uj energy.E.total_pj) ]
  in
  let words_of mapping =
    Array.fold_left (fun a u -> a + M.usage_total u) 0 (M.tile_usage mapping)
  in
  let beam =
    match R.run_of ~opt k config FC.Full with
    | R.Mapped r -> columns (words_of r.R.mapping) r.R.cycles r.R.energy
    | R.Unmappable u -> Alcotest.failf "beam FFT@HOM64: %s" u.reason
  in
  let exact =
    let fc =
      { (R.cell_flow_config ~opt "fft" config FC.Full) with
        FC.backend = FC.Exact;
        retries = 0 }
    in
    match Toolchain.run_kernel ~opt ~config:fc (Config.cgra config) k with
    | Ok (m, x) ->
      columns (words_of m.Toolchain.mapping)
        x.Toolchain.sim.Cgra_sim.Simulator.cycles x.Toolchain.energy
    | Error e ->
      Alcotest.failf "exact FFT@HOM64: %s" (Toolchain.error_to_string e)
  in
  let row =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | "FFT" :: "HOM64" :: cells -> Some cells
        | _ -> None)
      (String.split_on_char '\n' report)
  in
  Alcotest.(check (option (list string)))
    "FFT@HOM64 row: optimized beam cell, then optimized exact run"
    (Some (beam @ exact)) row

let suite =
  [
    ( "sat.solver",
      [
        Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
        Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
        Alcotest.test_case "no clauses" `Quick test_no_clauses_sat;
        Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
        Alcotest.test_case "odd-cycle colouring" `Quick test_colouring;
        Alcotest.test_case "at_most_k" `Quick test_at_most_k;
        Alcotest.test_case "budget -> Unknown" `Quick test_budget_unknown;
        Alcotest.test_case "deterministic model" `Quick test_model_deterministic;
        Alcotest.test_case "cancel then resume" `Quick test_cancel_then_resume;
        QCheck_alcotest.to_alcotest prop_deadline_observer;
        QCheck_alcotest.to_alcotest prop_cancel_reusable;
      ] );
    ( "sat.exact",
      [
        Alcotest.test_case "exact mappings validate + golden" `Slow
          test_exact_equivalence;
        Alcotest.test_case "portfolio never worse than beam" `Slow
          test_portfolio_never_worse;
        Alcotest.test_case "portfolio byte-identical across jobs" `Slow
          test_portfolio_jobs_identical;
        Alcotest.test_case "unfired deadline is bytes-neutral" `Slow
          test_deadline_unfired_identical;
        Alcotest.test_case "fired deadline is a typed failure" `Quick
          test_deadline_fired_typed;
        Alcotest.test_case "optimality report maps one lowering" `Slow
          test_optimality_report_opt;
      ] );
  ]
