(* Tests for the parallel experiment harness: the domain pool, the
   thread-safe run cache, and the jobs-invariance of the artifacts. *)

module Pool = Cgra_util.Pool
module Runner = Cgra_exp.Runner
module Toolchain = Cgra_exp.Toolchain
module FC = Cgra_core.Flow_config

(* ---- Pool.map -------------------------------------------------------- *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let ys = Pool.map ~jobs:4 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) ys

let test_pool_jobs_one () =
  let xs = List.init 10 Fun.id in
  Alcotest.(check (list int)) "sequential path" xs (Pool.map ~jobs:1 Fun.id xs)

let test_pool_more_jobs_than_items () =
  Alcotest.(check (list int)) "jobs > items" [ 2; 4 ]
    (Pool.map ~jobs:16 (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 Fun.id [])

let test_pool_exception () =
  let boom = Failure "boom at 7" in
  Alcotest.check_raises "exception re-raised" boom (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 7 then raise boom else x)
           (List.init 32 Fun.id)))

let test_pool_runs_everything () =
  (* every item is processed exactly once even with contention *)
  let n = 500 in
  let hits = Array.make n (Atomic.make 0) in
  Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
  Pool.iter ~jobs:8 (fun i -> Atomic.incr hits.(i)) (List.init n Fun.id);
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "item %d processed %d times" i (Atomic.get c))
    hits

(* ---- run cache: compute-once under concurrency ----------------------- *)

let test_cache_computes_once () =
  Runner.clear_caches ();
  let k = List.hd Runner.kernels in
  let before = Runner.compute_count () in
  (* a storm of concurrent requests for the same cell *)
  let cells =
    Pool.map ~jobs:8
      (fun _ -> Runner.run_of k Cgra_arch.Config.HOM64 FC.Basic)
      (List.init 16 Fun.id)
  in
  Alcotest.(check int) "computed exactly once" 1
    (Runner.compute_count () - before);
  match cells with
  | [] -> assert false
  | first :: rest ->
    List.iter
      (fun c ->
        Alcotest.(check bool) "all callers see the same value" true (c == first))
      rest

(* ---- cache poisoning regression --------------------------------------- *)

(* A compute that raises used to leave its slot in [Computing] forever:
   the first caller got the exception, every later caller of the same key
   hit [assert false] (or hung).  The memo must instead cache the failure
   and re-raise it to everyone, and a concurrent storm on a raising key
   must neither hang nor poison. *)
let test_cache_failure_not_poisoning () =
  let memo : (int, int) Runner.Memo.t = Runner.Memo.create 4 in
  let boom = Failure "memo compute failed" in
  Alcotest.check_raises "first caller sees the exception" boom (fun () ->
      ignore (Runner.Memo.get memo 1 (fun () -> raise boom)));
  (* the failure is cached: later callers re-raise without recomputing,
     and certainly without tripping the old [assert false] *)
  Alcotest.check_raises "second caller re-raises the cached failure" boom
    (fun () -> ignore (Runner.Memo.get memo 1 (fun () -> 42)));
  Alcotest.(check int) "failed compute claimed exactly once" 1
    (Runner.Memo.computed memo);
  (* other keys are unaffected *)
  Alcotest.(check int) "healthy key still computes" 7
    (Runner.Memo.get memo 2 (fun () -> 7));
  (* a concurrent storm on a raising key: every domain must terminate
     with the exception, with exactly one claim *)
  let storm : (int, int) Runner.Memo.t = Runner.Memo.create 4 in
  let outcomes =
    Pool.map ~jobs:8
      (fun _ ->
        match Runner.Memo.get storm 0 (fun () -> raise boom) with
        | (_ : int) -> "returned"
        | exception Failure msg -> msg)
      (List.init 16 Fun.id)
  in
  List.iter
    (fun o ->
      Alcotest.(check string) "every storm caller sees the failure"
        "memo compute failed" o)
    outcomes;
  Alcotest.(check int) "storm claimed exactly once" 1
    (Runner.Memo.computed storm)

(* A reset must not let a compute that was claimed *before* the reset
   publish its (now stale) result *after* it: the cleared cache would
   silently revive a value — or worse, a poisoned [Failed] slot — that
   the caller of [clear_caches] asked to forget. *)
let test_reset_discards_stale_publish () =
  let memo : (int, int) Runner.Memo.t = Runner.Memo.create 4 in
  let started = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Runner.Memo.get memo 1 (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            111))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Runner.Memo.reset memo;
  Alcotest.(check int) "post-reset compute wins" 222
    (Runner.Memo.get memo 1 (fun () -> 222));
  Atomic.set release true;
  Alcotest.(check int) "pre-reset caller still gets its own value" 111
    (Domain.join d);
  Alcotest.(check int) "stale publish was discarded" 222
    (Runner.Memo.get memo 1 (fun () -> 333));
  (* same discipline for a stale *failure*: it must not poison the
     post-reset slot *)
  let memo2 : (int, int) Runner.Memo.t = Runner.Memo.create 4 in
  let started2 = Atomic.make false and release2 = Atomic.make false in
  let d2 =
    Domain.spawn (fun () ->
        match
          Runner.Memo.get memo2 1 (fun () ->
              Atomic.set started2 true;
              while not (Atomic.get release2) do
                Domain.cpu_relax ()
              done;
              failwith "stale failure")
        with
        | (_ : int) -> "returned"
        | exception Failure m -> m)
  in
  while not (Atomic.get started2) do
    Domain.cpu_relax ()
  done;
  Runner.Memo.reset memo2;
  Atomic.set release2 true;
  Alcotest.(check string) "pre-reset caller sees its own failure"
    "stale failure" (Domain.join d2);
  Alcotest.(check int) "stale failure does not poison the fresh cache" 42
    (Runner.Memo.get memo2 1 (fun () -> 42))

(* ---- persistent pool -------------------------------------------------- *)

(* One worker, two client lanes: jobs enqueued all-of-A-then-all-of-B
   must still execute A1 B1 A2 B2 ... — fair round-robin, not FIFO of
   arrival. *)
let test_persistent_pool_fairness () =
  let p = Pool.Persistent.create ~jobs:1 () in
  let gate = Atomic.make false and blocker_started = Atomic.make false in
  let order = ref [] in
  let order_m = Mutex.create () in
  let record tag () =
    Mutex.lock order_m;
    order := tag :: !order;
    Mutex.unlock order_m
  in
  (* occupy the single worker so the lane queues build up *)
  Alcotest.(check bool) "blocker accepted" true
    (Pool.Persistent.submit p ~lane:99 (fun () ->
         Atomic.set blocker_started true;
         while not (Atomic.get gate) do
           Domain.cpu_relax ()
         done));
  while not (Atomic.get blocker_started) do
    Domain.cpu_relax ()
  done;
  for i = 1 to 3 do
    ignore (Pool.Persistent.submit p ~lane:1 (record (Printf.sprintf "A%d" i)))
  done;
  for i = 1 to 3 do
    ignore (Pool.Persistent.submit p ~lane:2 (record (Printf.sprintf "B%d" i)))
  done;
  Alcotest.(check int) "six jobs queued behind the blocker" 7
    (Pool.Persistent.inflight p);
  Atomic.set gate true;
  Pool.Persistent.shutdown p;
  Alcotest.(check (list string)) "round-robin across lanes"
    [ "A1"; "B1"; "A2"; "B2"; "A3"; "B3" ]
    (List.rev !order);
  Alcotest.(check bool) "submit after shutdown is refused" false
    (Pool.Persistent.submit p ~lane:0 (fun () -> ()))

let test_persistent_pool_drains () =
  let p = Pool.Persistent.create ~jobs:4 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    ignore (Pool.Persistent.submit p ~lane:(Atomic.get hits mod 5) (fun () ->
        Atomic.incr hits))
  done;
  Pool.Persistent.shutdown p;
  Alcotest.(check int) "every accepted job ran before shutdown returned" 100
    (Atomic.get hits);
  Alcotest.(check int) "nothing left inflight" 0 (Pool.Persistent.inflight p)

(* ---- jobs invariance -------------------------------------------------- *)

(* The full-artifact check lives in the bench driver (bench/main.exe all
   --jobs N is byte-identical for any N; see EXPERIMENTS.md); here a
   cheaper in-process version on a sub-grid keeps `dune runtest`
   exercising the property: every observable of a cell — mapping shape,
   cycle count, deterministic compile effort — must not depend on the
   number of domains that evaluated the grid. *)
let test_jobs_invariant () =
  let sub_grid =
    List.concat_map
      (fun k -> List.map (fun flow -> (k, flow)) FC.presets)
      (List.filteri (fun i _ -> i < 2) Runner.kernels)
  in
  let signature (k, flow) =
    match Runner.run_of k Cgra_arch.Config.HET2 flow with
    | Ok (m, x) ->
      Printf.sprintf "%s/%s: %d cycles, %d moves, %d work"
        k.Cgra_kernels.Kernel_def.slug (FC.preset_label flow)
        x.Toolchain.sim.Cgra_sim.Simulator.cycles
        (Cgra_core.Mapping.total_moves m.Toolchain.mapping)
        m.Toolchain.stats.Cgra_core.Flow.work
    | Error f ->
      Printf.sprintf "%s/%s: unmappable (%s)"
        k.Cgra_kernels.Kernel_def.slug (FC.preset_label flow)
        f.Cgra_core.Flow.reason
  in
  Runner.clear_caches ();
  let seq = Pool.map ~jobs:1 signature sub_grid in
  Runner.clear_caches ();
  let par = Pool.map ~jobs:4 signature sub_grid in
  Alcotest.(check (list string)) "cells identical at jobs 1 vs 4" seq par

let test_clear_resets_compute_count () =
  Runner.clear_caches ();
  let k = List.hd Runner.kernels in
  ignore (Runner.run_of k Cgra_arch.Config.HOM64 FC.Basic);
  Alcotest.(check bool) "computed at least once" true
    (Runner.compute_count () >= 1);
  Runner.clear_caches ();
  Alcotest.(check int) "counter reset with the caches" 0
    (Runner.compute_count ());
  ignore (Runner.run_of k Cgra_arch.Config.HOM64 FC.Basic);
  Alcotest.(check int) "exactly one compute after the clear" 1
    (Runner.compute_count ())

(* The search_report artifact is built from the search's deterministic
   counters only, so the rendered report must be byte-identical however
   the grid cells are evaluated. *)
let test_search_report_jobs_invariant () =
  let report jobs =
    Runner.clear_caches ();
    Pool.iter ~jobs
      (fun k -> ignore (Runner.run_of k Cgra_arch.Config.HET2 FC.Full))
      Runner.kernels;
    Cgra_exp.Figures.(search_report default)
  in
  Alcotest.(check string) "search_report identical at jobs 1 vs 4" (report 1)
    (report 4)

(* Keyed per-cell seeds: the same cell reproduces in isolation, outside the
   cache and independent of any other cell having run. *)
let test_cell_reproducible_in_isolation () =
  let k = List.hd Runner.kernels in
  let config = Cgra_arch.Config.HOM64 in
  let fc = Runner.cell_flow_config k.Cgra_kernels.Kernel_def.slug config FC.Basic in
  let cgra = Cgra_arch.Config.cgra config in
  let cdfg = Cgra_kernels.Kernel_def.cdfg k in
  let direct =
    match Cgra_core.Flow.run ~config:fc cgra cdfg with
    | Ok (m, _) -> Cgra_core.Mapping.total_moves m
    | Error f -> Alcotest.fail f.Cgra_core.Flow.reason
  in
  match Runner.run_of k config FC.Basic with
  | Error f -> Alcotest.fail f.Cgra_core.Flow.reason
  | Ok (m, _) ->
    Alcotest.(check int) "cached cell equals direct run" direct
      (Cgra_core.Mapping.total_moves m.Toolchain.mapping)

let suite =
  [ ( "parallel",
      [ Alcotest.test_case "pool preserves order" `Quick test_pool_order;
        Alcotest.test_case "pool jobs=1" `Quick test_pool_jobs_one;
        Alcotest.test_case "pool jobs > items" `Quick
          test_pool_more_jobs_than_items;
        Alcotest.test_case "pool re-raises" `Quick test_pool_exception;
        Alcotest.test_case "pool covers every item" `Quick
          test_pool_runs_everything;
        Alcotest.test_case "cache computes once" `Quick test_cache_computes_once;
        Alcotest.test_case "cache failure is cached, not poisoning" `Quick
          test_cache_failure_not_poisoning;
        Alcotest.test_case "clear_caches resets compute count" `Quick
          test_clear_resets_compute_count;
        Alcotest.test_case "reset discards stale publishes" `Quick
          test_reset_discards_stale_publish;
        Alcotest.test_case "persistent pool is lane-fair" `Quick
          test_persistent_pool_fairness;
        Alcotest.test_case "persistent pool drains on shutdown" `Quick
          test_persistent_pool_drains;
        Alcotest.test_case "cell reproducible in isolation" `Quick
          test_cell_reproducible_in_isolation;
        Alcotest.test_case "search_report jobs-invariant" `Slow
          test_search_report_jobs_invariant;
        Alcotest.test_case "artifacts jobs-invariant" `Slow test_jobs_invariant ] ) ]
