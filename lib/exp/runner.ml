module FC = Cgra_core.Flow_config
module K = Cgra_kernels.Kernel_def
module Pool = Cgra_util.Pool
module Rng = Cgra_util.Rng

(* A stage the harness cannot report numbers from — an invalid artifact,
   a simulator crash, a golden-model mismatch: all tool bugs. *)
exception Failed of { kernel : string; target : string; error : Toolchain.error }

let () =
  Printexc.register_printer (function
    | Failed { kernel; target; error } ->
      Some
        (Printf.sprintf "Runner.Failed (%s on %s: %s)" kernel target
           (Toolchain.error_to_string error))
    | _ -> None)

(* Every grid cell runs on its own split of the SplitMix64 stream, keyed by
   the cell's identity.  The cell's results therefore do not depend on how
   many other cells ran before it, in which order, or on how many domains —
   which is what makes every artifact byte-identical at any [--jobs].
   [Default] mode contributes an empty suffix, so its keys (and seeds) are
   exactly the seed harness's. *)
let cell_flow_config ?(opt = Toolchain.Default) slug config preset =
  let fc = FC.of_preset preset in
  let key =
    slug ^ "/" ^ Cgra_arch.Config.to_string config ^ "/" ^ FC.preset_label preset
    ^ Toolchain.opt_label opt
  in
  { fc with FC.seed = Rng.seed_of ~base:fc.FC.seed key }

type cell =
  (Toolchain.mapped * Toolchain.executed, Cgra_core.Flow.failure) result

(* ---- thread-safe memoisation ---------------------------------------- *)

(* The run cache is shared by every figure and by the parallel warm-up.
   Each key holds either a finished value or a [Computing] marker placed by
   the domain that claimed it; other domains block on the condition
   variable until the producer publishes, so a cell is *computed exactly
   once* no matter how many domains ask for it concurrently.  Exceptions
   (e.g. the golden-model check failing — a harness bug) are cached and
   re-raised to every consumer rather than recomputed.

   Exception safety is load-bearing: the claiming domain MUST publish
   something, or every waiter blocks forever and every later lookup finds
   a stale [Computing] marker (which used to die on [assert false],
   permanently poisoning the key).  [get] therefore runs the compute under
   [Fun.protect]: a value publishes [Ready], a caught exception publishes
   [Failed] (cached, re-raised to all consumers with its original
   backtrace), and anything that escapes both — an asynchronous interrupt
   landing between the claim and the publish — clears the slot in the
   [finally], so the key merely recomputes on the next call. *)
module Memo = struct
  type 'a slot =
    | Computing
    | Ready of 'a
    | Failed of exn * Printexc.raw_backtrace

  type ('k, 'v) t = {
    table : ('k, 'v slot) Hashtbl.t;
    mutex : Mutex.t;
    cond : Condition.t;
    computes : int Atomic.t;
    mutable generation : int;  (* bumped by [reset]; guarded by [mutex] *)
  }

  let create n =
    {
      table = Hashtbl.create n;
      mutex = Mutex.create ();
      cond = Condition.create ();
      computes = Atomic.make 0;
      generation = 0;
    }

  let computed m = Atomic.get m.computes

  (* A reset must not only drop the table: computes claimed *before* the
     reset may still be in flight, and their eventual publish (a value, a
     cached failure, or the async-exception slot clear) would land in the
     freshly cleared table — reviving a poisoned or stale computation
     under a key that may since have been re-claimed by a new producer.
     The generation counter makes those late publishes no-ops, and the
     broadcast releases waiters blocked on pre-reset [Computing] markers
     so they re-claim against the new generation. *)
  let reset m =
    Mutex.lock m.mutex;
    Hashtbl.reset m.table;
    Atomic.set m.computes 0;
    m.generation <- m.generation + 1;
    Condition.broadcast m.cond;
    Mutex.unlock m.mutex

  (* Forget one key — the seam the daemon needs for timed-out computes:
     a [Timed_out] outcome is a fact about the deadline, not the spec,
     so leaving it [Ready] would serve stale give-ups to patient future
     requests.  A [Computing] slot is left alone: removing it would
     orphan the in-flight producer's publish and strand its waiters. *)
  let forget m key =
    Mutex.lock m.mutex;
    (match Hashtbl.find_opt m.table key with
    | Some Computing | None -> ()
    | Some (Ready _ | Failed _) -> Hashtbl.remove m.table key);
    Condition.broadcast m.cond;
    Mutex.unlock m.mutex

  let get m key compute =
    Mutex.lock m.mutex;
    let rec claim () =
      match Hashtbl.find_opt m.table key with
      | None ->
        Hashtbl.replace m.table key Computing;
        `Compute m.generation
      | Some (Ready v) -> `Value v
      | Some (Failed (e, bt)) -> `Reraise (e, bt)
      | Some Computing ->
        Condition.wait m.cond m.mutex;
        claim ()
    in
    let decision = claim () in
    Mutex.unlock m.mutex;
    match decision with
    | `Value v -> v
    | `Reraise (e, bt) -> Printexc.raise_with_backtrace e bt
    | `Compute gen ->
      Atomic.incr m.computes;
      let published = ref false in
      let publish outcome =
        Mutex.lock m.mutex;
        (if m.generation = gen then
           match outcome with
           | Some o -> Hashtbl.replace m.table key o
           | None -> Hashtbl.remove m.table key);
        published := true;
        Condition.broadcast m.cond;
        Mutex.unlock m.mutex
      in
      Fun.protect
        ~finally:(fun () -> if not !published then publish None)
        (fun () ->
          match compute () with
          | v ->
            publish (Some (Ready v));
            v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            publish (Some (Failed (e, bt)));
            Printexc.raise_with_backtrace e bt)
end

let cache :
    ( string * Cgra_arch.Config.name * FC.preset * Toolchain.opt * FC.backend,
      cell )
    Memo.t =
  Memo.create 64

let run_of ?(opt = Toolchain.Default) ?backend k config preset =
  let fc = cell_flow_config ~opt k.K.slug config preset in
  let fc =
    { fc with FC.backend = Option.value backend ~default:fc.FC.backend }
  in
  Memo.get cache (k.K.slug, config, preset, opt, fc.FC.backend) (fun () ->
      let cgra = Cgra_arch.Config.cgra config in
      match Toolchain.run_kernel ~opt ~config:fc cgra k with
      | Ok _ as cell -> cell
      | Error (Toolchain.Unmapped f) -> Error f
      | Error error ->
        raise
          (Failed
             { kernel = k.K.name;
               target =
                 Cgra_arch.Config.to_string config ^ "/" ^ FC.preset_label preset;
               error }))

type cpu_run = {
  cpu_sim : Cgra_cpu.Cpu_sim.result;
  cpu_energy : Cgra_power.Energy.breakdown;
}

let cpu_cache : (string, cpu_run) Memo.t = Memo.create 8

let cpu_of k =
  Memo.get cpu_cache k.K.slug (fun () ->
      let prog = Cgra_cpu.Codegen.compile (K.cdfg k) in
      let mem = K.fresh_mem k in
      let cpu_sim = Cgra_cpu.Cpu_sim.run prog ~mem in
      if mem <> K.run_golden k then
        raise
          (Failed { kernel = k.K.name; target = "cpu"; error = Toolchain.Wrong_output });
      { cpu_sim; cpu_energy = Cgra_power.Energy.cpu cpu_sim })

let compile_work_of : cell -> int = function
  | Ok (m, _) -> m.Toolchain.stats.work
  | Error f -> f.work

let kernels = Cgra_kernels.Kernels.all

(* ---- parallel warm-up ------------------------------------------------ *)

let grid () =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun config -> List.map (fun flow -> `Cell (k, config, flow)) FC.presets)
        Cgra_arch.Config.all
      @ [ `Cpu k ])
    kernels

let warm ?jobs ?opt () =
  Pool.iter ?jobs
    (function
      | `Cell (k, config, flow) -> ignore (run_of ?opt k config flow)
      | `Cpu k -> ignore (cpu_of k))
    (grid ())

let compute_count () = Memo.computed cache + Memo.computed cpu_cache

(* Reset the compute counters together with the caches: they count
   computations *since the last clear*, and tests that clear the cache
   and then assert "computed exactly once" would otherwise see the
   residue of every cell computed before the clear. *)
let clear_caches () =
  Memo.reset cache;
  Memo.reset cpu_cache
