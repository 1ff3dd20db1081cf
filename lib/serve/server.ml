module Clock = Cgra_util.Clock
module Deadline = Cgra_util.Deadline
module Pool = Cgra_util.Pool
module Memo = Cgra_exp.Runner.Memo

type config = {
  socket_path : string;
  tcp_port : int option;
  store_root : string option;
  jobs : int option;
  verbose : bool;
  deadline_ms : int option;
  queue_limit : int option;
  io_timeout_s : float option;
}

(* A request error raised inside a single-flight compute; cached by the
   memo and re-raised to every waiter of the key, like any harness
   failure. *)
exception Request_error of string

type t = {
  cfg : config;
  store : Store.t;
  pool : Pool.Persistent.t;
  flights : (string, Compute.outcome) Memo.t;
  (* counters; the float accumulators live under [stats_mutex] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  unmappable : int Atomic.t;
  errors : int Atomic.t;
  timeouts : int Atomic.t;
  shed : int Atomic.t;
  stats_mutex : Mutex.t;
  mutable hit_us_total : float;
  mutable miss_us_total : float;
  started_at : float;
  stop : bool Atomic.t;
  client_counter : int Atomic.t;
  conns : int Atomic.t;
  conn_fds : (int, Unix.file_descr) Hashtbl.t;  (* client id -> fd *)
  conn_mutex : Mutex.t;
  mutable listeners : Unix.file_descr list;
  mutable accept_threads : Thread.t list;
}

let log t fmt =
  if t.cfg.verbose then Printf.eprintf ("cgra_mapd: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let store t = t.store
let stopping t = Atomic.get t.stop

(* ---- compute scheduling ----------------------------------------------- *)

(* Run [f] on the pool (FIFO per client lane, round-robin across lanes)
   and block this connection thread until it finishes.  During shutdown
   the pool rejects new work; a drained request then computes inline —
   it was accepted before the drain began, so it still gets an answer. *)
let run_on_pool t ~lane f =
  let m = Mutex.create () in
  let c = Condition.create () in
  let result = ref None in
  let job () =
    let r =
      match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock m;
    result := Some r;
    Condition.signal c;
    Mutex.unlock m
  in
  if Pool.Persistent.submit t.pool ~lane job then begin
    Mutex.lock m;
    while (match !result with None -> true | Some _ -> false) do
      Condition.wait c m
    done;
    Mutex.unlock m;
    match Option.get !result with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  end
  else f ()

(* ---- request handling ------------------------------------------------- *)

let add_latency t ~hit us =
  Mutex.lock t.stats_mutex;
  if hit then t.hit_us_total <- t.hit_us_total +. us
  else t.miss_us_total <- t.miss_us_total +. us;
  Mutex.unlock t.stats_mutex

let snapshot_stats t =
  Mutex.lock t.stats_mutex;
  let hit_us_total = t.hit_us_total and miss_us_total = t.miss_us_total in
  Mutex.unlock t.stats_mutex;
  {
    Protocol.hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    unmappable = Atomic.get t.unmappable;
    errors = Atomic.get t.errors;
    timeouts = Atomic.get t.timeouts;
    shed = Atomic.get t.shed;
    inflight = Pool.Persistent.inflight t.pool;
    stored_entries = Store.entries t.store;
    stored_bytes = Store.total_bytes t.store;
    hit_us_total;
    miss_us_total;
    uptime_s = Clock.now () -. t.started_at;
  }

(* The overload-degradation rung: with the compute queue past half the
   shedding limit, a portfolio request is downgraded to its beam half —
   one backend's worth of pool time instead of two.  The rewrite changes
   the key, so the beam artifact is computed, cached and served under
   its own honest digest (never under the portfolio key: the store must
   stay content-addressed).  A later, calmer portfolio request still
   computes the real race. *)
let downgrade_spec (spec : Key.spec) =
  let is_portfolio (name, v) = name = "backend" && v = "portfolio" in
  if List.exists is_portfolio spec.Key.knobs then
    Some
      {
        spec with
        Key.knobs =
          List.map
            (fun (name, v) ->
              if is_portfolio (name, v) then (name, "beam") else (name, v))
            spec.Key.knobs;
      }
  else None

let queue_depth t = Pool.Persistent.inflight t.pool

let handle_map t ~client spec deadline_ms =
  let t0 = Clock.now () in
  let deadline =
    let of_ms = function
      | None -> Deadline.never
      | Some ms -> Deadline.after_ms ms
    in
    (* The daemon default caps every request; a client may only ask for
       less patience than the daemon allows, never more. *)
    Deadline.intersect (of_ms deadline_ms) (of_ms t.cfg.deadline_ms)
  in
  let spec, degraded =
    match t.cfg.queue_limit with
    | Some limit when 2 * queue_depth t >= limit -> (
      match downgrade_spec spec with
      | Some spec' -> (spec', true)
      | None -> (spec, false))
    | _ -> (spec, false)
  in
  let key_digest = Key.digest spec in
  let elapsed_us () = Clock.elapsed_s t0 *. 1e6 in
  match Store.find t.store key_digest with
  | Store.Hit bytes ->
    Atomic.incr t.hits;
    add_latency t ~hit:true (elapsed_us ());
    log t "client %d: hit %s (%d bytes)" client key_digest
      (String.length bytes);
    Protocol.Artifact_r { digest = Artifact.digest bytes; cached = true; bytes }
  | miss -> (
    (match miss with
    | Store.Evicted_corrupt reason ->
      log t "client %d: evicted corrupt entry %s (%s)" client key_digest
        reason
    | _ -> ());
    (* Load shedding gates the compute path only: a store hit above is
       served even under full load — it costs microseconds, and
       refusing it would shed exactly the traffic the cache exists to
       absorb. *)
    match t.cfg.queue_limit with
    | Some limit when queue_depth t >= limit ->
      let depth = queue_depth t in
      Atomic.incr t.shed;
      log t "client %d: shed %s (queue %d >= limit %d)" client key_digest
        depth limit;
      Protocol.Overloaded_r { queue_depth = depth }
    | _ -> (
      if degraded then
        log t "client %d: overload degradation: portfolio -> beam (%s)"
          client key_digest;
      Atomic.incr t.misses;
      match
        Memo.get t.flights key_digest (fun () ->
            run_on_pool t ~lane:client (fun () ->
                match Compute.run ~deadline spec with
                | Ok outcome -> outcome
                | Error e -> raise (Request_error e)))
      with
      | Compute.Artifact { bytes; digest } ->
        Store.put t.store key_digest bytes;
        add_latency t ~hit:false (elapsed_us ());
        log t "client %d: computed %s (%d bytes, %.1f ms)" client key_digest
          (String.length bytes)
          (Clock.elapsed_s t0 *. 1e3);
        Protocol.Artifact_r { digest; cached = false; bytes }
      | Compute.Unmappable { reason } ->
        Atomic.incr t.unmappable;
        add_latency t ~hit:false (elapsed_us ());
        log t "client %d: unmappable %s (%s)" client key_digest reason;
        Protocol.Unmappable_r { reason }
      | Compute.Timed_out { where } ->
        (* Deadline verdicts are about this request's patience, not the
           spec: evict the flight so a future (possibly more patient)
           request recomputes instead of being served a stale give-up.
           Piggybacked waiters of this flight still see it — they
           shared the compute, so they share its fate. *)
        Memo.forget t.flights key_digest;
        Atomic.incr t.timeouts;
        add_latency t ~hit:false (elapsed_us ());
        log t "client %d: timed out %s (%s)" client key_digest where;
        Protocol.Timed_out_r { where }
      | exception Request_error reason ->
        Atomic.incr t.errors;
        log t "client %d: request error %s (%s)" client key_digest reason;
        Protocol.Error_r { reason }
      | exception e ->
        Atomic.incr t.errors;
        let reason = Printexc.to_string e in
        log t "client %d: internal error %s (%s)" client key_digest reason;
        Protocol.Error_r { reason }))

(* Returns the response and whether the connection should keep reading. *)
let handle_request t ~client = function
  | Protocol.Ping -> (Protocol.Pong, true)
  | Protocol.Stats -> (Protocol.Stats_r (snapshot_stats t), true)
  | Protocol.Clear ->
    (* the same code path the in-process harness uses: both the run
       cache and the cross-request flights are generation-reset *)
    Cgra_exp.Runner.clear_caches ();
    Memo.reset t.flights;
    let evicted = Store.clear t.store in
    log t "client %d: cleared %d stored artifacts" client evicted;
    (Protocol.Cleared { evicted }, true)
  | Protocol.Shutdown ->
    log t "client %d: shutdown requested" client;
    (Protocol.Shutting_down, false)
  | Protocol.Map { spec; deadline_ms } ->
    (handle_map t ~client spec deadline_ms, true)

(* ---- connections ------------------------------------------------------ *)

let request_stop t = Atomic.set t.stop true

let send_response fd resp =
  match Wire.write_frame fd (Wire.to_string (Protocol.response_to_sexp resp)) with
  | () -> true
  | exception (Unix.Unix_error _ | Sys_error _) -> false

let register_conn t client fd =
  Mutex.lock t.conn_mutex;
  Hashtbl.replace t.conn_fds client fd;
  Mutex.unlock t.conn_mutex;
  Atomic.incr t.conns

let unregister_conn t client fd =
  Mutex.lock t.conn_mutex;
  Hashtbl.remove t.conn_fds client;
  Mutex.unlock t.conn_mutex;
  Atomic.decr t.conns;
  try Unix.close fd with Unix.Unix_error _ -> ()

let handle_conn t client fd =
  register_conn t client fd;
  Fun.protect
    ~finally:(fun () -> unregister_conn t client fd)
    (fun () ->
      let rec loop () =
        match Wire.read_frame fd with
        | Error Wire.Eof -> ()
        | Error (Wire.Truncated _) -> ()
        | Error Wire.Idle_timeout ->
          (* vanished or slow-loris peer: free the thread quietly *)
          log t "client %d: receive timeout, dropping connection" client
        | Error (Wire.Oversized { length; _ } as e) ->
          (* Only the 4-byte prefix was consumed; the peer is typically
             still blocked writing its oversized payload.  Drain it so
             that write can complete — otherwise the client never gets
             to read the typed answer, it just sees a reset — then
             answer once and drop the connection (stream position is
             undefined past an oversized frame). *)
          Wire.drain fd length;
          ignore
            (send_response fd
               (Protocol.Error_r { reason = Wire.read_error_to_string e }))
        | Ok payload -> (
          let resp, continue =
            match Wire.parse payload with
            | Error e ->
              (Protocol.Error_r { reason = "parse error: " ^ e }, true)
            | Ok sexp -> (
              match Protocol.request_of_sexp sexp with
              | Error e -> (Protocol.Error_r { reason = e }, true)
              | Ok req -> handle_request t ~client req)
          in
          let sent = send_response fd resp in
          match resp with
          | Protocol.Shutting_down -> request_stop t
          | _ -> if sent && continue && not (Atomic.get t.stop) then loop ())
      in
      loop ())

(* ---- listeners -------------------------------------------------------- *)

let accept_loop t fd =
  while not (Atomic.get t.stop) do
    match Unix.select [ fd ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept fd with
      | cfd, _ ->
        (* Bound both directions: a stalled read (client vanished or
           trickling) surfaces as [Idle_timeout]; a stalled write (peer
           not reading its response) fails [send_response].  Either way
           the connection thread is freed instead of pinned forever. *)
        (match t.cfg.io_timeout_s with
        | None -> ()
        | Some s -> (
          try
            Unix.setsockopt_float cfd Unix.SO_RCVTIMEO s;
            Unix.setsockopt_float cfd Unix.SO_SNDTIMEO s
          with Unix.Unix_error _ -> ()));
        let client = Atomic.fetch_and_add t.client_counter 1 in
        log t "client %d: connected" client;
        ignore
          (Thread.create
             (fun () ->
               try handle_conn t client cfd
               with e ->
                 Printf.eprintf "cgra_mapd: connection %d died: %s\n%!" client
                   (Printexc.to_string e))
             ())
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
        ->
        ())
  done;
  try Unix.close fd with Unix.Unix_error _ -> ()

exception Address_in_use of { path : string }

(* Probe an existing socket path before binding over it.  A connect
   that succeeds means some process is listening there — we confirm
   with a bounded [ping], but even a peer that fails the ping holds
   the socket, so unlinking it would strand that daemon's clients
   either way.  Only a connection-refused (or vanished) socket is
   provably stale and safe to remove. *)
let probe_unix path =
  if not (Sys.file_exists path) then `Absent
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let close () = try Unix.close fd with Unix.Unix_error _ -> () in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
         Wire.write_frame fd
           (Wire.to_string (Protocol.request_to_sexp Protocol.Ping));
         ignore (Wire.read_frame fd)
       with Unix.Unix_error _ | Sys_error _ -> ());
      close ();
      `Live
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      close ();
      `Stale
    | exception Unix.Unix_error _ ->
      (* Cannot prove it stale (permissions, not-a-socket, ...):
         refuse rather than destroy. *)
      close ();
      `Live
  end

let listen_unix path =
  (match probe_unix path with
  | `Absent -> ()
  | `Stale -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Live -> raise (Address_in_use { path }));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let start cfg =
  let store = Store.open_ ?root:cfg.store_root () in
  (* Crash-recovery sweep before serving: a predecessor SIGKILLed
     mid-write leaves orphaned tmp files and possibly torn entries;
     evicting them here restores the store invariant (every entry
     verifiable) before the first request can trip over the debris. *)
  let swept = Store.scan store in
  let t =
    {
      cfg;
      store;
      pool = Pool.Persistent.create ?jobs:cfg.jobs ();
      flights = Memo.create 64;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      unmappable = Atomic.make 0;
      errors = Atomic.make 0;
      timeouts = Atomic.make 0;
      shed = Atomic.make 0;
      stats_mutex = Mutex.create ();
      hit_us_total = 0.0;
      miss_us_total = 0.0;
      started_at = Clock.now ();
      stop = Atomic.make false;
      client_counter = Atomic.make 0;
      conns = Atomic.make 0;
      conn_fds = Hashtbl.create 16;
      conn_mutex = Mutex.create ();
      listeners = [];
      accept_threads = [];
    }
  in
  let unix_fd = listen_unix cfg.socket_path in
  let listeners =
    unix_fd :: (match cfg.tcp_port with None -> [] | Some p -> [ listen_tcp p ])
  in
  t.listeners <- listeners;
  t.accept_threads <-
    List.map (fun fd -> Thread.create (fun () -> accept_loop t fd) ()) listeners;
  if swept.Store.orphans > 0 || swept.Store.truncated > 0 then
    log t "store scan: removed %d orphaned tmp file(s), %d truncated entr%s"
      swept.Store.orphans swept.Store.truncated
      (if swept.Store.truncated = 1 then "y" else "ies");
  log t "listening on %s%s (store %s, %d stored artifacts)" cfg.socket_path
    (match cfg.tcp_port with
    | None -> ""
    | Some p -> Printf.sprintf " and 127.0.0.1:%d" p)
    (Store.root store) (Store.entries store);
  t

let drain_grace_s = 10.0

let wait t =
  List.iter Thread.join t.accept_threads;
  (* accept loops exited => [stop] is set; give open connections a
     bounded grace to finish their in-flight request, then force-close
     the stragglers so a parked idle client cannot wedge shutdown *)
  let t0 = Clock.now () in
  while Atomic.get t.conns > 0 && Clock.elapsed_s t0 < drain_grace_s do
    Thread.delay 0.02
  done;
  Mutex.lock t.conn_mutex;
  Hashtbl.iter
    (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.conn_fds;
  Mutex.unlock t.conn_mutex;
  let t0 = Clock.now () in
  while Atomic.get t.conns > 0 && Clock.elapsed_s t0 < 2.0 do
    Thread.delay 0.02
  done;
  Pool.Persistent.shutdown t.pool;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  log t "shut down (hits %d, misses %d)" (Atomic.get t.hits)
    (Atomic.get t.misses)

let serve cfg =
  let t = start cfg in
  let stop_signal _ = request_stop t in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  (* a client vanishing mid-write must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  wait t
