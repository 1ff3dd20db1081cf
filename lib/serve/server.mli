(** The [cgra_mapd] daemon: a long-running mapping service.

    Architecture (DESIGN.md §5f): one listener per endpoint (always a
    Unix-domain socket, optionally loopback TCP) accepts connections on a
    stop-aware select loop; each connection gets a lightweight handler
    thread that decodes length-prefixed {!Wire} frames and serves
    {!Protocol} requests.  A [map] request is keyed ({!Key.digest}),
    looked up in the content-addressed {!Store} (hits return in
    microseconds), and on a miss deduplicated across {e all} connections
    through the same single-flight [Runner.Memo] discipline the
    in-process harness uses, then computed on a persistent
    [Cgra_util.Pool] domain pool with fair per-client FIFO queueing.
    Artifacts are written back to the store, which verifies the recorded
    digest on every read.

    Shutdown — via the [shutdown] request or SIGTERM/SIGINT under
    {!serve} — stops accepting, drains in-flight requests and queued
    jobs, joins the workers and removes the socket file. *)

type config = {
  socket_path : string;        (** Unix-domain socket to listen on *)
  tcp_port : int option;       (** also listen on 127.0.0.1:port *)
  store_root : string option;  (** artifact store root (default
                                   {!Store.default_root}) *)
  jobs : int option;           (** compute worker domains (default
                                   [Pool.default_jobs]) *)
  verbose : bool;              (** log requests to stderr *)
  deadline_ms : int option;    (** default compute deadline per [map]
                                   request; a request's own
                                   [deadline_ms] can only tighten it
                                   (the two are intersected).  [None] =
                                   unlimited *)
  queue_limit : int option;    (** shed [map] misses with
                                   [Overloaded_r] once the compute
                                   queue (queued + running) reaches
                                   this depth; at half this depth
                                   portfolio requests degrade to beam.
                                   Store hits are always served.
                                   [None] = never shed *)
  io_timeout_s : float option; (** SO_RCVTIMEO/SO_SNDTIMEO on accepted
                                   connections: a peer that stalls a
                                   read or write for this long is
                                   dropped, freeing its thread.  [None]
                                   = block forever *)
}

type t

exception Address_in_use of { path : string }
(** Raised by {!start} when the configured Unix socket path is already
    held by a live daemon: the path is probed with a connect (and a
    bounded [ping]) before binding, and only a connection-refused
    socket file — a provably stale leftover — is removed and rebound.
    Binding over a live socket would silently strand the first
    daemon's clients. *)

val start : config -> t
(** Bind the listeners and spawn the worker pool and accept threads.
    Raises [Unix_error] if a listener cannot bind and {!Address_in_use}
    if another live daemon already owns the Unix socket path. *)

val store : t -> Store.t

val request_stop : t -> unit
(** Begin graceful shutdown; idempotent, safe from a signal handler
    context (sets a flag the accept loops poll). *)

val wait : t -> unit
(** Block until shutdown completes: accept threads joined, connections
    drained (bounded grace, then force-closed), pool drained and joined,
    socket unlinked. *)

val serve : config -> unit
(** [start], install SIGTERM/SIGINT handlers that {!request_stop}, then
    {!wait} — the [cgra_mapd] main loop. *)
