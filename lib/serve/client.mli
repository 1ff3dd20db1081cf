(** Client side of the {!Protocol}: connect, exchange framed requests,
    and a [map] convenience that falls back to computing locally
    (through the same {!Compute} path the daemon uses, so the bytes are
    identical either way) when no daemon is reachable. *)

type t

type endpoint =
  | Unix_socket of string
  | Tcp of string * int  (** host, port *)

val connect : endpoint -> (t, string) result
(** One-line typed error on failure (daemon not running, stale socket,
    connection refused). *)

val close : t -> unit

val with_conn : endpoint -> (t -> 'a) -> ('a, string) result
(** [connect], run the body, [close] (also on exception). *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** Send one framed request and block for the framed response.  Every
    socket-level failure — on the write {e or} the read, including a
    daemon that died mid-compute and reset the connection — comes back
    as a typed [Error], never an escaping [Unix_error]. *)

val ping : endpoint -> (float, string) result
(** Health probe: connect, exchange [ping]/[pong], return the round-trip
    time in milliseconds.  A cheap liveness check before committing a
    batch of requests to a daemon. *)

type source = Daemon of { cached : bool } | Local

type map_result =
  | Artifact of { bytes : string; digest : string; source : source }
  | Unmappable of { reason : string }
  | Timed_out of { where : string }
      (** the deadline fired; [where] names the search boundary that
          observed it *)

type map_error =
  | Unreachable of { endpoint : string; reason : string }
      (** no daemon answered (connect refused, stale socket, or it died
          mid-frame) and fallback was disabled; [reason] names the
          socket path.  Callers can give this its own exit code. *)
  | Rejected of string
      (** the daemon (or the local compute path) was reachable and said
          no: a request error, an overloaded queue after all retries, or
          a malformed-spec failure *)

val map_error_to_string : map_error -> string

val map :
  ?fallback:bool ->
  ?deadline_ms:int ->
  ?retries:int ->
  endpoint ->
  Key.spec ->
  (map_result, map_error) result
(** Try the daemon first; when it is unreachable and [fallback] is true
    (the default), compute in-process via {!Compute.run} (under the same
    [deadline_ms], so local fallback honours the caller's patience).

    [retries] (default 0) extra attempts are made before giving up or
    falling back, with capped exponential backoff (50 ms base, 2 s cap)
    and jitter keyed on [Key.digest spec] — deterministic per run,
    decorrelated across keys.  Retried: connection failures,
    mid-frame hangups, and [Overloaded_r] shedding.  {e Not} retried:
    [Timed_out_r] (the same deadline buys the same give-up) and daemon
    rejections ([Error_r]), which are returned as [Error] without
    fallback — the daemon was reachable and said no. *)
