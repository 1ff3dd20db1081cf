type t = { fd : Unix.file_descr }

type endpoint =
  | Unix_socket of string
  | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let connect ep =
  match
    match ep with
    | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
    | Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (addr, port))
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
  with
  | fd -> Ok { fd }
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot connect to %s: %s" (endpoint_to_string ep)
         (Unix.error_message err))
  | exception Not_found ->
    Error (Printf.sprintf "cannot resolve %s" (endpoint_to_string ep))
  | exception Failure msg ->
    Error (Printf.sprintf "cannot connect to %s: %s" (endpoint_to_string ep) msg)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_conn ep f =
  match connect ep with
  | Error _ as e -> e
  | Ok t -> Ok (Fun.protect ~finally:(fun () -> close t) (fun () -> f t))

let request t req =
  match
    Wire.write_frame t.fd (Wire.to_string (Protocol.request_to_sexp req))
  with
  | exception Unix.Unix_error (err, _, _) ->
    Error ("send failed: " ^ Unix.error_message err)
  | () -> (
    (* The read side raises too — a daemon SIGKILLed mid-compute resets
       the connection and [Unix.read] throws ECONNRESET.  Catching it
       here (not just on the write) is what keeps [cgra_map remote]
       from dying with a raw backtrace when the daemon vanishes. *)
    match Wire.read_frame t.fd with
    | exception Unix.Unix_error (err, _, _) ->
      Error ("receive failed: " ^ Unix.error_message err)
    | Error e -> Error ("receive failed: " ^ Wire.read_error_to_string e)
    | Ok payload -> (
      match Wire.parse payload with
      | Error e -> Error ("malformed response: " ^ e)
      | Ok sexp -> Protocol.response_of_sexp sexp))

let ping ep =
  let t0 = Cgra_util.Clock.now () in
  match with_conn ep (fun t -> request t Protocol.Ping) with
  | Error e -> Error e
  | Ok (Error e) -> Error e
  | Ok (Ok Protocol.Pong) -> Ok ((Cgra_util.Clock.now () -. t0) *. 1e3)
  | Ok (Ok other) ->
    Error
      ("unexpected ping response: "
      ^ Wire.to_string (Protocol.response_to_sexp other))

type source = Daemon of { cached : bool } | Local

type map_result =
  | Artifact of { bytes : string; digest : string; source : source }
  | Unmappable of { reason : string }
  | Timed_out of { where : string }

type map_error =
  | Unreachable of { endpoint : string; reason : string }
  | Rejected of string

let map_error_to_string = function
  | Unreachable { reason; _ } -> reason
  | Rejected reason -> reason

let map_local ?deadline_ms spec =
  let deadline =
    match deadline_ms with
    | None -> Cgra_util.Deadline.never
    | Some ms -> Cgra_util.Deadline.after_ms ms
  in
  match Compute.run ~deadline spec with
  | Error e -> Error (Rejected e)
  | Ok (Compute.Unmappable { reason }) -> Ok (Unmappable { reason })
  | Ok (Compute.Timed_out { where }) -> Ok (Timed_out { where })
  | Ok (Compute.Artifact { bytes; digest }) ->
    Ok (Artifact { bytes; digest; source = Local })

(* Capped exponential backoff with keyed jitter.  The jitter stream is
   seeded from the key digest, so a fleet of clients hammering
   an overloaded daemon for different keys desynchronises — while any
   single run's delays are reproducible, in keeping with the repo-wide
   determinism discipline (nothing consults [Random] or the wall
   clock). *)
let backoff_delays ~spec ~retries =
  let rng =
    Cgra_util.Rng.create (Cgra_util.Rng.seed_of ~base:0 (Key.digest spec))
  in
  List.init retries (fun k ->
      let base = min 2.0 (0.05 *. float_of_int (1 lsl min k 5)) in
      let jitter = 0.5 +. (float_of_int (Cgra_util.Rng.int rng 1000) /. 1000.0) in
      base *. jitter)

let map ?(fallback = true) ?deadline_ms ?(retries = 0) ep spec =
  let delays = backoff_delays ~spec ~retries in
  let attempt_once () =
    match connect ep with
    | Error e -> `Unreachable e
    | Ok t -> (
      let r =
        Fun.protect
          ~finally:(fun () -> close t)
          (fun () -> request t (Protocol.Map { spec; deadline_ms }))
      in
      match r with
      | Error e ->
        (* the daemon answered garbage or hung up mid-frame; that is an
           I/O failure, not a rejection, so treat it like a dead socket.
           Name the endpoint: unlike connect errors, frame-level
           failures do not carry it. *)
        `Unreachable (endpoint_to_string ep ^ ": " ^ e)
      | Ok (Protocol.Artifact_r { digest; cached; bytes }) ->
        `Done (Ok (Artifact { bytes; digest; source = Daemon { cached } }))
      | Ok (Protocol.Unmappable_r { reason }) ->
        `Done (Ok (Unmappable { reason }))
      | Ok (Protocol.Timed_out_r { where }) ->
        (* Not retryable: the same deadline buys the same give-up.  The
           caller decides whether to come back with more patience. *)
        `Done (Ok (Timed_out { where }))
      | Ok (Protocol.Overloaded_r { queue_depth }) ->
        (* Retryable by design: nothing was computed, and the queue
           drains as other requests finish. *)
        `Overloaded queue_depth
      | Ok (Protocol.Error_r { reason }) -> `Done (Error (Rejected reason))
      | Ok other ->
        `Done
          (Error
             (Rejected
                ("unexpected response: "
                ^ Wire.to_string (Protocol.response_to_sexp other)))))
  in
  let rec go delays =
    match (attempt_once (), delays) with
    | `Done r, _ -> r
    | `Unreachable reason, [] ->
      if fallback then map_local ?deadline_ms spec
      else
        Error (Unreachable { endpoint = endpoint_to_string ep; reason })
    | `Overloaded depth, [] ->
      (* The daemon is alive and refusing work — a rejection, not an
         outage, so no local fallback: silently absorbing the shed
         traffic on the client host would defeat the shedding. *)
      Error
        (Rejected
           (Printf.sprintf "daemon overloaded (compute queue %d deep)" depth))
    | (`Unreachable _ | `Overloaded _), delay :: rest ->
      Thread.delay delay;
      go rest
  in
  go delays
