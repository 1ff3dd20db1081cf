open Wire

type request =
  | Ping
  | Map of { spec : Key.spec; deadline_ms : int option }
  | Stats
  | Clear
  | Shutdown

type stats = {
  hits : int;
  misses : int;
  unmappable : int;
  errors : int;
  timeouts : int;
  shed : int;
  inflight : int;
  stored_entries : int;
  stored_bytes : int;
  hit_us_total : float;
  miss_us_total : float;
  uptime_s : float;
}

type response =
  | Pong
  | Artifact_r of { digest : string; cached : bool; bytes : string }
  | Unmappable_r of { reason : string }
  | Timed_out_r of { where : string }
  | Overloaded_r of { queue_depth : int }
  | Stats_r of stats
  | Cleared of { evicted : int }
  | Shutting_down
  | Error_r of { reason : string }

(* ---- helpers ---------------------------------------------------------- *)

let field name value = List [ Atom name; value ]
let str_field name s = field name (Atom s)
let int_field name i = str_field name (string_of_int i)
let float_field name f = str_field name (Printf.sprintf "%.17g" f)
let bool_field name b = str_field name (if b then "true" else "false")

let ( let* ) = Result.bind

(* Fields of a message body, by name; order-insensitive on the wire.
   Two-element fields map name -> value; longer ones (the [knobs] list)
   map name -> the whole item, which the scalar accessors reject. *)
let assoc_fields items =
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      match item with
      | List [ Atom name; value ] -> Ok ((name, value) :: acc)
      | List (Atom name :: _) -> Ok ((name, item) :: acc)
      | other -> Error ("malformed field: " ^ Wire.to_string other))
    (Ok []) items

let find_str fields name =
  match List.assoc_opt name fields with
  | Some (Atom s) -> Ok (Some s)
  | Some other ->
    Error (Printf.sprintf "field %s: expected an atom, got %s" name
             (Wire.to_string other))
  | None -> Ok None

let require_str fields name =
  let* v = find_str fields name in
  match v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing field %s" name)

let find_int fields name =
  let* v = find_str fields name in
  match v with
  | None -> Ok None
  | Some s -> (
    match int_of_string_opt s with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "field %s: not an integer: %S" name s))

let require_int fields name =
  let* v = find_int fields name in
  match v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing field %s" name)

let require_float fields name =
  let* s = require_str fields name in
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %s: not a float: %S" name s)

let require_bool fields name =
  let* s = require_str fields name in
  match s with
  | "true" -> Ok true
  | "false" -> Ok false
  | _ -> Error (Printf.sprintf "field %s: not a boolean: %S" name s)

(* ---- requests --------------------------------------------------------- *)

let knobs_to_sexp knobs =
  List
    (Atom "knobs"
    :: List.map (fun (name, v) -> List [ Atom name; Atom v ]) knobs)

let knobs_of_sexp = function
  | List (Atom "knobs" :: pairs) ->
    List.fold_left
      (fun acc pair ->
        let* acc = acc in
        match pair with
        | List [ Atom name; Atom v ] -> Ok ((name, v) :: acc)
        | other -> Error ("malformed knob: " ^ Wire.to_string other))
      (Ok []) pairs
    |> Result.map List.rev
  | other -> Error ("malformed knobs field: " ^ Wire.to_string other)

let map_to_sexp (spec : Key.spec) deadline_ms =
  let kernel_fields =
    match spec.Key.kernel with
    | Key.Bundled { slug; source = _ } -> [ str_field "kernel" slug ]
    | Key.Inline { source; mem_words } ->
      [ str_field "source" source; int_field "mem_words" mem_words ]
  in
  let faults_fields =
    match spec.Key.faults with
    | [] -> []
    | fs -> [ str_field "faults" (Cgra_arch.Fault_map.to_string fs) ]
  in
  (* The deadline is a wire-level request attribute, deliberately
     outside [Key.spec]: it must never reach the key digest, or two
     requests for the same artifact under different patience would miss
     each other's cache entries. *)
  let deadline_fields =
    match deadline_ms with
    | None -> []
    | Some ms -> [ int_field "deadline_ms" ms ]
  in
  List
    (Atom "map"
     :: kernel_fields
    @ [
        str_field "config" (Cgra_arch.Config.to_string spec.Key.config);
        str_field "opt" (Cgra_exp.Toolchain.opt_to_string spec.Key.opt);
        knobs_to_sexp spec.Key.knobs;
      ]
    @ faults_fields @ deadline_fields)

let map_of_sexp items =
  let* fields = assoc_fields items in
  let* kernel =
    let* slug = find_str fields "kernel" in
    let* source = find_str fields "source" in
    match (slug, source) with
    | Some _, Some _ -> Error "map: give either kernel or source, not both"
    | None, None -> Error "map: missing kernel (or source)"
    | Some slug, None -> (
      match Cgra_kernels.Kernels.by_slug slug with
      | Some k ->
        Ok (Key.Bundled { slug; source = k.Cgra_kernels.Kernel_def.source })
      | None -> Error (Printf.sprintf "unknown kernel %S" slug))
    | None, Some source ->
      let* mem_words = find_int fields "mem_words" in
      let mem_words = Option.value mem_words ~default:1024 in
      if mem_words <= 0 || mem_words > 1 lsl 20 then
        Error
          (Printf.sprintf "mem_words %d out of range (1 .. %d)" mem_words
             (1 lsl 20))
      else Ok (Key.Inline { source; mem_words })
  in
  let* config_s = require_str fields "config" in
  let* config =
    match Cgra_arch.Config.of_string config_s with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown configuration %S" config_s)
  in
  let* opt_s = find_str fields "opt" in
  let* opt =
    match opt_s with
    | None -> Ok Key.Default
    | Some s -> (
      match Cgra_exp.Toolchain.opt_of_string s with
      | Some o -> Ok o
      | None ->
        Error
          (Printf.sprintf "unknown opt mode %S (default|raw|optimized)" s))
  in
  let* knobs =
    match
      List.find_opt
        (function List (Atom "knobs" :: _) -> true | _ -> false)
        items
    with
    | Some k -> knobs_of_sexp k
    | None -> Ok []
  in
  (* Reject unknown knobs now, with a protocol-level error. *)
  let* _ = Cgra_core.Flow_config.of_knobs knobs in
  let* faults =
    let* fm = find_str fields "faults" in
    match fm with
    | None -> Ok []
    | Some text -> (
      match Cgra_arch.Fault_map.of_string text with
      | Ok fs -> Ok fs
      | Error e -> Error ("faults: " ^ e))
  in
  let* deadline_ms =
    let* d = find_int fields "deadline_ms" in
    match d with
    | Some ms when ms <= 0 ->
      Error (Printf.sprintf "deadline_ms %d out of range (must be > 0)" ms)
    | d -> Ok d
  in
  Ok (Map { spec = { Key.kernel; config; knobs; opt; faults }; deadline_ms })

let request_to_sexp = function
  | Ping -> List [ Atom "ping" ]
  | Map { spec; deadline_ms } -> map_to_sexp spec deadline_ms
  | Stats -> List [ Atom "stats" ]
  | Clear -> List [ Atom "clear" ]
  | Shutdown -> List [ Atom "shutdown" ]

let request_of_sexp = function
  | List [ Atom "ping" ] -> Ok Ping
  | List (Atom "map" :: items) -> map_of_sexp items
  | List [ Atom "stats" ] -> Ok Stats
  | List [ Atom "clear" ] -> Ok Clear
  | List [ Atom "shutdown" ] -> Ok Shutdown
  | other -> Error ("unknown request: " ^ Wire.to_string other)

(* ---- responses -------------------------------------------------------- *)

let response_to_sexp = function
  | Pong -> List [ Atom "pong" ]
  | Artifact_r { digest; cached; bytes } ->
    List
      [
        Atom "artifact";
        str_field "digest" digest;
        bool_field "cached" cached;
        str_field "bytes" bytes;
      ]
  | Unmappable_r { reason } ->
    List [ Atom "unmappable"; str_field "reason" reason ]
  | Timed_out_r { where } -> List [ Atom "timed_out"; str_field "where" where ]
  | Overloaded_r { queue_depth } ->
    List [ Atom "overloaded"; int_field "queue_depth" queue_depth ]
  | Stats_r s ->
    List
      [
        Atom "stats";
        int_field "hits" s.hits;
        int_field "misses" s.misses;
        int_field "unmappable" s.unmappable;
        int_field "errors" s.errors;
        int_field "timeouts" s.timeouts;
        int_field "shed" s.shed;
        int_field "inflight" s.inflight;
        int_field "stored_entries" s.stored_entries;
        int_field "stored_bytes" s.stored_bytes;
        float_field "hit_us_total" s.hit_us_total;
        float_field "miss_us_total" s.miss_us_total;
        float_field "uptime_s" s.uptime_s;
      ]
  | Cleared { evicted } -> List [ Atom "cleared"; int_field "evicted" evicted ]
  | Shutting_down -> List [ Atom "shutting_down" ]
  | Error_r { reason } -> List [ Atom "error"; str_field "reason" reason ]

let response_of_sexp = function
  | List [ Atom "pong" ] -> Ok Pong
  | List (Atom "artifact" :: items) ->
    let* fields = assoc_fields items in
    let* digest = require_str fields "digest" in
    let* cached = require_bool fields "cached" in
    let* bytes = require_str fields "bytes" in
    Ok (Artifact_r { digest; cached; bytes })
  | List (Atom "unmappable" :: items) ->
    let* fields = assoc_fields items in
    let* reason = require_str fields "reason" in
    Ok (Unmappable_r { reason })
  | List (Atom "timed_out" :: items) ->
    let* fields = assoc_fields items in
    let* where = require_str fields "where" in
    Ok (Timed_out_r { where })
  | List (Atom "overloaded" :: items) ->
    let* fields = assoc_fields items in
    let* queue_depth = require_int fields "queue_depth" in
    Ok (Overloaded_r { queue_depth })
  | List (Atom "stats" :: items) ->
    let* fields = assoc_fields items in
    let* hits = require_int fields "hits" in
    let* misses = require_int fields "misses" in
    let* unmappable = require_int fields "unmappable" in
    let* errors = require_int fields "errors" in
    let* timeouts = require_int fields "timeouts" in
    let* shed = require_int fields "shed" in
    let* inflight = require_int fields "inflight" in
    let* stored_entries = require_int fields "stored_entries" in
    let* stored_bytes = require_int fields "stored_bytes" in
    let* hit_us_total = require_float fields "hit_us_total" in
    let* miss_us_total = require_float fields "miss_us_total" in
    let* uptime_s = require_float fields "uptime_s" in
    Ok
      (Stats_r
         {
           hits;
           misses;
           unmappable;
           errors;
           timeouts;
           shed;
           inflight;
           stored_entries;
           stored_bytes;
           hit_us_total;
           miss_us_total;
           uptime_s;
         })
  | List (Atom "cleared" :: items) ->
    let* fields = assoc_fields items in
    let* evicted = require_int fields "evicted" in
    Ok (Cleared { evicted })
  | List [ Atom "shutting_down" ] -> Ok Shutting_down
  | List (Atom "error" :: items) ->
    let* fields = assoc_fields items in
    let* reason = require_str fields "reason" in
    Ok (Error_r { reason })
  | other -> Error ("unknown response: " ^ Wire.to_string other)
