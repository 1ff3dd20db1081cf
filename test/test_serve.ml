(* The daemon stack, bottom-up: wire codec and framing, request keys,
   the content-addressed store (including corruption and a concurrent
   writer storm), the shared compute path, the protocol codecs, and an
   end-to-end socket test against a live in-process server. *)

module Serve = Cgra_serve
module Wire = Serve.Wire
module Key = Serve.Key
module Store = Serve.Store
module Compute = Serve.Compute
module Protocol = Serve.Protocol

let fail_on_error = function Ok v -> v | Error e -> Alcotest.fail e

let fail_on_map_error = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Cgra_serve.Client.map_error_to_string e)

(* ---- wire codec ------------------------------------------------------- *)

let rec sexp_equal a b =
  match (a, b) with
  | Wire.Atom x, Wire.Atom y -> String.equal x y
  | Wire.List xs, Wire.List ys ->
    List.length xs = List.length ys && List.for_all2 sexp_equal xs ys
  | _ -> false

let gen_sexp =
  let open QCheck.Gen in
  let atom = map (fun s -> Wire.Atom s) (string_size (int_bound 12)) in
  sized
    (fix (fun self n ->
         if n <= 0 then atom
         else
           frequency
             [
               (2, atom);
               ( 1,
                 map
                   (fun l -> Wire.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
             ]))

let arb_sexp = QCheck.make ~print:Wire.to_string gen_sexp

let test_codec_roundtrip () =
  let prop s =
    match Wire.parse (Wire.to_string s) with
    | Ok s' -> sexp_equal s s'
    | Error _ -> false
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"sexp codec round-trip" arb_sexp prop)

let test_codec_binary_atoms () =
  (* every byte value survives quoting *)
  let all = String.init 256 Char.chr in
  let s = Wire.List [ Wire.Atom "bytes"; Wire.Atom all ] in
  match Wire.parse (Wire.to_string s) with
  | Ok s' -> Alcotest.(check bool) "binary round-trip" true (sexp_equal s s')
  | Error e -> Alcotest.fail e

let test_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match Wire.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "parsed garbage %S" s))
    [ "("; ")"; "(a"; "\"unterminated"; "a b"; ""; "(a) trailing" ]

(* ---- framing ---------------------------------------------------------- *)

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let test_frame_roundtrip () =
  with_pipe (fun r w ->
      write_all w (Wire.frame_bytes "hello");
      write_all w (Wire.frame_bytes "");
      Unix.close w;
      (match Wire.read_frame r with
       | Ok p -> Alcotest.(check string) "payload" "hello" p
       | Error e -> Alcotest.fail (Wire.read_error_to_string e));
      (match Wire.read_frame r with
       | Ok p -> Alcotest.(check string) "zero-length payload" "" p
       | Error e -> Alcotest.fail (Wire.read_error_to_string e));
      match Wire.read_frame r with
      | Error Wire.Eof -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected clean EOF")

let test_frame_truncated () =
  with_pipe (fun r w ->
      (* half a length prefix *)
      write_all w "\x00\x00";
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Truncated _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Truncated (prefix)");
  with_pipe (fun r w ->
      (* prefix promises 10 bytes, payload delivers 4 *)
      write_all w "\x00\x00\x00\x0aabcd";
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Truncated { wanted = 10; got = 4 }) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Truncated {10;4}")

let test_frame_oversized () =
  with_pipe (fun r w ->
      let n = Wire.max_frame + 1 in
      let prefix =
        String.init 4 (fun i ->
            Char.chr ((n lsr (8 * (3 - i))) land 0xff))
      in
      write_all w prefix;
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Oversized { length; limit }) ->
        Alcotest.(check int) "length" n length;
        Alcotest.(check int) "limit" Wire.max_frame limit
      | Ok _ | Error _ -> Alcotest.fail "expected Oversized")

(* ---- keys ------------------------------------------------------------- *)

let fir_spec ?(flow = Cgra_core.Flow_config.basic) ?(faults = []) () =
  fail_on_error
    (Key.spec_of_bundled ~slug:"fir" ~config:Cgra_arch.Config.HOM64 ~flow
       ~opt:Key.Default ~faults)

let test_key_order_insensitive () =
  let spec = fir_spec () in
  let rev = { spec with Key.knobs = List.rev spec.Key.knobs } in
  Alcotest.(check string) "knob order does not change the digest"
    (Key.digest spec) (Key.digest rev)

let test_key_sensitivity () =
  let base = Key.digest (fir_spec ()) in
  let differs what spec =
    if String.equal base (Key.digest spec) then
      Alcotest.fail (what ^ " must change the digest")
  in
  differs "a knob value"
    (let s = fir_spec () in
     {
       s with
       Key.knobs =
         List.map
           (fun (n, v) -> if n = "seed" then (n, "12345") else (n, v))
           s.Key.knobs;
     });
  differs "the configuration"
    { (fir_spec ()) with Key.config = Cgra_arch.Config.HET2 };
  differs "the opt mode" { (fir_spec ()) with Key.opt = Key.Optimized };
  differs "the fault map"
    (fir_spec () |> fun s ->
     { s with Key.faults = [ Cgra_arch.Cgra.Dead_tile { tile = 3 } ] });
  differs "the kernel source"
    {
      (fir_spec ()) with
      Key.kernel = Key.Inline { source = "x"; mem_words = 64 };
    }

let test_key_excluded_knobs () =
  (* expand_jobs is read by nothing and must not appear *)
  let flow = { Cgra_core.Flow_config.basic with expand_jobs = 7 } in
  Alcotest.(check string) "bytes-neutral fields are not keyed"
    (Key.digest (fir_spec ()))
    (Key.digest (fir_spec ~flow ()))

(* Every knob of the table: printing a configuration's value and parsing
   it back is the identity, over random configurations. *)
let arb_flow_config =
  let module FC = Cgra_core.Flow_config in
  let module P = Cgra_arch.Protection in
  let open QCheck.Gen in
  let gen =
    let* base = oneofl (List.map FC.of_preset FC.presets) in
    let* beam_width = int_range 1 128 and* seed = int and* retries = int_bound 5 in
    let* keep_prob = float_bound_inclusive 1.0 and* prune_slack = float in
    let* degrade = bool and* cab = bool and* max_attempts = int_range 1 9 in
    let* backend = oneofl FC.backends
    and* traversal = oneofl [ FC.Forward; FC.Weighted ]
    and* protection =
      oneofl
        [ P.none; P.parity; P.secded;
          Option.get (P.profile_of_string "cm64=secded,cm32=parity,cm16=none") ]
    in
    return
      { base with
        FC.beam_width; seed; retries; keep_prob; prune_slack; degrade; cab;
        max_attempts; backend; traversal; protection }
  in
  QCheck.make
    ~print:(fun c ->
      String.concat " " (List.map (fun (n, v) -> n ^ "=" ^ v) (FC.to_knobs c)))
    gen

let prop_knob_print_parse =
  let module FC = Cgra_core.Flow_config in
  QCheck.Test.make ~name:"knob table: print then parse is the identity"
    ~count:200 arb_flow_config (fun c ->
      List.for_all
        (fun (k : FC.knob) ->
          match k.FC.parse FC.default (k.FC.print c) with
          | Ok c' -> k.FC.print c' = k.FC.print c
          | Error e -> QCheck.Test.fail_report e)
        FC.knobs
      && FC.of_knobs (FC.to_knobs c) |> Result.map FC.to_knobs = Ok (FC.to_knobs c))

let test_key_knobs_roundtrip () =
  let module FC = Cgra_core.Flow_config in
  let knobs = FC.to_knobs FC.context_aware in
  let fc = fail_on_error (FC.of_knobs knobs) in
  Alcotest.(check (list (pair string string)))
    "knobs -> config -> knobs round-trip" knobs (FC.to_knobs fc);
  (* typed errors that name the culprit: an unknown name, and for every
     knob a value none of its spellings accepts *)
  let names_it pairs culprit =
    match FC.of_knobs pairs with
    | Ok _ -> Alcotest.fail (culprit ^ ": bad knob accepted")
    | Error e ->
      let n = String.length culprit in
      let rec has i =
        i + n <= String.length e && (String.sub e i n = culprit || has (i + 1))
      in
      Alcotest.(check bool) (e ^ " names " ^ culprit) true (has 0)
  in
  names_it [ ("no_such_knob", "1") ] "no_such_knob";
  List.iter (fun (k : FC.knob) -> names_it [ (k.FC.name, "?") ] k.FC.name) FC.knobs

(* ---- store ------------------------------------------------------------ *)

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)

let with_store f =
  let root = fresh_dir "cgra-store-test" in
  let store = Store.open_ ~root () in
  Fun.protect ~finally:(fun () -> ignore (Store.clear store)) (fun () -> f store)

let key_a = String.make 32 'a'

let test_store_roundtrip () =
  with_store (fun store ->
      Alcotest.(check bool) "miss before put" true
        (match Store.find store key_a with Store.Miss -> true | _ -> false);
      let payload = "artifact bytes \x00\xff with binary\n" in
      Store.put store key_a payload;
      (match Store.find store key_a with
       | Store.Hit bytes ->
         Alcotest.(check string) "byte-identical round-trip" payload bytes
       | Store.Miss | Store.Evicted_corrupt _ -> Alcotest.fail "expected hit");
      Alcotest.(check int) "one entry" 1 (Store.entries store);
      (* put is first-writer-wins: a second put must not change the bytes *)
      Store.put store key_a "different";
      match Store.find store key_a with
      | Store.Hit bytes -> Alcotest.(check string) "immutable" payload bytes
      | _ -> Alcotest.fail "expected hit")

let test_store_corruption () =
  with_store (fun store ->
      Store.put store key_a "good payload";
      (* flip bytes in the stored file *)
      let dir = Filename.concat (Store.root store) (String.sub key_a 0 2) in
      let file =
        Filename.concat dir (String.sub key_a 2 (String.length key_a - 2) ^ ".art")
      in
      let oc = open_out_bin file in
      output_string oc "cgra-store v1 0123 12\ncorrupted!!";
      close_out oc;
      (match Store.find store key_a with
       | Store.Evicted_corrupt _ -> ()
       | Store.Hit _ -> Alcotest.fail "served corrupt bytes"
       | Store.Miss -> Alcotest.fail "corrupt entry should be evicted loudly");
      Alcotest.(check bool) "evicted from disk" false (Sys.file_exists file);
      match Store.find store key_a with
      | Store.Miss -> ()
      | _ -> Alcotest.fail "expected miss after eviction")

let test_store_concurrent_writers () =
  with_store (fun store ->
      let payload = String.concat "-" (List.init 64 string_of_int) in
      Cgra_util.Pool.iter ~jobs:8
        (fun _ -> Store.put store key_a payload)
        (List.init 32 Fun.id);
      Alcotest.(check int) "storm leaves exactly one entry" 1
        (Store.entries store);
      match Store.find store key_a with
      | Store.Hit bytes -> Alcotest.(check string) "intact" payload bytes
      | _ -> Alcotest.fail "expected hit after storm")

(* ---- compute ---------------------------------------------------------- *)

let test_compute_deterministic () =
  let spec = fir_spec () in
  match (Compute.run spec, Compute.run spec) with
  | ( Ok (Compute.Artifact { bytes = b1; digest = d1 }),
      Ok (Compute.Artifact { bytes = b2; digest = _ }) ) ->
    Alcotest.(check string) "byte-identical artifacts" b1 b2;
    Alcotest.(check string) "digest is MD5 of the bytes"
      (Digest.to_hex (Digest.string b1))
      d1;
    (* the artifact names its own request key *)
    let key_line = "key " ^ Key.digest spec in
    Alcotest.(check bool) "key digest embedded" true
      (List.mem key_line (String.split_on_char '\n' b1))
  | Ok (Compute.Unmappable { reason }), _ | _, Ok (Compute.Unmappable { reason })
    ->
    Alcotest.fail ("fir should map: " ^ reason)
  | Ok (Compute.Timed_out { where }), _ | _, Ok (Compute.Timed_out { where }) ->
    Alcotest.fail ("no deadline was armed, yet timed out at " ^ where)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_compute_unmappable () =
  let spec =
    fail_on_error
      (Key.spec_of_bundled ~slug:"fft" ~config:Cgra_arch.Config.HOM32
         ~flow:Cgra_core.Flow_config.basic ~opt:Key.Default ~faults:[])
  in
  match Compute.run spec with
  | Ok (Compute.Unmappable _) -> ()
  | Ok (Compute.Artifact _) -> Alcotest.fail "fft should overflow HOM32"
  | Ok (Compute.Timed_out _) -> Alcotest.fail "no deadline was armed"
  | Error e -> Alcotest.fail e

let test_compute_bad_request () =
  let spec =
    {
      Key.kernel = Key.Inline { source = "this does not compile"; mem_words = 64 };
      config = Cgra_arch.Config.HOM64;
      knobs = [];
      opt = Key.Default;
      faults = [];
    }
  in
  match Compute.run spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense source should be a typed request error"

(* The lowering caps its steps, so a short source with a huge unroll
   count is a typed request error, answered at once in both lowerings,
   rather than a worker busy for as long as the count makes it.  Each
   unroll iteration counts, even with an empty body; the third source
   unrolls 30,000 times, well under the cap, but each copy of its one
   statement lowers 19 expression nodes. *)
let test_compute_caps_inline_unroll () =
  let big body n =
    Printf.sprintf
      "kernel big { arr x @ 0; arr y @ 512; var s; s = 0; \
       unroll k = 0 to %d { %s } y[0] = s; }"
      n body
  in
  List.iter
    (fun (source, opt) ->
      let spec =
        { Key.kernel = Key.Inline { source; mem_words = 1024 };
          config = Cgra_arch.Config.HET2; knobs = []; opt; faults = [] }
      in
      let t0 = Cgra_util.Clock.now () in
      (match
         Compute.run ~deadline:(Cgra_util.Deadline.after_ms 100) spec
       with
       | Error e ->
         Alcotest.(check bool) ("semantic error: " ^ e) true
           (String.starts_with ~prefix:"kernel source: semantic error: " e)
       | Ok _ -> Alcotest.fail "a huge unroll should be a request error");
      Alcotest.(check bool) "answered within 1 s" true
        (Cgra_util.Clock.elapsed_s t0 < 1.0))
    (List.concat_map
       (fun source -> [ (source, Key.Default); (source, Key.Optimized) ])
       [ big "s = s + x[k];" 1_000_000_000;
         big "" 1_000_000_000;
         big "s = s + x[k] + x[k + 1] + x[k + 2] + x[k + 3];" 30_000 ])

(* The [optimized] pipeline polls the request's deadline between pass
   applications.  This inline kernel passes the lowering cap, and its
   twelve verified pass applications took 1.37 s before the first poll
   in the flow; a 100 ms deadline now stops it after one of them. *)
let test_compute_deadline_bounds_cgra_opt () =
  let source =
    "kernel big { arr x @ 0; arr y @ 512; var s; s = 0; \
     unroll k = 0 to 16665 { while (s < k) { s = s + 1; } } y[0] = s; }"
  in
  let spec =
    { Key.kernel = Key.Inline { source; mem_words = 1024 };
      config = Cgra_arch.Config.HET2; knobs = []; opt = Key.Optimized;
      faults = [] }
  in
  let t0 = Cgra_util.Clock.now () in
  (match Compute.run ~deadline:(Cgra_util.Deadline.after_ms 100) spec with
   | Ok (Compute.Timed_out { where }) ->
     Alcotest.(check bool) ("stopped in cgra_opt: " ^ where) true
       (String.starts_with ~prefix:"cgra_opt " where)
   | Ok _ -> Alcotest.fail "a 100 ms deadline must time out"
   | Error e -> Alcotest.failf "request error: %s" e);
  Alcotest.(check bool) "answered within 1 s" true
    (Cgra_util.Clock.elapsed_s t0 < 1.0)

(* A faulted request is priced on the array it was mapped onto — the
   degraded one, as [cgra_map map --emit] prices it — so the daemon and
   the local path store the same bytes under the same key. *)
let test_compute_prices_degraded_array () =
  let module FC = Cgra_core.Flow_config in
  let faults =
    fail_on_error
      (Cgra_arch.Fault_map.of_string
         "(dead_tile 5)\n(cm_rows_stuck 3 16)\n(dead_link 2 east)\n(no_lsu 1)\n")
  in
  let flow = FC.context_aware in
  let spec =
    fail_on_error
      (Key.spec_of_bundled ~slug:"fir" ~config:Cgra_arch.Config.HET2 ~flow
         ~opt:Key.Default ~faults)
  in
  let energy_line =
    match Compute.run spec with
    | Ok (Compute.Artifact { bytes; _ }) ->
      List.find
        (String.starts_with ~prefix:"energy_pj ")
        (String.split_on_char '\n' bytes)
    | _ -> Alcotest.fail "fir should map around the fault map"
  in
  let k = Option.get (Cgra_kernels.Kernels.by_slug "fir") in
  let pristine = Cgra_arch.Config.cgra Cgra_arch.Config.HET2 in
  match
    Cgra_core.Flow.run ~config:{ flow with FC.faults } pristine
      (Cgra_kernels.Kernel_def.cdfg k)
  with
  | Error f -> Alcotest.fail f.Cgra_core.Flow.reason
  | Ok (m, _) ->
    let sim =
      Cgra_sim.Simulator.run (Cgra_asm.Assemble.assemble m)
        ~mem:(Cgra_kernels.Kernel_def.fresh_mem k)
    in
    let priced cgra =
      Printf.sprintf "energy_pj %.3f"
        (Cgra_power.Energy.cgra cgra sim).Cgra_power.Energy.total_pj
    in
    Alcotest.(check string) "priced on the degraded array"
      (priced (Cgra_arch.Cgra.degrade pristine faults))
      energy_line;
    Alcotest.(check bool) "not on the pristine one" true
      (priced pristine <> energy_line)

(* The harness and the daemon run one pipeline: a cell rendered from the
   experiment runner's memo is the artifact [Compute.run] serves for the
   cell's own key — one bundled kernel per preset. *)
let test_runner_cell_equals_compute () =
  let module FC = Cgra_core.Flow_config in
  let module Runner = Cgra_exp.Runner in
  let config = Cgra_arch.Config.HET2 in
  List.iter2
    (fun preset slug ->
      let k = Option.get (Cgra_kernels.Kernels.by_slug slug) in
      let spec =
        fail_on_error
          (Key.spec_of_bundled ~slug ~config
             ~flow:(Runner.cell_flow_config slug config preset)
             ~opt:Key.Default ~faults:[])
      in
      let what = slug ^ "/" ^ FC.preset_label preset in
      match (Runner.run_of k config preset, Compute.run spec) with
      | Ok (m, x), Ok (Compute.Artifact { bytes; _ }) ->
        Alcotest.(check string) what
          (Serve.Artifact.render ~key_digest:(Key.digest spec) ~spec
             m.Cgra_exp.Toolchain.program x.Cgra_exp.Toolchain.sim
             x.Cgra_exp.Toolchain.energy)
          bytes
      | Error f, Ok (Compute.Unmappable { reason }) ->
        Alcotest.(check string) (what ^ " reason") f.Cgra_core.Flow.reason reason
      | _ -> Alcotest.fail (what ^ ": harness and daemon disagree"))
    FC.presets
    [ "fir"; "dc_filter"; "convolution"; "sep_filter" ]

(* ---- known answers ----------------------------------------------------- *)

(* The digest of every [Compute.run] outcome over a grid of cheap cells:
   the artifact's MD5, or an unmappable cell's reason's MD5.  The table
   was recorded under [kat_version].  Changing any of these bytes without
   bumping [Key.code_version] would let a store keep serving the old
   bytes under the old keys; after a bump the table is re-recorded and
   re-stamped.  A mismatch prints the whole actual table. *)
let kat_version = "cgra_mapd-4"

let kat_cells =
  let module FC = Cgra_core.Flow_config in
  let module Config = Cgra_arch.Config in
  let module P = Cgra_arch.Protection in
  List.concat_map
    (fun slug ->
      List.concat_map
        (fun config ->
          List.concat_map
            (fun opt ->
              List.map (fun backend -> (slug, config, opt, backend, P.none))
                [ FC.Beam; FC.Exact ])
            [ Key.Default; Key.Raw; Key.Optimized ])
        [ Config.HOM64; Config.HET2 ])
    [ "fir"; "convolution"; "sep_filter"; "fft"; "dc_filter" ]
  @ List.concat_map
      (fun slug ->
        List.map
          (fun backend -> (slug, Config.HET2, Key.Default, backend, P.secded))
          [ FC.Beam; FC.Exact ])
      [ "fir"; "dc_filter" ]

let actual_kat () =
  let module FC = Cgra_core.Flow_config in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.map
    (fun (slug, config, opt, backend, protection) ->
      let spec =
        fail_on_error
          (Key.spec_of_bundled ~slug ~config
             ~flow:{ FC.context_aware with FC.backend; protection }
             ~opt ~faults:[])
      in
      let digest =
        match Compute.run spec with
        | Ok (Compute.Artifact { digest; _ }) -> digest
        | Ok (Compute.Unmappable { reason }) -> md5 reason
        | Ok (Compute.Timed_out { where }) -> "timed out: " ^ where
        | Error e -> "error: " ^ e
      in
      ( ( slug,
          Cgra_arch.Config.to_string config,
          Cgra_exp.Toolchain.opt_to_string opt,
          FC.backend_to_string backend,
          Cgra_arch.Protection.profile_to_string protection ),
        digest ))
    kat_cells

let expected_kat : ((string * string * string * string * string) * string) list =
  [
    (("fir", "HOM64", "default", "beam", "none"), "9b9ae0d253f1b8093ed8bdc372b6adc4");
    (("fir", "HOM64", "default", "exact", "none"), "9ef94e469715f8d0ba1575ca814e8737");
    (("fir", "HOM64", "raw", "beam", "none"), "76b333761510bff7db41ee298d6c19df");
    (("fir", "HOM64", "raw", "exact", "none"), "b5c439d23c0270b2148bf6d00172a290");
    (("fir", "HOM64", "optimized", "beam", "none"), "176da75dca831df328fde6f1111fdd4a");
    (("fir", "HOM64", "optimized", "exact", "none"), "fe20065ba3b4cea3ee76ae8a0aa5beae");
    (("fir", "HET2", "default", "beam", "none"), "1ac3807c9196b1f48c96877da8700791");
    (("fir", "HET2", "default", "exact", "none"), "b0e555da55e3e50286a0116773770fab");
    (("fir", "HET2", "raw", "beam", "none"), "de4550091c97033646a0a1a5395962ea");
    (("fir", "HET2", "raw", "exact", "none"), "957908f48a669adadb6ae88390b54d89");
    (("fir", "HET2", "optimized", "beam", "none"), "0fdef6a1cecb74228321535996de44df");
    (("fir", "HET2", "optimized", "exact", "none"), "4d7f02a6085cd4bb41bba7622fa29ffe");
    (("convolution", "HOM64", "default", "beam", "none"), "19768b980b8714f9a1d1a30089402f6d");
    (("convolution", "HOM64", "default", "exact", "none"), "de325f7123cb65e2793947d12c5f6400");
    (("convolution", "HOM64", "raw", "beam", "none"), "f19e3fecfc49c636f04d12f635fa2616");
    (("convolution", "HOM64", "raw", "exact", "none"), "b2f42ade9fb066de404ec9d8b96e7637");
    (("convolution", "HOM64", "optimized", "beam", "none"), "d6dbcc721dd3f3dd959b9e87d0b9a9fc");
    (("convolution", "HOM64", "optimized", "exact", "none"), "e22579ad59e67201a3b362cc48d2be49");
    (("convolution", "HET2", "default", "beam", "none"), "967ee7a0681330b218e6204c3b79b83d");
    (("convolution", "HET2", "default", "exact", "none"), "25c5577a6967a668e3b5ce66d3c767e4");
    (("convolution", "HET2", "raw", "beam", "none"), "0d2545bacfb3a2c228ad4825c17070ea");
    (("convolution", "HET2", "raw", "exact", "none"), "7de3cd91b831291f7803384499d23c61");
    (("convolution", "HET2", "optimized", "beam", "none"), "49e0f6c36a9f37c30d1d1b30cf1da6e8");
    (("convolution", "HET2", "optimized", "exact", "none"), "74358e3fca19c5524c7db46035ee69be");
    (("sep_filter", "HOM64", "default", "beam", "none"), "92384f18c2683725c184231eecba6bf1");
    (("sep_filter", "HOM64", "default", "exact", "none"), "b6ae1b562a774999dc83168cf8c14bf1");
    (("sep_filter", "HOM64", "raw", "beam", "none"), "e4df546733e0ec2e36d947953c5f21c0");
    (("sep_filter", "HOM64", "raw", "exact", "none"), "a73dfc0941bc1452a4087c4fc6139043");
    (("sep_filter", "HOM64", "optimized", "beam", "none"), "39a41baf313faf839c675bbc92325a5c");
    (("sep_filter", "HOM64", "optimized", "exact", "none"), "2839d54032e88dc1a9a98fe3fb13b934");
    (("sep_filter", "HET2", "default", "beam", "none"), "436200de6174ff7229952c24bea53a67");
    (("sep_filter", "HET2", "default", "exact", "none"), "092a045613c967b60f9e985211b484e0");
    (("sep_filter", "HET2", "raw", "beam", "none"), "d9e652194e1c421db4839ada7efee45f");
    (("sep_filter", "HET2", "raw", "exact", "none"), "d0b515ec5c8ecfdc335224f80f84add4");
    (("sep_filter", "HET2", "optimized", "beam", "none"), "1610373da31396f1fd88f16601a07ad9");
    (("sep_filter", "HET2", "optimized", "exact", "none"), "f59235b071531654881a4654b084dcb9");
    (("fft", "HOM64", "default", "beam", "none"), "6227d21e7c51b7a41440199e13cc141c");
    (("fft", "HOM64", "default", "exact", "none"), "0d9e43b100fd1f70df0ebb349123e5b1");
    (("fft", "HOM64", "raw", "beam", "none"), "5cf7f9f788beae9584543c468d93faa9");
    (("fft", "HOM64", "raw", "exact", "none"), "6a4a7b913503ea6d0cc18ad3f99a28bd");
    (("fft", "HOM64", "optimized", "beam", "none"), "1d1e6e7a4739adafacb1218b457fd20c");
    (("fft", "HOM64", "optimized", "exact", "none"), "513b74f3c5aa88b7eba75c5d614f838c");
    (("fft", "HET2", "default", "beam", "none"), "cecb2a95cccf7068de82cac44e4e691d");
    (("fft", "HET2", "default", "exact", "none"), "27bb3e3922e1859561d029ead1bcb155");
    (("fft", "HET2", "raw", "beam", "none"), "2675b51ffdda9c32053142b2b09fe850");
    (("fft", "HET2", "raw", "exact", "none"), "21ef6a1de61719dc127a987091408e52");
    (("fft", "HET2", "optimized", "beam", "none"), "7b379f0a7da55d62a35282901792bf93");
    (("fft", "HET2", "optimized", "exact", "none"), "551d0a0206c4ab89960b32f1852d1b8d");
    (("dc_filter", "HOM64", "default", "beam", "none"), "1b6a633598c380ecffea733f61810999");
    (("dc_filter", "HOM64", "default", "exact", "none"), "3f2eec17cea42ba67758b57a66851644");
    (("dc_filter", "HOM64", "raw", "beam", "none"), "0440b6ea2fc55f23a81602f059b1e0ef");
    (("dc_filter", "HOM64", "raw", "exact", "none"), "f4e7b0465b5377c6e5ef66c453b41ce0");
    (("dc_filter", "HOM64", "optimized", "beam", "none"), "f3a62dd22d74b5afdd7ef0e2395e0899");
    (("dc_filter", "HOM64", "optimized", "exact", "none"), "3f2eec17cea42ba67758b57a66851644");
    (("dc_filter", "HET2", "default", "beam", "none"), "f63c0476ce8f015e58aa3acbac2c5d51");
    (("dc_filter", "HET2", "default", "exact", "none"), "3f2eec17cea42ba67758b57a66851644");
    (("dc_filter", "HET2", "raw", "beam", "none"), "274455e935ba3df1f1b14065b6567416");
    (("dc_filter", "HET2", "raw", "exact", "none"), "e5ff2ef6e1ab31795192f0d8e917ae78");
    (("dc_filter", "HET2", "optimized", "beam", "none"), "7e760c4703a242aae95e7303e7b8efdb");
    (("dc_filter", "HET2", "optimized", "exact", "none"), "3f2eec17cea42ba67758b57a66851644");
    (("fir", "HET2", "default", "beam", "secded"), "297791d947450445f2f3161042f01c34");
    (("fir", "HET2", "default", "exact", "secded"), "35c4a232e4deb7ee40ffdeb39327b223");
    (("dc_filter", "HET2", "default", "beam", "secded"), "b37124756f01fe0554a28f4358aea1e7");
    (("dc_filter", "HET2", "default", "exact", "secded"), "3f2eec17cea42ba67758b57a66851644");
  ]

let test_known_answers () =
  let actual = actual_kat () in
  let show ((s, c, o, b, p), d) =
    Printf.sprintf "((%S, %S, %S, %S, %S), %S)" s c o b p d
  in
  let table () = String.concat "" (List.map (fun e -> "  " ^ show e ^ ";\n") actual) in
  if Key.code_version <> kat_version then
    Alcotest.failf
      "Key.code_version is %s but the table is stamped %s: re-record it \
       and its stamp; actual:\n[\n%s]"
      Key.code_version kat_version (table ())
  else if actual <> expected_kat then
    Alcotest.failf
      "artifact bytes changed without a Key.code_version bump (still %s); \
       actual:\n[\n%s]"
      kat_version (table ())

(* ---- protocol --------------------------------------------------------- *)

let roundtrip_request req =
  match Wire.parse (Wire.to_string (Protocol.request_to_sexp req)) with
  | Error e -> Alcotest.fail ("request did not re-parse: " ^ e)
  | Ok sexp -> fail_on_error (Protocol.request_of_sexp sexp)

let test_protocol_requests () =
  (match roundtrip_request Protocol.Ping with
   | Protocol.Ping -> ()
   | _ -> Alcotest.fail "ping");
  (match roundtrip_request Protocol.Stats with
   | Protocol.Stats -> ()
   | _ -> Alcotest.fail "stats");
  let spec =
    fir_spec ~flow:Cgra_core.Flow_config.context_aware
      ~faults:[ Cgra_arch.Cgra.Dead_tile { tile = 5 } ] ()
  in
  (match roundtrip_request (Protocol.Map { spec; deadline_ms = None }) with
   | Protocol.Map { spec = spec'; deadline_ms } ->
     Alcotest.(check string) "map request preserves the key" (Key.digest spec)
       (Key.digest spec');
     Alcotest.(check (option int)) "no deadline survives as none" None
       deadline_ms
   | _ -> Alcotest.fail "map");
  (match roundtrip_request (Protocol.Map { spec; deadline_ms = Some 1500 }) with
   | Protocol.Map { spec = spec'; deadline_ms } ->
     Alcotest.(check string) "deadline does not perturb the key"
       (Key.digest spec) (Key.digest spec');
     Alcotest.(check (option int)) "deadline_ms round-trips" (Some 1500)
       deadline_ms
   | _ -> Alcotest.fail "map with deadline");
  match
    Wire.parse "(map (kernel fir) (config HET2) (deadline_ms 0))"
  with
  | Error e -> Alcotest.fail ("test sexp invalid: " ^ e)
  | Ok sexp -> (
    match Protocol.request_of_sexp sexp with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "non-positive deadline should be rejected")

let test_protocol_map_validation () =
  let reject name text =
    match Wire.parse text with
    | Error e -> Alcotest.fail ("test sexp invalid: " ^ e)
    | Ok sexp -> (
      match Protocol.request_of_sexp sexp with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (name ^ " should be rejected"))
  in
  reject "unknown kernel" "(map (kernel no_such) (config HET2))";
  reject "missing kernel" "(map (config HET2))";
  reject "both kernel and source"
    "(map (kernel fir) (source \"x\") (config HET2))";
  reject "unknown config" "(map (kernel fir) (config NOPE))";
  reject "unknown knob"
    "(map (kernel fir) (config HET2) (knobs (warp_speed 9)))";
  reject "bad fault map" "(map (kernel fir) (config HET2) (faults \"(bogus)\"))"

let test_protocol_responses () =
  let roundtrip resp =
    match Wire.parse (Wire.to_string (Protocol.response_to_sexp resp)) with
    | Error e -> Alcotest.fail ("response did not re-parse: " ^ e)
    | Ok sexp -> fail_on_error (Protocol.response_of_sexp sexp)
  in
  let binary = String.init 256 Char.chr in
  (match
     roundtrip
       (Protocol.Artifact_r
          { digest = "d41d8cd9"; cached = true; bytes = binary })
   with
   | Protocol.Artifact_r { digest; cached; bytes } ->
     Alcotest.(check string) "digest" "d41d8cd9" digest;
     Alcotest.(check bool) "cached" true cached;
     Alcotest.(check string) "binary artifact bytes survive" binary bytes
   | _ -> Alcotest.fail "artifact response");
  (match
     roundtrip
       (Protocol.Stats_r
          {
            Protocol.hits = 3;
            misses = 1;
            unmappable = 0;
            errors = 2;
            timeouts = 5;
            shed = 7;
            inflight = 1;
            stored_entries = 4;
            stored_bytes = 6400;
            hit_us_total = 12.5;
            miss_us_total = 9.75e6;
            uptime_s = 3.25;
          })
   with
   | Protocol.Stats_r s ->
     Alcotest.(check int) "hits" 3 s.Protocol.hits;
     Alcotest.(check int) "timeouts" 5 s.Protocol.timeouts;
     Alcotest.(check int) "shed" 7 s.Protocol.shed;
     Alcotest.(check (float 0.0)) "floats exact" 9.75e6
       s.Protocol.miss_us_total
   | _ -> Alcotest.fail "stats response");
  (match roundtrip (Protocol.Timed_out_r { where = "exact solve b0" }) with
   | Protocol.Timed_out_r { where } ->
     Alcotest.(check string) "timed-out carries where" "exact solve b0" where
   | _ -> Alcotest.fail "timed-out response");
  match roundtrip (Protocol.Overloaded_r { queue_depth = 12 }) with
  | Protocol.Overloaded_r { queue_depth } ->
    Alcotest.(check int) "overloaded carries depth" 12 queue_depth
  | _ -> Alcotest.fail "overloaded response"

(* ---- end-to-end over a live socket ------------------------------------ *)

let test_e2e_daemon () =
  let root = fresh_dir "cgra-mapd-test" in
  let socket_path = fresh_dir "cgra-mapd-test" ^ ".sock" in
  let server =
    Serve.Server.start
      {
        Serve.Server.socket_path;
        tcp_port = None;
        store_root = Some root;
        jobs = Some 2;
        verbose = false;
        deadline_ms = None;
        queue_limit = None;
        io_timeout_s = None;
      }
  in
  let ep = Serve.Client.Unix_socket socket_path in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop server;
      Serve.Server.wait server;
      ignore (Store.clear (Serve.Server.store server)))
    (fun () ->
      let spec = fir_spec () in
      (* two clients race the same cold key: single-flight must hand both
         the same bytes, computed once *)
      let ask () =
        fail_on_map_error (Serve.Client.map ~fallback:false ep spec)
      in
      let d1 = Domain.spawn ask and d2 = Domain.spawn ask in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      let bytes_of = function
        | Serve.Client.Artifact { bytes; _ } -> bytes
        | Serve.Client.Unmappable { reason } -> Alcotest.fail reason
        | Serve.Client.Timed_out { where } ->
          Alcotest.fail ("no deadline was armed, yet timed out at " ^ where)
      in
      let b1 = bytes_of r1 and b2 = bytes_of r2 in
      Alcotest.(check string) "concurrent clients get identical bytes" b1 b2;
      (* identical to the local compute path *)
      (match Compute.run spec with
       | Ok (Compute.Artifact { bytes; _ }) ->
         Alcotest.(check string) "daemon bytes equal local bytes" bytes b1
       | Ok (Compute.Unmappable _ | Compute.Timed_out _) | Error _ ->
         Alcotest.fail "local compute failed");
      (* a third request is a store hit *)
      (match ask () with
       | Serve.Client.Artifact { source = Serve.Client.Daemon { cached }; bytes; _ }
         ->
         Alcotest.(check bool) "third request served from the store" true cached;
         Alcotest.(check string) "hit bytes identical" b1 bytes
       | _ -> Alcotest.fail "expected a daemon artifact");
      (* negative result flows through as a typed answer *)
      let fft =
        fail_on_error
          (Key.spec_of_bundled ~slug:"fft" ~config:Cgra_arch.Config.HOM32
             ~flow:Cgra_core.Flow_config.basic ~opt:Key.Default ~faults:[])
      in
      (match fail_on_map_error (Serve.Client.map ~fallback:false ep fft) with
       | Serve.Client.Unmappable _ -> ()
       | Serve.Client.Artifact _ -> Alcotest.fail "fft@HOM32 should not map"
       | Serve.Client.Timed_out _ -> Alcotest.fail "no deadline was armed");
      (* stats reflect the traffic on one persistent connection *)
      fail_on_error
        (Serve.Client.with_conn ep (fun c ->
             (match fail_on_error (Serve.Client.request c Protocol.Ping) with
              | Protocol.Pong -> ()
              | _ -> Alcotest.fail "expected pong");
             (match fail_on_error (Serve.Client.request c Protocol.Stats) with
              | Protocol.Stats_r s ->
                Alcotest.(check int) "one store hit" 1 s.Protocol.hits;
                Alcotest.(check bool) "misses counted" true
                  (s.Protocol.misses >= 2);
                Alcotest.(check int) "one artifact stored" 1
                  s.Protocol.stored_entries
              | _ -> Alcotest.fail "expected stats");
             match fail_on_error (Serve.Client.request c Protocol.Clear) with
             | Protocol.Cleared { evicted } ->
               Alcotest.(check int) "clear evicts the stored artifact" 1 evicted
             | _ -> Alcotest.fail "expected cleared")))

(* The store holds every artifact the daemon computes, so the flight
   table keeps none of them: fifty distinct inline kernels leave the live
   heap about where it was, whatever the artifact bytes served.  (Keeping
   them grew it by about 1.2 times those bytes.) *)
let test_daemon_keeps_no_artifacts () =
  let root = fresh_dir "cgra-mapd-heap" in
  let socket_path = fresh_dir "cgra-mapd-heap" ^ ".sock" in
  let server =
    Serve.Server.start
      {
        Serve.Server.socket_path;
        tcp_port = None;
        store_root = Some root;
        jobs = Some 1;
        verbose = false;
        deadline_ms = None;
        queue_limit = None;
        io_timeout_s = None;
      }
  in
  let ep = Serve.Client.Unix_socket socket_path in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop server;
      Serve.Server.wait server;
      ignore (Store.clear (Serve.Server.store server)))
    (fun () ->
      let served n =
        let source =
          Printf.sprintf
            "kernel k { arr x @ 0; arr y @ 8; var i; \
             for (i = 0; i < 4; i = i + 1) { y[i] = x[i] * %d + 1; } }"
            n
        in
        let spec =
          { Key.kernel = Key.Inline { source; mem_words = 16 };
            config = Cgra_arch.Config.HOM64; knobs = []; opt = Key.Default;
            faults = [] }
        in
        match fail_on_map_error (Serve.Client.map ~fallback:false ep spec) with
        | Serve.Client.Artifact { source = Serve.Client.Daemon { cached = false }; bytes; _ }
          ->
          String.length bytes
        | _ -> Alcotest.fail "a distinct inline kernel must be computed"
      in
      let live_bytes () =
        Gc.compact ();
        (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
      in
      ignore (served 0);
      let before = live_bytes () in
      let bytes = List.fold_left (fun acc n -> acc + served n) 0 (List.init 50 succ) in
      let grown = live_bytes () - before in
      Alcotest.(check bool)
        (Printf.sprintf "live heap grew %d bytes over %d artifact bytes served" grown bytes)
        true
        (2 * grown < bytes))

(* ---- socket-path collision handling ----------------------------------- *)

(* Two daemons on one socket path: the second must refuse with the
   typed [Address_in_use] while the first keeps serving; a stale socket
   file (no listener behind it) must be swept and reused. *)
let test_socket_collision () =
  let root = fresh_dir "cgra-mapd-collide" in
  let socket_path = fresh_dir "cgra-mapd-collide" ^ ".sock" in
  (* plant a stale socket file: bound once, listener long gone *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket_path);
  Unix.close stale;
  Alcotest.(check bool) "stale socket file exists" true
    (Sys.file_exists socket_path);
  let server =
    Serve.Server.start
      {
        Serve.Server.socket_path;
        tcp_port = None;
        store_root = Some root;
        jobs = Some 1;
        verbose = false;
        deadline_ms = None;
        queue_limit = None;
        io_timeout_s = None;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop server;
      Serve.Server.wait server;
      ignore (Store.clear (Serve.Server.store server)))
    (fun () ->
      (* a second daemon on the same, now live, socket must fail typed *)
      (match
         Serve.Server.start
           {
             Serve.Server.socket_path;
             tcp_port = None;
             store_root = Some (fresh_dir "cgra-mapd-collide2");
             jobs = Some 1;
             verbose = false;
             deadline_ms = None;
             queue_limit = None;
             io_timeout_s = None;
           }
       with
      | exception Serve.Server.Address_in_use { path } ->
        Alcotest.(check string) "typed collision names the socket"
          socket_path path
      | _server2 -> Alcotest.fail "second daemon must refuse a live socket");
      (* ...and the first daemon still answers *)
      let ep = Serve.Client.Unix_socket socket_path in
      fail_on_error
        (Serve.Client.with_conn ep (fun c ->
             match fail_on_error (Serve.Client.request c Protocol.Ping) with
             | Protocol.Pong -> ()
             | _ -> Alcotest.fail "expected pong")))

let suite =
  [ ( "serve",
      [ Alcotest.test_case "sexp codec round-trip" `Quick test_codec_roundtrip;
        Alcotest.test_case "binary atoms survive quoting" `Quick
          test_codec_binary_atoms;
        Alcotest.test_case "parse rejects garbage" `Quick
          test_parse_rejects_garbage;
        Alcotest.test_case "frame round-trip and EOF" `Quick
          test_frame_roundtrip;
        Alcotest.test_case "truncated frames are typed" `Quick
          test_frame_truncated;
        Alcotest.test_case "oversized frames are rejected" `Quick
          test_frame_oversized;
        Alcotest.test_case "key digest is knob-order-insensitive" `Quick
          test_key_order_insensitive;
        Alcotest.test_case "key digest tracks every semantic input" `Quick
          test_key_sensitivity;
        Alcotest.test_case "bytes-neutral knobs are excluded" `Quick
          test_key_excluded_knobs;
        QCheck_alcotest.to_alcotest prop_knob_print_parse;
        Alcotest.test_case "knobs round-trip through a config" `Quick
          test_key_knobs_roundtrip;
        Alcotest.test_case "store round-trip, immutable entries" `Quick
          test_store_roundtrip;
        Alcotest.test_case "store evicts corrupt entries" `Quick
          test_store_corruption;
        Alcotest.test_case "store survives a writer storm" `Quick
          test_store_concurrent_writers;
        Alcotest.test_case "compute is byte-deterministic" `Quick
          test_compute_deterministic;
        Alcotest.test_case "compute reports unmappable" `Quick
          test_compute_unmappable;
        Alcotest.test_case "compute prices the degraded array" `Quick
          test_compute_prices_degraded_array;
        Alcotest.test_case "runner cell equals compute artifact" `Quick
          test_runner_cell_equals_compute;
        Alcotest.test_case "compute rejects bad requests" `Quick
          test_compute_bad_request;
        Alcotest.test_case "compute caps an inline unroll" `Quick
          test_compute_caps_inline_unroll;
        Alcotest.test_case "compute deadline bounds cgra_opt" `Quick
          test_compute_deadline_bounds_cgra_opt;
        Alcotest.test_case "known answers: artifact digests" `Slow
          test_known_answers;
        Alcotest.test_case "protocol request round-trips" `Quick
          test_protocol_requests;
        Alcotest.test_case "protocol validates map requests" `Quick
          test_protocol_map_validation;
        Alcotest.test_case "protocol response round-trips" `Quick
          test_protocol_responses;
        Alcotest.test_case "daemon end-to-end over a socket" `Quick
          test_e2e_daemon;
        Alcotest.test_case "daemon keeps no artifact in memory" `Quick
          test_daemon_keeps_no_artifacts;
        Alcotest.test_case "socket collision: stale swept, live refused"
          `Quick test_socket_collision ] ) ]
