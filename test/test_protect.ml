(* Context-memory protection: the SECDED/parity codec laws (qcheck), the
   protected simulator path (correction, scrubbing, typed uncorrectable
   errors), the serve-key protection knob, the pay-for-protection energy
   split, and the fault-campaign regressions — protection-off campaigns
   byte-identical to the pre-protection engine, injection sites shared
   across protection levels, and RF injections never landing on dead
   tiles of a degraded array. *)

module P = Cgra_arch.Protection
module Ecc = Cgra_asm.Ecc
module Asm = Cgra_asm.Assemble
module Sim = Cgra_sim.Simulator
module Cgra = Cgra_arch.Cgra
module Config = Cgra_arch.Config
module Flow = Cgra_core.Flow
module FC = Cgra_core.Flow_config
module F = Cgra_verify.Fault
module K = Cgra_kernels.Kernel_def
module Key = Cgra_serve.Key
module E = Cgra_power.Energy

let map_kernel ?(flow = FC.basic) slug config =
  let k = Option.get (Cgra_kernels.Kernels.by_slug slug) in
  let cdfg = K.cdfg k in
  match Flow.run ~config:flow (Config.cgra config) cdfg with
  | Ok (m, _) -> (k, m)
  | Error f -> Alcotest.fail (slug ^ ": " ^ f.Flow.reason)

let base = lazy (map_kernel "fir" Config.HOM64)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- codec laws ------------------------------------------------------- *)

let flip w bit = Int64.logxor w (Int64.shift_left 1L bit)

let arb_word_bit =
  QCheck.(pair (map Int64.of_int int) (int_bound 63))

let arb_word_two_bits =
  QCheck.(triple (map Int64.of_int int) (int_bound 63) (int_bound 63))

let prop_secded_clean =
  QCheck.Test.make ~count:500 ~name:"secded: pristine word decodes Clean"
    QCheck.(map Int64.of_int int)
    (fun w -> Ecc.decode P.Secded ~data:w ~check:(Ecc.check_bits P.Secded w) = Ecc.Clean)

let prop_secded_corrects =
  QCheck.Test.make ~count:500
    ~name:"secded: any single data-bit flip is corrected to the original"
    arb_word_bit
    (fun (w, bit) ->
      Ecc.decode P.Secded ~data:(flip w bit) ~check:(Ecc.check_bits P.Secded w)
      = Ecc.Corrected w)

let prop_secded_detects_double =
  QCheck.Test.make ~count:500
    ~name:"secded: any double data-bit flip is detected, never corrected"
    arb_word_two_bits
    (fun (w, b1, b2) ->
      QCheck.assume (b1 <> b2);
      Ecc.decode P.Secded ~data:(flip (flip w b1) b2)
        ~check:(Ecc.check_bits P.Secded w)
      = Ecc.Detected)

let prop_parity_detects_odd =
  QCheck.Test.make ~count:500 ~name:"parity: single flip detected"
    arb_word_bit
    (fun (w, bit) ->
      Ecc.decode P.Parity ~data:(flip w bit) ~check:(Ecc.check_bits P.Parity w)
      = Ecc.Detected)

let prop_parity_misses_even =
  QCheck.Test.make ~count:500
    ~name:"parity: double flip escapes as Clean (the whole point of secded)"
    arb_word_two_bits
    (fun (w, b1, b2) ->
      QCheck.assume (b1 <> b2);
      Ecc.decode P.Parity ~data:(flip (flip w b1) b2)
        ~check:(Ecc.check_bits P.Parity w)
      = Ecc.Clean)

(* ---- codec against a bit-serial reference ----------------------------- *)

(* The codec's laws above only test self-consistency: a wrong syndrome
   table that agrees with itself would pass them.  The reference below is
   the straightforward codec — Hamming check bits accumulated one data bit
   at a time, parity by shift-folding — that the table-driven one must
   match exactly. *)
module Ref = struct
  let parity64 (w : int64) =
    let x = Int64.logxor w (Int64.shift_right_logical w 32) in
    let x = Int64.logxor x (Int64.shift_right_logical x 16) in
    let x = Int64.logxor x (Int64.shift_right_logical x 8) in
    let x = Int64.logxor x (Int64.shift_right_logical x 4) in
    let x = Int64.logxor x (Int64.shift_right_logical x 2) in
    let x = Int64.logxor x (Int64.shift_right_logical x 1) in
    Int64.to_int (Int64.logand x 1L)

  let parity_int x =
    let x = x lxor (x lsr 4) in
    let x = x lxor (x lsr 2) in
    let x = x lxor (x lsr 1) in
    x land 1

  (* Data bits fill codeword positions 1..71 skipping the powers of two;
     [data_of_pos] is -1 at the check positions. *)
  let pos_of_data, data_of_pos =
    let pos = Array.make 64 0 and inv = Array.make 72 (-1) in
    let d = ref 0 and p = ref 1 in
    while !d < 64 do
      if !p land (!p - 1) <> 0 then begin
        pos.(!d) <- !p;
        inv.(!p) <- !d;
        incr d
      end;
      incr p
    done;
    (pos, inv)

  let bit w i = Int64.logand (Int64.shift_right_logical w i) 1L = 1L

  let hamming7 (w : int64) =
    let c = ref 0 in
    for d = 0 to 63 do
      if bit w d then c := !c lxor pos_of_data.(d)
    done;
    !c

  let check_bits kind w =
    match kind with
    | P.Unprotected -> 0
    | P.Parity -> parity64 w
    | P.Secded ->
      let h = hamming7 w in
      h lor ((parity64 w lxor parity_int h) lsl 7)

  let decode kind ~data ~check =
    match kind with
    | P.Unprotected -> Ecc.Clean
    | P.Parity -> if parity64 data = check then Ecc.Clean else Ecc.Detected
    | P.Secded ->
      let stored_h = check land 0x7f and stored_p = (check lsr 7) land 1 in
      let syndrome = stored_h lxor hamming7 data in
      let total = stored_p lxor parity64 data lxor parity_int stored_h in
      if syndrome = 0 then Ecc.Clean
      else if total = 1 then
        if syndrome < 72 && data_of_pos.(syndrome) >= 0 then
          Ecc.Corrected (flip data data_of_pos.(syndrome))
        else Ecc.Corrected data
      else Ecc.Detected
end

let kinds = [ P.Unprotected; P.Parity; P.Secded ]

let agrees ~data ~check =
  List.for_all
    (fun k -> Ecc.decode k ~data ~check = Ref.decode k ~data ~check)
    kinds

(* [Int64.of_int] sign-extends a 63-bit int, so bit 63 would always
   equal bit 62: draw the two halves separately to reach every word. *)
let arb_word64 =
  QCheck.map
    (fun (hi, lo) ->
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32)
        (Int64.logand (Int64.of_int lo) 0xFFFF_FFFFL))
    QCheck.(pair int int)

let prop_check_bits_match_reference =
  QCheck.Test.make ~count:1000 ~name:"ecc: check bits = bit-serial reference"
    arb_word64 (fun w ->
      List.for_all (fun k -> Ecc.check_bits k w = Ref.check_bits k w) kinds
      && Ecc.parity64 w = Ref.parity64 w)

let prop_decode_single_flips_match_reference =
  QCheck.Test.make ~count:100
    ~name:"ecc: decode of every single flip = bit-serial reference" arb_word64
    (fun w ->
      List.for_all
        (fun k ->
          let check = Ref.check_bits k w in
          agrees ~data:w ~check
          && List.for_all
               (fun b -> agrees ~data:(flip w b) ~check)
               (List.init 64 Fun.id))
        kinds)

let prop_decode_double_flips_match_reference =
  QCheck.Test.make ~count:1000
    ~name:"ecc: decode of sampled double flips = bit-serial reference"
    QCheck.(triple arb_word64 (int_bound 63) (int_bound 63))
    (fun (w, b1, b2) ->
      QCheck.assume (b1 <> b2);
      List.for_all
        (fun k ->
          agrees ~data:(flip (flip w b1) b2) ~check:(Ref.check_bits k w))
        kinds)

let prop_check_bit_syndromes_correct =
  QCheck.Test.make ~count:200
    ~name:"ecc: a syndrome at a check-bit position decodes to the data"
    arb_word64 (fun w ->
      let check = Ref.check_bits P.Secded w in
      List.for_all
        (fun i ->
          (* flipping Hamming check bit [i] leaves the syndrome at
             codeword position [2^i] with odd overall parity *)
          let check = check lxor (1 lsl i) in
          Ecc.decode P.Secded ~data:w ~check = Ecc.Corrected w
          && agrees ~data:w ~check)
        (List.init 7 Fun.id))

let test_check_words () =
  let _, m = Lazy.force base in
  let prog = Asm.assemble m in
  Array.iter
    (fun tp ->
      let words = Asm.encode_tile tp in
      let unprot = Asm.check_words P.Unprotected tp in
      Alcotest.(check bool)
        "unprotected check words are all zero" true
        (Array.for_all (fun c -> c = 0) unprot);
      Alcotest.(check int) "one check entry per context word"
        (Array.length words)
        (Array.length (Asm.check_words P.Secded tp));
      Array.iteri
        (fun i w ->
          Alcotest.(check int) "check_words = per-word check_bits"
            (Ecc.check_bits P.Secded w)
            (Asm.check_words P.Secded tp).(i))
        words)
    prog.Asm.tiles

(* ---- profile spellings ------------------------------------------------ *)

let test_profile_strings () =
  List.iter
    (fun (s, p) ->
      (match P.profile_of_string s with
       | Some got ->
         Alcotest.(check string) ("parse " ^ s) (P.profile_to_string p)
           (P.profile_to_string got)
       | None -> Alcotest.fail ("profile_of_string rejected " ^ s));
      (* canonical spelling round-trips *)
      match P.profile_of_string (P.profile_to_string p) with
      | Some got ->
        Alcotest.(check string) "canonical round-trip"
          (P.profile_to_string p) (P.profile_to_string got)
      | None -> Alcotest.fail ("canonical spelling rejected for " ^ s))
    [ ("none", P.none);
      ("parity", P.parity);
      ("secded", P.secded);
      ("cm64=secded,cm32=parity,cm16=none",
       { P.cm64 = P.Secded; cm32 = P.Parity; cm16 = P.Unprotected });
      ("cm16=secded,cm64=none,cm32=none",
       { P.cm64 = P.Unprotected; cm32 = P.Unprotected; cm16 = P.Secded }) ];
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true (P.profile_of_string s = None))
    [ "bogus"; "cm64=secded"; "cm64=x,cm32=none,cm16=none"; "" ]

(* ---- protected simulation -------------------------------------------- *)

let protect ?(scrub_interval = P.default_scrub_interval) profile =
  { Sim.profile; scrub_interval }

(* A (tile, word) that the program actually stores: the first tile with a
   nonempty context image. *)
let some_site prog =
  let rec go t =
    if t >= Array.length prog.Asm.tiles then Alcotest.fail "no context words"
    else if Array.length (Asm.encode_tile prog.Asm.tiles.(t)) > 0 then t
    else go (t + 1)
  in
  go 0

let test_protected_run_clean () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let mem = K.fresh_mem k in
  let r = Sim.run ~protect:(protect P.secded) prog ~mem in
  Alcotest.(check bool) "functional" true (mem = K.run_golden k);
  match r.Sim.ecc with
  | None -> Alcotest.fail "protected run must report ecc counters"
  | Some e ->
    Alcotest.(check int) "nothing detected" 0 e.Sim.detected;
    Alcotest.(check int) "nothing corrected" 0 e.Sim.corrected

let test_protected_run_matches_unprotected () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let mem_u = K.fresh_mem k and mem_p = K.fresh_mem k in
  let u = Sim.run prog ~mem:mem_u in
  let p = Sim.run ~protect:(protect P.secded) prog ~mem:mem_p in
  Alcotest.(check bool) "same memory image" true (mem_u = mem_p);
  Alcotest.(check int) "same cycles" u.Sim.cycles p.Sim.cycles;
  Alcotest.(check int) "same fetches"
    (Array.fold_left (fun a (t : Sim.activity) -> a + t.Sim.fetches) 0
       u.Sim.activity)
    (Array.fold_left (fun a (t : Sim.activity) -> a + t.Sim.fetches) 0
       p.Sim.activity);
  Alcotest.(check bool) "unprotected run has no ecc record" true
    (u.Sim.ecc = None)

let test_secded_corrects_upset () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let tile = some_site prog in
  let up = Sim.Context_bit { tile; word = 0; bit = 17 } in
  let mem = K.fresh_mem k in
  let r = Sim.run ~upsets:[ up ] ~protect:(protect P.secded) prog ~mem in
  Alcotest.(check bool) "functional despite the upset" true
    (mem = K.run_golden k);
  match r.Sim.ecc with
  | None -> Alcotest.fail "no ecc record"
  | Some e ->
    Alcotest.(check bool) "at least one correction" true (e.Sim.corrected >= 1)

let test_parity_detects_upset () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let tile = some_site prog in
  let up = Sim.Context_bit { tile; word = 0; bit = 3 } in
  let mem = K.fresh_mem k in
  (* scrub every cycle: the upset is reached even if the word itself is
     never fetched on the executed path *)
  match
    Sim.run ~upsets:[ up ] ~protect:(protect ~scrub_interval:1 P.parity) prog
      ~mem
  with
  | exception Sim.Sim_error (Sim.Uncorrectable_cm _) -> ()
  | exception e -> Alcotest.fail ("wrong error: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "parity upset must be an uncorrectable machine check"

let test_secded_detects_double_upset () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let tile = some_site prog in
  let ups =
    [ Sim.Context_bit { tile; word = 0; bit = 5 };
      Sim.Context_bit { tile; word = 0; bit = 41 } ]
  in
  let mem = K.fresh_mem k in
  match
    Sim.run ~upsets:ups ~protect:(protect ~scrub_interval:1 P.secded) prog ~mem
  with
  | exception Sim.Sim_error (Sim.Uncorrectable_cm _) -> ()
  | exception e -> Alcotest.fail ("wrong error: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "double upset must be an uncorrectable machine check"

let test_scrub_runs () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let mem = K.fresh_mem k in
  let r = Sim.run ~protect:(protect ~scrub_interval:64 P.secded) prog ~mem in
  Alcotest.(check bool) "functional" true (mem = K.run_golden k);
  match r.Sim.ecc with
  | None -> Alcotest.fail "no ecc record"
  | Some e ->
    Alcotest.(check bool) "scrub passes happened" true (e.Sim.scrub_cycles > 0);
    Alcotest.(check bool) "scrub read words" true
      (Array.exists (fun n -> n > 0) e.Sim.scrub_reads)

let test_scrub_repairs_upset () =
  (* With a scrub every cycle, the background pass repairs the upset even
     before the word is fetched — and the repair is counted. *)
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let tile = some_site prog in
  let up = Sim.Context_bit { tile; word = 0; bit = 60 } in
  let mem = K.fresh_mem k in
  let r =
    Sim.run ~upsets:[ up ] ~protect:(protect ~scrub_interval:1 P.secded) prog
      ~mem
  in
  Alcotest.(check bool) "functional" true (mem = K.run_golden k);
  match r.Sim.ecc with
  | None -> Alcotest.fail "no ecc record"
  | Some e ->
    Alcotest.(check bool) "the scrub (or fetch) corrected it" true
      (e.Sim.corrected >= 1)

(* ---- energy ----------------------------------------------------------- *)

let test_protection_energy_split () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let cgra = m.Cgra_core.Mapping.cgra in
  let mem_u = K.fresh_mem k and mem_p = K.fresh_mem k in
  let ru = Sim.run prog ~mem:mem_u in
  let rp = Sim.run ~protect:(protect P.secded) prog ~mem:mem_p in
  let eu = E.cgra cgra ru in
  let ep = E.cgra ~protect:P.secded cgra rp in
  Alcotest.(check (float 1e-9)) "unprotected breakdown has zero protect term"
    0.0 eu.E.protect_pj;
  Alcotest.(check bool) "protection costs energy" true (ep.E.protect_pj > 0.0);
  Alcotest.(check (float 1e-6)) "total = unprotected total + protect term"
    (eu.E.total_pj +. ep.E.protect_pj)
    ep.E.total_pj

(* ---- serve key knob --------------------------------------------------- *)

let test_key_protection_knob () =
  let fc = { FC.context_aware with protection = P.secded } in
  let knobs = FC.to_knobs fc in
  Alcotest.(check (option string)) "knob rendered" (Some "secded")
    (List.assoc_opt "protection" knobs);
  (* round-trip through the daemon-side parser *)
  (match FC.of_knobs knobs with
   | Ok fc' ->
     Alcotest.(check string) "protection survives the round-trip" "secded"
       (P.profile_to_string fc'.FC.protection)
   | Error e -> Alcotest.fail e);
  (* the knob changes the digest — each profile has its own store entry *)
  let spec p =
    match
      Key.spec_of_bundled ~slug:"fir" ~config:Config.HOM64
        ~flow:{ FC.basic with protection = p }
        ~opt:Key.Default ~faults:[]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let d_none = Key.digest (spec P.none)
  and d_par = Key.digest (spec P.parity)
  and d_sec = Key.digest (spec P.secded) in
  Alcotest.(check bool) "parity digest differs from none" true
    (d_none <> d_par);
  Alcotest.(check bool) "secded digest differs from both" true
    (d_sec <> d_none && d_sec <> d_par)

let test_key_rejects_bad_protection () =
  match FC.of_knobs [ ("protection", "bogus") ] with
  | Ok _ -> Alcotest.fail "bogus protection value must be rejected"
  | Error e ->
    Alcotest.(check bool) "error names the knob" true
      (contains_sub ~sub:"protection" e);
    Alcotest.(check bool) "error names the valid values" true
      (contains_sub ~sub:"secded" e)

(* ---- fault campaigns -------------------------------------------------- *)

let campaign ?protect ?cm_only ?(trials = 60) (k, m) =
  let prog = Asm.assemble m in
  F.run_campaign ~jobs:2 ?protect ?cm_only ~seed:42 ~trials ~key:"test/protect"
    ~fresh_mem:(fun () -> K.fresh_mem k)
    prog

let trial_strings c =
  List.map
    (fun (t : F.trial) ->
      Printf.sprintf "%d %s -> %s" t.F.index
        (F.injection_to_string t.F.injection)
        (F.outcome_to_string t.F.outcome))
    c.F.runs

let test_campaign_off_identical () =
  (* ?protect omitted, ~protect:none and an all-Unprotected csv are the
     same campaign as the pre-protection engine. *)
  let b = Lazy.force base in
  let plain = campaign b in
  let off = campaign ~protect:P.none b in
  Alcotest.(check (list string)) "none = omitted" (trial_strings plain)
    (trial_strings off);
  Alcotest.(check int) "summary detected is 0" 0 plain.F.summary.F.detected;
  Alcotest.(check int) "summary corrected is 0" 0 plain.F.summary.F.corrected

let injections c = List.map (fun (t : F.trial) -> t.F.injection) c.F.runs

let test_campaign_sites_shared_across_levels () =
  let b = Lazy.force base in
  let at p = campaign ~protect:p ~cm_only:true b in
  let c_none = at P.none and c_par = at P.parity and c_sec = at P.secded in
  Alcotest.(check bool) "parity flips the same bits" true
    (injections c_none = injections c_par);
  Alcotest.(check bool) "secded flips the same bits" true
    (injections c_none = injections c_sec);
  List.iter
    (fun (t : F.trial) ->
      match t.F.injection with
      | F.Context_bit _ -> ()
      | i ->
        Alcotest.fail
          ("cm_only campaign drew a non-CM site: " ^ F.injection_to_string i))
    c_none.F.runs

let test_secded_campaign_has_no_cm_escapes () =
  let b = Lazy.force base in
  let c = campaign ~protect:P.secded ~cm_only:true b in
  let s = c.F.summary in
  Alcotest.(check int) "no wrong output" 0 s.F.wrong_output;
  Alcotest.(check int) "no crashes" 0 s.F.crash;
  Alcotest.(check int) "no hangs" 0 s.F.hang;
  Alcotest.(check bool) "single-bit CM upsets get corrected" true
    (s.F.corrected > 0)

let test_campaign_jobs_invariant_protected () =
  let k, m = Lazy.force base in
  let prog = Asm.assemble m in
  let run jobs =
    F.run_campaign ~jobs ~protect:P.secded ~seed:9 ~trials:40 ~key:"test/ji"
      ~fresh_mem:(fun () -> K.fresh_mem k)
      prog
  in
  Alcotest.(check (list string)) "protected campaign jobs-invariant"
    (trial_strings (run 1))
    (trial_strings (run 4))

let test_rf_injection_skips_dead_tiles () =
  (* Regression: on a degraded array the RF draw must only target live
     tiles — a trial flipping registers of a dead tile exercises nothing
     and would count as a spurious mask. *)
  let dead = 5 in
  let flow = { FC.basic with faults = [ Cgra.Dead_tile { tile = dead } ] } in
  let k, m = map_kernel ~flow "fir" Config.HOM64 in
  let cgra = m.Cgra_core.Mapping.cgra in
  Alcotest.(check bool) "the mapped array really is degraded" false
    (Cgra.alive cgra dead);
  let prog = Asm.assemble m in
  let c =
    F.run_campaign ~jobs:2 ~seed:3 ~trials:300 ~key:"test/dead"
      ~fresh_mem:(fun () -> K.fresh_mem k)
      prog
  in
  let rf_total = ref 0 in
  List.iter
    (fun (t : F.trial) ->
      match t.F.injection with
      | F.Rf_bit { tile; _ } ->
        incr rf_total;
        Alcotest.(check bool)
          (Printf.sprintf "trial %d targets a live tile" t.F.index)
          true (Cgra.alive cgra tile)
      | _ -> ())
    c.F.runs;
  Alcotest.(check bool) "the campaign drew RF injections at all" true
    (!rf_total > 0)

let suite =
  [ ( "protect",
      [ QCheck_alcotest.to_alcotest prop_secded_clean;
        QCheck_alcotest.to_alcotest prop_secded_corrects;
        QCheck_alcotest.to_alcotest prop_secded_detects_double;
        QCheck_alcotest.to_alcotest prop_parity_detects_odd;
        QCheck_alcotest.to_alcotest prop_parity_misses_even;
        QCheck_alcotest.to_alcotest prop_check_bits_match_reference;
        QCheck_alcotest.to_alcotest prop_decode_single_flips_match_reference;
        QCheck_alcotest.to_alcotest prop_decode_double_flips_match_reference;
        QCheck_alcotest.to_alcotest prop_check_bit_syndromes_correct;
        Alcotest.test_case "check words per kind" `Quick test_check_words;
        Alcotest.test_case "profile spellings" `Quick test_profile_strings;
        Alcotest.test_case "protected clean run" `Quick test_protected_run_clean;
        Alcotest.test_case "protected = unprotected observables" `Quick
          test_protected_run_matches_unprotected;
        Alcotest.test_case "secded corrects a planted upset" `Quick
          test_secded_corrects_upset;
        Alcotest.test_case "parity detects a planted upset" `Quick
          test_parity_detects_upset;
        Alcotest.test_case "secded detects a double upset" `Quick
          test_secded_detects_double_upset;
        Alcotest.test_case "scrubbing runs and is counted" `Quick
          test_scrub_runs;
        Alcotest.test_case "scrubbing repairs an upset" `Quick
          test_scrub_repairs_upset;
        Alcotest.test_case "protection energy split" `Quick
          test_protection_energy_split;
        Alcotest.test_case "serve key protection knob" `Quick
          test_key_protection_knob;
        Alcotest.test_case "serve key rejects bad protection" `Quick
          test_key_rejects_bad_protection;
        Alcotest.test_case "protection-off campaign identical" `Quick
          test_campaign_off_identical;
        Alcotest.test_case "sites shared across protection levels" `Quick
          test_campaign_sites_shared_across_levels;
        Alcotest.test_case "secded kills all CM escapes" `Quick
          test_secded_campaign_has_no_cm_escapes;
        Alcotest.test_case "protected campaign jobs-invariant" `Quick
          test_campaign_jobs_invariant_protected;
        Alcotest.test_case "RF injections skip dead tiles" `Quick
          test_rf_injection_skips_dead_tiles ] ) ]
