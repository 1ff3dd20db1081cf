module Asm = Cgra_asm.Assemble
module Sim = Cgra_sim.Simulator
module Cgra = Cgra_arch.Cgra
module Rng = Cgra_util.Rng
module Pool = Cgra_util.Pool

type injection = Sim.upset =
  | Context_bit of { tile : int; word : int; bit : int }
  | Crf_bit of { tile : int; index : int; bit : int }
  | Rf_bit of { cycle : int; tile : int; reg : int; bit : int }

type outcome =
  | Masked
  | Wrong_output
  | Crash of string
  | Hang
  | Detected
  | Corrected

type trial = { index : int; injection : injection; outcome : outcome }

type summary = {
  trials : int;
  masked : int;
  wrong_output : int;
  crash : int;
  hang : int;
  detected : int;
  corrected : int;
}

type campaign = {
  summary : summary;
  runs : trial list;  (** in trial-index order, independent of [jobs] *)
  golden_cycles : int;
}

let injection_to_string = function
  | Context_bit { tile; word; bit } ->
    Printf.sprintf "CM   tile %2d word %3d bit %2d" tile word bit
  | Crf_bit { tile; index; bit } ->
    Printf.sprintf "CRF  tile %2d slot %3d bit %2d" tile index bit
  | Rf_bit { cycle; tile; reg; bit } ->
    Printf.sprintf "RF   tile %2d reg  %3d bit %2d @cycle %d" tile reg bit cycle

let outcome_to_string = function
  | Masked -> "masked"
  | Wrong_output -> "wrong-output"
  | Crash e -> "crash: " ^ e
  | Hang -> "hang"
  | Detected -> "detected"
  | Corrected -> "corrected"

let summarize runs =
  List.fold_left
    (fun s t ->
      match t.outcome with
      | Masked -> { s with masked = s.masked + 1 }
      | Wrong_output -> { s with wrong_output = s.wrong_output + 1 }
      | Crash _ -> { s with crash = s.crash + 1 }
      | Hang -> { s with hang = s.hang + 1 }
      | Detected -> { s with detected = s.detected + 1 }
      | Corrected -> { s with corrected = s.corrected + 1 })
    {
      trials = List.length runs;
      masked = 0;
      wrong_output = 0;
      crash = 0;
      hang = 0;
      detected = 0;
      corrected = 0;
    }
    runs

let run_trial ~key ~seed ~max_blocks ~(program : Asm.program) ~ctx_words
    ~ctx_sites ~crf_sites ~golden_cycles ~fresh_mem ~golden ~protect ~cm_only
    index =
  let rng = Rng.create (Rng.seed_of ~base:seed (key ^ "#" ^ string_of_int index)) in
  let cgra = program.Asm.mapping.Cgra_core.Mapping.cgra in
  let nt = Cgra.tile_count cgra in
  (* RF injections must land on live resources: a trial targeting a dead
     tile of an actively degraded array ([--faults]) exercises nothing and
     would count as a spurious mask.  Context and CRF sites are already
     live by construction — the site walk below enumerates the assembled
     program, which places no words on dead tiles and none beyond a
     stuck-row-reduced capacity.  On a pristine array [live] is the
     identity, so the draw below is byte-identical to [Rng.int rng nt]. *)
  let live =
    Array.of_list (List.filter (Cgra.alive cgra) (List.init nt Fun.id))
  in
  (* Class mix: context memory is the paper's dominant structure, so it
     takes half the injections; the rest split between the constant pools
     (when any exist) and live RF state.  [cm_only] campaigns (the
     protection report) draw nothing for the class, so sites coincide at
     every protection level. *)
  let kind =
    if cm_only then `Ctx
    else
      let r = Rng.int rng 100 in
      if r < 50 && ctx_sites > 0 then `Ctx
      else if r < 75 && crf_sites > 0 then `Crf
      else if ctx_sites > 0 && Rng.bool rng then `Ctx
      else `Rf
  in
  let injection =
    match kind with
    | `Ctx ->
      let site = Rng.int rng ctx_sites in
      (* Walk the per-tile word counts to the owning tile. *)
      let tile = ref 0 and off = ref site in
      while !off >= ctx_words.(!tile) do
        off := !off - ctx_words.(!tile);
        incr tile
      done;
      Context_bit { tile = !tile; word = !off; bit = Rng.int rng 64 }
    | `Crf ->
      let site = Rng.int rng crf_sites in
      let tile = ref 0 and off = ref site in
      while !off >= Array.length program.Asm.tiles.(!tile).Asm.crf do
        off := !off - Array.length program.Asm.tiles.(!tile).Asm.crf;
        incr tile
      done;
      Crf_bit { tile = !tile; index = !off; bit = Rng.int rng 32 }
    | `Rf ->
      Rf_bit
        {
          cycle = Rng.int rng (max 1 golden_cycles);
          tile = live.(Rng.int rng (Array.length live));
          reg = Rng.int rng cgra.Cgra.rf_words;
          bit = Rng.int rng 32;
        }
  in
  let mem = fresh_mem () in
  (* An unprotected run never raises [Uncorrectable_cm] and reports no ECC
     counters, so it is never [Detected] or [Corrected]. *)
  let outcome =
    match Sim.run ~max_blocks ~upsets:[ injection ] ?protect program ~mem with
    | exception Sim.Sim_error (Sim.Runaway _) -> Hang
    | exception Sim.Sim_error (Sim.Uncorrectable_cm _) -> Detected
    | exception Sim.Sim_error (Sim.Undecodable_cm { message; _ }) ->
      Crash ("undecodable context word: " ^ message)
    | exception Sim.Sim_error e -> Crash (Sim.error_to_string e)
    | r ->
      if mem = golden then
        match r.Sim.ecc with
        | Some e when e.Sim.corrected > 0 -> Corrected
        | _ -> Masked
      else Wrong_output
  in
  { index; injection; outcome }

let run_campaign ?jobs ?protect ?(cm_only = false) ~seed ~trials ~key
    ~fresh_mem (program : Asm.program) =
  (* An all-Unprotected profile is the same campaign as no profile at all. *)
  let protect = Option.bind protect Sim.protect_of in
  let golden = fresh_mem () in
  let baseline = Sim.run ?protect program ~mem:golden in
  (* Corrupted control flow must terminate quickly: anything running past a
     generous multiple of the fault-free block count is a hang. *)
  let max_blocks = (baseline.Sim.blocks_executed * 4) + 64 in
  let ctx_words = Asm.context_words program in
  let ctx_sites = Array.fold_left ( + ) 0 ctx_words in
  let crf_sites =
    Array.fold_left (fun a t -> a + Array.length t.Asm.crf) 0 program.Asm.tiles
  in
  let runs =
    Pool.map ?jobs
      (run_trial ~key ~seed ~max_blocks ~program ~ctx_words ~ctx_sites
         ~crf_sites ~golden_cycles:baseline.Sim.cycles ~fresh_mem ~golden
         ~protect ~cm_only)
      (List.init trials Fun.id)
  in
  { summary = summarize runs; runs; golden_cycles = baseline.Sim.cycles }

(* ------------------------------------------------------------------ *)
(* Permanent faults: random silicon-degradation maps for the self-repair
   campaigns (Repair).  Class mix mirrors what ages first in a
   CM-dominated fabric: stuck context-memory rows take the largest share,
   then severed mesh links, whole-PE death and broken load-store units. *)

let sample_permanent rng (cgra : Cgra.t) =
  let tile = Rng.int rng (Cgra.tile_count cgra) in
  let r = Rng.int rng 100 in
  if r < 20 then Cgra.Dead_tile { tile }
  else if r < 60 then
    let cm = Cgra.base_cm cgra tile in
    Cgra.Cm_rows_stuck { tile; rows = 1 + Rng.int rng (max 1 cm) }
  else if r < 85 then
    let dir =
      match Rng.int rng 4 with
      | 0 -> Cgra.North
      | 1 -> Cgra.South
      | 2 -> Cgra.West
      | _ -> Cgra.East
    in
    Cgra.Dead_link { tile; dir }
  else Cgra.No_lsu { tile }

(* Tiles whose resources a permanent fault sits on: the owning tile, plus
   the far endpoint of a severed link — either side may have placed a read
   across it. *)
let tiles cgra = function
  | Cgra.Dead_tile { tile } | Cgra.Cm_rows_stuck { tile; _ } | Cgra.No_lsu { tile }
    ->
    [ tile ]
  | Cgra.Dead_link { tile; dir } -> [ tile; Cgra.dir_neighbor cgra tile dir ]

let sample_fault_map rng cgra ~faults =
  let rec go k acc =
    if k <= 0 then List.rev acc
    else go (k - 1) (sample_permanent rng cgra :: acc)
  in
  go faults []
