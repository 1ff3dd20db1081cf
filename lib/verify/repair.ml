module M = Cgra_core.Mapping
module Cdfg = Cgra_ir.Cdfg
module Flow = Cgra_core.Flow
module Flow_config = Cgra_core.Flow_config
module Asm = Cgra_asm.Assemble
module Sim = Cgra_sim.Simulator
module Energy = Cgra_power.Energy
module Cgra = Cgra_arch.Cgra
module Rng = Cgra_util.Rng
module Pool = Cgra_util.Pool

type mode = Full | Incremental

type remap_kind = Full_remap | Partial of { dirty : int; total : int }

type status =
  | Unaffected
  | Repaired of {
      mapping : M.t;
      rounds : int;
      escalations : int;
      cycles : int;
      energy_pj : float;
      remap : remap_kind;
    }
  | Gave_up of { reason : string; rounds : int }

type trace = {
  injected : Cgra.fault list;
  detected : Validator.violation list;
  diagnosed : Cgra.fault list;
  status : status;
}

(* Drop faults subsumed by a Dead_tile on the same tile, then normalise
   like [Cgra.degrade] does, so the diagnosed map reads minimally. *)
let normalize_faults fs =
  let dead =
    List.filter_map
      (function Cgra.Dead_tile { tile } -> Some tile | _ -> None)
      fs
  in
  List.sort_uniq compare fs
  |> List.filter (function
       | Cgra.Cm_rows_stuck { tile; _ } | Cgra.No_lsu { tile } ->
           not (List.mem tile dead)
       | _ -> true)

let detect ~truth (m : M.t) = Validator.check_mapping { m with M.cgra = truth }

let diagnose ~pristine vs =
  List.concat_map
    (fun v ->
      match (v : Validator.violation) with
      | Validator.Cm_overflow { tile; capacity; _ } ->
          if capacity = 0 then [ Cgra.Dead_tile { tile } ]
          else
            let rows = Cgra.base_cm pristine tile - capacity in
            if rows > 0 then [ Cgra.Cm_rows_stuck { tile; rows } ] else []
      | Validator.Non_neighbour_read { at; from_tile; _ } -> (
          (* A read that was one hop on the pristine torus now is not:
             the direct link must be gone.  (When the far endpoint is in
             fact dead, the remap on the link-only map re-violates and the
             next round upgrades the diagnosis.) *)
          match Cgra.dir_between pristine at.Validator.tile from_tile with
          | Some dir -> [ Cgra.Dead_link { tile = at.Validator.tile; dir } ]
          | None -> [])
      | Validator.Lsu_required { at; _ } ->
          [ Cgra.No_lsu { tile = at.Validator.tile } ]
      | _ -> [])
    vs
  |> normalize_faults

(* Incremental remap, step 1: which blocks does the diagnosed fault map
   actually touch?  A block must be re-searched iff its placement uses a
   faulted resource: an executing tile, an operand/move source tile, or
   the home tile of a symbol it reads or writes (home references are
   collected from both the placement — [writes_sym], [Vsym] move/copy
   values — and the CDFG — [Sym] operands, live-out assignments, branch
   conditions; over-approximating only re-searches more, never less).
   Returns the per-block dirty flags plus the kept-homes array: the home
   tile per symbol, [-1] when the home sat on a faulted tile.  Freed
   symbols are safe to re-pin because the home-reference rule already
   marked every block that touches them dirty. *)
let dirty_blocks (m : M.t) faults =
  let cgra = m.M.cgra in
  let nt = Cgra.tile_count cgra in
  let bad = Array.make nt false in
  List.iter
    (fun f ->
      List.iter
        (fun t -> if t >= 0 && t < nt then bad.(t) <- true)
        (Fault.tiles cgra f))
    faults;
  let bad_tile t = t >= 0 && t < nt && bad.(t) in
  let bad_home s = bad_tile m.M.homes.(s) in
  let value_refs = function M.Vsym s -> bad_home s | M.Vnode _ | M.Vimm _ -> false in
  let dirty =
    Array.mapi
      (fun bi (bm : M.bb_mapping) ->
        let block = m.M.cdfg.Cdfg.blocks.(bi) in
        let nodes = block.Cdfg.nodes in
        let slot_dirty (sl : M.slot) =
          bad_tile sl.M.tile
          || (match sl.M.writes_sym with Some s -> bad_home s | None -> false)
          ||
          match sl.M.action with
          | M.Aop { node = j; operand_tiles } ->
            List.exists bad_tile operand_tiles
            || j >= 0
               && j < Array.length nodes
               && List.exists
                    (function Cdfg.Sym s -> bad_home s | _ -> false)
                    nodes.(j).Cdfg.operands
          | M.Amove { value; from_tile } ->
            bad_tile from_tile || value_refs value
          | M.Acopy value -> value_refs value
        in
        let block_sym_dirty =
          List.exists
            (fun (s, op) ->
              bad_home s
              || match op with Cdfg.Sym s' -> bad_home s' | _ -> false)
            block.Cdfg.live_out
          ||
          match block.Cdfg.terminator with
          | Cdfg.Branch (Cdfg.Sym s, _, _) -> bad_home s
          | _ -> false
        in
        block_sym_dirty || List.exists slot_dirty bm.M.slots)
      m.M.bbs
  in
  let kept = Array.map (fun h -> if bad_tile h then -1 else h) m.M.homes in
  (dirty, kept)

(* Diagnosis rounds before a repair gives up as non-converging. *)
let max_rounds = 4

let repair ?(mode = Full) ~config ~injected ~fresh_mem ~golden
    (pristine_m : M.t) =
  let pristine = pristine_m.M.cgra in
  let truth = Cgra.degrade pristine injected in
  let detected = detect ~truth pristine_m in
  if detected = [] then { injected; detected; diagnosed = []; status = Unaffected }
  else
    (* One remap attempt on the accumulated fault map.  Incremental mode
       re-searches only the dirty blocks with the survivors' placements
       pre-committed, falling back to a full remap when every block is
       dirty or the partial search dead-ends. *)
    let remap cfg faults' =
      let full () =
        (Flow.run ~config:cfg pristine pristine_m.M.cdfg, Full_remap)
      in
      match mode with
      | Full -> full ()
      | Incremental -> (
        let dirty, kept = dirty_blocks pristine_m faults' in
        let ndirty = Array.fold_left (fun a d -> if d then a + 1 else a) 0 dirty in
        let total = Array.length dirty in
        if ndirty >= total then full ()
        else
          match
            Flow.run_partial ~config:cfg ~base:pristine_m ~dirty ~homes:kept
              pristine
          with
          | Ok _ as ok -> (ok, Partial { dirty = ndirty; total })
          | Error _ -> full ())
    in
    let rec go round faults vs =
      let faults' = normalize_faults (faults @ diagnose ~pristine vs) in
      if faults' = faults then
        ( faults,
          Gave_up { reason = "violations not attributable to a fault"; rounds = round } )
      else if round > max_rounds then
        (faults', Gave_up { reason = "diagnosis did not converge"; rounds = round })
      else
        let cfg = { config with Flow_config.faults = faults' } in
        match remap cfg faults' with
        | Error f, _ ->
            ( faults',
              Gave_up
                { reason = "remap failed: " ^ f.Flow.reason; rounds = round } )
        | Ok (m, stats), remap_kind -> (
            match detect ~truth m with
            | [] -> (
                (* The remap satisfies every invariant on the true degraded
                   array; final word goes to the simulator. *)
                match Asm.assemble m with
                | exception Asm.Assembly_error e ->
                    ( faults',
                      Gave_up
                        { reason = "assembly failed after repair: " ^ e;
                          rounds = round } )
                | p -> (
                    let mem = fresh_mem () in
                    match Sim.run p ~mem with
                    | exception Sim.Sim_error e ->
                        ( faults',
                          Gave_up
                            { reason =
                                "simulation failed after repair: "
                                ^ Sim.error_to_string e;
                              rounds = round } )
                    | res ->
                        if mem <> golden then
                          ( faults',
                            Gave_up
                              { reason = "wrong output after repair";
                                rounds = round } )
                        else
                          ( faults',
                            Repaired
                              {
                                mapping = m;
                                rounds = round;
                                escalations =
                                  List.length stats.Flow.escalations;
                                cycles = res.Sim.cycles;
                                energy_pj = (Energy.cgra truth res).Energy.total_pj;
                                remap = remap_kind;
                              } )))
            | vs' -> go (round + 1) faults' vs')
    in
    let diagnosed, status = go 1 [] detected in
    { injected; detected; diagnosed; status }

let status_to_string = function
  | Unaffected -> "unaffected"
  | Repaired { rounds; escalations; cycles; remap; _ } ->
      (* Full-remap wording is byte-identical to the pre-incremental tool,
         so full-mode reports stay stable artifacts. *)
      Printf.sprintf "remapped (%d diagnosis round%s, %d escalation%s, %d cycles%s)"
        rounds
        (if rounds = 1 then "" else "s")
        escalations
        (if escalations = 1 then "" else "s")
        cycles
        (match remap with
         | Full_remap -> ""
         | Partial { dirty; total } ->
             Printf.sprintf ", partial %d/%d blocks" dirty total)
  | Gave_up { reason; rounds } ->
      Printf.sprintf "gave up after %d round%s: %s" rounds
        (if rounds = 1 then "" else "s")
        reason

let trace_to_string t =
  let faults fs =
    if fs = [] then "(none)"
    else String.concat " " (List.map Cgra.fault_to_string fs)
  in
  let detected =
    match t.detected with
    | [] -> "no invariant violated"
    | vs ->
        Printf.sprintf "%d violation%s, first: %s" (List.length vs)
          (if List.length vs = 1 then "" else "s")
          (Validator.to_string (List.hd vs))
  in
  Printf.sprintf
    "injected:  %s\ndetected:  %s\ndiagnosed: %s\nresult:    %s"
    (faults t.injected) detected (faults t.diagnosed)
    (status_to_string t.status)

(* ------------------------------------------------------------------ *)
(* Survivability campaigns. *)

type trial = { index : int; trace : trace }

type summary = {
  trials : int;
  unaffected : int;
  repaired : int;
  partial_repairs : int;
  gave_up : int;
  mean_cycle_overhead : float;
  mean_energy_overhead : float;
}

type campaign = {
  runs : trial list;
  summary : summary;
  pristine_cycles : int;
  pristine_energy_pj : float;
}

let summarize ~pristine_cycles ~pristine_energy_pj runs =
  let z =
    { trials = List.length runs; unaffected = 0; repaired = 0;
      partial_repairs = 0; gave_up = 0;
      mean_cycle_overhead = 0.0; mean_energy_overhead = 0.0 }
  in
  let s, covh, eovh =
    List.fold_left
      (fun (s, covh, eovh) t ->
        match t.trace.status with
        | Unaffected -> ({ s with unaffected = s.unaffected + 1 }, covh, eovh)
        | Gave_up _ -> ({ s with gave_up = s.gave_up + 1 }, covh, eovh)
        | Repaired { cycles; energy_pj; remap; _ } ->
            ( { s with
                repaired = s.repaired + 1;
                partial_repairs =
                  (s.partial_repairs
                  + match remap with Partial _ -> 1 | Full_remap -> 0) },
              covh
              +. ((float_of_int cycles -. float_of_int pristine_cycles)
                 /. float_of_int (max 1 pristine_cycles)),
              eovh +. ((energy_pj -. pristine_energy_pj) /. pristine_energy_pj) ))
      (z, 0.0, 0.0) runs
  in
  if s.repaired = 0 then s
  else
    { s with
      mean_cycle_overhead = covh /. float_of_int s.repaired;
      mean_energy_overhead = eovh /. float_of_int s.repaired }

let run_campaign ?jobs ?(mode = Full) ~seed ~trials ~faults ~key ~config
    ~fresh_mem (pristine_m : M.t) =
  let pristine = pristine_m.M.cgra in
  let program = Asm.assemble pristine_m in
  let golden = fresh_mem () in
  let baseline = Sim.run program ~mem:golden in
  let pristine_energy_pj = (Energy.cgra pristine baseline).Energy.total_pj in
  let run_trial index =
    let rng =
      Rng.create (Rng.seed_of ~base:seed (key ^ "#" ^ string_of_int index))
    in
    let injected = Fault.sample_fault_map rng pristine ~faults in
    (* Per-trial remap seed: trials stay independent of each other and of
       the evaluation order, so the campaign is [--jobs]-deterministic. *)
    let config =
      { config with
        Flow_config.seed =
          Rng.seed_of ~base:config.Flow_config.seed
            (key ^ "#remap#" ^ string_of_int index) }
    in
    { index;
      trace =
        repair ~mode ~config ~injected ~fresh_mem ~golden pristine_m }
  in
  let runs = Pool.map ?jobs run_trial (List.init trials Fun.id) in
  {
    runs;
    summary =
      summarize ~pristine_cycles:baseline.Sim.cycles ~pristine_energy_pj runs;
    pristine_cycles = baseline.Sim.cycles;
    pristine_energy_pj;
  }
