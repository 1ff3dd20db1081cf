module Isa = Cgra_arch.Isa
module Cgra = Cgra_arch.Cgra
module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode
module Asm = Cgra_asm.Assemble

type activity = {
  alu_ops : int;
  mul_ops : int;
  mem_ops : int;
  moves : int;
  fetches : int;
  awake_cycles : int;
}

let zero_activity =
  { alu_ops = 0; mul_ops = 0; mem_ops = 0; moves = 0; fetches = 0; awake_cycles = 0 }

(* Context-memory protection counters (protected runs only).  [detected]
   counts every non-clean ECC verdict, corrections included; [corrected]
   the subset repaired in place (fetch path and scrub alike);
   [scrub_cycles] the background cycles the scrubber spent scanning
   (one word read each); [scrub_reads] and [written] are per tile, for
   the energy model's scrub-traffic and encode-on-write terms. *)
type ecc = {
  detected : int;
  corrected : int;
  scrub_cycles : int;
  scrub_reads : int array;
  written : int array;
}

type result = {
  cycles : int;
  stall_cycles : int;
  blocks_executed : int;
  instructions : int;
  activity : activity array;
  ecc : ecc option;
}

type error =
  | Crf_out_of_range of { tile : int; block : int; cycle : int; index : int; pool : int }
  | Rf_out_of_range of { tile : int; block : int; cycle : int; reg : int; rf_words : int }
  | Bad_tile of { tile : int; block : int; cycle : int; target : int; tiles : int }
  | Non_neighbour_read of
      { tile : int; block : int; cycle : int; from_tile : int; distance : int }
  | Mem_out_of_bounds of { tile : int; block : int; cycle : int; addr : int; words : int }
  | Bad_arity of { tile : int; block : int; cycle : int; opcode : Opcode.t; args : int }
  | Store_with_dst of { tile : int; block : int; cycle : int }
  | Cond_without_result of { tile : int; block : int; cycle : int }
  | Write_conflict of { tile : int; reg : int; block : int; cycle : int }
  | Missing_condition of { block : int }
  | Unexecuted_instructions of { tile : int; block : int; left : int }
  | Runaway of { max_blocks : int }
  | Uncorrectable_cm of { tile : int; word : int; block : int; cycle : int }
  | Undecodable_cm of
      { tile : int; word : int; block : int; cycle : int; message : string }

let error_to_string = function
  | Crf_out_of_range { tile; block; cycle; index; pool } ->
    Printf.sprintf "tile %d b%d@%d: CRF index %d out of range (pool %d)" tile block
      cycle index pool
  | Rf_out_of_range { tile; block; cycle; reg; rf_words } ->
    Printf.sprintf "tile %d b%d@%d: RF slot %d out of range (rf_words %d)" tile block
      cycle reg rf_words
  | Bad_tile { tile; block; cycle; target; tiles } ->
    Printf.sprintf "tile %d b%d@%d: references tile %d outside the array (%d tiles)"
      tile block cycle target tiles
  | Non_neighbour_read { tile; block; cycle; from_tile; distance } ->
    Printf.sprintf "tile %d b%d@%d: reads non-neighbour tile %d (distance %d)" tile
      block cycle from_tile distance
  | Mem_out_of_bounds { tile; block; cycle; addr; words } ->
    Printf.sprintf "tile %d b%d@%d: memory access out of bounds: %d (mem %d words)"
      tile block cycle addr words
  | Bad_arity { tile; block; cycle; opcode; args } ->
    Printf.sprintf "tile %d b%d@%d: %s with wrong arity (%d args)" tile block cycle
      (Opcode.to_string opcode) args
  | Store_with_dst { tile; block; cycle } ->
    Printf.sprintf "tile %d b%d@%d: store with a destination" tile block cycle
  | Cond_without_result { tile; block; cycle } ->
    Printf.sprintf "tile %d b%d@%d: set_cond on an instruction without result" tile
      block cycle
  | Write_conflict { tile; reg; block; cycle } ->
    Printf.sprintf "tile %d b%d@%d: two same-cycle writes to RF slot %d" tile block
      cycle reg
  | Missing_condition { block } ->
    Printf.sprintf "block %d: branch executed but no condition was set" block
  | Unexecuted_instructions { tile; block; left } ->
    Printf.sprintf "tile %d section b%d: %d unexecuted instructions" tile block left
  | Runaway { max_blocks } ->
    Printf.sprintf "runaway execution (max_blocks = %d)" max_blocks
  | Uncorrectable_cm { tile; word; block; cycle } ->
    Printf.sprintf
      "tile %d b%d@%d: uncorrectable context-memory error at word %d" tile
      block cycle word
  | Undecodable_cm { tile; word; block; cycle; message = _ } ->
    Printf.sprintf "tile %d b%d@%d: undecodable context word %d" tile block
      cycle word

exception Sim_error of error

let () =
  Printexc.register_printer (function
    | Sim_error e -> Some (Printf.sprintf "Sim_error (%s)" (error_to_string e))
    | _ -> None)

let fail e = raise (Sim_error e)

type upset =
  | Context_bit of { tile : int; word : int; bit : int }
  | Crf_bit of { tile : int; index : int; bit : int }
  | Rf_bit of { cycle : int; tile : int; reg : int; bit : int }

type protect = { profile : Cgra_arch.Protection.profile; scrub_interval : int }

module P = Cgra_arch.Protection
module Ecc = Cgra_asm.Ecc

let protect_of profile =
  if P.is_none profile then None
  else Some { profile; scrub_interval = P.default_scrub_interval }

(* Marks a [code] entry whose stored word has changed.  [Isa.decode] never
   yields a zero-length pnop, and entries are compared physically. *)
let absent = Isa.Ipnop 0

let run ?(mem_ports = 8) ?(max_blocks = 1_000_000) ?(upsets = []) ?protect
    (p : Asm.program) ~mem =
  if mem_ports < 1 then invalid_arg "Simulator.run: mem_ports must be >= 1";
  let m = p.Asm.mapping in
  let cgra = m.Cgra_core.Mapping.cgra in
  let cdfg = m.Cgra_core.Mapping.cdfg in
  let nt = Cgra.tile_count cgra in
  let rf_words = cgra.Cgra.rf_words in
  let sections t = p.Asm.tiles.(t).Asm.sections in
  (* Word offset of each section in its tile's context image, plus the
     image length at the end: section [bi] is words
     [bases.(t).(bi) .. bases.(t).(bi + 1) - 1]. *)
  let bases =
    Array.init nt (fun t ->
        let secs = sections t in
        let b = Array.make (Array.length secs + 1) 0 in
        Array.iteri (fun i sec -> b.(i + 1) <- b.(i) + List.length sec) secs;
        b)
  in
  let words t = bases.(t).(Array.length (sections t)) in
  (* Every tile is unprotected without [?protect]. *)
  let kindof =
    Array.init nt (fun t ->
        match protect with
        | None -> P.Unprotected
        | Some pr -> P.for_cm pr.profile ~cm_words:(Cgra.base_cm cgra t))
  in
  (* The stored context image, only for the tiles that need one: protected
     tiles, whose words are checked on every fetch, and tiles a context
     upset hits.  [checks] are the write-time check bits of the pristine
     image. *)
  let stored =
    Array.init nt (fun t ->
        if kindof.(t) <> P.Unprotected
           || List.exists (function Context_bit u -> u.tile = t | _ -> false) upsets
        then Asm.encode_tile p.Asm.tiles.(t)
        else [||])
  in
  let checks = Array.mapi (fun t ws -> Array.map (Ecc.check_bits kindof.(t)) ws) stored in
  (* The instruction at each context word, from the sections.  An entry is
     [absent] once its stored word has changed, and that word is decoded
     on its next fetch. *)
  let code =
    Array.init nt (fun t ->
        let c = Array.make (words t) absent in
        Array.iteri
          (fun bi sec -> List.iteri (fun i ins -> c.(bases.(t).(bi) + i) <- ins) sec)
          (sections t);
        c)
  in
  (* Each tile's constant pool; an upset flips a bit of a per-run copy. *)
  let crf = Array.map (fun tp -> tp.Asm.crf) p.Asm.tiles in
  let in_range what v n =
    if v < 0 || v >= n then invalid_arg ("Simulator.run: upset " ^ what ^ " out of range")
  in
  List.iter
    (function
      | Context_bit { tile; word; bit } ->
        in_range "tile" tile nt;
        in_range "word" word (words tile);
        in_range "bit" bit 64;
        stored.(tile).(word) <- Int64.logxor stored.(tile).(word) (Int64.shift_left 1L bit);
        code.(tile).(word) <- absent
      | Crf_bit { tile; index; bit } ->
        in_range "tile" tile nt;
        in_range "constant-pool index" index (Array.length crf.(tile));
        in_range "bit" bit 32;
        if crf.(tile) == p.Asm.tiles.(tile).Asm.crf then crf.(tile) <- Array.copy crf.(tile);
        crf.(tile).(index) <- Opcode.wrap32 (crf.(tile).(index) lxor (1 lsl bit))
      | Rf_bit { cycle; tile; reg; bit } ->
        in_range "cycle" cycle max_int;
        in_range "tile" tile nt;
        in_range "register" reg rf_words;
        in_range "bit" bit 32)
    upsets;
  let rf_upsets = List.filter (function Rf_bit _ -> true | _ -> false) upsets in
  (* Protection counters, reported only under [?protect]. *)
  let detected = ref 0 and corrected = ref 0 and scrub_cycles = ref 0 in
  let scrub_reads = Array.make nt 0 in
  let interval = match protect with Some pr -> pr.scrub_interval | None -> 0 in
  let next_scrub = ref (if interval > 0 then interval else max_int) in
  let rf = Array.init nt (fun _ -> Array.make rf_words 0) in
  (* Per-tile activity counters, turned into [activity] records at the end. *)
  let alu_ops = Array.make nt 0 and mul_ops = Array.make nt 0 in
  let mem_ops = Array.make nt 0 and moves = Array.make nt 0 in
  let fetches = Array.make nt 0 and awake = Array.make nt 0 in
  (* Per-tile cursor within the current section: next word, end of the
     section, remaining pnop cycles. *)
  let pc = Array.make nt 0 and limit = Array.make nt 0 and sleep = Array.make nt 0 in
  let cycles = ref 0 and stalls = ref 0 and blocks = ref 0 and instrs = ref 0 in
  (* Loads and stores issued in the current cycle. *)
  let cycle_mem = ref 0 in
  (* A register upset flips its bit when the global cycle counter crosses
     its cycle (stall and transition cycles included), once, in list
     order. *)
  let rec apply_rf_upsets lo hi = function
    | Rf_bit { cycle; tile; reg; bit } :: rest ->
      if cycle >= lo && cycle < hi then
        rf.(tile).(reg) <- Opcode.wrap32 (rf.(tile).(reg) lxor (1 lsl bit));
      apply_rf_upsets lo hi rest
    | _ :: rest -> apply_rf_upsets lo hi rest
    | [] -> ()
  in
  let check_reg t ~block ~cycle r =
    if r < 0 || r >= rf_words then
      fail (Rf_out_of_range { tile = t; block; cycle; reg = r; rf_words })
  in
  let check_neighbour t ~block ~cycle from_tile =
    if from_tile < 0 || from_tile >= nt then
      fail (Bad_tile { tile = t; block; cycle; target = from_tile; tiles = nt });
    let d = Cgra.distance cgra t from_tile in
    if d > 1 then
      fail (Non_neighbour_read { tile = t; block; cycle; from_tile; distance = d })
  in
  let src_value t ~block ~cycle = function
    | Isa.Rf r ->
      check_reg t ~block ~cycle r;
      rf.(t).(r)
    | Isa.Crf c ->
      let crf = crf.(t) in
      if c < 0 || c >= Array.length crf then
        fail (Crf_out_of_range { tile = t; block; cycle; index = c; pool = Array.length crf })
      else crf.(c)
    | Isa.Nbr (t', r) ->
      (* neighbour-mux read: start-of-cycle RF state of an adjacent tile *)
      check_neighbour t ~block ~cycle t';
      check_reg t ~block ~cycle r;
      rf.(t').(r)
  in
  (* -1 until a [set_cond] of the current section drives it, then 0 or 1. *)
  let cond = ref (-1) in
  (* Register writes of the current cycle, applied at its end (two-phase
     update).  Each tile writes at most once per cycle, so [nt] slots
     suffice. *)
  let pw_tile = Array.make nt 0 and pw_reg = Array.make nt 0 in
  let pw_val = Array.make nt 0 and pending = ref 0 in
  let write t reg v =
    let k = !pending in
    pw_tile.(k) <- t;
    pw_reg.(k) <- reg;
    pw_val.(k) <- v;
    pending := k + 1
  in
  let commit ~block ~cycle =
    (* Same-cycle writes to one (tile, reg) have no defined winner in the
       hardware; surface the conflict, scanning latest write first,
       instead of letting issue order pick. *)
    let n = !pending in
    for k = n - 1 downto 0 do
      let t = pw_tile.(k) and r = pw_reg.(k) in
      for j = k + 1 to n - 1 do
        if pw_tile.(j) = t && pw_reg.(j) = r then
          fail (Write_conflict { tile = t; reg = r; block; cycle })
      done;
      rf.(t).(r) <- Opcode.wrap32 pw_val.(k)
    done;
    pending := 0
  in
  let mem_check t ~block ~cycle addr =
    if addr < 0 || addr >= Array.length mem then
      fail (Mem_out_of_bounds { tile = t; block; cycle; addr; words = Array.length mem })
  in
  let mem_op t =
    mem_ops.(t) <- mem_ops.(t) + 1;
    incr cycle_mem
  in
  let exec_instr t ~block ~cycle instr =
    incr instrs;
    fetches.(t) <- fetches.(t) + 1;
    awake.(t) <- awake.(t) + 1;
    match instr with
    | Isa.Ipnop _ -> assert false
    | Isa.Iop { opcode; srcs; dst; set_cond } ->
      (* every source is read, left to right, before the arity check *)
      let args = List.map (src_value t ~block ~cycle) srcs in
      let result =
        match opcode, args with
        | Opcode.Load, [ addr ] ->
          mem_check t ~block ~cycle addr;
          mem_op t;
          Some mem.(addr)
        | Opcode.Store, [ addr; v ] ->
          mem_check t ~block ~cycle addr;
          mem_op t;
          mem.(addr) <- v;
          None
        | (Opcode.Load | Opcode.Store), args ->
          fail (Bad_arity { tile = t; block; cycle; opcode; args = List.length args })
        | op, args ->
          if List.length args <> Opcode.arity op then
            fail (Bad_arity { tile = t; block; cycle; opcode = op; args = List.length args });
          alu_ops.(t) <- alu_ops.(t) + 1;
          if op = Opcode.Mul then mul_ops.(t) <- mul_ops.(t) + 1;
          Some (Opcode.eval op args)
      in
      (match result, dst with
       | Some v, Some d -> check_reg t ~block ~cycle d; write t d v
       | Some _, None | None, None -> ()
       | None, Some _ -> fail (Store_with_dst { tile = t; block; cycle }));
      if set_cond then (
        match result with
        | Some v -> cond := Bool.to_int (v <> 0)
        | None -> fail (Cond_without_result { tile = t; block; cycle }))
    | Isa.Imov { from_tile; from_slot; dst } ->
      moves.(t) <- moves.(t) + 1;
      check_neighbour t ~block ~cycle from_tile;
      check_reg t ~block ~cycle from_slot;
      check_reg t ~block ~cycle dst;
      write t dst rf.(from_tile).(from_slot)
    | Isa.Icopy { src; dst; set_cond } ->
      moves.(t) <- moves.(t) + 1;
      let v = src_value t ~block ~cycle src in
      check_reg t ~block ~cycle dst;
      write t dst v;
      if set_cond then cond := Bool.to_int (v <> 0)
  in
  (* A stored word has been repaired: its decoded instruction is stale. *)
  let write_back t w d =
    incr detected;
    incr corrected;
    stored.(t).(w) <- d;
    code.(t).(w) <- absent
  in
  (* Check a protected word through the ECC decoder: a correction writes
     back; an uncorrectable verdict aborts the run with a typed error (the
     hardware's machine check). *)
  let ecc_check k t w ~block ~cycle =
    match Ecc.decode k ~data:stored.(t).(w) ~check:checks.(t).(w) with
    | Ecc.Clean -> ()
    | Ecc.Corrected d -> write_back t w d
    | Ecc.Detected ->
      incr detected;
      fail (Uncorrectable_cm { tile = t; word = w; block; cycle })
  in
  (* Fetch one context word.  A protected tile checks it on every fetch;
     the verdict is never cached.  A word whose stored copy has changed is
     decoded again: a clean-but-corrupted word (an unprotected upset, a
     parity escape) executes as whatever it now encodes, or fails typed if
     it no longer decodes. *)
  let fetch t w ~block ~cycle =
    (match kindof.(t) with P.Unprotected -> () | k -> ecc_check k t w ~block ~cycle);
    let i = code.(t).(w) in
    if i != absent then i
    else
      match Isa.decode stored.(t).(w) with
      | Ok i -> code.(t).(w) <- i; i
      | Error message -> fail (Undecodable_cm { tile = t; word = w; block; cycle; message })
  in
  (* One scrubber pass: read every protected word, correct correctable
     errors in place, abort on detected-uncorrectable ones.  Scrub reads
     happen in the background (no execution cycles), but are counted for
     the energy model. *)
  let scrub_pass ~block ~cycle =
    for t = 0 to nt - 1 do
      match kindof.(t) with
      | P.Unprotected -> ()
      | k ->
        for w = 0 to Array.length stored.(t) - 1 do
          scrub_reads.(t) <- scrub_reads.(t) + 1;
          incr scrub_cycles;
          ecc_check k t w ~block ~cycle
        done
    done
  in
  let maybe_scrub ~block ~cycle =
    while !cycles >= !next_scrub do
      scrub_pass ~block ~cycle;
      next_scrub := !next_scrub + interval
    done
  in
  (* Advance the global cycle counter, firing the register upsets it
     crosses. *)
  let tick n =
    let before = !cycles in
    cycles := before + n;
    match rf_upsets with [] -> () | us -> apply_rf_upsets before !cycles us
  in
  (* One lock-step walk of block [bi]'s sections. *)
  let run_section bi =
    for t = 0 to nt - 1 do
      pc.(t) <- bases.(t).(bi);
      limit.(t) <- bases.(t).(bi + 1);
      sleep.(t) <- 0
    done;
    cond := -1;
    for cycle = 0 to p.Asm.section_length.(bi) - 1 do
      (* Phase 1: execute this cycle's instruction on every tile, in
         index order. *)
      cycle_mem := 0;
      for t = 0 to nt - 1 do
        if sleep.(t) > 0 then sleep.(t) <- sleep.(t) - 1
        else if pc.(t) < limit.(t) then begin
          let w = pc.(t) in
          (match fetch t w ~block:bi ~cycle with
           | Isa.Ipnop n ->
             (* fetching the pnop word costs one access, then the tile
                sleeps *)
             fetches.(t) <- fetches.(t) + 1;
             sleep.(t) <- n - 1
           | instr -> exec_instr t ~block:bi ~cycle instr);
          pc.(t) <- w + 1
        end
        (* else trailing sleep: clock-gated until section end *)
      done;
      (* Phase 2: commit register writes. *)
      commit ~block:bi ~cycle;
      (* Logarithmic-interconnect arbitration: accesses beyond the port
         count this cycle stall the whole array. *)
      let n = !cycle_mem in
      let extra = if n = 0 then 0 else (n - 1) / mem_ports in
      stalls := !stalls + extra;
      tick (1 + extra);
      maybe_scrub ~block:bi ~cycle
    done;
    for t = 0 to nt - 1 do
      if pc.(t) < limit.(t) then
        fail (Unexecuted_instructions { tile = t; block = bi; left = limit.(t) - pc.(t) })
    done
  in
  let rec go bi =
    if !blocks >= max_blocks then fail (Runaway { max_blocks });
    incr blocks;
    run_section bi;
    (* Global controller: one transition cycle per block. *)
    tick 1;
    maybe_scrub ~block:bi ~cycle:0;
    match cdfg.Cdfg.blocks.(bi).Cdfg.terminator with
    | Cdfg.Jump next -> go next
    | Cdfg.Branch (_, bt, be) ->
      if !cond < 0 then fail (Missing_condition { block = bi });
      go (if !cond = 1 then bt else be)
    | Cdfg.Return -> ()
  in
  go cdfg.Cdfg.entry;
  {
    cycles = !cycles;
    stall_cycles = !stalls;
    blocks_executed = !blocks;
    instructions = !instrs;
    activity =
      Array.init nt (fun t ->
          {
            alu_ops = alu_ops.(t);
            mul_ops = mul_ops.(t);
            mem_ops = mem_ops.(t);
            moves = moves.(t);
            fetches = fetches.(t);
            awake_cycles = awake.(t);
          });
    ecc =
      Option.map
        (fun _ ->
          {
            detected = !detected;
            corrected = !corrected;
            scrub_cycles = !scrub_cycles;
            scrub_reads;
            written = Array.init nt words;
          })
        protect;
  }

let total_activity r =
  Array.fold_left
    (fun acc a ->
      {
        alu_ops = acc.alu_ops + a.alu_ops;
        mul_ops = acc.mul_ops + a.mul_ops;
        mem_ops = acc.mem_ops + a.mem_ops;
        moves = acc.moves + a.moves;
        fetches = acc.fetches + a.fetches;
        awake_cycles = acc.awake_cycles + a.awake_cycles;
      })
    zero_activity r.activity
