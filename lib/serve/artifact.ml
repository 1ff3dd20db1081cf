module A = Cgra_asm.Assemble
module S = Cgra_sim.Simulator
module E = Cgra_power.Energy

let digest bytes = Digest.to_hex (Digest.string bytes)

let render ~key_digest ~(spec : Key.spec) (prog : A.program) (sim : S.result)
    (energy : E.breakdown) =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "cgra-artifact v1";
  line "key %s" key_digest;
  (match spec.Key.kernel with
  | Key.Bundled { slug; source } ->
    line "kernel %s" slug;
    line "source-md5 %s" (Digest.to_hex (Digest.string source))
  | Key.Inline { source; mem_words } ->
    line "kernel inline mem_words=%d" mem_words;
    line "source-md5 %s" (Digest.to_hex (Digest.string source)));
  line "config %s" (Cgra_arch.Config.to_string spec.Key.config);
  line "opt %s" (Cgra_exp.Toolchain.opt_to_string spec.Key.opt);
  line "cycles %d" sim.S.cycles;
  line "stalls %d" sim.S.stall_cycles;
  line "blocks_executed %d" sim.S.blocks_executed;
  line "instructions %d" sim.S.instructions;
  line "energy_pj %.3f" energy.E.total_pj;
  line "sym_slot %s"
    (String.concat " " (Array.to_list (Array.map string_of_int prog.A.sym_slot)));
  line "section_length %s"
    (String.concat " "
       (Array.to_list (Array.map string_of_int prog.A.section_length)));
  line "tiles %d" (Array.length prog.A.tiles);
  Array.iteri
    (fun t (tp : A.tile_program) ->
      line "tile %d words %d" t tp.A.words;
      line "  crf %s"
        (String.concat " " (Array.to_list (Array.map string_of_int tp.A.crf)));
      let image = A.encode_tile tp in
      line "  image %s"
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%016Lx") image))))
    prog.A.tiles;
  line "end";
  Buffer.contents buf
