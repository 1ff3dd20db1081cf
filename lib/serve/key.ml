module FC = Cgra_core.Flow_config

type opt = Cgra_exp.Toolchain.opt = Default | Raw | Optimized

type kernel =
  | Bundled of { slug : string; source : string }
  | Inline of { source : string; mem_words : int }

type spec = {
  kernel : kernel;
  config : Cgra_arch.Config.name;
  knobs : (string * string) list;
  opt : opt;
  faults : Cgra_arch.Cgra.fault list;
}

(* Bump on any change that can alter artifact bytes for an unchanged
   request: search algorithm, assembler encoding, simulator timing,
   energy constants, artifact layout. *)
let code_version = "cgra_mapd-4"

let spec_of_bundled ~slug ~config ~flow ~opt ~faults =
  match Cgra_kernels.Kernels.by_slug slug with
  | None ->
    Error
      (Printf.sprintf "unknown kernel %S (try: cgra_map list)" slug)
  | Some k ->
    Ok
      {
        kernel = Bundled { slug; source = k.Cgra_kernels.Kernel_def.source };
        config;
        knobs = FC.to_knobs flow;
        opt;
        faults;
      }

(* ---- canonical form and digest ---------------------------------------- *)

let md5_hex s = Digest.to_hex (Digest.string s)

let canonical spec =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "cgra-key v1";
  line "code %s" code_version;
  (match spec.kernel with
  | Bundled { slug; source } ->
    line "kernel bundled %s" slug;
    line "source-md5 %s" (md5_hex source)
  | Inline { source; mem_words } ->
    line "kernel inline mem_words=%d" mem_words;
    line "source-md5 %s" (md5_hex source));
  line "config %s" (Cgra_arch.Config.to_string spec.config);
  line "opt %s" (Cgra_exp.Toolchain.opt_to_string spec.opt);
  List.iter
    (fun (name, v) -> line "knob %s=%s" name v)
    (List.sort (fun (a, _) (b, _) -> compare a b) spec.knobs);
  List.iter
    (fun f -> line "fault %s" f)
    (List.sort compare
       (List.map Cgra_arch.Cgra.fault_to_string spec.faults));
  Buffer.contents buf

let digest spec = md5_hex (canonical spec)
