module FC = Cgra_core.Flow_config
module Toolchain = Cgra_exp.Toolchain

type outcome =
  | Artifact of { bytes : string; digest : string }
  | Unmappable of { reason : string }
  | Timed_out of { where : string }

let ( let* ) = Result.bind

let run ?deadline (spec : Key.spec) =
  let* fc = FC.of_knobs spec.Key.knobs in
  let fc = { fc with FC.faults = spec.Key.faults } in
  let cgra = Cgra_arch.Config.cgra spec.Key.config in
  let* () =
    (* Surface bad tile ids in the fault map as a request error before
       mapping, exactly like [cgra_map map --faults]. *)
    match Cgra_arch.Cgra.degrade cgra spec.Key.faults with
    | _ -> Ok ()
    | exception Invalid_argument e -> Error ("fault map: " ^ e)
  in
  let* result =
    match spec.Key.kernel with
    | Key.Bundled { slug; source = _ } -> (
      match Cgra_kernels.Kernels.by_slug slug with
      | None -> Error (Printf.sprintf "unknown kernel %S" slug)
      | Some k ->
        Ok (Toolchain.run_kernel ?deadline ~opt:spec.Key.opt ~config:fc cgra k))
    | Key.Inline { source; mem_words } -> (
      let raw = spec.Key.opt <> Key.Default in
      match Cgra_lang.Compile.compile ~raw source with
      | Error e ->
        Error ("kernel source: " ^ Cgra_lang.Compile.error_to_string e)
      | Ok cdfg ->
        Ok
          (Toolchain.run ?deadline
             ~config:{ fc with FC.optimize = spec.Key.opt = Key.Optimized }
             ~mem:(Array.make mem_words 0) cgra cdfg))
  in
  match result with
  | Ok ({ Toolchain.program; _ }, { Toolchain.sim; energy }) ->
    let bytes =
      Artifact.render ~key_digest:(Key.digest spec) ~spec program sim energy
    in
    Ok (Artifact { bytes; digest = Artifact.digest bytes })
  | Error (Toolchain.Unmapped { Cgra_core.Flow.timed_out = Some where; _ }) ->
    (* Not a verdict about the kernel — the caller must not memoise it. *)
    Ok (Timed_out { where })
  | Error ((Toolchain.Unmapped _ | Toolchain.Unassemblable _) as e) ->
    Ok (Unmappable { reason = Toolchain.error_to_string e })
  | Error e ->
    Error (Toolchain.error_to_string e ^ " — tool bug, refusing to cache")
