module FC = Cgra_core.Flow_config
module Flow = Cgra_core.Flow
module K = Cgra_kernels.Kernel_def
module Sim = Cgra_sim.Simulator
module Validator = Cgra_verify.Validator

type opt = Default | Raw | Optimized

let opt_to_string = function
  | Default -> "default"
  | Raw -> "raw"
  | Optimized -> "optimized"

let opt_of_string = function
  | "default" -> Some Default
  | "raw" -> Some Raw
  | "optimized" -> Some Optimized
  | _ -> None

let opt_label = function Default -> "" | Raw -> "+RAW" | Optimized -> "+OPT"

let cdfg_of opt k =
  match opt with Default -> K.cdfg k | Raw | Optimized -> K.cdfg_raw k

type error =
  | Unmapped of Flow.failure
  | Unoptimizable of string
  | Unassemblable of { reason : string; work : int }
  | Invalid of Validator.violation list
  | Crashed of Sim.error
  | Wrong_output

let error_to_string = function
  | Unmapped f -> f.Flow.reason
  | Unoptimizable msg -> "optimize: differential verification failed: " ^ msg
  | Unassemblable { reason; _ } -> "assembly: " ^ reason
  | Invalid vs ->
    "validate: " ^ String.concat "; " (List.map Validator.to_string vs)
  | Crashed e -> "simulate: " ^ Sim.error_to_string e
  | Wrong_output -> "golden: simulated memory image disagrees with the golden model"

type mapped = {
  mapping : Cgra_core.Mapping.t;
  stats : Flow.stats;
  program : Cgra_asm.Assemble.program;
}

type executed = { sim : Sim.result; energy : Cgra_power.Energy.breakdown }

let validate program =
  match Validator.check program with [] -> Ok () | vs -> Error (Invalid vs)

let map ?deadline ?opt_verify ~config cgra cdfg =
  match Flow.run ~config ?deadline ?opt_verify cgra cdfg with
  | exception Cgra_opt.Pipeline.Verification_failed msg -> Error (Unoptimizable msg)
  | Error f -> Error (Unmapped f)
  | Ok (mapping, stats) -> (
    match Cgra_asm.Assemble.assemble mapping with
    | exception Cgra_asm.Assemble.Assembly_error reason ->
      Error (Unassemblable { reason; work = stats.Flow.work })
    | program ->
      Result.map (fun () -> { mapping; stats; program }) (validate program))

let execute ?(protection = Cgra_arch.Protection.none) ?golden ~mem program =
  (* Protection off keeps the plain fetch path and energy model, so
     unprotected results are bit-identical to a protection-free build. *)
  let protect =
    if Cgra_arch.Protection.is_none protection then None
    else
      Some
        { Sim.profile = protection;
          upsets = [];
          scrub_interval = Cgra_arch.Protection.default_scrub_interval }
  in
  match (Sim.run ?protect program ~mem, golden) with
  | exception Sim.Sim_error e -> Error (Crashed e)
  | _, Some g when mem <> g -> Error Wrong_output
  | sim, _ ->
    let cgra = program.Cgra_asm.Assemble.mapping.Cgra_core.Mapping.cgra in
    let protect = Option.map (fun _ -> protection) protect in
    Ok { sim; energy = Cgra_power.Energy.cgra ?protect cgra sim }

let run ?deadline ?golden ~config ~mem cgra cdfg =
  (* A kernel with known inputs verifies the optimizer on exactly the
     image it will be simulated on. *)
  let opt_verify =
    Option.map
      (fun _ -> Cgra_opt.Pipeline.verifier_of_mems [ Array.copy mem ])
      golden
  in
  Result.bind (map ?deadline ?opt_verify ~config cgra cdfg) (fun m ->
      Result.map
        (fun x -> (m, x))
        (execute ~protection:config.FC.protection ?golden ~mem m.program))

let run_kernel ?deadline ?(opt = Default) ~config cgra k =
  run ?deadline ~golden:(K.run_golden k)
    ~config:{ config with FC.optimize = opt = Optimized }
    ~mem:(K.fresh_mem k) cgra (cdfg_of opt k)
