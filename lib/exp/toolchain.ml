module FC = Cgra_core.Flow_config
module Flow = Cgra_core.Flow
module K = Cgra_kernels.Kernel_def
module Pipeline = Cgra_opt.Pipeline
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

(* The opt mode, decided here once: [Default] maps the inline-optimized
   lowering, [Raw] and [Optimized] the naive one, and [Optimized] then
   runs the [cgra_opt] pipeline over it ([optimize] below). *)
let raw_lowering = function Default -> false | Raw | Optimized -> true

let cdfg_of opt k = if raw_lowering opt then K.cdfg_raw k else K.cdfg k
let compile opt source = Cgra_lang.Compile.compile ~raw:(raw_lowering opt) source

type error =
  | Unmapped of Flow.failure
  | Unoptimizable of string
  | Invalid of Validator.violation list
  | Crashed of Sim.error
  | Wrong_output

let error_to_string = function
  | Unmapped f -> f.Flow.reason
  | Unoptimizable msg -> "optimize: differential verification failed: " ^ msg
  | Invalid vs ->
    "validate: " ^ String.concat "; " (List.map Validator.to_string vs)
  | Crashed e -> "simulate: " ^ Sim.error_to_string e
  | Wrong_output -> "golden: simulated memory image disagrees with the golden model"

type mapped = {
  mapping : Cgra_core.Mapping.t;
  stats : Flow.stats;
  program : Cgra_asm.Assemble.program;
  opt_report : Pipeline.report option;
}

type executed = { sim : Sim.result; energy : Cgra_power.Energy.breakdown }

let validate program =
  match Validator.check program with [] -> Ok () | vs -> Error (Invalid vs)

(* An invalid CDFG skips the pipeline and reaches [Flow.run] as it is,
   which reports it as an ordinary mapping failure. *)
let optimize opt ~verify cdfg =
  match opt with
  | Optimized when Cgra_ir.Cdfg.validate cdfg = Ok () -> (
    match Pipeline.run ~verify:(verify ()) cdfg with
    | cdfg, report -> Ok (cdfg, Some report)
    | exception Pipeline.Verification_failed msg -> Error (Unoptimizable msg))
  | Default | Raw | Optimized -> Ok (cdfg, None)

let map ?deadline ~config cgra cdfg =
  match Flow.run ~config ?deadline cgra cdfg with
  | Error f -> Error (Unmapped f)
  | Ok (mapping, stats) -> (
    match Cgra_asm.Assemble.assemble mapping with
    | exception Cgra_asm.Assemble.Assembly_error reason ->
      (* Register-file pressure the search does not model: a dead end
         the flow's ladder never saw, so it names no rung. *)
      Error
        (Unmapped
           { Flow.verdict = Cgra_core.Search.Dead_end;
             reason = "assembly: " ^ reason; at_block = None;
             work = stats.Flow.work; gave_up = [] })
    | program ->
      Result.map
        (fun () -> { mapping; stats; program; opt_report = None })
        (validate program))

let execute ?(protection = Cgra_arch.Protection.none) ?golden ~mem program =
  (* Protection off keeps the plain fetch path and energy model. *)
  let protect = Sim.protect_of protection in
  match (Sim.run ?protect program ~mem, golden) with
  | exception Sim.Sim_error e -> Error (Crashed e)
  | _, Some g when mem <> g -> Error Wrong_output
  | sim, _ ->
    let cgra = program.Cgra_asm.Assemble.mapping.Cgra_core.Mapping.cgra in
    let protect = Option.map (fun _ -> protection) protect in
    Ok { sim; energy = Cgra_power.Energy.cgra ?protect cgra sim }

let ( let* ) = Result.bind

let run ?deadline ?golden ?(opt = Default) ~config ~mem cgra cdfg =
  (* A kernel with known inputs verifies the optimizer on exactly the
     image it will be simulated on. *)
  let verify () =
    match golden with
    | Some _ -> Pipeline.verifier_of_mems [ Array.copy mem ]
    | None -> Pipeline.default_verifier ()
  in
  let* cdfg, opt_report = optimize opt ~verify cdfg in
  let* m = map ?deadline ~config cgra cdfg in
  let m = { m with opt_report } in
  Result.map
    (fun x -> (m, x))
    (execute ~protection:config.FC.protection ?golden ~mem m.program)

let run_kernel ?deadline ?(opt = Default) ~config cgra k =
  run ?deadline ~golden:(K.run_golden k) ~opt ~config ~mem:(K.fresh_mem k) cgra
    (cdfg_of opt k)
