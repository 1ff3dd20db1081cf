type phase = Syntax | Semantic | Invalid_ir

type error = { phase : phase; pos : Ast.pos option; msg : string }

exception Error of error

let phase_label = function
  | Syntax -> "syntax error"
  | Semantic -> "semantic error"
  | Invalid_ir -> "internal error"

let error_to_string e =
  match e.pos with
  | Some p ->
    Printf.sprintf "%s at line %d, col %d: %s" (phase_label e.phase)
      p.Ast.line p.Ast.col e.msg
  | None -> Printf.sprintf "%s: %s" (phase_label e.phase) e.msg

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Compile.Error: " ^ error_to_string e)
    | _ -> None)

let compile ?(raw = false) src =
  match Parser.parse src with
  | exception Ast.Syntax_error (pos, msg) ->
    Stdlib.Error { phase = Syntax; pos = Some pos; msg }
  | ast -> (
    match Lower.lower ~naive:raw ast with
    | exception Lower.Lower_error msg ->
      Stdlib.Error { phase = Semantic; pos = None; msg }
    | cdfg -> (
      let cdfg = if raw then cdfg else Cgra_ir.Opt.optimize cdfg in
      match Cgra_ir.Cdfg.validate cdfg with
      | Ok () -> Stdlib.Ok cdfg
      | Error msg ->
        Stdlib.Error
          { phase = Invalid_ir;
            pos = None;
            msg = "lowering produced an invalid CDFG: " ^ msg }))

let compile_exn ?raw src =
  match compile ?raw src with
  | Stdlib.Ok c -> c
  | Stdlib.Error e -> raise (Error e)
