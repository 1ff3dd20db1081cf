(* Frozen reference copy of the cardinality encodings over [Ref_solver],
   as they stood before direct clause emission: the new [Cgra_sat.Cnf]
   must emit the same variable and clause stream.  Test-only. *)

module Solver = Ref_solver

(* Sinz-style sequential counters (LTseq): linear-size cardinality
   encodings whose auxiliary registers [s_{i,j}] mean "at least j of
   the first i literals are true".  See Sinz, CP 2005. *)

let at_most_k solver lits k =
  let n = List.length lits in
  if k < 0 then Solver.add_clause solver []
  else if k = 0 then
    List.iter (fun l -> Solver.add_clause solver [ -l ]) lits
  else if n > k then begin
    let xs = Array.of_list lits in
    (* regs.(i).(j) = "at least j+1 of xs.(0..i) are true", for
       i in 0..n-2 (the last literal needs no register column). *)
    let regs =
      Array.init (n - 1) (fun _ -> Array.init k (fun _ -> Solver.new_var solver))
    in
    Solver.add_clause solver [ -xs.(0); regs.(0).(0) ];
    for j = 1 to k - 1 do
      Solver.add_clause solver [ -regs.(0).(j) ]
    done;
    for i = 1 to n - 2 do
      Solver.add_clause solver [ -xs.(i); regs.(i).(0) ];
      Solver.add_clause solver [ -regs.(i - 1).(0); regs.(i).(0) ];
      for j = 1 to k - 1 do
        Solver.add_clause solver [ -xs.(i); -regs.(i - 1).(j - 1); regs.(i).(j) ];
        Solver.add_clause solver [ -regs.(i - 1).(j); regs.(i).(j) ]
      done;
      Solver.add_clause solver [ -xs.(i); -regs.(i - 1).(k - 1) ]
    done;
    Solver.add_clause solver [ -xs.(n - 1); -regs.(n - 2).(k - 1) ]
  end

let at_most_one solver lits = at_most_k solver lits 1

let exactly_one solver lits =
  Solver.add_clause solver lits;
  at_most_one solver lits
