(* Sinz-style sequential counters (LTseq): linear-size cardinality
   encodings whose auxiliary registers [s_{i,j}] mean "at least j of
   the first i literals are true".  See Sinz, CP 2005. *)

let at_most_k solver lits k =
  let n = List.length lits in
  if k < 0 then Solver.add_clause solver []
  else if k = 0 then
    List.iter (fun l -> Solver.add_clause solver [ -l ]) lits
  else if n > k then begin
    (* reg i j = "at least j+1 of the first i+1 literals are true", for
       i in 0..n-2 (the last literal needs no register column).  The
       registers are allocated row by row up front, so they are
       consecutive variables from [first]. *)
    let first = Solver.nvars solver + 1 in
    for _ = 1 to (n - 1) * k do
      ignore (Solver.new_var solver)
    done;
    let reg i j = first + (i * k) + j in
    let rec rows i = function
      | [ x ] -> Solver.add_clause solver [ -x; -reg (i - 1) (k - 1) ]
      | x :: rest ->
        Solver.add_clause solver [ -x; reg i 0 ];
        Solver.add_clause solver [ -reg (i - 1) 0; reg i 0 ];
        for j = 1 to k - 1 do
          Solver.add_clause solver [ -x; -reg (i - 1) (j - 1); reg i j ];
          Solver.add_clause solver [ -reg (i - 1) j; reg i j ]
        done;
        Solver.add_clause solver [ -x; -reg (i - 1) (k - 1) ];
        rows (i + 1) rest
      | [] -> ()
    in
    match lits with
    | x0 :: rest ->
      Solver.add_clause solver [ -x0; reg 0 0 ];
      for j = 1 to k - 1 do
        Solver.add_clause solver [ -reg 0 j ]
      done;
      rows 1 rest
    | [] -> ()
  end

let at_most_one solver lits = at_most_k solver lits 1

let exactly_one solver lits =
  Solver.add_clause solver lits;
  at_most_one solver lits
