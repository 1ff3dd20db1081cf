(* The CDCL solver, the CNF helpers, and the exact SAT mapping
   backend: solver unit tests, beam/exact equivalence on the kernel
   suite, and portfolio determinism. *)

module S = Cgra_sat.Solver
module Cnf = Cgra_sat.Cnf

let fresh n =
  let s = S.create () in
  let vs = Array.init n (fun _ -> S.new_var s) in
  (s, vs)

(* -- solver units -------------------------------------------------- *)

let test_trivial_sat () =
  let s, v = fresh 2 in
  S.add_clause s [ v.(0); v.(1) ];
  S.add_clause s [ -v.(0); v.(1) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v1 true" true (S.value s v.(1))

let test_trivial_unsat () =
  let s, v = fresh 1 in
  S.add_clause s [ v.(0) ];
  S.add_clause s [ -v.(0) ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_empty_clause_unsat () =
  let s, _ = fresh 3 in
  S.add_clause s [];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_no_clauses_sat () =
  let s, _ = fresh 5 in
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

(* Instances are written once against the operations of either solver,
   so the arena solver can be checked against [Ref_solver] below. *)
module R0 = Ref_solver

type 'a ops = {
  new_var : 'a -> int;
  add_clause : 'a -> int list -> unit;
  exactly_one : 'a -> int list -> unit;
  at_most_one : 'a -> int list -> unit;
  at_most_k : 'a -> int list -> int -> unit;
}

let arena_ops =
  { new_var = S.new_var; add_clause = S.add_clause;
    exactly_one = Cnf.exactly_one; at_most_one = Cnf.at_most_one;
    at_most_k = Cnf.at_most_k }

let reference_ops =
  { new_var = R0.new_var; add_clause = R0.add_clause;
    exactly_one = Ref_cnf.exactly_one; at_most_one = Ref_cnf.at_most_one;
    at_most_k = Ref_cnf.at_most_k }

type instance = { build : 'a. 'a ops -> 'a -> unit }

(* Pigeonhole: n+1 pigeons into n holes is UNSAT and requires real
   clause learning to prove at n = 5 within a sane budget. *)
let pigeonhole_instance n =
  { build =
      (fun ops s ->
        let x =
          Array.init (n + 1) (fun _ -> Array.init n (fun _ -> ops.new_var s))
        in
        Array.iter (fun row -> ops.exactly_one s (Array.to_list row)) x;
        for h = 0 to n - 1 do
          ops.at_most_one s (Array.to_list (Array.map (fun row -> row.(h)) x))
        done) }

let cnf_instance clauses =
  { build =
      (fun ops s ->
        let n =
          List.fold_left (List.fold_left (fun m l -> max m (abs l))) 0 clauses
        in
        let vars = Array.init n (fun _ -> ops.new_var s) in
        List.iter
          (fun c ->
            ops.add_clause s
              (List.map
                 (fun l -> if l > 0 then vars.(l - 1) else -vars.(-l - 1))
                 c))
          clauses) }

let pigeonhole n =
  let s = S.create () in
  (pigeonhole_instance n).build arena_ops s;
  s

let test_pigeonhole_unsat () =
  let s = pigeonhole 5 in
  Alcotest.(check bool) "php(6,5) unsat" true (S.solve s = S.Unsat)

(* Graph colouring of C5 (odd cycle): 2 colours UNSAT, 3 colours SAT.
   Exercises exactly_one plus binary clauses. *)
let colour_cycle n_vertices n_colours =
  let s = S.create () in
  let c =
    Array.init n_vertices (fun _ ->
        Array.init n_colours (fun _ -> S.new_var s))
  in
  Array.iter (fun row -> Cnf.exactly_one s (Array.to_list row)) c;
  for v = 0 to n_vertices - 1 do
    let w = (v + 1) mod n_vertices in
    for k = 0 to n_colours - 1 do
      S.add_clause s [ -c.(v).(k); -c.(w).(k) ]
    done
  done;
  s

let test_colouring () =
  Alcotest.(check bool) "C5/2 unsat" true (S.solve (colour_cycle 5 2) = S.Unsat);
  Alcotest.(check bool) "C5/3 sat" true (S.solve (colour_cycle 5 3) = S.Sat)

let test_at_most_k () =
  (* sum of 6 literals <= 3, forced 4 true -> UNSAT *)
  let s, v = fresh 6 in
  Cnf.at_most_k s (Array.to_list v) 3;
  for i = 0 to 3 do
    S.add_clause s [ v.(i) ]
  done;
  Alcotest.(check bool) "4 > 3 unsat" true (S.solve s = S.Unsat);
  (* and <= 3 with exactly 3 forced true is SAT, others can be false *)
  let s, v = fresh 6 in
  Cnf.at_most_k s (Array.to_list v) 3;
  for i = 0 to 2 do
    S.add_clause s [ v.(i) ]
  done;
  Alcotest.(check bool) "3 <= 3 sat" true (S.solve s = S.Sat)

let test_budget_unknown () =
  let s = pigeonhole 7 in
  Alcotest.(check bool) "tiny budget gives Unknown" true
    (S.solve ~conflict_budget:5 s = S.Unknown)

let test_model_deterministic () =
  (* Same construction twice -> identical models, bit for bit. *)
  let build () =
    let s = S.create () in
    let v = Array.init 40 (fun _ -> S.new_var s) in
    for i = 0 to 38 do
      S.add_clause s [ v.(i); v.(i + 1) ];
      if i mod 3 = 0 then S.add_clause s [ -v.(i); v.((i + 7) mod 40) ]
    done;
    Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
    Array.map (fun var -> S.value s var) v
  in
  let m1 = build () and m2 = build () in
  Alcotest.(check bool) "identical models" true (m1 = m2)

(* -- cooperative cancellation -------------------------------------- *)

module Deadline = Cgra_util.Deadline

(* An expired deadline cancels mimicking budget exhaustion, so the
   solver state stays consistent: the same instance must be solvable to
   completion afterwards, with the same verdict and model a fresh
   solver produces. *)
let test_cancel_then_resume () =
  let expired = Deadline.after_ms 0 in
  (* UNSAT instance *)
  let s = pigeonhole 5 in
  Alcotest.(check bool) "expired deadline -> Unknown" true
    (S.solve ~deadline:expired s = S.Unknown);
  Alcotest.(check bool) "same solver finishes the proof afterwards" true
    (S.solve s = S.Unsat);
  (* SAT instance: the post-cancel model matches a fresh solver's *)
  let build () =
    let s = S.create () in
    let v = Array.init 40 (fun _ -> S.new_var s) in
    for i = 0 to 38 do
      S.add_clause s [ v.(i); v.(i + 1) ];
      if i mod 3 = 0 then S.add_clause s [ -v.(i); v.((i + 7) mod 40) ]
    done;
    (s, v)
  in
  let s1, v1 = build () in
  Alcotest.(check bool) "cancelled" true
    (S.solve ~deadline:expired s1 = S.Unknown);
  Alcotest.(check bool) "resumed to sat" true (S.solve s1 = S.Sat);
  let s2, v2 = build () in
  Alcotest.(check bool) "fresh sat" true (S.solve s2 = S.Sat);
  Alcotest.(check bool) "model identical to an uncancelled solver" true
    (Array.map (S.value s1) v1 = Array.map (S.value s2) v2)

(* qcheck: on random 3-CNF instances, an armed-but-never-fired deadline
   is an observer — verdict and model are those of a plain solve — and
   a cancelled solver re-solves to exactly the fresh solver's answer. *)
let arb_cnf =
  let open QCheck.Gen in
  let gen =
    int_range 3 12 >>= fun n_vars ->
    int_range 1 40 >>= fun n_clauses ->
    let lit = int_range 1 n_vars >>= fun v -> map (fun b -> if b then v else -v) bool in
    (* Mostly short clauses, some with a duplicated literal or a
       literal next to its negation, the odd unit and, rarely, the empty
       clause: everything [add_clause] has to normalise. *)
    let clause =
      frequency
        [ (1, return []);
          ( 199,
            list_size (int_range 1 4) lit >>= fun c ->
            frequency
              [ (8, return c);
                (1, return (List.hd c :: c));
                (1, return (-List.hd c :: c)) ] ) ]
    in
    list_size (return n_clauses) clause
  in
  QCheck.make
    ~print:(fun cs ->
      String.concat "; "
        (List.map
           (fun c -> String.concat " " (List.map string_of_int c))
           cs))
    gen

let build_cnf clauses =
  let s = S.create () in
  (cnf_instance clauses).build arena_ops s;
  (s, Array.init (S.nvars s) (fun i -> i + 1))

let model_of s vars verdict =
  match verdict with
  | S.Sat -> Some (Array.map (S.value s) vars)
  | S.Unsat | S.Unknown -> None

let prop_deadline_observer =
  QCheck.Test.make ~name:"unfired deadline leaves verdict and model alone"
    ~count:200 arb_cnf (fun clauses ->
      let s_plain, v_plain = build_cnf clauses in
      let plain = S.solve s_plain in
      let s_armed, v_armed = build_cnf clauses in
      let armed = S.solve ~deadline:(Deadline.after_ms 3_600_000) s_armed in
      plain = armed
      && model_of s_plain v_plain plain = model_of s_armed v_armed armed)

let prop_cancel_reusable =
  QCheck.Test.make ~name:"solver is reusable after a mid-solve cancel"
    ~count:200 arb_cnf (fun clauses ->
      let s_fresh, v_fresh = build_cnf clauses in
      let fresh_verdict = S.solve s_fresh in
      let s_cancel, v_cancel = build_cnf clauses in
      let cancelled = S.solve ~deadline:(Deadline.after_ms 0) s_cancel in
      let resumed = S.solve s_cancel in
      (* a contradiction provable at decision level 0 beats the deadline
         to the verdict — that is still deterministic, so allowed *)
      (cancelled = S.Unknown || cancelled = fresh_verdict)
      && resumed = fresh_verdict
      && model_of s_fresh v_fresh fresh_verdict
         = model_of s_cancel v_cancel resumed)

(* -- step for step with the reference solver ------------------------ *)

(* [Ref_solver] and [Ref_cnf] are frozen copies of the solver and the
   cardinality encodings from before the clause arena.  The arena
   solver must follow the same trajectory: the same verdict, model,
   conflict count and clause count after every call, on the same
   stream of [new_var]/[add_clause] calls. *)

(* How [solve] is called, in order, on one solver. *)
type call = Plain | Budget of int | Cancelled

let outcome_name = function
  | S.Sat -> "sat" | S.Unsat -> "unsat" | S.Unknown -> "unknown"

let ref_outcome_name = function
  | R0.Sat -> "sat" | R0.Unsat -> "unsat" | R0.Unknown -> "unknown"

(* Verdict, model and counters after each of [calls], in order, on [s]
   (by default a fresh solver), reset first. *)
let run_arena ?(s = S.create ()) inst calls =
  S.reset s;
  inst.build arena_ops s;
  List.map
    (fun call ->
      let v =
        match call with
        | Plain -> S.solve s
        | Budget b -> S.solve ~conflict_budget:b s
        | Cancelled -> S.solve ~deadline:(Deadline.after_ms 0) s
      in
      ( outcome_name v,
        (if v = S.Sat then Some (Array.init (S.nvars s) (fun i -> S.value s (i + 1)))
         else None),
        S.stats_conflicts s,
        S.stats_clauses s ))
    calls

(* The same on the reference, for a solver already built. *)
let observe_reference s calls =
  List.map
    (fun call ->
      let v =
        match call with
        | Plain -> R0.solve s
        | Budget b -> R0.solve ~conflict_budget:b s
        | Cancelled -> R0.solve ~deadline:(Deadline.after_ms 0) s
      in
      ( ref_outcome_name v,
        (if v = R0.Sat then
           Some (Array.init (R0.nvars s) (fun i -> R0.value s (i + 1)))
         else None),
        R0.stats_conflicts s,
        R0.stats_clauses s ))
    calls

let run_reference inst calls =
  let s = R0.create () in
  inst.build reference_ops s;
  observe_reference s calls

let schedules = [ [ Plain ]; [ Budget 5; Plain ]; [ Cancelled; Plain ] ]

let follows_reference inst =
  List.for_all
    (fun calls -> run_arena inst calls = run_reference inst calls)
    schedules

let prop_reference_cnf =
  QCheck.Test.make ~name:"arena solver follows the reference on random CNFs"
    ~count:500 arb_cnf (fun clauses -> follows_reference (cnf_instance clauses))

(* Random 3-CNFs near the satisfiability threshold: enough conflicts for
   the 5-conflict budget to cut the search short. *)
let arb_3cnf =
  let open QCheck.Gen in
  let gen =
    int_range 20 60 >>= fun n_vars ->
    let lit = int_range 1 n_vars >>= fun v -> map (fun b -> if b then v else -v) bool in
    list_size (return (n_vars * 43 / 10)) (list_size (return 3) lit)
  in
  QCheck.make ~print:(fun cs -> string_of_int (List.length cs) ^ " clauses") gen

let prop_reference_3cnf =
  QCheck.Test.make ~name:"arena solver follows the reference on 3-CNFs"
    ~count:100 arb_3cnf (fun clauses -> follows_reference (cnf_instance clauses))

(* Sinz counters over signed literals, any bound from -1 to past the
   width, beside random side clauses. *)
let arb_at_most_k =
  let open QCheck.Gen in
  let gen =
    int_range 2 10 >>= fun n_vars ->
    int_range (-1) (n_vars + 1) >>= fun k ->
    let lit = int_range 1 n_vars >>= fun v -> map (fun b -> if b then v else -v) bool in
    list_size (int_range 0 (2 * n_vars)) (list_size (int_range 1 3) lit)
    >>= fun side -> return (n_vars, k, side)
  in
  QCheck.make
    ~print:(fun (n, k, side) ->
      Printf.sprintf "n=%d k=%d side=%d clauses" n k (List.length side))
    gen

let prop_reference_at_most_k =
  QCheck.Test.make ~name:"arena solver and Cnf follow the reference on at_most_k"
    ~count:300 arb_at_most_k (fun (n, k, side) ->
      let inst =
        { build =
            (fun ops s ->
              let vars = Array.init n (fun _ -> ops.new_var s) in
              ops.at_most_k s
                (List.mapi
                   (fun i v -> if i mod 3 = 1 then -v else v)
                   (Array.to_list vars))
                k;
              List.iter
                (fun c ->
                  ops.add_clause s
                    (List.map
                       (fun l ->
                         if l > 0 then vars.(l - 1) else -vars.(-l - 1))
                       c))
                side) }
      in
      follows_reference inst)

(* A random 3-CNF near the threshold over 120 variables, every tenth
   clause replaced by one of 17 to 40 literals with duplicates: the long
   clauses take the heapsort path, and they shift clause boundaries so
   that the arena grows part-way through a clause. *)
let test_reference_long_clauses () =
  let rng = Cgra_util.Rng.create 3 in
  let n_vars = 120 in
  let lit () =
    let v = 1 + Cgra_util.Rng.int rng n_vars in
    if Cgra_util.Rng.bool rng then v else -v
  in
  let clauses =
    List.init (n_vars * 426 / 100) (fun k ->
        List.init (if k mod 10 = 9 then 17 + Cgra_util.Rng.int rng 24 else 3)
          (fun _ -> lit ()))
  in
  Alcotest.(check bool) "same trajectory as the reference" true
    (follows_reference (cnf_instance clauses))

let test_reference_pigeonhole () =
  for n = 2 to 6 do
    let inst = pigeonhole_instance n in
    Alcotest.(check bool)
      (Printf.sprintf "php(%d,%d)" (n + 1) n)
      true (follows_reference inst)
  done;
  let inst = pigeonhole_instance 8 in
  let calls = [ Budget 300; Cancelled; Budget 300 ] in
  Alcotest.(check bool) "php(9,8) under budgets" true
    (run_arena inst calls = run_reference inst calls)

(* One solver, reset between instances of every size in turn, follows
   the reference on each as a fresh solver would: a pigeonhole proof of
   UNSAT comes second, so a reset after an UNSAT (and after a closed
   clause set) must give [new_var] and [add_clause] back. *)
let prop_reset_follows_reference =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 2 5)
      (pair
         (frequency [ (3, QCheck.gen arb_cnf); (1, QCheck.gen arb_3cnf) ])
         (oneofl schedules))
  in
  QCheck.Test.make ~name:"a reset solver follows the reference on each instance"
    ~count:150
    (QCheck.make
       ~print:(fun runs ->
         String.concat "; "
           (List.map
              (fun (cs, calls) ->
                Printf.sprintf "%d clauses, %d calls" (List.length cs)
                  (List.length calls))
              runs))
       gen)
    (fun runs ->
      let s = S.create () in
      let runs = List.map (fun (cs, calls) -> (cnf_instance cs, calls)) runs in
      let runs =
        match runs with
        | first :: rest ->
          first :: (pigeonhole_instance 4, [ Budget 5; Plain ]) :: rest
        | [] -> []
      in
      List.for_all
        (fun (inst, calls) -> run_arena ~s inst calls = run_reference inst calls)
        runs)

(* A random 3-CNF near the threshold over [n_vars] variables, numbered
   from [base + 1]. *)
let random_3cnf ~seed ~base n_vars =
  let rng = Cgra_util.Rng.create seed in
  List.init (n_vars * 426 / 100) (fun _ ->
      List.init 3 (fun _ ->
          let v = base + 1 + Cgra_util.Rng.int rng n_vars in
          if Cgra_util.Rng.bool rng then v else -v))

(* The long instances follow the reference under three call schedules;
   [known] is the reference's run of one of them, already made. *)
let follows_reference_long inst (known_calls, known) =
  List.iter
    (fun calls ->
      let expected =
        if calls = known_calls then known else run_reference inst calls
      in
      Alcotest.(check bool)
        (Printf.sprintf "same trajectory as the reference, %d calls"
           (List.length calls))
        true
        (run_arena inst calls = expected))
    [ [ Plain ]; [ Budget 200; Plain ]; [ Cancelled; Plain ] ]

(* One random 3-CNF that learns more than the 20,000 clauses
   [max_learnt] starts at, so learnt-clause deletion runs in both
   solvers (the reference's [max_learnt] grows only when it does).  Its
   22,064 conflicts cross four activity rescales, but every variable is
   bumped again between them, so none is zeroed. *)
let test_reference_reduce_db () =
  let inst = cnf_instance (random_3cnf ~seed:6 ~base:0 220) in
  let reference = R0.create () in
  inst.build reference_ops reference;
  let expected = observe_reference reference [ Plain ] in
  Alcotest.(check bool) "learnt clauses were deleted" true
    (reference.R0.max_learnt > 20_000.0);
  follows_reference_long inst ([ Plain ], expected)

(* Decisions after rescales have zeroed activities.  Twenty gadgets come
   first, each a variable [s] that four clauses [s \/ +-x \/ +-y] force
   true, leaving [x] and [y] free; then eight satisfiable 160-variable
   3-CNFs side by side.  The gadgets' first conflicts bump [x] and [y]
   once, and the fourth rescale zeroes them, mostly while they wait
   unassigned below the core's decisions.  The cursor must decide them
   again: a rescale that lost them would leave them unassigned, and the
   model would read false where their saved phase says true. *)
let test_reference_zeroed () =
  let gadgets = 20 and core = 160 in
  let gadget i =
    let s = (3 * i) + 1 in
    let x = s + 1 and y = s + 2 in
    [ [ s; x; y ]; [ s; x; -y ]; [ s; -x; y ]; [ s; -x; -y ] ]
  in
  let clauses =
    List.concat (List.init gadgets gadget)
    @ List.concat
        (List.mapi
           (fun k seed ->
             random_3cnf ~seed ~base:((3 * gadgets) + (core * k)) core)
           [ 5; 19; 26; 27; 36; 37; 1; 9 ])
  in
  let inst = cnf_instance clauses in
  let reference = R0.create () in
  inst.build reference_ops reference;
  let first = observe_reference reference [ Budget 200 ] in
  let raised = Array.copy reference.R0.activity in
  let expected = first @ observe_reference reference [ Plain ] in
  Alcotest.(check bool) "the reference zeroed an activity it had raised" true
    (Array.exists2
       (fun before after -> before > 0.0 && after = 0.0)
       raised reference.R0.activity);
  Alcotest.(check bool) "the instance is satisfiable" true
    (match expected with [ _; ("sat", Some _, _, _) ] -> true | _ -> false);
  follows_reference_long inst ([ Budget 200; Plain ], expected)

let raises_invalid f =
  match f () with
  | () -> false
  | exception Invalid_argument _ -> true

(* [solve] keeps a [Sat] trail, so a clause added after it cannot be
   honoured: the next [solve] could call a satisfiable formula UNSAT (a)
   or return a model that violates the new clause (b).  The clause set
   therefore closes at the first [solve]. *)
let test_closed_after_solve () =
  (* (a) [a \/ b] is Sat with a = false, b = true; adding [a] would make
     the next solve report Unsat. *)
  let s, v = fresh 2 in
  let a = v.(0) and b = v.(1) in
  S.add_clause s [ a; b ];
  Alcotest.(check bool) "(a) first solve" true (S.solve s = S.Sat);
  Alcotest.(check (pair bool bool)) "(a) model" (false, true)
    (S.value s a, S.value s b);
  Alcotest.(check bool) "(a) add_clause after solve raises" true
    (raises_invalid (fun () -> S.add_clause s [ a ]));
  Alcotest.(check bool) "(a) new_var after solve raises" true
    (raises_invalid (fun () -> ignore (S.new_var s)));
  Alcotest.(check bool) "(a) the solver still answers the old formula" true
    (S.solve s = S.Sat && S.value s b);
  (* [reset] reopens it, after a Sat and after a refutation alike. *)
  S.reset s;
  Alcotest.(check int) "(a) reset forgets the variables" 0 (S.nvars s);
  let a' = S.new_var s in
  S.add_clause s [ -a' ];
  Alcotest.(check bool) "(a) a reset solver takes a new formula" true
    (S.solve s = S.Sat && not (S.value s a'));
  S.reset s;
  let a' = S.new_var s in
  S.add_clause s [ a' ];
  S.add_clause s [ -a' ];
  Alcotest.(check bool) "(a) ... refutes it" true (S.solve s = S.Unsat);
  S.reset s;
  let a' = S.new_var s in
  S.add_clause s [ a' ];
  Alcotest.(check bool) "(a) ... and is open again after the refutation" true
    (S.solve s = S.Sat && S.value s a' && S.stats_clauses s = 0);
  let s, v = fresh 2 in
  S.add_clause s [ v.(0); v.(1) ];
  S.add_clause s [ v.(0) ];
  Alcotest.(check bool) "(a) a fresh solver says Sat" true (S.solve s = S.Sat);
  (* (b) [a \/ b \/ c] is Sat with only c true; adding [not c \/ a]
     would make the next solve return that same, now violating, model. *)
  let s, v = fresh 3 in
  let a = v.(0) and b = v.(1) and c = v.(2) in
  S.add_clause s [ a; b; c ];
  Alcotest.(check bool) "(b) first solve" true (S.solve s = S.Sat);
  Alcotest.(check (list bool)) "(b) model" [ false; false; true ]
    (List.map (S.value s) [ a; b; c ]);
  Alcotest.(check bool) "(b) add_clause after solve raises" true
    (raises_invalid (fun () -> S.add_clause s [ -c; a ]));
  let s, v = fresh 3 in
  S.add_clause s [ v.(0); v.(1); v.(2) ];
  S.add_clause s [ -v.(2); v.(0) ];
  Alcotest.(check bool) "(b) a fresh solver's model satisfies both" true
    (S.solve s = S.Sat
    && (S.value s v.(0) || S.value s v.(1) || S.value s v.(2))
    && ((not (S.value s v.(2))) || S.value s v.(0)))

(* The documented normalisation and range checks. *)
let test_add_clause_contract () =
  let s, v = fresh 2 in
  Alcotest.(check bool) "literal 0 raises" true
    (raises_invalid (fun () -> S.add_clause s [ v.(0); 0 ]));
  Alcotest.(check bool) "unknown variable raises" true
    (raises_invalid (fun () -> S.add_clause s [ -3 ]));
  Alcotest.(check int) "a raising clause adds nothing" 0 (S.stats_clauses s);
  S.add_clause s [ v.(0); -v.(0); v.(1) ];
  Alcotest.(check int) "tautology dropped" 0 (S.stats_clauses s);
  S.add_clause s [ v.(1); v.(0); v.(1); v.(0) ];
  Alcotest.(check int) "duplicates merged into one clause" 1 (S.stats_clauses s);
  S.add_clause s [ -v.(0); -v.(0) ];
  Alcotest.(check bool) "a duplicated unit forces the literal" true
    (S.solve s = S.Sat && (not (S.value s v.(0))) && S.value s v.(1));
  (* The list-free forms share the one normalisation. *)
  let s, v = fresh 3 in
  Alcotest.(check bool) "add_clause2: literal 0 raises" true
    (raises_invalid (fun () -> S.add_clause2 s v.(0) 0));
  Alcotest.(check bool) "add_clause3: unknown variable raises" true
    (raises_invalid (fun () -> S.add_clause3 s v.(0) v.(1) 4));
  Alcotest.(check int) "a raising short clause adds nothing" 0 (S.stats_clauses s);
  S.add_clause2 s v.(1) (-v.(1));
  S.add_clause3 s v.(0) v.(2) (-v.(0));
  Alcotest.(check int) "short tautologies dropped" 0 (S.stats_clauses s);
  S.add_clause3 s v.(2) v.(1) v.(2);
  Alcotest.(check int) "a duplicate merged into a binary clause" 1
    (S.stats_clauses s);
  S.add_clause2 s (-v.(0)) (-v.(0));
  S.add_clause3 s (-v.(2)) (-v.(2)) (-v.(2));
  Alcotest.(check bool) "duplicated short units force their literals" true
    (S.solve s = S.Sat
    && (not (S.value s v.(0)))
    && (not (S.value s v.(2)))
    && S.value s v.(1));
  Alcotest.(check bool) "add_clause2 after solve raises" true
    (raises_invalid (fun () -> S.add_clause2 s v.(0) v.(1)));
  let s, v = fresh 1 in
  S.add_clause2 s v.(0) v.(0);
  S.add_clause2 s (-v.(0)) (-v.(0));
  Alcotest.(check bool) "two opposite short units are UNSAT" true
    (S.solve s = S.Unsat)

(* -- exact backend end-to-end -------------------------------------- *)

module FC = Cgra_core.Flow_config
module Flow = Cgra_core.Flow
module M = Cgra_core.Mapping
module Config = Cgra_arch.Config
module K = Cgra_kernels.Kernel_def
module R = Cgra_exp.Runner

let kernel slug = Option.get (Cgra_kernels.Kernels.by_slug slug)

(* The full context-aware flow for [slug]@[config] with the given
   backend — the same per-cell configuration the experiment runner
   uses, so these tests exercise exactly what the reports tabulate. *)
let cell_config slug config backend =
  { (R.cell_flow_config slug config FC.Full) with FC.backend; retries = 0 }

let run_cell slug config backend =
  let k = kernel slug in
  Flow.run
    ~config:(cell_config slug config backend)
    (Config.cgra config) (K.cdfg k)

(* Every exact mapping must survive the independent validator and
   compute the kernel's golden memory image — cheap cells only, the
   full grid is the bench's optimality_report. *)
let test_exact_equivalence () =
  List.iter
    (fun (slug, config) ->
      let k = kernel slug in
      match run_cell slug config FC.Exact with
      | Error f ->
        Alcotest.failf "%s@%s: exact backend failed: %s" slug
          (Config.to_string config)
          f.Flow.reason
      | Ok (mapping, _) ->
        let program = Cgra_asm.Assemble.assemble mapping in
        (match Cgra_verify.Validator.check program with
        | [] -> ()
        | vs ->
          Alcotest.failf "%s@%s: validator: %s" slug
            (Config.to_string config)
            (String.concat "; "
               (List.map Cgra_verify.Validator.to_string vs)));
        let mem = K.fresh_mem k in
        ignore (Cgra_sim.Simulator.run program ~mem);
        Alcotest.(check bool)
          (Printf.sprintf "%s@%s: golden image" slug
             (Config.to_string config))
          true
          (mem = K.run_golden k))
    [ ("fir", Config.HOM64); ("fir", Config.HOM32);
      ("convolution", Config.HOM32) ]

(* The portfolio's contract: never worse than the beam under the
   flow's own cost (schedule length dominating, then routing moves);
   ties keep the beam result. *)
let mapping_cost config m =
  Array.fold_left (fun acc bm -> acc + (256 * bm.M.length)) 0 m.M.bbs
  + (config.FC.move_weight * M.total_moves m)

let test_portfolio_never_worse () =
  List.iter
    (fun slug ->
      let config = Config.HOM32 in
      let fc_beam = cell_config slug config FC.Beam in
      match (run_cell slug config FC.Beam, run_cell slug config FC.Portfolio)
      with
      | Ok (bm, _), Ok (pm, _) ->
        Alcotest.(check bool)
          (slug ^ ": portfolio cost <= beam cost")
          true
          (mapping_cost fc_beam pm <= mapping_cost fc_beam bm)
      | Error f, _ ->
        Alcotest.failf "%s: beam failed: %s" slug f.Flow.reason
      | _, Error f ->
        Alcotest.failf "%s: portfolio failed: %s" slug f.Flow.reason)
    [ "fir"; "convolution"; "sep_filter" ]

(* Determinism invariant: the racing layer must not leak scheduling
   noise into the artifact — whichever backend finishes first, repeated
   races of the same portfolio map assemble to one program. *)
let test_portfolio_races_identical () =
  let fc = cell_config "fir" Config.HOM32 FC.Portfolio in
  let digest race =
    match Flow.run ~config:fc (Config.cgra Config.HOM32) (K.cdfg (kernel "fir")) with
    | Error f -> Alcotest.failf "fir portfolio race %d failed: %s" race f.Flow.reason
    | Ok (mapping, _) ->
      Digest.string
        (Marshal.to_string (Cgra_asm.Assemble.assemble mapping) [])
  in
  let d1 = digest 1 in
  Alcotest.(check string) "race 1 = race 2" d1 (digest 2);
  Alcotest.(check string) "race 1 = race 3" d1 (digest 3)

(* The determinism contract of the deadline: armed but never fired, it
   is an observer — the assembled program is byte-identical to a run
   with no deadline at all, for every backend (beam search rounds,
   exact probes, and the portfolio race's combine rule). *)
let test_deadline_unfired_identical () =
  let digest_of ?deadline backend =
    let fc = cell_config "fir" Config.HOM32 backend in
    match
      Flow.run ~config:fc ?deadline (Config.cgra Config.HOM32)
        (K.cdfg (kernel "fir"))
    with
    | Error f ->
      Alcotest.failf "fir %s failed: %s" (FC.backend_to_string backend)
        f.Flow.reason
    | Ok (mapping, _) ->
      Digest.string (Marshal.to_string (Cgra_asm.Assemble.assemble mapping) [])
  in
  let armed = Cgra_util.Deadline.after_ms 3_600_000 in
  List.iter
    (fun backend ->
      Alcotest.(check string)
        (FC.backend_to_string backend ^ ": unfired deadline is bytes-neutral")
        (digest_of backend)
        (digest_of ~deadline:armed backend))
    [ FC.Beam; FC.Exact; FC.Portfolio ]

(* An expired deadline surfaces as the typed failure, never as an
   exception, and records where the search observed it. *)
let test_deadline_fired_typed () =
  let fc = cell_config "fir" Config.HOM32 FC.Beam in
  match
    Flow.run ~config:fc ~deadline:(Cgra_util.Deadline.after_ms 0)
      (Config.cgra Config.HOM32) (K.cdfg (kernel "fir"))
  with
  | Ok _ -> Alcotest.fail "expired deadline cannot produce a mapping"
  | Error f -> (
    match f.Flow.verdict with
    | Cgra_core.Search.Expired { where } ->
      Alcotest.(check string) "where names the boundary" "flow block loop" where;
      Alcotest.(check string) "reason renders where" "timed out (flow block loop)"
        f.Flow.reason
    | _ -> Alcotest.failf "failure not typed as timeout: %s" f.Flow.reason)

(* A failure's kind is data.  dc_filter@HOM64 is the exact backend's
   move-free infeasibility proof, and its reason keeps the phrase the
   benchmark's own matcher still looks for; FFT@HOM32 under the full beam
   flow is an ordinary dead end. *)
let test_typed_verdicts () =
  (match run_cell "dc_filter" Config.HOM64 FC.Exact with
   | Ok _ -> Alcotest.fail "dc_filter@HOM64 cannot map move-free"
   | Error f ->
     Alcotest.(check bool) "verdict is Proved_unsat" true
       (f.Flow.verdict = Cgra_core.Search.Proved_unsat);
     let phrase = "proved UNSAT" and reason = f.Flow.reason in
     let n = String.length phrase in
     let rec has i =
       i + n <= String.length reason
       && (String.sub reason i n = phrase || has (i + 1))
     in
     Alcotest.(check bool) "reason still says proved UNSAT" true (has 0));
  let fc = R.cell_flow_config "fft" Config.HOM32 FC.Full in
  match Flow.run ~config:fc (Config.cgra Config.HOM32) (K.cdfg (kernel "fft")) with
  | Ok _ -> Alcotest.fail "FFT@HOM32 is the full beam flow's unmappable cell"
  | Error f ->
    Alcotest.(check bool) "verdict is Dead_end" true
      (f.Flow.verdict = Cgra_core.Search.Dead_end)

(* The exact backend's ladder has two rungs, greedy then spread, and a
   rung that fails with a proof ends it.  dc_filter@HOM64 is proved
   unmappable on the greedy rung, so it climbs one rung whatever
   [retries] and [degrade] say. *)
let test_exact_proof_ends_ladder () =
  let cgra = Config.cgra Config.HOM64 and cdfg = K.cdfg (kernel "dc_filter") in
  let exact = { FC.context_aware with FC.backend = FC.Exact } in
  let failure config =
    match Flow.run ~config cgra cdfg with
    | Ok _ -> Alcotest.fail "dc_filter@HOM64 cannot map move-free"
    | Error f -> f
  in
  let once = failure { exact with FC.retries = 0 } in
  List.iter
    (fun (what, config) ->
      let f = failure config in
      Alcotest.(check int) (what ^ ": one rung") 1 (List.length f.Flow.gave_up);
      Alcotest.(check int) (what ^ ": the work of one attempt") once.Flow.work
        f.Flow.work;
      Alcotest.(check string) (what ^ ": same reason") once.Flow.reason
        f.Flow.reason)
    [ ("retries 2", exact); ("degrade", { exact with FC.degrade = true }) ]

(* The cells whose greedy exact rung dead-ends on the committed context
   and whose spread rung maps.  The success reports one retry and keeps
   the greedy dead end as its escalation.  [work] counts the conflicts
   of both rungs (the recorded values pin where the spread heuristics
   put their budgets and reserves), and the mapping rung's own conflicts
   fall short of it. *)
let test_exact_spread_pass () =
  List.iter
    (fun (slug, config, work) ->
      let what = Printf.sprintf "%s@%s" slug (Config.to_string config) in
      match run_cell slug config FC.Exact with
      | Error f -> Alcotest.failf "%s: %s" what f.Flow.reason
      | Ok (_, stats) ->
        Alcotest.(check int) (what ^ ": one retry") 1 stats.Flow.retries_used;
        (match stats.Flow.escalations with
         | [ e ] ->
           Alcotest.(check int) (what ^ ": the greedy rung") 0 e.Flow.e_attempt;
           Alcotest.(check bool) (what ^ ": with the given configuration") true
             (e.Flow.e_config = cell_config slug config FC.Exact);
           Alcotest.(check bool) (what ^ ": it dead-ended at a block") true
             (e.Flow.e_at_block <> None)
         | es ->
           Alcotest.failf "%s: %d escalations, expected the greedy rung" what
             (List.length es));
        Alcotest.(check int) (what ^ ": conflicts of both rungs") work
          stats.Flow.work;
        let mapping_pass =
          List.fold_left
            (fun a bs -> a + bs.Cgra_core.Search.attempts)
            0 stats.Flow.search
        in
        Alcotest.(check bool) (what ^ ": the greedy rung failed first") true
          (mapping_pass < work))
    [ ("fft", Config.HOM32, 115); ("fft", Config.HET1, 33);
      ("fft", Config.HET2, 161); ("sep_filter", Config.HET2, 19) ]

(* A failed exact map reports its last rung, the whole ladder and the
   work of every rung.  SepFilter on 6-word context memories dead-ends
   on both rungs; its spread rung's budgeted solves fail and fall back
   to the reserves alone, so the recorded [work] pins that fallback
   too.  [retries] and [degrade] do not change an exact map. *)
let test_exact_ladder_work () =
  let cgra = Cgra_arch.Cgra.make ~cm_of_tile:(fun _ -> 6) ()
  and cdfg = K.cdfg (kernel "sep_filter") in
  let exact = { FC.context_aware with FC.backend = FC.Exact } in
  List.iter
    (fun (what, config) ->
      match Flow.run ~config cgra cdfg with
      | Ok _ -> Alcotest.failf "%s: SepFilter cannot fit 6-word CMs" what
      | Error f ->
        Alcotest.(check bool) (what ^ ": a dead end") true
          (f.Flow.verdict = Cgra_core.Search.Dead_end);
        Alcotest.(check (option int)) (what ^ ": at block 11") (Some 11)
          f.Flow.at_block;
        Alcotest.(check (list int)) (what ^ ": both rungs") [ 0; 1 ]
          (List.map (fun e -> e.Flow.e_attempt) f.Flow.gave_up);
        Alcotest.(check bool) (what ^ ": each with the given configuration")
          true
          (List.for_all (fun e -> e.Flow.e_config = config) f.Flow.gave_up);
        Alcotest.(check (list bool)) (what ^ ": each rung's line names its pass")
          [ true; true ]
          (List.map2
             (fun e prefix ->
               String.starts_with ~prefix (Flow.escalation_to_string e))
             f.Flow.gave_up
             [ "attempt 0: exact greedy pass -> ";
               "attempt 1: exact spread pass -> " ]);
        Alcotest.(check (option string)) (what ^ ": the last rung's reason")
          (Some f.Flow.reason)
          (Option.map (fun e -> e.Flow.e_reason) (List.nth_opt f.Flow.gave_up 1));
        Alcotest.(check int) (what ^ ": work of both rungs") 206 f.Flow.work)
    [ ("retries 0", { exact with FC.retries = 0 }); ("retries 2", exact);
      ("degrade", { exact with FC.degrade = true }) ]

(* The exact backend's effort on the benchmark's exact grid: the five
   kernels on the four configurations, context-aware with [retries = 0].
   Per cell: the verdict, [work] (conflicts over both rungs), the probes
   of the mapping pass (the blocks' [rounds]) and the MD5 of the
   assembled context images, recorded before the decision cursor, the
   per-block solver and the list-free short clauses.  A speed-up of the
   solver or the encoder keeps every row; a change of trajectory or of
   the clause stream moves one. *)
let exact_grid_effort =
  [
    "fir@HOM64 mapped work 305 probes 7 image f28cef4feb5f97b9bb83f83092b88b7e";
    "fir@HOM32 mapped work 305 probes 7 image f28cef4feb5f97b9bb83f83092b88b7e";
    "fir@HET1 mapped work 305 probes 7 image f28cef4feb5f97b9bb83f83092b88b7e";
    "fir@HET2 mapped work 305 probes 7 image f28cef4feb5f97b9bb83f83092b88b7e";
    "convolution@HOM64 mapped work 4 probes 6 image 0cb0d3464c4c09eee06e4e254013292d";
    "convolution@HOM32 mapped work 4 probes 6 image 0cb0d3464c4c09eee06e4e254013292d";
    "convolution@HET1 mapped work 4 probes 6 image 0cb0d3464c4c09eee06e4e254013292d";
    "convolution@HET2 mapped work 4 probes 6 image 0cb0d3464c4c09eee06e4e254013292d";
    "sep_filter@HOM64 mapped work 6 probes 12 image 955f770b37d692a3a190fc33a1062419";
    "sep_filter@HOM32 mapped work 6 probes 12 image 955f770b37d692a3a190fc33a1062419";
    "sep_filter@HET1 mapped work 6 probes 12 image 955f770b37d692a3a190fc33a1062419";
    "sep_filter@HET2 mapped work 19 probes 12 image f74fb104cd19a7d0daffd423323ad89d";
    "fft@HOM64 mapped work 3 probes 18 image 6232008ed70efd62f7bc2fc9ec44defe";
    "fft@HOM32 mapped work 115 probes 16 image cffc6ec2fb064cd9eac113c8690970a4";
    "fft@HET1 mapped work 33 probes 16 image fe8d59ec5c82267e92c503807dee572a";
    "fft@HET2 mapped work 161 probes 15 image 43e09546a265087e7ab04d4f222ee159";
    "dc_filter@HOM64 proved-unsat work 168";
    "dc_filter@HOM32 proved-unsat work 168";
    "dc_filter@HET1 proved-unsat work 168";
    "dc_filter@HET2 proved-unsat work 168";
  ]

let effort_row slug config =
  let fc = { FC.context_aware with FC.backend = FC.Exact; retries = 0 } in
  let cell = Printf.sprintf "%s@%s" slug (Config.to_string config) in
  match Flow.run ~config:fc (Config.cgra config) (K.cdfg (kernel slug)) with
  | Error f ->
    Printf.sprintf "%s %s work %d" cell
      (match f.Flow.verdict with
       | Cgra_core.Search.Proved_unsat -> "proved-unsat"
       | Cgra_core.Search.Budget_spent -> "budget-spent"
       | Cgra_core.Search.Dead_end -> "dead-end"
       | Cgra_core.Search.Expired _ -> "expired")
      f.Flow.work
  | Ok (mapping, stats) ->
    let program = Cgra_asm.Assemble.assemble mapping in
    let image = Buffer.create 4096 in
    Array.iter
      (fun tile ->
        Array.iter
          (fun w -> Buffer.add_string image (Printf.sprintf "%Lx " w))
          (Cgra_asm.Assemble.encode_tile tile);
        Buffer.add_char image '\n')
      program.Cgra_asm.Assemble.tiles;
    Printf.sprintf "%s mapped work %d probes %d image %s" cell stats.Flow.work
      (List.fold_left (fun a bs -> a + bs.Cgra_core.Search.rounds) 0 stats.Flow.search)
      (Digest.to_hex (Digest.string (Buffer.contents image)))

let test_exact_grid_effort () =
  Alcotest.(check (list string)) "verdict, work, probes and image per cell"
    exact_grid_effort
    (List.concat_map
       (fun slug ->
         List.map (effort_row slug)
           [ Config.HOM64; Config.HOM32; Config.HET1; Config.HET2 ])
       [ "fir"; "convolution"; "sep_filter"; "fft"; "dc_filter" ])

(* A kernel that fails the flow's preconditions fails before any rung
   or backend runs: SepFilter's three symbol variables on two RF slots
   give the plain reason, no ladder trace and no work, on the beam (with
   its two retries or escalating), the exact backend and the portfolio. *)
let test_preconditions_checked_once () =
  let cgra = Cgra_arch.Cgra.make ~rf_words:2 ~cm_of_tile:(fun _ -> 64) ()
  and cdfg = K.cdfg (kernel "sep_filter") in
  let aware = FC.context_aware in
  List.iter
    (fun (what, config) ->
      match Flow.run ~config cgra cdfg with
      | Ok _ -> Alcotest.failf "%s: three symbols cannot fit two RF slots" what
      | Error f ->
        Alcotest.(check string) (what ^ ": the plain reason")
          "kernel needs 3 symbol-variable RF slots, tile RF has 2" f.Flow.reason;
        Alcotest.(check int) (what ^ ": no rung") 0 (List.length f.Flow.gave_up);
        Alcotest.(check int) (what ^ ": no work") 0 f.Flow.work)
    [ ("beam", aware); ("exact", { aware with FC.backend = FC.Exact });
      ("portfolio", { aware with FC.backend = FC.Portfolio });
      ("degrade", { aware with FC.degrade = true }) ]

(* A portfolio whose two sides both fail reports both ladders: SepFilter
   on six context words per tile dead-ends on the beam's three rungs
   (the configuration and its two reseeded retries), then on the exact
   backend's greedy and spread passes, and the work counts both sides. *)
let test_failed_portfolio_reports_both_ladders () =
  let cgra = Cgra_arch.Cgra.make ~cm_of_tile:(fun _ -> 6) () in
  let config = { FC.context_aware with FC.backend = FC.Portfolio } in
  match Flow.run ~config cgra (K.cdfg (kernel "sep_filter")) with
  | Ok _ -> Alcotest.fail "SepFilter cannot fit six words per tile"
  | Error f ->
    Alcotest.(check bool) "a dead end" true (f.Flow.verdict = Cgra_core.Search.Dead_end);
    Alcotest.(check int) "work of both sides" 50_188 f.Flow.work;
    Alcotest.(check (list (pair string int))) "the beam's rungs, then the exact side's"
      [ ("beam", 0); ("beam", 1); ("beam", 2); ("exact", 0); ("exact", 1) ]
      (List.map
         (fun (e : Flow.escalation) ->
           ( (match e.Flow.e_config.FC.backend with
              | FC.Beam -> "beam"
              | FC.Exact -> "exact"
              | FC.Portfolio -> "portfolio"),
             e.Flow.e_attempt ))
         f.Flow.gave_up)

(* The optimality report's two sides map the same lowering: under
   [opt = Optimized] the FFT@HOM64 row's beam columns are the optimized
   harness cell, and its exact columns are the exact backend run on the
   optimized kernel under the report's own exact configuration. *)
let test_optimality_report_opt () =
  let module T = Cgra_util.Text_table in
  let module E = Cgra_power.Energy in
  let module Toolchain = Cgra_exp.Toolchain in
  let module Figures = Cgra_exp.Figures in
  let opt = Toolchain.Optimized in
  let k = kernel "fft" and config = Config.HOM64 in
  let report =
    Figures.optimality_report { Figures.default with opt; quick = true }
  in
  let columns words cycles (energy : E.breakdown) =
    [ string_of_int words; string_of_int cycles;
      T.float_cell (E.to_uj energy.E.total_pj) ]
  in
  let words_of mapping =
    Array.fold_left (fun a u -> a + M.usage_total u) 0 (M.tile_usage mapping)
  in
  let beam =
    match R.run_of ~opt k config FC.Full with
    | Ok (m, x) ->
      columns (words_of m.Toolchain.mapping)
        x.Toolchain.sim.Cgra_sim.Simulator.cycles x.Toolchain.energy
    | Error f -> Alcotest.failf "beam FFT@HOM64: %s" f.Flow.reason
  in
  let exact =
    let fc =
      { (R.cell_flow_config ~opt "fft" config FC.Full) with FC.backend = FC.Exact }
    in
    match Toolchain.run_kernel ~opt ~config:fc (Config.cgra config) k with
    | Ok (m, x) ->
      columns (words_of m.Toolchain.mapping)
        x.Toolchain.sim.Cgra_sim.Simulator.cycles x.Toolchain.energy
    | Error e ->
      Alcotest.failf "exact FFT@HOM64: %s" (Toolchain.error_to_string e)
  in
  let row =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | "FFT" :: "HOM64" :: cells -> Some cells
        | _ -> None)
      (String.split_on_char '\n' report)
  in
  Alcotest.(check (option (list string)))
    "FFT@HOM64 row: optimized beam cell, then optimized exact run"
    (Some (beam @ exact)) row

let suite =
  [
    ( "sat.solver",
      [
        Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
        Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
        Alcotest.test_case "no clauses" `Quick test_no_clauses_sat;
        Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
        Alcotest.test_case "odd-cycle colouring" `Quick test_colouring;
        Alcotest.test_case "at_most_k" `Quick test_at_most_k;
        Alcotest.test_case "budget -> Unknown" `Quick test_budget_unknown;
        Alcotest.test_case "deterministic model" `Quick test_model_deterministic;
        Alcotest.test_case "cancel then resume" `Quick test_cancel_then_resume;
        QCheck_alcotest.to_alcotest prop_deadline_observer;
        QCheck_alcotest.to_alcotest prop_cancel_reusable;
        Alcotest.test_case "closed after solve" `Quick test_closed_after_solve;
        Alcotest.test_case "add_clause contract" `Quick test_add_clause_contract;
        QCheck_alcotest.to_alcotest prop_reference_cnf;
        QCheck_alcotest.to_alcotest prop_reference_3cnf;
        QCheck_alcotest.to_alcotest prop_reference_at_most_k;
        QCheck_alcotest.to_alcotest prop_reset_follows_reference;
        Alcotest.test_case "reference: long clauses" `Quick
          test_reference_long_clauses;
        Alcotest.test_case "reference: pigeonhole" `Quick
          test_reference_pigeonhole;
        Alcotest.test_case "reference: learnt-clause deletion" `Quick
          test_reference_reduce_db;
        Alcotest.test_case "reference: zeroed activities" `Quick
          test_reference_zeroed;
      ] );
    ( "sat.exact",
      [
        Alcotest.test_case "exact mappings validate + golden" `Slow
          test_exact_equivalence;
        Alcotest.test_case "portfolio never worse than beam" `Slow
          test_portfolio_never_worse;
        Alcotest.test_case "portfolio byte-identical across races" `Slow
          test_portfolio_races_identical;
        Alcotest.test_case "unfired deadline is bytes-neutral" `Slow
          test_deadline_unfired_identical;
        Alcotest.test_case "fired deadline is a typed failure" `Quick
          test_deadline_fired_typed;
        Alcotest.test_case "failures carry typed verdicts" `Quick
          test_typed_verdicts;
        Alcotest.test_case "a proof ends the exact ladder" `Quick
          test_exact_proof_ends_ladder;
        Alcotest.test_case "spread pass maps after a greedy dead end" `Quick
          test_exact_spread_pass;
        Alcotest.test_case "failed exact map spends every rung" `Quick
          test_exact_ladder_work;
        Alcotest.test_case "flow preconditions are checked once" `Quick
          test_preconditions_checked_once;
        Alcotest.test_case "a failed portfolio reports both ladders" `Quick
          test_failed_portfolio_reports_both_ladders;
        Alcotest.test_case "exact effort on the benchmark grid" `Quick
          test_exact_grid_effort;
        Alcotest.test_case "optimality report maps one lowering" `Slow
          test_optimality_report_opt;
      ] );
  ]
