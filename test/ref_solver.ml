(* Frozen reference copy of the CDCL solver as it stood before the clause
   arena: [test_sat.ml] checks that [Cgra_sat.Solver] follows it step for
   step (verdict, model, conflict and clause counts).  Test-only; do not
   edit. *)

(* A compact CDCL SAT solver: two-watched-literal propagation, 1UIP
   learning, Luby restarts, VSIDS with deterministic (lowest-index)
   tie-breaking and phase saving.  No wall clock, no [Random]: the
   search trace is a pure function of the clause set, which is what
   lets the exact backend promise byte-identical artifacts.

   Internal literal encoding: variable [v >= 1] becomes [2*v] for the
   positive literal and [2*v + 1] for the negation, so negation is
   [lxor 1] and the variable is [lsr 1]. *)

type outcome = Sat | Unsat | Unknown

type t = {
  mutable nvars : int;
  (* Clause store: [clauses.(i)] is an array of internal literals.
     Learned clauses share the same store. *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  (* [watches.(l)] lists clause indices in which internal literal [l]
     is one of the two watched literals (positions 0 and 1). *)
  mutable watches : int array array;
  mutable watch_n : int array;
  (* Per-variable state, indexed 1..nvars. *)
  mutable values : int array; (* 0 unassigned / 1 true / -1 false *)
  mutable levels : int array;
  mutable reasons : int array; (* clause index or -1 *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable seen : bool array;
  (* Binary max-heap of unassigned candidate variables. *)
  mutable heap : int array;
  mutable heap_n : int;
  mutable heap_pos : int array; (* -1 when not in heap *)
  (* Assignment trail (internal literals) and decision-level marks. *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable trail_lim : int array;
  mutable lim_n : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;
  mutable units : int array; (* external-facing unit queue, internal lits *)
  mutable units_n : int;
  mutable learnt_mark : bool array; (* per clause index *)
  mutable n_learnt : int;
  mutable max_learnt : float;
  mutable conflicts : int;
  mutable model : bool array;
  mutable has_model : bool;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 256 [||];
    n_clauses = 0;
    watches = Array.make 64 [||];
    watch_n = Array.make 64 0;
    values = Array.make 32 0;
    levels = Array.make 32 0;
    reasons = Array.make 32 (-1);
    activity = Array.make 32 0.0;
    polarity = Array.make 32 false;
    seen = Array.make 32 false;
    heap = Array.make 32 0;
    heap_n = 0;
    heap_pos = Array.make 32 (-1);
    trail = Array.make 32 0;
    trail_n = 0;
    trail_lim = Array.make 32 0;
    lim_n = 0;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    units = Array.make 16 0;
    units_n = 0;
    learnt_mark = Array.make 256 false;
    n_learnt = 0;
    max_learnt = 0.0;
    conflicts = 0;
    model = [||];
    has_model = false;
  }

let nvars s = s.nvars
let stats_conflicts s = s.conflicts
let stats_clauses s = s.n_clauses

(* -- growable storage ---------------------------------------------- *)

let grow a n fill =
  if n < Array.length a then a
  else begin
    let a' = Array.make (max (n + 1) (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let grow_int = grow
let grow_float = grow
let grow_bool = grow
let grow_arr a n = grow a n [||]

let new_var s =
  let v = s.nvars + 1 in
  s.nvars <- v;
  s.values <- grow_int s.values v 0;
  s.levels <- grow_int s.levels v 0;
  s.reasons <- grow_int s.reasons v (-1);
  s.activity <- grow_float s.activity v 0.0;
  s.polarity <- grow_bool s.polarity v false;
  s.seen <- grow_bool s.seen v false;
  s.heap_pos <- grow_int s.heap_pos v (-1);
  s.trail <- grow_int s.trail v 0;
  s.trail_lim <- grow_int s.trail_lim v 0;
  let lit_hi = 2 * v + 1 in
  s.watches <- grow_arr s.watches lit_hi;
  s.watch_n <- grow_int s.watch_n lit_hi 0;
  v

(* -- heap (max by activity, ties to the lowest index) -------------- *)

let heap_lt s v w =
  s.activity.(v) > s.activity.(w)
  || (s.activity.(v) = s.activity.(w) && v < w)

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(p) then begin
      let tmp = s.heap.(i) in
      s.heap.(i) <- s.heap.(p);
      s.heap.(p) <- tmp;
      s.heap_pos.(s.heap.(i)) <- i;
      s.heap_pos.(s.heap.(p)) <- p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_n && heap_lt s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_n && heap_lt s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let tmp = s.heap.(i) in
    s.heap.(i) <- s.heap.(!best);
    s.heap.(!best) <- tmp;
    s.heap_pos.(s.heap.(i)) <- i;
    s.heap_pos.(s.heap.(!best)) <- !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap <- grow_int s.heap s.heap_n 0;
    s.heap.(s.heap_n) <- v;
    s.heap_pos.(v) <- s.heap_n;
    s.heap_n <- s.heap_n + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_n <- s.heap_n - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_n > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_n);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

(* -- activities ---------------------------------------------------- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let var_decay s = s.var_inc <- s.var_inc *. (1.0 /. 0.95)

(* -- assignment ---------------------------------------------------- *)

let lit_value s l =
  let v = s.values.(l lsr 1) in
  if v = 0 then 0 else if l land 1 = 0 then v else -v

let decision_level s = s.lim_n

let enqueue s l reason =
  let v = l lsr 1 in
  s.values.(v) <- (if l land 1 = 0 then 1 else -1);
  s.levels.(v) <- decision_level s;
  s.reasons.(v) <- reason;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

let backtrack s level =
  if decision_level s > level then begin
    while s.trail_n > s.trail_lim.(level) do
      s.trail_n <- s.trail_n - 1;
      let l = s.trail.(s.trail_n) in
      let v = l lsr 1 in
      s.polarity.(v) <- s.values.(v) = 1;
      s.values.(v) <- 0;
      s.reasons.(v) <- -1;
      heap_insert s v
    done;
    s.qhead <- s.trail_n;
    s.lim_n <- level
  end

(* -- clauses and watches ------------------------------------------- *)

let watch_add s l ci =
  let n = s.watch_n.(l) in
  let a = s.watches.(l) in
  let a =
    if n < Array.length a then a
    else begin
      let a' = Array.make (max 4 (2 * Array.length a)) 0 in
      Array.blit a 0 a' 0 n;
      s.watches.(l) <- a';
      a'
    end
  in
  a.(n) <- ci;
  s.watch_n.(l) <- n + 1

let attach s lits =
  let ci = s.n_clauses in
  s.clauses <- grow_arr s.clauses ci;
  s.learnt_mark <- grow_bool s.learnt_mark ci false;
  s.clauses.(ci) <- lits;
  s.n_clauses <- ci + 1;
  watch_add s lits.(0) ci;
  watch_add s lits.(1) ci;
  ci

let add_clause s ext =
  if s.ok then begin
    let ints =
      List.map
        (fun l ->
          if l = 0 || abs l > s.nvars then
            invalid_arg "Solver.add_clause: literal out of range";
          if l > 0 then 2 * l else (2 * -l) + 1)
        ext
    in
    let sorted = List.sort_uniq compare ints in
    (* Adjacent [2v; 2v+1] after sorting means the clause is a
       tautology and can be dropped. *)
    let rec tauto = function
      | a :: (b :: _ as rest) -> (a lxor 1 = b && a lsr 1 = b lsr 1) || tauto rest
      | _ -> false
    in
    if not (tauto sorted) then
      match sorted with
      | [] -> s.ok <- false
      | [ l ] ->
          s.units <- grow_int s.units s.units_n 0;
          s.units.(s.units_n) <- l;
          s.units_n <- s.units_n + 1
      | _ -> ignore (attach s (Array.of_list sorted))
  end

(* -- propagation --------------------------------------------------- *)

(* Returns the index of a conflicting clause, or -1. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* p just became true: clauses watching [not p] need a look. *)
    let fl = p lxor 1 in
    let ws = s.watches.(fl) in
    let n = s.watch_n.(fl) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let ci = ws.(!i) in
      incr i;
      let lits = s.clauses.(ci) in
      if Array.length lits = 0 then () (* deleted: drop from this list *)
      else begin
      if lits.(0) = fl then begin
        lits.(0) <- lits.(1);
        lits.(1) <- fl
      end;
      if lit_value s lits.(0) = 1 then begin
        (* Satisfied by the other watch: keep watching. *)
        ws.(!j) <- ci;
        incr j
      end
      else begin
        (* Look for a replacement watch. *)
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && lit_value s lits.(!k) = -1 do incr k done;
        if !k < len then begin
          lits.(1) <- lits.(!k);
          lits.(!k) <- fl;
          watch_add s lits.(1) ci
        end
        else begin
          (* Unit or conflict: the clause stays watched here. *)
          ws.(!j) <- ci;
          incr j;
          if lit_value s lits.(0) = -1 then begin
            (* Conflict: keep the remaining watchers, stop. *)
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr j;
              incr i
            done;
            confl := ci
          end
          else enqueue s lits.(0) ci
        end
      end
      end
    done;
    s.watch_n.(fl) <- !j
  done;
  !confl

(* -- conflict analysis (first UIP) --------------------------------- *)

let analyze s confl learnt =
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let trail_idx = ref (s.trail_n - 1) in
  let bt_level = ref 0 in
  let learnt_n = ref 1 in
  (* learnt.(0) is reserved for the asserting literal *)
  let continue_ = ref true in
  while !continue_ do
    let lits = s.clauses.(!confl) in
    let start = if !p < 0 then 0 else 1 in
    for idx = start to Array.length lits - 1 do
      let q = lits.(idx) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.levels.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.levels.(v) >= decision_level s then incr counter
        else begin
          learnt.(!learnt_n) <- q;
          incr learnt_n;
          if s.levels.(v) > !bt_level then bt_level := s.levels.(v)
        end
      end
    done;
    (* Walk back to the most recent literal contributing to the
       conflict at the current level. *)
    while not s.seen.(s.trail.(!trail_idx) lsr 1) do decr trail_idx done;
    p := s.trail.(!trail_idx);
    decr trail_idx;
    s.seen.(!p lsr 1) <- false;
    decr counter;
    if !counter = 0 then continue_ := false
    else confl := s.reasons.(!p lsr 1)
  done;
  learnt.(0) <- !p lxor 1;
  for idx = 1 to !learnt_n - 1 do
    s.seen.(learnt.(idx) lsr 1) <- false
  done;
  (!learnt_n, !bt_level)

let record_learnt s learnt learnt_n bt_level =
  backtrack s bt_level;
  if learnt_n = 1 then enqueue s learnt.(0) (-1)
  else begin
    let lits = Array.sub learnt 0 learnt_n in
    (* Watch the asserting literal and a literal from the backtrack
       level, so the watch invariant holds after the jump. *)
    let best = ref 1 in
    for idx = 2 to learnt_n - 1 do
      if s.levels.(lits.(idx) lsr 1) > s.levels.(lits.(!best) lsr 1) then
        best := idx
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let ci = attach s lits in
    s.learnt_mark.(ci) <- true;
    s.n_learnt <- s.n_learnt + 1;
    enqueue s lits.(0) ci
  end

(* -- learned-clause deletion --------------------------------------- *)

(* Called at decision level 0.  Deletes the longer (then newer) half of
   the non-locked learnt clauses by emptying their literal arrays;
   propagation lazily drops empty clauses from the watch lists.  The
   ranking is a pure function of clause lengths and indices, so the
   reduced database — like everything else here — is deterministic. *)
let reduce_db s =
  let cands = ref [] in
  for ci = s.n_clauses - 1 downto 0 do
    if s.learnt_mark.(ci) then begin
      let lits = s.clauses.(ci) in
      if Array.length lits > 3 then begin
        let locked =
          lit_value s lits.(0) = 1 && s.reasons.(lits.(0) lsr 1) = ci
        in
        if not locked then cands := ci :: !cands
      end
    end
  done;
  let arr = Array.of_list !cands in
  Array.sort
    (fun a b ->
      let la = Array.length s.clauses.(a)
      and lb = Array.length s.clauses.(b) in
      if la <> lb then compare lb la else compare b a)
    arr;
  for k = 0 to (Array.length arr / 2) - 1 do
    let ci = arr.(k) in
    s.clauses.(ci) <- [||];
    s.learnt_mark.(ci) <- false;
    s.n_learnt <- s.n_learnt - 1
  done

(* -- restarts ------------------------------------------------------ *)

let luby i =
  let rec go i =
    let k = ref 1 in
    while (1 lsl !k) - 1 < i do incr k done;
    if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
    else go (i - (1 lsl (!k - 1)) + 1)
  in
  go i

(* -- main search --------------------------------------------------- *)

let save_model s =
  let m = Array.make (s.nvars + 1) false in
  for v = 1 to s.nvars do
    m.(v) <- s.values.(v) = 1
  done;
  s.model <- m;
  s.has_model <- true

let solve ?(conflict_budget = max_int) ?(deadline = Cgra_util.Deadline.never) s
    =
  if not s.ok then Unsat
  else begin
    s.has_model <- false;
    for v = 1 to s.nvars do
      if s.values.(v) = 0 then heap_insert s v
    done;
    (* Top-level units first. *)
    let contradiction = ref false in
    for i = 0 to s.units_n - 1 do
      let l = s.units.(i) in
      match lit_value s l with
      | 1 -> ()
      | -1 -> contradiction := true
      | _ -> enqueue s l (-1)
    done;
    if !contradiction then begin
      s.ok <- false;
      Unsat
    end
    else if propagate s >= 0 then begin
      s.ok <- false;
      Unsat
    end
    else begin
      let learnt = Array.make (s.nvars + 1) 0 in
      let result = ref None in
      let restart = ref 1 in
      let spent = ref 0 in
      s.max_learnt <- max 20_000.0 (float_of_int s.n_clauses /. 3.0);
      while !result = None do
        (* Restart boundary: decision level 0, safe to shrink the
           learnt-clause database — and to give up cooperatively. *)
        if Cgra_util.Deadline.expired deadline then result := Some Unknown
        else if float_of_int s.n_learnt > s.max_learnt then begin
          reduce_db s;
          s.max_learnt <- s.max_learnt *. 1.1
        end;
        let limit = 64 * luby !restart in
        incr restart;
        let local = ref 0 in
        let continue_ = ref true in
        while !continue_ && !result = None do
          let confl = propagate s in
          if confl >= 0 then begin
            s.conflicts <- s.conflicts + 1;
            incr spent;
            incr local;
            if decision_level s = 0 then begin
              s.ok <- false;
              result := Some Unsat
            end
            else begin
              let learnt_n, bt_level = analyze s confl learnt in
              record_learnt s learnt learnt_n bt_level;
              var_decay s;
              if
                !spent >= conflict_budget
                || (!spent land 255 = 0 && Cgra_util.Deadline.expired deadline)
              then begin
                backtrack s 0;
                result := Some Unknown
              end
              else if !local >= limit then begin
                backtrack s 0;
                continue_ := false
              end
            end
          end
          else begin
            (* Decide. *)
            let v = ref 0 in
            while !v = 0 && s.heap_n > 0 do
              let w = heap_pop s in
              if s.values.(w) = 0 then v := w
            done;
            if !v = 0 then begin
              save_model s;
              result := Some Sat
            end
            else begin
              s.trail_lim.(s.lim_n) <- s.trail_n;
              s.lim_n <- s.lim_n + 1;
              let l = if s.polarity.(!v) then 2 * !v else (2 * !v) + 1 in
              enqueue s l (-1)
            end
          end
        done
      done;
      match !result with Some r -> r | None -> assert false
    end
  end

let value s v =
  if not s.has_model then invalid_arg "Solver.value: no model"
  else if v < 1 || v > s.nvars then invalid_arg "Solver.value: bad variable"
  else s.model.(v)
