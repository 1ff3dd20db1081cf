(* A compact CDCL SAT solver: two-watched-literal propagation, 1UIP
   learning, Luby restarts, VSIDS with deterministic (lowest-index)
   tie-breaking and phase saving.  No wall clock, no [Random]: the
   search trace is a pure function of the clause set, which is what
   lets the exact backend promise byte-identical artifacts.

   Internal literal encoding: variable [v >= 1] becomes [2*v] for the
   positive literal and [2*v + 1] for the negation, so negation is
   [lxor 1] and the variable is [lsr 1].

   Storage is built for a run of instances on one solver, each encoded
   once, then solved; [reset] forgets an instance and keeps every array
   for the next.  Every clause of two or more literals lives in one
   flat arena of ints: a header word ([length lsl 2], plus the learnt
   and deleted bits), then the literals.  A clause reference is the
   offset of its header, so clauses, watch lists and reasons hold plain
   ints.  The watch lists share one flat array too, a segment per
   literal.  [add_clause] (and [add_clause2]/[add_clause3], which build
   no list) writes a clause straight to the arena tail and normalises it
   there (sorted ascending, duplicates removed, tautologies dropped);
   [new_var] only counts.  The first [solve] clears every per-variable
   array over the prefix the instance uses (growing it only past the
   largest instance so far) and builds the watch lists from the arena
   in clause order, exactly as attaching each clause on arrival would
   have.  From then on the clause set is closed until [reset]:
   [new_var] and [add_clause] raise, since [solve] keeps a [Sat] trail
   and could not honour a clause that arrives after it.

   Decisions take the unassigned variable of highest activity, the
   lowest index among equals.  A short solve bumps few variables, so
   the heap holds only those with nonzero activity, and a cursor walks
   the zero-activity ones in index order: any heap variable outranks
   any cursor variable, and among zero activities the lowest index
   wins.  A bump only raises an activity and sifts its variable up, so
   the heap stays in that order.  A rescale multiplies every activity
   by 1e-100, which can make two equal and, from the fourth rescale on,
   zero some, so it rebuilds the heap over the variables still above
   zero and hands the zeroed ones back to the cursor. *)

type outcome = Sat | Unsat | Unknown

let learnt_bit = 1
let deleted_bit = 2

type t = {
  mutable nvars : int;
  mutable started : bool; (* [solve] has run: no more variables or clauses *)
  mutable ok : bool;
  (* Clause arena: [arena.(cr)] is the header of the clause at [cr], its
     literals follow.  Learnt clauses are appended after the problem
     clauses. *)
  mutable arena : int array;
  mutable arena_n : int;
  mutable n_clauses : int;
  mutable units : int array; (* problem unit clauses, internal lits *)
  mutable units_n : int;
  (* Everything below is sized by the first [solve] of an instance. *)
  (* The clause references in which internal literal [l] is one of the
     two watched literals (positions 0 and 1) are
     [wl.(w_start.(l)) .. wl.(w_start.(l) + watch_n.(l) - 1)], in a
     segment of [w_cap.(l)] words; [wl] is free from [w_top] on. *)
  mutable wl : int array;
  mutable w_top : int;
  mutable w_start : int array;
  mutable w_cap : int array;
  mutable watch_n : int array;
  (* Per-variable state, indexed 1..nvars. *)
  mutable values : int array; (* 0 unassigned / 1 true / -1 false *)
  mutable levels : int array;
  mutable reasons : int array; (* clause reference or -1 *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable seen : bool array;
  (* Binary max-heap of the decision candidates with nonzero activity. *)
  mutable heap : int array;
  mutable heap_n : int;
  mutable heap_pos : int array; (* -1 when not in heap *)
  (* No unassigned zero-activity variable lies below it. *)
  mutable cursor : int;
  (* Assignment trail (internal literals) and decision-level marks. *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable trail_lim : int array;
  mutable lim_n : int;
  mutable qhead : int;
  mutable learnt : int array; (* conflict-analysis buffer *)
  mutable var_inc : float;
  mutable n_learnt : int;
  mutable max_learnt : float;
  mutable conflicts : int;
  mutable has_model : bool; (* [values] holds the model of the last Sat *)
}

let create () =
  {
    nvars = 0;
    started = false;
    ok = true;
    arena = Array.make 1024 0;
    arena_n = 0;
    n_clauses = 0;
    units = Array.make 16 0;
    units_n = 0;
    wl = [||];
    w_top = 0;
    w_start = [||];
    w_cap = [||];
    watch_n = [||];
    values = [||];
    levels = [||];
    reasons = [||];
    activity = [||];
    polarity = [||];
    seen = [||];
    heap = [||];
    heap_n = 0;
    heap_pos = [||];
    cursor = 1;
    trail = [||];
    trail_n = 0;
    trail_lim = [||];
    lim_n = 0;
    qhead = 0;
    learnt = [||];
    var_inc = 1.0;
    n_learnt = 0;
    max_learnt = 0.0;
    conflicts = 0;
    has_model = false;
  }

let reset s =
  s.nvars <- 0;
  s.started <- false;
  s.ok <- true;
  s.arena_n <- 0;
  s.n_clauses <- 0;
  s.units_n <- 0;
  s.conflicts <- 0;
  s.has_model <- false

let nvars s = s.nvars
let stats_conflicts s = s.conflicts
let stats_clauses s = s.n_clauses

let closed fn =
  invalid_arg ("Solver." ^ fn ^ ": the clause set is closed once solve has run")

let new_var s =
  if s.started then closed "new_var";
  s.nvars <- s.nvars + 1;
  s.nvars

(* -- arena ----------------------------------------------------------- *)

(* Room for [n] more words at the arena tail.  The whole old arena is
   copied: [add_clause] writes past [arena_n] before committing. *)
let reserve s n =
  let need = s.arena_n + n in
  let len = Array.length s.arena in
  if need > len then begin
    let a = Array.make (max need (2 * len)) 0 in
    Array.blit s.arena 0 a 0 len;
    s.arena <- a
  end

let clause_len a cr = a.(cr) lsr 2

(* In-place ascending sort of [a.(lo) .. a.(hi - 1)]: insertion sort
   for the short clauses that dominate, heapsort beyond. *)
let sort_range (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let n = hi - lo in
    let rec sift i n =
      let l = (2 * i) + 1 in
      if l < n then begin
        let c = if l + 1 < n && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
        if a.(lo + c) > a.(lo + i) then begin
          let tmp = a.(lo + c) in
          a.(lo + c) <- a.(lo + i);
          a.(lo + i) <- tmp;
          sift c n
        end
      end
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for e = n - 1 downto 1 do
      let tmp = a.(lo) in
      a.(lo) <- a.(lo + e);
      a.(lo + e) <- tmp;
      sift 0 e
    done
  end

let internal_lit nvars l =
  if l = 0 || abs l > nvars then
    invalid_arg "Solver.add_clause: literal out of range";
  if l > 0 then 2 * l else (2 * -l) + 1

(* Writes the literals of [ext] from [base + k] on; returns the count.
   Nothing is committed until [arena_n] moves, so a raise part-way
   leaves the solver untouched. *)
let rec push_lits s base k = function
  | [] -> k
  | l :: rest ->
    let il = internal_lit s.nvars l in
    reserve s (k + 2);
    s.arena.(base + k) <- il;
    push_lits s base (k + 1) rest

(* The one normalisation every clause goes through: the [n] internal
   literals written from [base] on (the header slot is [base - 1]) are
   sorted and de-duplicated in place; a tautology is dropped, the empty
   clause makes the instance unsatisfiable, a unit joins [units], and
   anything longer is committed to the arena. *)
let commit s base n =
  let a = s.arena in
  sort_range a base (base + n);
  (* Drop duplicates in place; a sorted clause holding [2v] and
     [2v + 1] has them adjacent and is a tautology. *)
  let m = ref 0 and tauto = ref false in
  for k = 0 to n - 1 do
    let l = a.(base + k) in
    if !m = 0 || a.(base + !m - 1) <> l then begin
      if !m > 0 && a.(base + !m - 1) = l lxor 1 then tauto := true;
      a.(base + !m) <- l;
      incr m
    end
  done;
  if not !tauto then
    match !m with
    | 0 -> s.ok <- false
    | 1 ->
      if s.units_n = Array.length s.units then begin
        let u = Array.make (2 * s.units_n) 0 in
        Array.blit s.units 0 u 0 s.units_n;
        s.units <- u
      end;
      s.units.(s.units_n) <- a.(base);
      s.units_n <- s.units_n + 1
    | m ->
      a.(base - 1) <- m lsl 2;
      s.arena_n <- base + m;
      s.n_clauses <- s.n_clauses + 1

let add_clause s ext =
  if s.started then closed "add_clause";
  if not s.ok then List.iter (fun l -> ignore (internal_lit s.nvars l)) ext
  else begin
    (* The header slot is [arena_n]; the literals follow it. *)
    let base = s.arena_n + 1 in
    commit s base (push_lits s base 0 ext)
  end

let add_clause2 s x y =
  if s.started then closed "add_clause2";
  let x = internal_lit s.nvars x in
  let y = internal_lit s.nvars y in
  if s.ok then begin
    reserve s 3;
    let base = s.arena_n + 1 in
    s.arena.(base) <- x;
    s.arena.(base + 1) <- y;
    commit s base 2
  end

let add_clause3 s x y z =
  if s.started then closed "add_clause3";
  let x = internal_lit s.nvars x in
  let y = internal_lit s.nvars y in
  let z = internal_lit s.nvars z in
  if s.ok then begin
    reserve s 4;
    let base = s.arena_n + 1 in
    s.arena.(base) <- x;
    s.arena.(base + 1) <- y;
    s.arena.(base + 2) <- z;
    commit s base 3
  end

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

(* Scales every activity by 1e-100.  Rounding can tie activities the
   heap holds apart and zero some, so the heap is rebuilt over the
   unassigned variables still above 0.0; the zeroed ones are the
   cursor's again, from index 1. *)
let rescale s =
  let n = ref 0 in
  for v = 1 to s.nvars do
    s.activity.(v) <- s.activity.(v) *. 1e-100;
    s.heap_pos.(v) <- -1;
    if s.values.(v) = 0 && s.activity.(v) > 0.0 then begin
      s.heap.(!n) <- v;
      s.heap_pos.(v) <- !n;
      incr n
    end
  done;
  s.heap_n <- !n;
  for i = (!n / 2) - 1 downto 0 do
    heap_down s i
  done;
  s.var_inc <- s.var_inc *. 1e-100;
  s.cursor <- 1

(* Only assigned variables are bumped (conflict analysis reads the
   trail), so a bump never owes the cursor's variables a heap slot:
   [backtrack] gives one to a bumped variable when it unassigns it. *)
let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale s;
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
      if s.activity.(v) > 0.0 then heap_insert s v
      else if v < s.cursor then s.cursor <- v
    done;
    s.qhead <- s.trail_n;
    s.lim_n <- level
  end

(* The next decision variable, or 0 when every variable is assigned.
   The heap holds every unassigned variable with nonzero activity, and
   assigned ones drop off its top as [pick] meets them. *)
let pick s =
  while s.heap_n > 0 && s.values.(s.heap.(0)) <> 0 do
    ignore (heap_pop s)
  done;
  if s.heap_n > 0 then heap_pop s
  else begin
    let c = ref s.cursor in
    while !c <= s.nvars && (s.values.(!c) <> 0 || s.activity.(!c) > 0.0) do
      incr c
    done;
    s.cursor <- !c;
    if !c <= s.nvars then !c else 0
  end

(* -- watches ------------------------------------------------------- *)

(* Room for a segment of [need] words at [w_top]: every literal's
   segment is copied, in literal order and at its capacity, into an
   array twice the size they and [need] take.  This moves every
   segment, so a caller holding a segment's start reads it again. *)
let grow_watches s need =
  let n_lits = (2 * s.nvars) + 2 in
  let live = ref need in
  for l = 0 to n_lits - 1 do
    live := !live + s.w_cap.(l)
  done;
  let wl = Array.make (2 * !live) 0 in
  let top = ref 0 in
  for l = 0 to n_lits - 1 do
    Array.blit s.wl s.w_start.(l) wl !top s.watch_n.(l);
    s.w_start.(l) <- !top;
    top := !top + s.w_cap.(l)
  done;
  s.wl <- wl;
  s.w_top <- !top

(* A full segment moves to [w_top] at twice its capacity (at least 4),
   its entries in order. *)
let watch_add s l cr =
  let n = s.watch_n.(l) in
  if n = s.w_cap.(l) then begin
    let cap = max 4 (2 * n) in
    if s.w_top + cap > Array.length s.wl then grow_watches s cap;
    Array.blit s.wl s.w_start.(l) s.wl s.w_top n;
    s.w_start.(l) <- s.w_top;
    s.w_cap.(l) <- cap;
    s.w_top <- s.w_top + cap
  end;
  s.wl.(s.w_start.(l) + n) <- cr;
  s.watch_n.(l) <- n + 1

(* One-time set-up of an instance, whose clauses so far are its problem
   clauses: per-variable arrays cleared over the prefix the instance
   uses (allocated at its size only when the storage is smaller), every
   problem clause watched on its literals 0 and 1 in arena order, each
   literal's segment exactly the size its problem clauses need, and the
   counters of a new solver. *)
let setup s =
  let problem_end = s.arena_n in
  let n = s.nvars in
  if Array.length s.values < n + 1 then begin
    s.values <- Array.make (n + 1) 0;
    s.levels <- Array.make (n + 1) 0;
    s.reasons <- Array.make (n + 1) (-1);
    s.activity <- Array.make (n + 1) 0.0;
    s.polarity <- Array.make (n + 1) false;
    s.seen <- Array.make (n + 1) false;
    s.heap <- Array.make (n + 1) 0;
    s.heap_pos <- Array.make (n + 1) (-1);
    s.trail <- Array.make (n + 1) 0;
    s.trail_lim <- Array.make (n + 1) 0;
    s.learnt <- Array.make (n + 1) 0
  end
  else begin
    Array.fill s.values 0 (n + 1) 0;
    Array.fill s.levels 0 (n + 1) 0;
    Array.fill s.reasons 0 (n + 1) (-1);
    Array.fill s.activity 0 (n + 1) 0.0;
    Array.fill s.polarity 0 (n + 1) false;
    Array.fill s.seen 0 (n + 1) false;
    Array.fill s.heap_pos 0 (n + 1) (-1)
  end;
  let n_lits = (2 * n) + 2 in
  if Array.length s.watch_n < n_lits then begin
    s.w_start <- Array.make n_lits 0;
    s.w_cap <- Array.make n_lits 0;
    s.watch_n <- Array.make n_lits 0
  end
  else Array.fill s.watch_n 0 n_lits 0;
  let a = s.arena and count = s.watch_n in
  let cr = ref 0 in
  while !cr < problem_end do
    count.(a.(!cr + 1)) <- count.(a.(!cr + 1)) + 1;
    count.(a.(!cr + 2)) <- count.(a.(!cr + 2)) + 1;
    cr := !cr + 1 + clause_len a !cr
  done;
  let top = ref 0 in
  for l = 0 to n_lits - 1 do
    s.w_start.(l) <- !top;
    s.w_cap.(l) <- count.(l);
    top := !top + count.(l);
    count.(l) <- 0
  done;
  if Array.length s.wl < !top then s.wl <- Array.make !top 0;
  s.w_top <- !top;
  cr := 0;
  while !cr < problem_end do
    watch_add s a.(!cr + 1) !cr;
    watch_add s a.(!cr + 2) !cr;
    cr := !cr + 1 + clause_len a !cr
  done;
  s.heap_n <- 0;
  s.cursor <- 1;
  s.trail_n <- 0;
  s.lim_n <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.n_learnt <- 0;
  s.max_learnt <- 0.0;
  s.conflicts <- 0;
  s.has_model <- false

(* -- propagation --------------------------------------------------- *)

(* Returns the reference of a conflicting clause, or -1. *)
let propagate s =
  let a = s.arena in
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* p just became true: clauses watching [not p] need a look. *)
    let fl = p lxor 1 in
    let ws = ref s.wl and base = ref s.w_start.(fl) in
    let n = s.watch_n.(fl) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = !ws.(!base + !i) in
      incr i;
      let h = a.(cr) in
      if h land deleted_bit <> 0 then () (* deleted: drop from this list *)
      else begin
        let w0 = cr + 1 and w1 = cr + 2 in
        if a.(w0) = fl then begin
          a.(w0) <- a.(w1);
          a.(w1) <- fl
        end;
        if lit_value s a.(w0) = 1 then begin
          (* Satisfied by the other watch: keep watching. *)
          !ws.(!base + !j) <- cr;
          incr j
        end
        else begin
          (* Look for a replacement watch. *)
          let stop = w0 + (h lsr 2) in
          let k = ref (w1 + 1) in
          while !k < stop && lit_value s a.(!k) = -1 do incr k done;
          if !k < stop then begin
            a.(w1) <- a.(!k);
            a.(!k) <- fl;
            (* The new watch is never [fl], but adding it may move
               every segment ([watch_n.(fl)] still counts this one's
               unread entries). *)
            watch_add s a.(w1) cr;
            ws := s.wl;
            base := s.w_start.(fl)
          end
          else begin
            (* Unit or conflict: the clause stays watched here. *)
            !ws.(!base + !j) <- cr;
            incr j;
            if lit_value s a.(w0) = -1 then begin
              (* Conflict: keep the remaining watchers, stop. *)
              while !i < n do
                !ws.(!base + !j) <- !ws.(!base + !i);
                incr j;
                incr i
              done;
              confl := cr
            end
            else enqueue s a.(w0) cr
          end
        end
      end
    done;
    s.watch_n.(fl) <- !j
  done;
  !confl

(* -- conflict analysis (first UIP) --------------------------------- *)

let analyze s confl =
  let a = s.arena and learnt = s.learnt in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let trail_idx = ref (s.trail_n - 1) in
  let bt_level = ref 0 in
  let learnt_n = ref 1 in
  (* learnt.(0) is reserved for the asserting literal *)
  let continue_ = ref true in
  while !continue_ do
    let cr = !confl in
    let start = if !p < 0 then 1 else 2 in
    for idx = cr + start to cr + clause_len a cr do
      let q = a.(idx) in
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

let record_learnt s learnt_n bt_level =
  backtrack s bt_level;
  let learnt = s.learnt in
  if learnt_n = 1 then enqueue s learnt.(0) (-1)
  else begin
    (* Watch the asserting literal and a literal from the backtrack
       level, so the watch invariant holds after the jump. *)
    let best = ref 1 in
    for idx = 2 to learnt_n - 1 do
      if s.levels.(learnt.(idx) lsr 1) > s.levels.(learnt.(!best) lsr 1) then
        best := idx
    done;
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!best);
    learnt.(!best) <- tmp;
    reserve s (learnt_n + 1);
    let cr = s.arena_n in
    s.arena.(cr) <- (learnt_n lsl 2) lor learnt_bit;
    Array.blit learnt 0 s.arena (cr + 1) learnt_n;
    s.arena_n <- cr + 1 + learnt_n;
    s.n_clauses <- s.n_clauses + 1;
    watch_add s learnt.(0) cr;
    watch_add s learnt.(1) cr;
    s.n_learnt <- s.n_learnt + 1;
    enqueue s learnt.(0) cr
  end

(* -- learned-clause deletion --------------------------------------- *)

(* Called at decision level 0.  Deletes the longer (then newer) half of
   the non-locked learnt clauses by setting their deleted bit;
   propagation lazily drops deleted clauses from the watch lists.  The
   ranking is a pure function of clause lengths and positions, so the
   reduced database — like everything else here — is deterministic. *)
let reduce_db s =
  let a = s.arena in
  let cands = ref [] in
  let cr = ref 0 in
  while !cr < s.arena_n do
    let c = !cr in
    let h = a.(c) in
    if h land (learnt_bit lor deleted_bit) = learnt_bit && h lsr 2 > 3 then begin
      let locked = lit_value s a.(c + 1) = 1 && s.reasons.(a.(c + 1) lsr 1) = c in
      if not locked then cands := c :: !cands
    end;
    cr := c + 1 + (h lsr 2)
  done;
  let arr = Array.of_list !cands in
  Array.sort
    (fun x y ->
      let lx = clause_len a x and ly = clause_len a y in
      if lx <> ly then compare ly lx else compare y x)
    arr;
  for k = 0 to (Array.length arr / 2) - 1 do
    let c = arr.(k) in
    a.(c) <- a.(c) lor deleted_bit;
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

(* One [solve] call on a set-up instance whose clause set is not yet
   refuted. *)
let search s ~conflict_budget ~deadline =
  s.has_model <- false;
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
            let learnt_n, bt_level = analyze s confl in
            record_learnt s learnt_n bt_level;
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
          let v = pick s in
          if v = 0 then begin
            (* Every variable is assigned and nothing conflicts: the
               trail is the model, and stays put until the next solve. *)
            s.has_model <- true;
            result := Some Sat
          end
          else begin
            s.trail_lim.(s.lim_n) <- s.trail_n;
            s.lim_n <- s.lim_n + 1;
            let l = if s.polarity.(v) then 2 * v else (2 * v) + 1 in
            enqueue s l (-1)
          end
        end
      done
    done;
    match !result with Some r -> r | None -> assert false
  end

let solve ?(conflict_budget = max_int) ?(deadline = Cgra_util.Deadline.never) s
    =
  if not s.started then begin
    s.started <- true;
    if s.ok then setup s
  end;
  if not s.ok then Unsat else search s ~conflict_budget ~deadline

let value s v =
  if not s.has_model then invalid_arg "Solver.value: no model"
  else if v < 1 || v > s.nvars then invalid_arg "Solver.value: bad variable"
  else s.values.(v) = 1
