(* The occupancies of a whole tile array flattened into one byte buffer
   (tile-major, 0 = free, 1 = busy) plus per-tile counter arrays.
   Schedules are a few hundred cycles at most, so linear scans are cheap —
   but the pnop and busy counts sit on the mapper's hot path (every
   ACMAP/ECMAP verdict and every partial-mapping cost reads them), so they
   are maintained incrementally on [occupy] instead of rescanning [bytes]
   on each query.  The search scores each binding attempt on its parent's
   grid in place and undoes it with [rollback]; it copies a grid only for
   the partial mappings that survive pruning. *)

type t = {
  nt : int;
  mutable cap : int; (* cycle capacity per tile *)
  mutable bytes : Bytes.t; (* nt * cap, row [t * cap .. t * cap + cap) *)
  last : int array; (* per tile: highest busy cycle, -1 when idle *)
  busy : int array; (* per tile: busy cycles in [0, last] *)
  runs : int array; (* per tile: maximal free runs in [0, last] (pnops) *)
  mutable journal : int array;
      (* (tile, cycle, last, runs) before each [occupy] since the
         checkpoint, four ints per entry *)
  mutable journal_len : int; (* ints used in [journal]; -1 when not recording *)
}

let create nt =
  {
    nt;
    cap = 32;
    bytes = Bytes.make (nt * 32) '\000';
    last = Array.make nt (-1);
    busy = Array.make nt 0;
    runs = Array.make nt 0;
    journal = [||];
    journal_len = -1;
  }

let copy g =
  {
    g with
    bytes = Bytes.copy g.bytes;
    last = Array.copy g.last;
    busy = Array.copy g.busy;
    runs = Array.copy g.runs;
    journal = [||];
    journal_len = -1;
  }

(* Grow every row to hold cycle [c], re-blitting each row to its new
   offset.  Growth is never undone: the capacity is not observable. *)
let ensure g c =
  if c >= g.cap then begin
    let ncap = max (c + 1) (2 * g.cap) in
    let nb = Bytes.make (g.nt * ncap) '\000' in
    for t = 0 to g.nt - 1 do
      Bytes.blit g.bytes (t * g.cap) nb (t * ncap) g.cap
    done;
    g.bytes <- nb;
    g.cap <- ncap
  end

let record g t c =
  let n = g.journal_len in
  if n + 4 > Array.length g.journal then begin
    let j = Array.make (max 64 (2 * Array.length g.journal)) 0 in
    Array.blit g.journal 0 j 0 n;
    g.journal <- j
  end;
  g.journal.(n) <- t;
  g.journal.(n + 1) <- c;
  g.journal.(n + 2) <- g.last.(t);
  g.journal.(n + 3) <- g.runs.(t);
  g.journal_len <- n + 4

let occupy g t c =
  if c < 0 then invalid_arg "Occupancy.occupy: negative cycle";
  ensure g c;
  let base = t * g.cap in
  if Bytes.get g.bytes (base + c) <> '\000' then
    invalid_arg
      (Printf.sprintf "Occupancy.occupy: tile %d cycle %d already busy" t c);
  if g.journal_len >= 0 then record g t c;
  (* Run delta before flipping the byte: a busy cycle beyond [last] appends
     one free run iff it leaves a gap; a busy cycle inside [0, last] splits
     the free run it lands in (+1), consumes it entirely (-1, run of length
     one), or merely shortens it (0). *)
  if c > g.last.(t) then begin
    if c > g.last.(t) + 1 then g.runs.(t) <- g.runs.(t) + 1;
    g.last.(t) <- c
  end
  else begin
    let left_free = c > 0 && Bytes.get g.bytes (base + c - 1) = '\000' in
    let right_free = Bytes.get g.bytes (base + c + 1) = '\000' in
    (* c < last.(t) here (last is busy), so c+1 <= last.(t) is in range *)
    if left_free && right_free then g.runs.(t) <- g.runs.(t) + 1
    else if (not left_free) && not right_free then g.runs.(t) <- g.runs.(t) - 1
  end;
  Bytes.set g.bytes (base + c) '\001';
  g.busy.(t) <- g.busy.(t) + 1

let checkpoint g = g.journal_len <- 0

let changes g = max 0 g.journal_len / 4

let changed_tile g i = g.journal.(4 * i)

let rollback g =
  let i = ref (g.journal_len - 4) in
  while !i >= 0 do
    let t = g.journal.(!i) and c = g.journal.(!i + 1) in
    Bytes.set g.bytes ((t * g.cap) + c) '\000';
    g.busy.(t) <- g.busy.(t) - 1;
    g.last.(t) <- g.journal.(!i + 2);
    g.runs.(t) <- g.journal.(!i + 3);
    i := !i - 4
  done;
  g.journal_len <- -1

let first_free_at_or_after g t c =
  let c = max 0 c in
  if c >= g.cap then c
  else begin
    let base = t * g.cap in
    let rec go i =
      if i >= g.cap || Bytes.get g.bytes (base + i) = '\000' then i
      else go (i + 1)
    in
    go c
  end

let busy_count g t = g.busy.(t)

(* runs in [0, last): the last cycle itself is busy, trailing is free. *)
let pnops g t = g.runs.(t)

let pnops_optimistic g t =
  if g.last.(t) < 0 then 0
  else if
    (* a free cycle 0 means the first run is the leading gap: drop it *)
    Bytes.get g.bytes (t * g.cap) = '\000'
  then max 0 (g.runs.(t) - 1)
  else g.runs.(t)

let words g t = g.busy.(t) + g.runs.(t)
