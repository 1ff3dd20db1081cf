(* Order statistics behind every timing metric. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Like Python's [statistics.median]: the mean of the two middle values
   of an even-sized sample. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   sample at or below it.  [p] in (0, 1]. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil ((p *. float n) -. 1e-9))))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n p - 1)

(* Samples strictly above the [p] percentile's rank.  A percentile is
   reported as a tail metric only when at least ten samples lie beyond
   it; with fewer, one outlier more or less moves it. *)
let beyond ~n p = n - rank ~n p

let supports ~n p = n > 0 && beyond ~n p >= 10

(* [xs] in time order, cut into consecutive windows of [window]
   samples: the median over the windows of each window's [p] percentile.
   A trailing partial window is left out unless it is all there is.  A
   burst of host contention then moves the windows it covers, not the
   reported value, as long as it covers fewer than half of them. *)
let windowed_percentile ~window xs p =
  let window = max 1 window in
  let windows = Array.length xs / window in
  if windows = 0 then percentile xs p
  else median (Array.init windows (fun w -> percentile (Array.sub xs (w * window) window) p))

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so spreads computed here match the ones the acceptance
   check computes.  Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float (n - delta)) +. (a.(j) *. float delta)) /. float n)

(* Interquartile distance as a share of the median — the run-to-run
   spread a metric's regression bound must exceed. *)
let spread xs =
  match quartiles xs with
  | [ q1; _; q3 ] -> (q3 -. q1) /. Float.abs (median xs)
  | _ -> assert false
