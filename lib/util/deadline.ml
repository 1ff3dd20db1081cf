(* A token is the absolute expiry instant in CLOCK_MONOTONIC nanoseconds,
   with Int64.max_int standing in for "never" so [expired] needs no
   option unboxing on the hot path. *)

type t = int64

let never : t = Int64.max_int
let is_never t = Int64.equal t never

let after_ms ms : t =
  if ms <= 0 then Clock.now_ns ()
  else Int64.add (Clock.now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L)

let expired t = (not (is_never t)) && Int64.compare (Clock.now_ns ()) t >= 0

let intersect a b = if Int64.compare a b <= 0 then a else b
