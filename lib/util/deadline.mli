(** Cooperative cancellation tokens on the monotonic clock.

    A deadline is an absolute instant on {!Clock.now_ns}'s timeline.  Hot
    loops (search rounds, SAT restarts, binary-search probes) poll it at
    their natural boundaries; a poll is one clock read and one [Int64]
    compare, cheap enough to sit inside a round loop without showing up in
    a profile.  Cancellation is cooperative: nothing is interrupted
    mid-step, so a loop that observes expiry can unwind cleanly and leave
    its state reusable.

    Determinism contract: a deadline is an {e observer}, never an input.
    Code threaded with a token must compute byte-identical results whether
    it was given {!never} or an armed token that does not fire — the only
    behavioural difference a token may make is an early, typed exit when
    it {e does} fire. *)

type t
(** A cancellation token.  Immutable; cheap to copy and share across
    domains. *)

val never : t
(** The token that never expires.  [expired never] is [false] forever and
    costs no clock read. *)

val after_ms : int -> t
(** [after_ms ms] is a token expiring [ms] milliseconds from now.
    [ms <= 0] yields a token that is already expired. *)

val expired : t -> bool
(** One clock read and one compare ([never] short-circuits without the
    read). *)

val intersect : t -> t -> t
(** The earlier of two deadlines; [never] is the identity. *)
