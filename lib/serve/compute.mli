(** The one compute path behind every cache miss.

    [cgra_mapd] workers and the [cgra_map remote] local fallback call
    {!run} on a {!Key.spec}; it compiles the kernel and hands it to
    {!Cgra_exp.Toolchain} — the same pipeline [cgra_map map --emit] and
    the experiment harness run — then renders the result with
    {!Artifact.render}.  A warm daemon, a cold daemon and a local build
    therefore produce byte-identical artifacts by construction, fault
    maps and protection included. *)

type outcome =
  | Artifact of { bytes : string; digest : string }
      (** [digest] is MD5 of [bytes] ({!Artifact.digest}) *)
  | Unmappable of { reason : string }
      (** the flow (or register allocation) found no mapping — a valid,
          memoised negative answer *)
  | Timed_out of { where : string }
      (** the deadline fired mid-map; [where] names the boundary that
          observed it.  Unlike [Unmappable] this is {e not} a verdict
          about the kernel and must never be memoised or stored — a
          retry with more time may well map it. *)

val run : ?deadline:Cgra_util.Deadline.t -> Key.spec -> (outcome, string) result
(** [Error] is a request problem (source does not compile, bad knob,
    invalid fault map for the array) or a tool bug surfaced as a typed
    message (validation, simulation or golden-model failure) — never an
    escaped exception.  [deadline] bounds the mapping flow (compile, assembly
    and simulation are not under it — they are orders of magnitude
    cheaper than a hard map); expiry yields [Ok (Timed_out _)]. *)
