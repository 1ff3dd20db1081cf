(** Content-addressed identity of a mapping request.

    A key captures everything the artifact bytes depend on: the kernel
    {e source text} (not its name), the initial memory image, the
    architecture configuration, the semantic flow knobs, the lowering/
    optimization mode, the permanent-fault map, and the tool-chain code
    version.  Two requests with equal keys are guaranteed — by the
    keyed-RNG determinism work of PRs 1–6 — to produce byte-identical
    artifacts, which is what makes the on-disk store and the daemon's
    single-flight dedup sound.

    Deliberately excluded from the key: [expand_jobs], which is
    bytes-neutral (RNG-free parallel expansion).  The {!opt} mode is
    keyed on its own; it is the only spelling of whether [cgra_opt]
    runs. *)

type opt = Cgra_exp.Toolchain.opt = Default | Raw | Optimized
(** Which CDFG the flow maps — the tool chain's own type, re-exported. *)

type kernel =
  | Bundled of { slug : string; source : string }
      (** a kernel from [Cgra_kernels] — its deterministic input image
          and golden model apply *)
  | Inline of { source : string; mem_words : int }
      (** caller-supplied program text, simulated on a zeroed memory of
          [mem_words] words; no golden check *)

type spec = {
  kernel : kernel;
  config : Cgra_arch.Config.name;
  knobs : (string * string) list;
      (** semantic flow knobs as name/value pairs
          ({!Cgra_core.Flow_config.to_knobs}); order-insensitive — the
          canonical form sorts them *)
  opt : opt;
  faults : Cgra_arch.Cgra.fault list;
}

val code_version : string
(** Baked into every digest: bump it when mapper/assembler/simulator
    changes can alter artifact bytes, and every stale store entry
    silently becomes a miss. *)

val spec_of_bundled :
  slug:string ->
  config:Cgra_arch.Config.name ->
  flow:Cgra_core.Flow_config.t ->
  opt:opt ->
  faults:Cgra_arch.Cgra.fault list ->
  (spec, string) result
(** Resolve a bundled kernel slug and build the spec the [cgra_map]
    client, the [map --emit] path and the daemon all agree on.  [Error]
    names the unknown slug. *)

val canonical : spec -> string
(** The canonical rendering digested by {!digest}: knobs sorted by name,
    faults sorted, sources replaced by their MD5 — so the digest is
    independent of field arrival order on the wire. *)

val digest : spec -> string
(** MD5 of {!canonical}, lowercase hex — the store key and single-flight
    identity. *)
