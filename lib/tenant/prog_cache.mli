(** Structural program identity and an LRU of compiled programs.

    Serving traffic repeats programs: many tenants run the same model, and
    one tenant runs the same model many times. Compiling through
    {!Autobatch.compile} on every request would dominate serving cost, so
    the cache keys compiled artifacts on a *structural* 64-bit digest of
    the source {!Lang.program} (plus the input element shapes, which
    change what [compile] preallocates).

    The digest is one post-order walk: each expression/statement node
    folds its constructor tag, payloads and child digests through
    {!Splitmix.hash2}, with no table and no intermediate lists, so a
    repeated subtree is simply walked again. Alpha-renamed programs hash
    differently by design — identity is the source text's structure, not
    semantics.

    Physical sharing still matters: {!Server} admits a request only if its
    compiled program is physically the pool's program, so handing every
    same-digest request the same [Autobatch.compiled] value is what makes
    such traffic batchable. The tenant stack's shard pools instead match
    requests to pools by the digest carried on each {!Admission.item}. *)

val digest_program : Lang.program -> int64
(** Structural digest of the program alone (no shapes). *)

val digest : ?input_shapes:Shape.t list -> Lang.program -> int64
(** The cache key: {!digest_program} combined with the input element
    shapes (their absence hashes differently from an empty list). *)

type t

val create :
  ?metrics:Obs_metrics.t -> ?registry:Prim.registry -> ?sink:Obs_sink.t ->
  ?clock:(unit -> float) -> capacity:int -> unit -> t
(** An empty cache holding at most [capacity] compiled programs
    (capacity 0 disables caching: every lookup compiles and nothing is
    retained). All compilations share [registry] (default
    [Prim.standard ()]), so same-digest requests share RNG seeding and
    primitive identity. Hit/miss/evict counters are registered in
    [metrics] as ["prog_cache_hits"], ["prog_cache_misses"],
    ["prog_cache_evictions"]. With a [sink], every lookup additionally
    emits a zero-width [Obs_sink.Span] instant (["cache-hit"],
    ["cache-miss"], ["compile"]) on {!Obs_span.cache_trace}, stamped
    from [clock] (the owner's simulated clock; defaults to a constant
    0). *)

val find_or_compile :
  t -> ?optimize:bool -> ?fuse:Fuse.options -> ?input_shapes:Shape.t list ->
  Lang.program -> Autobatch.compiled * int64 * [ `Hit | `Miss ]
(** [(compiled, key, outcome)]: the cached artifact for the program's
    digest, or compile, insert (evicting the least-recently-used entry
    when full) and return it. [key] is [digest ?input_shapes program],
    computed once per call, so callers that also need the key (an
    {!Admission.item}'s [digest]) need not walk the program again.
    Every same-digest call returns the {e physically same}
    [Autobatch.compiled]. The compile options are trusted to be
    uniform per digest — callers with conflicting options must use
    separate caches. *)

val find : t -> int64 -> Autobatch.compiled option
(** Peek by digest; counts and refreshes like a lookup, but never
    compiles. *)

val length : t -> int
val capacity : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int

val hit_rate : t -> float
(** [hits / (hits + misses)]; [nan] before the first lookup. *)
