(** Per-epoch confidence cache, keyed by deduplicated lineage class.

    Result confidence depends only on the lineage formula and the
    database's confidences — not on the principal.  This cache
    memoizes confidence per formula {e structure} (via
    {!Lineage.Formula.Table}, the same hash-consing notion the solver
    stack uses for its evaluation classes), so answering one query for N
    principals — or re-answering it after a proposal was accepted —
    computes each distinct lineage class once.

    {b Invalidation.}  On every {!sync} (which {!confidence} and
    {!warm} run first) the cache compares its synced epoch with the live
    {!Relational.Database.confidence_epoch}; when it moved, it asks
    {!Relational.Database.changed_since} for the dirty base tuples and
    drops exactly the classes whose formula mentions one (counted as
    [serving.invalidated_classes]).  When the bounded change log cannot
    answer — the cache fell too far behind, or the database diverged
    from the cached history — every cached value is dropped, but the
    compiled circuits are kept.  Either way a lookup never returns a
    confidence computed from stale confidences; property tests pin warm
    results bit-identical to cold recomputation.

    Values are the ladder's estimates ({!Lineage.Approx.confidence});
    the cache also keeps each class's compiled d-DNNF circuit across
    confidence epochs, so an invalidated class is re-priced by one
    linear pass.  Hits count [serving.reused_classes], misses
    [serving.recomputed_classes]. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] (default 65 536) bounds memory: reaching it flushes
    the cache wholesale before the next store.
    @raise Invalid_argument when [max_entries < 1]. *)

val confidence :
  ?obs:Obs.t ->
  ?deadline:Resilience.Deadline.t ->
  ?on_tier:(Lineage.Approx.tier -> unit) ->
  t ->
  db:Relational.Database.t ->
  Lineage.Formula.t ->
  Lineage.Approx.estimate * string
(** [confidence t ~db] syncs [t] with [db] ({!sync}) once and returns
    the pricer for [db]: it maps a formula to the ladder's estimate under
    [db]'s confidences, plus the label of the tier that produced
    it — ["var"], ["cached"], or the rung name — for per-tuple
    auditability ([pcqe explain]).  Build one pricer per answer and
    price every row with it; a pricer must not outlive a later sync of
    [t] with another database.  A single-[Var] formula answers with one
    base-confidence lookup (tier ["var"], no cache traffic).  Otherwise
    the value is cached, or computed by {!Lineage.Approx.confidence}
    and stored; its circuit rung compiles a class once and re-evaluates
    it under every later epoch ([ladder.circuit_build] /
    [ladder.circuit_reeval]; a node-cap overflow counts
    [ladder.circuit_fallback] and the ladder moves on).  Estimates are
    reproducible per formula (the Monte-Carlo seed derives from the
    formula hash), so a cached estimate is bit-identical to
    recomputation.  A [Failed] estimate (the
    [deadline] expired, the sampler raised) is returned but never
    stored.  [on_tier] fires for the [var] shortcut and on a miss (the
    rung that answered a cached class was reported when it was
    computed). *)

val circuit : ?obs:Obs.t -> t -> Lineage.Formula.t -> Lineage.Circuit.t option
(** The class's compiled circuit: built on first request and kept across
    confidence epochs ([None] past the node cap).  {!confidence} prices
    its circuit rung through it; pass it as
    {!Lineage.Approx.confidence}'s [circuit] to price a class under
    other confidences without recompiling. *)

val warm :
  ?obs:Obs.t ->
  t ->
  db:Relational.Database.t ->
  (Lineage.Formula.t * Lineage.Approx.estimate) list ->
  unit
(** Install precomputed estimates (e.g. computed in parallel over an
    {!Exec.Pool} by the batch stage) for formulas not already cached.
    Each install counts as a recompute; the values must have been
    computed against [db]'s current confidences. *)

val sync : ?obs:Obs.t -> t -> db:Relational.Database.t -> unit
(** Catch up with [db]'s confidence epoch now (also done when a
    {!confidence} pricer is built): targeted invalidation when the change
    log covers the gap, a flush of every cached value (circuits kept)
    otherwise. *)

val length : t -> int

val mem : t -> Lineage.Formula.t -> bool
(** Whether the cache holds the formula's class.  Does {e not} {!sync}
    — callers deciding what to prewarm must sync first so the answer
    reflects the live confidence epoch. *)

val reused : t -> int
(** Total cache hits (classes whose confidence was reused). *)

val recomputed : t -> int
(** Total misses + warm installs (classes actually computed). *)

val invalidated : t -> int
(** Total entries dropped by targeted invalidation. *)

val clear : t -> unit
