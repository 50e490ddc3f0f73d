(** Databases: a collection of named relations plus their confidences.

    The confidence table implements the paper's first framework element:
    every base tuple carries a confidence value in [\[0,1\]], and optionally
    a cap — the maximum confidence the tuple can ever reach ("1 or its
    maximum possible confidence level", §4.1).  The data-quality-improvement
    component raises confidences through {!set_confidence}, respecting the
    cap.

    Confidences and caps are stored densely, per relation, indexed by
    row id: an immutable array plus a small persistent overlay of later
    writes, flattened into a fresh array once it outgrows a fixed
    fraction of the relation.  Reads are constant-time while the overlay
    is empty; every {!t} is an immutable value that older copies, sibling
    copies and other domains can keep reading. *)

type t

val empty : t

(** {1 Epochs}

    A database carries one pair of stamp counters (see {!Epoch}) that let
    cache layers distinguish "the plan is still valid" from "the
    confidences are still valid":

    - the {e structural} epoch advances on schema/tuple mutation
      ({!add_relation}, {!bulk_load}, {!insert}).  Cached plans and cached
      evaluation results key on the {!structural_epoch};
    - the {e confidence} epoch advances on confidence/cap mutation
      ({!insert}, {!seed_confidence}, {!set_confidence},
      {!set_confidence_cap}, {!apply_increments}, replacing a relation).
      Cached confidences revalidate against the {!confidence_epoch}.

    A bounded change log records which tuples each confidence stamp
    touched, so a cache that fell behind invalidates only the classes
    whose lineage mentions a changed tuple.  Stamps are process-globally
    unique: equality with a cached stamp proves the cached snapshot is
    this exact version. *)

val structural_epoch : t -> int
(** The stamp prepared queries and scan batches pin: equality proves the
    row sets did not move. *)

val confidence_epoch : t -> int
(** The stamp confidence caches revalidate against. *)

val changed_since : t -> since:int -> Lineage.Tid.Set.t option
(** [changed_since db ~since] is the set of tuples whose confidence (or
    cap) changed after the confidence epoch [since] — the targeted
    invalidation set for a cache synced at [since].  [None] when the
    answer is unknowable and the caller must flush wholesale: [since] is
    older than the bounded change log (256 entries) reaches, or is not a
    stamp of this database's history (a divergent sibling copy).
    [Some Tid.Set.empty] iff [since] is current. *)

val add_relation : t -> Relation.t -> t
(** [add_relation db r] adds or replaces the relation named
    [Relation.name r].  Every stored row of [r] starts at confidence 0.0
    and cap 1.0 (raise them with {!seed_confidence} and
    {!set_confidence_cap}); nothing of a replaced relation's confidences
    or caps survives, and replacing a relation that had rows advances the
    confidence epoch, logging those rows. *)

val relation : t -> string -> Relation.t option
val relation_exn : t -> string -> Relation.t
(** @raise Invalid_argument when the relation is unknown. *)

val relation_names : t -> string list
val mem_relation : t -> string -> bool

val insert : t -> string -> Value.t list -> conf:float -> t * Lineage.Tid.t
(** [insert db rel vs ~conf] inserts a row into [rel] with initial
    confidence [conf].
    @raise Invalid_argument on unknown relation, non-conforming tuple, or
    confidence outside [\[0,1\]]. *)

val seed_confidence : t -> Lineage.Tid.t -> float -> t
(** [seed_confidence db tid p] records the initial confidence of a tuple
    that was inserted into a relation outside {!insert} (provenance-based
    assignment).  Unlike {!set_confidence} it ignores the tuple's cap.
    @raise Invalid_argument if [p] is outside [\[0,1\]] or the tuple is
    not stored. *)

val bulk_load : t -> Relation.t -> float array -> t
(** [bulk_load db r confs] adds (or replaces) relation [r] wholesale,
    seeding the confidence of the tuple with id [i] from [confs.(i)] —
    the bulk-ingest counterpart of per-row {!insert}.  [confs] is copied
    in O(n); the relation's confidences and caps are replaced wholesale,
    so nothing of a replaced relation survives.  Advances the structural
    and confidence epochs {e once} each instead of per tuple; the
    change-log entry lists every loaded tuple and every dropped one, so
    {!changed_since} remains truthful when an existing relation is
    replaced.
    @raise Invalid_argument if [Array.length confs] differs from
    [Relation.next_row r] or any confidence is outside [\[0,1\]]. *)

val confidence : t -> Lineage.Tid.t -> float
(** [confidence db tid] is the stored confidence (0.0 for unknown tuples —
    an absent tuple is never present in any possible world). *)

val confidence_cap : t -> Lineage.Tid.t -> float
(** Maximum confidence this tuple can be raised to (default 1.0). *)

val set_confidence : t -> Lineage.Tid.t -> float -> t
(** [set_confidence db tid p] updates the confidence.
    @raise Invalid_argument if [p] is outside [\[0, cap\]] or [tid] is
    not stored. *)

val set_confidence_cap : t -> Lineage.Tid.t -> float -> t
(** @raise Invalid_argument if the cap is outside
    [\[current confidence, 1\]] or [tid] is not stored. *)

val confidence_fn : t -> Lineage.Tid.t -> float
(** [confidence_fn db] is {!confidence} partially applied — the assignment
    passed to {!Lineage.Approx.confidence}. *)

val all_confidences : t -> (Lineage.Tid.t * float) list
(** Every stored tuple with its confidence, ordered by relation name,
    then row. *)

val apply_increments : t -> (Lineage.Tid.t * float) list -> t
(** [apply_increments db deltas] raises each listed tuple's confidence to
    the given *target* value (not a delta); values are clamped to the
    tuple's cap and must not decrease existing confidence.
    @raise Invalid_argument on a decreasing update. *)
