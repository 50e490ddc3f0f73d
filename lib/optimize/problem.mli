(** The confidence-increment optimization problem (§3.2 of the paper).

    Given intermediate query results λ₁…λₙ whose confidence is below the
    policy threshold β, and the base tuples Λ⁰ they derive from, find
    target confidences p* minimizing

    {v Σ  c_x(p*_x) - c_x(p_x)   over raised base tuples x v}

    subject to at least [required] results reaching confidence above β and
    [p_x <= p*_x <= cap_x].  Confidence increments are explored on a grid of
    step [delta] (the paper's granularity, default 0.1).

    This module is the shared, immutable description of an instance; the
    solvers operate on a mutable {!State.t} view of it. *)

type base = {
  tid : Lineage.Tid.t;
  p0 : float;  (** initial confidence *)
  cap : float;  (** maximum achievable confidence (<= 1) *)
  cost : Cost.Cost_model.t;
}

type result_tuple = {
  rid : int;  (** dense index, assigned by {!make} *)
  formula : Lineage.Formula.t;  (** lineage over the instance's base tuples *)
}

type t

val make :
  ?delta:float ->
  ?incremental:bool ->
  ?deadline:Resilience.Deadline.t ->
  ?circuit:(Lineage.Formula.t -> Lineage.Circuit.t option) ->
  beta:float ->
  required:int ->
  bases:base list ->
  formulas:Lineage.Formula.t list ->
  unit ->
  (t, string) result
(** [make ~beta ~required ~bases ~formulas ()] validates and indexes an
    instance.  Every variable of every formula must be listed in [bases];
    [required] must be in [\[0, length formulas\]]; each base must satisfy
    [0 <= p0 <= cap <= 1].  [delta] defaults to 0.1.

    [incremental] (default [true]) enables the incremental-evaluation
    machinery: structurally equal formulas are hash-consed into shared
    {e evaluation classes} (see {!class_of_result}) and {!State.t} routes
    single-base changes through affine coefficient caches.  [false] forces
    the baseline layout — one class per result, every re-evaluation a full
    compiled-evaluator call — used by the A/B bench panel and tests.
    Class evaluators come from {!Lineage.Approx.compile} under
    [deadline] and [circuit]; an {e unpriceable} class evaluates to 0. *)

val make_exn :
  ?delta:float ->
  ?incremental:bool ->
  ?deadline:Resilience.Deadline.t ->
  ?circuit:(Lineage.Formula.t -> Lineage.Circuit.t option) ->
  beta:float ->
  required:int ->
  bases:base list ->
  formulas:Lineage.Formula.t list ->
  unit ->
  t

val of_query_results :
  ?delta:float ->
  ?deadline:Resilience.Deadline.t ->
  ?circuit:(Lineage.Formula.t -> Lineage.Circuit.t option) ->
  released:bool array ->
  theta:float ->
  beta:float ->
  cost_of:(Lineage.Tid.t -> Cost.Cost_model.t) ->
  cap_of:(Lineage.Tid.t -> float) ->
  Relational.Database.t ->
  Relational.Eval.annotated ->
  (t * int list, string) result
(** [of_query_results ~released ~theta ~beta ~cost_of ~cap_of db res]
    builds the instance the policy-evaluation component hands to
    strategy finding.  [released.(i)] is the policy filter's verdict on
    row [i] of [res] (confidence proven strictly above β); the rows it
    did not release become the instance's intermediate results — no row
    is priced again here.  [required] is
    [⌈θ*n⌉ - satisfied] where [n] counts all results (the paper's
    [(θ - θ′)*n]), clamped to the number of failing results.  Also
    returns the indices (into [res.rows]) of the failing rows, in
    instance order.  Errors when [released] is not index-aligned with
    the rows.  [deadline] and [circuit] are passed to {!make}. *)

(** {1 Accessors} *)

val beta : t -> float
val required : t -> int
val delta : t -> float

val incremental : t -> bool
(** Whether the incremental-evaluation machinery (dedup classes + affine
    caches in {!State}) is enabled for this instance. *)

val num_bases : t -> int
val num_results : t -> int
val base : t -> int -> base
val result : t -> int -> result_tuple
val bases : t -> base array
val results : t -> result_tuple array

val bid_of_tid : t -> Lineage.Tid.t -> int option
val results_of_base : t -> int -> int list
(** Results whose lineage mentions the base (the inverted index driving
    incremental re-evaluation). *)

val bases_of_result : t -> int -> int list

(** {1 Evaluation classes}

    Structurally equal lineage formulas (self-joins, grouped outputs) are
    deduplicated at {!make} time into shared evaluation classes: one
    compiled evaluator per class, shared by every member result.  With
    [~incremental:false] the mapping is the identity ([cid = rid]). *)

val num_classes : t -> int

val class_of_result : t -> int -> int
(** Class of a result ([rid -> cid]). *)

val class_members : t -> int -> int list
(** Member results of a class, ascending rids (never empty). *)

val classes_of_base : t -> int -> int list
(** Classes whose formula mentions the base — the class-level inverted
    index driving incremental re-evaluation (every member of each listed
    class is affected). *)

val bases_of_class : t -> int -> int list
(** Bases mentioned by the class formula, ascending bids. *)

val dedup_formulas : t -> int
(** Number of results that share another result's class
    ([num_results - num_classes]; [0] when [incremental] is off). *)

val evaluator_kind : t -> int -> Lineage.Approx.tier option
(** The ladder rung backing class [cid], [None] if it is unpriceable. *)

val unpriceable : t -> int
(** Number of unpriceable classes. *)

val circuit : t -> Lineage.Formula.t -> Lineage.Circuit.t option
(** A circuit-rung class's circuit; read-only, so safe in pool tasks. *)

val eval_class : t -> float array -> int -> float
(** [eval_class t levels cid] evaluates one class's compiled formula over
    the bid-indexed level array.  One call covers every member result. *)

val eval_result : t -> float array -> int -> float
(** [eval_result t levels rid] is the confidence of result [rid] when base
    [bid] has confidence [levels.(bid)].  Formulas are compiled once at
    {!make} time: read-once lineage evaluates in linear time directly over
    the array; entangled lineage through its compiled circuit or OBDD.
    This is the hot path of every solver; equals
    [eval_class t levels (class_of_result t rid)]. *)

val grid_levels : t -> int -> float list
(** [grid_levels t bid] is the increasing list of confidence levels the
    grid allows for [bid]: [p0; p0+δ; …] ending exactly at [cap]. *)

val to_string : t -> string
(** One-line summary: sizes, β, required, δ. *)
