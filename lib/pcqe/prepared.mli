(** Prepared queries: the principal-independent front of the pipeline,
    compiled once and reused.

    Everything up to (and including) lineage-carrying evaluation depends
    only on the query text, the view store, and the database contents —
    never on the requesting principal or the current confidences.
    A [Prepared.t] captures that prefix: parse → view expansion →
    rewrite, stamped with the epochs it was compiled against
    ({!Relational.Database.structural_epoch},
    {!Relational.Views.epoch}), plus a one-slot cache of the evaluated
    annotated result keyed by structural epoch.

    Validity is stamp {e equality}: any schema/tuple mutation or any
    view (re)definition yields fresh stamps and silently retires the
    prepared query (see {!Plan_cache}).  Confidence-only mutations leave
    both stamps unchanged — plans and evaluated lineage stay valid, only
    the per-formula confidences must be refreshed ({!Conf_cache}). *)

type t

val compile :
  ?obs:Obs.t ->
  db:Relational.Database.t ->
  views:Relational.Views.t ->
  Query.t ->
  (t, string) result
(** Parse (when SQL), expand views, rewrite.  With [obs] set, records the
    same ["parse/plan"], ["view-expand"] and ["rewrite"] spans the
    one-shot engine path records — a cold prepare is byte-identical work
    to a cold answer's front end. *)

val key_of_query : Query.t -> string
(** The plan-cache key: the SQL text, or the rendered plan. *)

val key : t -> string
val plan : t -> Relational.Algebra.t
(** The view-expanded, rewritten plan. *)

val base_relations : t -> string list
(** Base relations of the final plan — what RBAC checks per principal. *)

val views_epoch : t -> int

val valid : t -> db:Relational.Database.t -> views:Relational.Views.t -> bool
(** [true] iff the structural epoch and the views stamp still match —
    the plan (and any cached evaluation) may be reused against this
    database and view store. *)

val eval :
  ?obs:Obs.t ->
  t ->
  db:Relational.Database.t ->
  (Relational.Eval.annotated, string) result
(** Evaluate the plan through the hybrid columnar evaluator
    ({!Relational.Col_eval}), reusing the cached annotated result when
    the database's structural epoch still matches (counted as
    [serving.eval_reused]).  The cache holds one epoch: a structural
    mutation re-evaluates and replaces it. *)
