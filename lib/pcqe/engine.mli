(** The policy-compliant query evaluation engine — the paper's Fig. 1.

    A {!context} bundles the five framework components:
    confidence-annotated {e database}, {e RBAC} model (traditional access
    control over base relations), {e confidence-policy} store, per-tuple
    {e cost functions} and confidence {e caps} (for strategy finding), and
    the configured strategy-finding {e solver}.

    A user request is [⟨Q, pu, perc⟩] (§3.2): a query, a purpose, and the
    fraction of results the user needs back.  {!answer} runs the full data
    flow: RBAC check → lineage-carrying evaluation → confidence computation
    → policy filtering → (if too few results pass) strategy finding, whose
    increment proposal and cost are reported back.  {!accept_proposal}
    implements the data-quality-improvement step: apply the increments and
    re-answer. *)

type context = {
  db : Relational.Database.t;
  rbac : Rbac.Core_rbac.t;
  policies : Rbac.Policy.store;
  views : Relational.Views.t;
      (** named views, expanded before evaluation (quality-view style) *)
  cost_of : Lineage.Tid.t -> Cost.Cost_model.t;
  cap_of : Lineage.Tid.t -> float;
  solver : Optimize.Solver.algorithm;
  delta : float;
  jobs : int;
      (** parallelism for strategy finding; [1] = single-threaded.
          Outcomes are bit-identical at every level (see {!Exec}). *)
  deadline : Resilience.Deadline.spec;
      (** per-answer budget.  A fresh token is started for every
          {!answer}; a wall budget covers evaluation, confidence {e and}
          strategy finding, so the solver gets whatever remains.  In the
          confidence stage an expired token fails the ladder's bounded
          rungs closed (the tuple is withheld and counted in
          [resilience.confidence_failures]); in strategy finding the
          solver returns its best-so-far {e feasible} proposal and the
          response reports [degraded].  [No_deadline] (the default) is
          unbounded. *)
  obs : Obs.t option;
      (** observability handle; [None] (the default) disables tracing and
          metrics entirely — the engine then allocates no spans *)
  caches : Caches.t option;
      (** serving caches (prepared plans + per-epoch confidence classes).
          [None] (the default) is the one-shot cold path.  With caches the
          prepare stage goes through the {!Plan_cache} (keyed by query
          text, validated against the database's structural epoch and the
          view store's epoch) and the confidence stage through the
          {!Conf_cache} (keyed by lineage class, invalidated by the
          confidence epoch); responses are bit-identical either way
          (property-tested) — the caches only remove repeated work. *)
  profile : bool;
      (** attach an {!Obs.Profile.t} to every response: per-stage wall
          time and allocation from the request's span tree, plus the
          counter deltas over the run (cache attribution, ladder rungs,
          incremental vs full evaluations).  When [obs] is [None] a
          private deterministic handle is used per answer, so profiling
          needs no wiring.  Observe-only: answers are bit-identical with
          profiling on or off (property-tested).  Off by default. *)
}

val make_context :
  ?solver:Optimize.Solver.algorithm ->
  ?delta:float ->
  ?jobs:int ->
  ?deadline:Resilience.Deadline.spec ->
  ?cost_of:(Lineage.Tid.t -> Cost.Cost_model.t) ->
  ?cap_of:(Lineage.Tid.t -> float) ->
  ?views:Relational.Views.t ->
  ?obs:Obs.t ->
  ?caches:Caches.t ->
  ?profile:bool ->
  db:Relational.Database.t ->
  rbac:Rbac.Core_rbac.t ->
  policies:Rbac.Policy.store ->
  unit ->
  context
(** Defaults: divide-and-conquer solver, δ = 0.1, linear cost of rate 100,
    cap 1.0 for every tuple, no deadline, observability off.

    [jobs] resolves via {!Exec.resolve_jobs}: an explicit value wins
    ([0] = one per core), then the [PCQE_JOBS] environment variable,
    defaulting to [1]. *)

type request = {
  query : Query.t;  (** SQL text or a prebuilt algebra plan *)
  user : string;
  purpose : string;
  perc : float;  (** θ — fraction of results the user needs, in [\[0,1\]] *)
}

type released = {
  tuple : Relational.Tuple.t;
  lineage : Lineage.Formula.t;
  confidence : float;
  conf_tier : string;
      (** which confidence tier produced [confidence] — ["cached"] (a
          {!Session}'s confidence cache held the class) or a ladder rung
          name ([var], [read_once], [circuit], [obdd], [monte_carlo]) —
          so degraded vs. exact answers are auditable per tuple *)
}

type proposal = {
  increments : (Lineage.Tid.t * float) list;
      (** target confidence per base tuple *)
  cost : float;
  projected_release : int;
      (** results that would clear the threshold after applying *)
  solver_name : string;
  solver_stats : Optimize.Solver.stats;
      (** structured solver telemetry (nodes, prunes, iterations, …) *)
  solver_detail : string;  (** rendering of [solver_stats] *)
  elapsed_s : float;
  resolution : Optimize.Solver.resolution;
      (** [Partial] when a deadline stopped the solver early: the
          increments are the best-so-far {e feasible} plan, possibly not
          the cheapest — a degraded proposal never weakens compliance *)
}

type response = {
  schema : Relational.Schema.t;
  released : released list;  (** results above the threshold, returned now *)
  withheld : int;  (** results filtered out by the policy *)
  ambiguous : int;
      (** of [withheld]: results whose Monte-Carlo confidence interval
          straddles the threshold — withheld fail-closed *)
  requested : int;
      (** ⌈perc · n⌉ — how many results the request needs released; computed
          once here so callers and reports never redo the ceil *)
  threshold : float option;
      (** effective β; [None] when no policy applies (nothing filtered) *)
  applied_policies : Rbac.Policy.t list;
  proposal : proposal option;
      (** present when fewer than [perc] of the results were released and
          strategy finding found (or attempted) a remedy *)
  infeasible : bool;
      (** [true] when strategy finding ran to completion and could not
          meet the requirement even at the confidence caps.  A
          deadline-cut solve with no feasible best-so-far reports
          [degraded] instead — an early stop proves nothing. *)
  degraded : string option;
      (** [Some reason] when the per-answer deadline stopped strategy
          finding early or it found nothing on unpriceable lineage (see
          {!proposal.resolution}); the reason also lands in the audit log *)
  profile : Obs.Profile.t option;
      (** present iff [ctx.profile]: the request's per-stage profile —
          span path, elapsed, allocated bytes and attributes per stage,
          plus the counter deltas recorded while this answer ran *)
}

val answer : context -> request -> (response, string) result
(** Run the full PCQE data flow.  Errors: RBAC denial, SQL/plan errors,
    unknown user.  Policy selection considers {e all} of the user's
    authorized roles (assigned plus inherited).

    With [ctx.obs] set, each run records a root ["answer"] span with child
    spans ["parse/plan"], ["view-expand"], ["rewrite"], ["rbac"], ["eval"]
    (attr [rows]), ["confidence"], ["policy-filter"] (attrs [released],
    [withheld]), ["strategy-finding"] (when the solver runs; contains the
    solver's own ["solve"] span), and ["projection"], plus [engine.*]
    counters.  Observability is strictly observe-only: responses are
    identical with it on or off (property-tested). *)

val answer_session :
  context -> Rbac.Core_rbac.session -> Query.t -> purpose:string ->
  perc:float -> (response, string) result
(** Like {!answer}, but under an RBAC session: only the session's
    activated roles (and their juniors) carry permissions and select
    confidence policies — the least-privilege variant. *)

val accept_proposal : context -> proposal -> context
(** Data-quality improvement: apply the proposal's increments to the
    database (respecting caps) and return the updated context — re-run
    {!answer} to get the improved result set. *)

(** {1 Serving}

    A {!Session} is the warm, long-lived face of the engine: it owns a
    {!Caches.t} and keeps it plugged into every answer, so repeated
    queries reuse prepared plans and re-answers after
    {!Session.accept_proposal} recompute only the lineage classes the
    accepted increments dirtied (the rest are served from the per-epoch
    confidence cache).  Answers are bit-identical to cold
    {!val-answer} calls — property-tested across solvers, jobs levels
    and deadlines. *)

module Session : sig
  type t

  val create : ?plan_capacity:int -> ?conf_max_entries:int -> context -> t
  (** Wrap a context for serving.  If [ctx.caches] is already set those
      caches are reused (the size options are then ignored); otherwise a
      fresh {!Caches.t} is created — defaults as {!Caches.create}. *)

  val context : t -> context
  (** The current context (advanced in place by
      {!Session.accept_proposal}). *)

  val set_context : t -> context -> unit
  (** Replace the wrapped context, e.g. after external database edits.
      The session's caches are kept plugged in (epoch validation makes
      stale entries unreachable); the [caches] field of the argument is
      ignored. *)

  val answer : t -> request -> (response, string) result
  (** {!val-answer} with the session's caches.  With [ctx.obs] set the
      serving wrapper additionally observes the end-to-end latency into
      the bounded [serving.answer_s] histogram (fixed memory, see
      {!Obs.Hdr}) and refreshes the [cache.*] and [db.*_epoch] gauges
      ({!Caches.export_gauges}). *)

  val prepare : t -> Query.t -> (Prepared.t, string) result
  (** Compile (or fetch) the prepared plan for a query without running
      it — the REPL's [\prepare].  Counted as [prepared.hit]/[.miss]
      like any other lookup. *)

  val batch : t -> request list -> (response, string) result list
  (** Answer a list of ⟨Q, principal, purpose, perc⟩ requests, in order.
      Before answering, the batch stage compiles one prepared plan per
      distinct query text, evaluates each once, and computes all
      distinct uncached lineage classes — in parallel over the
      {!Exec} pool when [ctx.jobs > 1] (per-class confidence is a pure,
      seed-stable function of the formula, so results are independent of
      the jobs level; cache writes stay on the calling thread).  Queries
      no batch member may access are not prewarmed.  The response list
      is element-for-element identical to mapping cold {!val-answer}
      over the requests.

      With [ctx.obs] set, each prewarmed class records a
      ["prewarm-class"] task span stitched under the ["batch"] span in
      class order (identical at any jobs level), the ladder rung each
      class used is counted post-join, the whole batch is observed into
      the bounded [serving.batch_s] histogram, and the serving gauges
      are refreshed. *)

  val accept_proposal : t -> proposal -> unit
  (** Apply an increment proposal to the session's database in place.
      The confidence epoch advances; the next lookup invalidates exactly
      the cached classes mentioning a raised tuple, so the follow-up
      re-answer reuses every untouched class ([serving.reused_classes]
      vs [serving.recomputed_classes]). *)

  val cache_stats : t -> (string * int) list
  (** {!Caches.stats} of the session's caches — the REPL's [\caches]. *)
end
