(** The confidence ladder: the one way lineage is priced.

    Exact confidence is #P-hard in general: an exact expansion is
    exponential in entangled lineage and an OBDD build can blow past any
    size cap.  The engine needs a confidence answer it can {e act on}
    within a bounded amount of work, and the compliance contract
    (release iff confidence strictly above β) must never be weakened by
    the approximation.

    The ladder tries, in order:

    + {b var} — single-tuple lineage: the base confidence itself;
    + {b read-once} — linear, exact ({!Prob.read_once});
    + {b circuit} — a d-DNNF {!Circuit}, taken only when
      {!Prob.shannon_cost_estimate} is at most {!exact_threshold} (so
      its compilation is bounded) and the build stays under the node
      cap; bitwise equal to {!Prob.exact};
    + {b OBDD} — {!Bdd.of_formula} under [exact_node_cap]
      ({!Bdd.Size_cap_exceeded} aborts the build early);
    + {b Monte-Carlo} — an (ε, δ) estimate: with [samples_for mc] worlds
      a Hoeffding bound puts the true confidence inside
      [estimate ± mc.eps] with probability at least [1 - mc.delta].

    The first four rungs return [Exact]; the Monte-Carlo rung returns an
    [Interval] — the caller decides {e conservatively} (fail-closed):
    release only when the whole interval clears β, withhold when it
    straddles.  If sampling fails, or the request's deadline expired
    before a bounded rung could run, [Failed] is returned and the caller
    must withhold. *)

type estimate =
  | Exact of float  (** an exact tier answered *)
  | Interval of { lo : float; hi : float; estimate : float; samples : int }
      (** Monte-Carlo: true confidence in [\[lo, hi\]] with probability
          [>= 1 - delta]; [estimate] is the point estimate. *)
  | Failed of string
      (** no rung could answer (the sampler raised, or the deadline
          expired first); the caller must treat the tuple as not
          releasable *)

type mc = {
  eps : float;  (** interval half-width, in (0, 1) *)
  delta : float;  (** failure probability, in (0, 1) *)
  seed : int;  (** base seed; each formula derives its own stream *)
  samples_cap : int;  (** hard ceiling on the sample count *)
}

val default_mc : mc
(** [eps = 0.02], [delta = 1e-4], [seed = 0], [samples_cap = 2_000_000]:
    ~12.4k samples per formula. *)

val samples_for : mc -> int
(** Hoeffding sample size [⌈ln (2/δ) / (2 ε²)⌉], clamped to
    [\[1, samples_cap\]]. *)

val exact_threshold : int
(** The circuit rung is attempted only when
    [Prob.shannon_cost_estimate f <= exact_threshold]: inside that gate
    at most 12 variables repeat, so compilation nests at most 12
    Shannon decisions. *)

type tier = Var | Read_once | Circuit | Obdd | Monte_carlo
    (** the rung that actually answered, in ladder order *)

val tier_name : tier -> string
(** Stable lower-snake name of a rung ([var], [read_once], [circuit],
    [obdd], [monte_carlo]) — used as the [ladder.<tier>]
    counter suffix by callers that account rung usage. *)

val build_circuit : Formula.t -> Circuit.t option
(** The circuit rung's default source: a fresh {!Circuit.compile_opt}. *)

val compile :
  ?deadline:Resilience.Deadline.t ->
  ?circuit:(Formula.t -> Circuit.t option) ->
  ?exact_node_cap:int ->
  Formula.t ->
  tier * ((Tid.t -> float) -> float) option
(** [compile f] runs the exact rungs once — the one pricing kernel.  It
    returns the rung that answered with an evaluator re-pricing [f]
    under any base confidences (safe to call concurrently), or the rung
    the ladder stopped at with [None]: [Obdd] when [deadline] expired
    before the OBDD build, [Monte_carlo] when the build overflowed
    [exact_node_cap].  [circuit] supplies a class's circuit, or [None]
    to skip the rung (default {!build_circuit}); a cache passes its
    per-class table so a circuit is built once. *)

val confidence :
  ?deadline:Resilience.Deadline.t ->
  ?on_tier:(tier -> unit) ->
  ?circuit:(Formula.t -> Circuit.t option) ->
  ?exact_node_cap:int ->
  ?mc:mc ->
  (Tid.t -> float) ->
  Formula.t ->
  estimate
(** [confidence p f] runs the ladder: {!compile} ([exact_node_cap]
    defaults to [20_000]), then the Monte-Carlo rung, parameterized by
    [mc] (default {!default_mc}).  The Monte-Carlo seed is derived from
    [mc.seed] and {!Formula.hash}[ f], so the estimate for a given
    formula is reproducible and independent of evaluation order.  Never
    raises: any exception from the sampling rung is
    converted to [Failed].

    [deadline] (default {!Resilience.Deadline.never}) is checked before
    the OBDD rung, before the Monte-Carlo rung and between sampling
    chunks; an expired token yields [Failed "deadline"].

    [on_tier] is called exactly once, with the rung selected to answer,
    {e before} that rung's value is returned (a rung that fails — its
    sampler raised, or the deadline expired — still reports, so the
    [Failed] path counts under the rung that failed).  Observation-only:
    callers use it to bump [ladder.*] counters. *)

val point : estimate -> float
(** The value to display: the exact value, an interval's point
    estimate, or [nan] for [Failed].  Release decisions never use it
    ({!releasable} does). *)

val releasable : beta:float -> estimate -> [ `Release | `Withhold | `Ambiguous ]
(** The fail-closed decision rule: [`Release] iff the estimate proves
    confidence strictly above [beta] ([Exact c] with [c > beta], or an
    interval with [lo > beta]); [`Ambiguous] when an interval straddles
    [beta] ([lo <= beta < hi] — the tuple is withheld and should be
    counted separately); [`Withhold] otherwise (provably at-or-below
    [beta], or [Failed]). *)
