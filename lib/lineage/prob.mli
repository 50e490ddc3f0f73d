(** Confidence (probability) computation for lineage formulas.

    The model is tuple-level independence: base tuple [t] is present with
    probability [p t], independently of all others.  The confidence of a
    query result is the probability that its lineage formula is satisfied.

    Three evaluators are provided:

    - {!read_once}: linear time, exact, valid only for read-once formulas;
    - {!exact}: always exact; decomposes into independent subformulas and
      falls back to Shannon expansion on shared variables (exponential in
      the number of shared variables in the worst case — the general
      problem is #P-hard, cf. Dalvi–Suciu);
    - {!monte_carlo}: unbiased sampling estimator for formulas too entangled
      for {!exact}. *)

val read_once : (Tid.t -> float) -> Formula.t -> float
(** [read_once p f] evaluates [f] bottom-up with
    [P(And fs) = Π P(f)] and [P(Or fs) = 1 - Π (1 - P(f))].
    Exact iff [f] is read-once (no variable repeated); callers must ensure
    this (see {!Formula.is_read_once}). *)

val shared_vars : (Formula.t -> Tid.Set.t) -> Formula.t list -> Tid.Set.t
(** [shared_vars vars_of fs] is the set of variables occurring in more
    than one of the sibling subformulas [fs] ([vars_of] is the caller's,
    typically memoized, variable-set function).  Empty iff the siblings
    are independent and their probabilities compose directly. *)

val most_shared :
  (Formula.t -> Tid.Set.t) -> Formula.t list -> Tid.Set.t -> Tid.t
(** [most_shared vars_of fs shared] picks the variable of the non-empty
    [shared] that occurs in the most siblings (ties: the smallest) — the
    Shannon pivot that maximally decouples the rest.  {!exact} and
    {!Circuit.compile} share these two functions, so they take the same
    decomposition at every step. *)

val exact : (Tid.t -> float) -> Formula.t -> float
(** [exact p f] computes the exact probability of [f].  Uses independent
    decomposition where sibling subformulas share no variables, and Shannon
    expansion on the most-shared variable otherwise, with memoization. *)

val shannon_cost_estimate : Formula.t -> int
(** [shannon_cost_estimate f] is a crude upper bound on the number of
    Shannon expansions {!exact} may perform ([2^s] capped at [max_int/2],
    where [s] is the number of variables occurring more than once).  Useful
    to decide between {!exact} and {!monte_carlo}. *)

exception Deadline_expired
(** Raised by {!monte_carlo} when its [deadline] has expired before a
    chunk starts. *)

val monte_carlo :
  ?deadline:Resilience.Deadline.t ->
  ?chunk:int ->
  Prng.Splitmix.t ->
  samples:int ->
  (Tid.t -> float) ->
  Formula.t ->
  float
(** [monte_carlo rng ~samples p f] estimates the probability of [f] by
    drawing [samples] independent worlds.  Standard error is at most
    [0.5 / sqrt samples].

    Samples are drawn in chunks of [chunk] (default 4096) worlds, each
    chunk from its own generator split off [rng] up front, so the
    estimate is a pure function of [rng], [samples] and [chunk].

    [deadline] (default {!Resilience.Deadline.never}) is checked before
    every chunk; once it has expired the call raises {!Deadline_expired}
    instead of drawing further worlds. *)
