(** Uniform entry point over the three strategy-finding algorithms.

    Wraps {!Heuristic}, {!Greedy} and {!Divide_conquer} behind one
    algorithm type and one outcome type, with wall-clock timing — the shape
    the PCQE engine and the benchmarks consume. *)

type algorithm =
  | Heuristic of Heuristic.config
  | Greedy of Greedy.config
  | Divide_conquer of Divide_conquer.config
  | Annealing of Annealing.config
      (** extra randomized baseline, not in the paper (see {!Annealing}) *)

val heuristic : algorithm
(** All four heuristics, no bound, exhaustive. *)

val heuristic_seeded : algorithm
(** All four heuristics with the greedy cost as initial bound (computed
    internally before the search, as in Fig. 11(d)). *)

val greedy : algorithm
(** Two-phase greedy with the paper-faithful full-rescan selection. *)

val divide_conquer : algorithm

val annealing : algorithm

val algorithm_name : algorithm -> string

type stats =
  | Heuristic_stats of Heuristic.stats
  | Greedy_stats of Greedy.stats
  | Divide_conquer_stats of Divide_conquer.stats
  | Annealing_stats of Annealing.stats
      (** structured per-algorithm telemetry; what [detail] used to
          flatten into a string *)

val stats_fields : stats -> (string * float) list
(** Flat labeled numbers, for metrics sinks and the JSONL bench artifact
    (booleans become 0/1). *)

val render_stats : stats -> string
(** ["k1=v1 k2=v2 …"] — the human-readable one-liner.  The heuristic's
    [stop_reason], when present, is appended as a quoted
    [stop_reason="…"] field. *)

type resolution =
  | Complete  (** the algorithm ran to its natural end *)
  | Partial of { reason : string }
      (** a deadline or budget stopped it early, or it found no solution
          on {!Problem.unpriceable} lineage; the outcome carries the
          best-so-far answer.  [solution], when [Some], is still {e
          feasible} — an infeasible best effort is reported as [None] —
          so a partial resolution degrades optimality, never
          compliance. *)

type outcome = {
  solution : (Lineage.Tid.t * float) list option;
      (** raised base tuples with target confidences; [None] if infeasible *)
  cost : float;  (** [infinity] when infeasible *)
  satisfied : int list;  (** rids satisfied under the solution *)
  optimal : bool;  (** guaranteed optimal on the δ-grid (heuristic only) *)
  resolution : resolution;
  elapsed_s : float;
  stats : stats;  (** structured solver telemetry *)
  detail : string;  (** [render_stats stats], kept for display call sites *)
}

val solve :
  ?algorithm:algorithm ->
  ?obs:Obs.t ->
  ?jobs:int ->
  ?pool:Exec.Pool.t ->
  ?deadline:Resilience.Deadline.t ->
  Problem.t ->
  outcome
(** [solve problem] runs the chosen algorithm (default {!divide_conquer} —
    the paper's best scaling choice) and times it.  With [obs], the run is
    recorded as a ["solve"] span (attribute [algorithm]) and the solver's
    counters/histograms land in the registry — including the sub-solver
    telemetry divide-and-conquer generates per group.

    Parallelism (divide-and-conquer only; the other algorithms are
    inherently sequential and ignore it):

    - [pool]: run partition groups on this pool (caller keeps ownership);
    - [jobs]: otherwise, resolve a level via {!Exec.resolve_jobs} — an
      explicit [jobs] wins ([0] = auto), then the [PCQE_JOBS] environment
      variable, defaulting to [1] — and spin up a transient pool when it
      exceeds 1.

    The outcome is bit-identical at every parallelism level.  The
    parallel phase is recorded as a ["parallel"] span with attributes
    [jobs] and [chunks] (number of partition groups).

    [deadline] (default {!Resilience.Deadline.never}) makes the solve
    {e anytime}: each algorithm polls the token cooperatively and, on
    expiry, returns its best-so-far feasible solution with
    [resolution = Partial].  A logical-budget token gives bit-identical
    cut points at any [jobs] level (divide-and-conquer splits the budget
    per group up front); a wall-clock token bounds latency.  A partial
    solve bumps the [resilience.solver_partial] counter and tags the
    ["solve"] span with a [resolution] attribute. *)
