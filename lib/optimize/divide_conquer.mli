(** The divide-and-conquer algorithm (§4.3, Fig. 10 of the paper).

    1. Partition the intermediate result tuples into groups with the
       lightweight max-weight merging scheme ({!Partition}).
    2. Solve each group independently with the two-phase greedy; groups
       whose base-tuple count is below τ are additionally refined with the
       branch-and-bound heuristic, seeded with the greedy cost as the
       initial upper bound (the paper: "the results obtained from the
       greedy algorithm serve as initial cost upper bounds").  Each group
       solves for [min(x, required)] results, where [x] is the group's
       result count.
    3. Combine: overlapping base tuples take the {e maximum} target
       confidence across group solutions, which can only increase any
       result's confidence.
    4. Refine: roll back increments in ascending-gain* order while the
       global instance keeps [required] results satisfied (the phase-2
       style rollback). *)

type quota =
  | Min_x_y
      (** the paper's rule: each group solves for [min x y] results, where
          [x] is the group's result count and [y] the global requirement.
          Over-satisfies when groups are small and numerous. *)
  | Proportional
      (** each group solves for its fair share [ceil (x*y/n)] of the global
          requirement; a global greedy repair pass covers any shortfall
          after combination.  Default; ablated against [Min_x_y] in the
          benches. *)

type config = {
  partition : Partition.config;
  tau : int;
      (** run the per-group heuristic when the group has fewer than [tau]
          base tuples (default 12) *)
  greedy : Greedy.config;
  heuristic_max_nodes : int option;
      (** node budget for each per-group branch-and-bound (default
          [Some 50_000]) *)
  quota : quota;
}

val default_config : config

type stats = {
  num_groups : int;
  heuristic_groups : int;
  rollbacks : int;
  largest_group : int;  (** base tuples in the biggest partition group *)
  smallest_group : int;
  mean_group_size : float;
  repair_iterations : int;
      (** greedy increments spent closing the proportional-quota shortfall
          (global repair plus swap-local-search repairs) *)
  swaps_applied : int;  (** local-search group replacements kept *)
  evals : State.evals;
      (** lineage-evaluation counters: group sub-solves plus the global
          combine/repair/refine state, aggregated in group order (so the
          totals are identical at any [jobs] level) *)
  dedup_formulas : int;  (** {!Problem.dedup_formulas} of the global instance *)
}

val empty_stats : stats

type outcome = {
  solution : (Lineage.Tid.t * float) list;
  cost : float;
  satisfied : int list;
  feasible : bool;
  stopped : string option;
      (** [Some reason] when a deadline cut any phase short — a per-group
          share during the parallel sub-solves, or the parent token during
          combine/repair/swap/refine.  The combined best-so-far solution
          is still returned and [feasible] reports whether it meets the
          requirement. *)
  num_groups : int;  (** = [stats.num_groups] *)
  heuristic_groups : int;  (** groups small enough for branch-and-bound *)
  rollbacks : int;  (** refinement decrements kept *)
  stats : stats;
}

val solve :
  ?config:config ->
  ?metrics:Obs.Metrics.t ->
  ?fork:Obs.task_ctx ->
  ?pool:Exec.Pool.t ->
  ?deadline:Resilience.Deadline.t ->
  Problem.t ->
  outcome
(** [metrics] additionally receives a [dnc.group_size] histogram (one
    observation per partition group), [dnc.*] counters, and aggregated
    [greedy.*] and [heuristic.*] counters across all groups: each group's
    sub-solvers write into a private registry which is merged back in
    group order ({!Obs.Metrics.merge}), so the totals are identical
    whether groups run sequentially or on [pool].

    [fork] (an {!Obs.fork} capture taken while the caller's solve span is
    open) makes each group solve record a ["group"] task span — with
    [greedy]/[heuristic] child spans and group-size attributes — into a
    private per-task subtracer; after the join the spans are stitched
    under the captured span in group order, so the trace tree is the same
    at any [jobs] level.

    [pool] solves the partition groups on the pool's domains.  Every
    group builds its own sub-problem, solver state, and registry, so the
    outcome — solution, cost, stats, and merged metrics — is bit-identical
    to the sequential run at any pool size.

    [deadline] (default {!Resilience.Deadline.never}) bounds the whole
    solve.  The remaining budget is {!Resilience.Deadline.split} into one
    independent sub-token per partition group {e before} the fan-out and
    {!Resilience.Deadline.absorb}ed after the join, so each group's cut
    point depends only on its own share — logical-budget outcomes stay
    bit-identical at any [jobs] level.  The sequential
    combine/repair/swap/refine phases poll the parent token. *)
