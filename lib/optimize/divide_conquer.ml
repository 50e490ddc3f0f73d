module Tid = Lineage.Tid

type quota = Min_x_y | Proportional

type config = {
  partition : Partition.config;
  tau : int;
  greedy : Greedy.config;
  heuristic_max_nodes : int option;
  quota : quota;
}

let default_config =
  {
    partition = Partition.default_config;
    tau = 12;
    greedy = Greedy.default_config;
    heuristic_max_nodes = Some 50_000;
    quota = Proportional;
  }

type stats = {
  num_groups : int;
  heuristic_groups : int;
  rollbacks : int;
  largest_group : int;  (** bases in the biggest partition group *)
  smallest_group : int;
  mean_group_size : float;
  repair_iterations : int;  (** greedy increments spent closing the quota gap *)
  swaps_applied : int;  (** local-search group replacements kept *)
  evals : State.evals;  (** group sub-solves plus the global combine state *)
  dedup_formulas : int;  (** of the global instance *)
}

let empty_stats =
  {
    num_groups = 0;
    heuristic_groups = 0;
    rollbacks = 0;
    largest_group = 0;
    smallest_group = 0;
    mean_group_size = 0.0;
    repair_iterations = 0;
    swaps_applied = 0;
    evals = State.no_evals;
    dedup_formulas = 0;
  }

type outcome = {
  solution : (Tid.t * float) list;
  cost : float;
  satisfied : int list;
  feasible : bool;
  stopped : string option;
  num_groups : int;
  heuristic_groups : int;
  rollbacks : int;
  stats : stats;
}

(* Build the sub-instance of one partition group.

   The per-group quota decides how many of the group's [x] results the
   sub-solver must satisfy.  The paper's rule is [min x y] (y = the global
   requirement), which over-satisfies massively when groups are small and
   numerous -- every result of every group gets fixed, and the refinement
   can only undo so much.  The default [Proportional] quota asks each group
   for its fair share [ceil (x * y / n)] of the global requirement and lets
   a global greedy repair pass make up any shortfall; the benches ablate
   both (see DESIGN.md).  Circuits come from the parent's read-only table. *)
let subproblem config problem ~deadline members group_bids =
  let bases = List.map (Problem.base problem) group_bids in
  let formulas =
    List.map (fun rid -> (Problem.result problem rid).Problem.formula) members
  in
  let x = List.length members in
  let y = Problem.required problem in
  let n = Problem.num_results problem in
  let required =
    match config.quota with
    | Min_x_y -> min x y
    | Proportional ->
      if n = 0 then 0
      else
        min x
          (int_of_float
             (ceil (float_of_int x *. float_of_int y /. float_of_int n)))
  in
  Problem.make_exn
    ~delta:(Problem.delta problem)
    ~incremental:(Problem.incremental problem)
    ~deadline ~circuit:(Problem.circuit problem)
    ~beta:(Problem.beta problem)
    ~required ~bases ~formulas ()

(* Phase-2 style rollback on the combined global state: walk raised bases
   in ascending current-gain* order and undo increments that are not
   needed to keep [required] results satisfied. *)
let refine deadline st =
  let problem = State.problem st in
  let required = Problem.required problem in
  let delta = Problem.delta problem in
  let raised = State.raised_bases st in
  let keyed =
    List.map (fun bid -> (State.gain st bid ~only_unsatisfied:false delta, bid)) raised
  in
  let order =
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) keyed)
  in
  let rollbacks = ref 0 in
  List.iter
    (fun bid ->
      let continue_ = ref true in
      (* rollback only strips redundant increments, so stopping on expiry
         keeps the solution feasible *)
      while
        !continue_
        && State.satisfied_count st >= required
        && not (Resilience.Deadline.expired deadline)
      do
        Resilience.Deadline.tick deadline;
        if State.lower_by_delta st bid then
          if State.satisfied_count st < required then begin
            ignore (State.raise_by_delta st bid);
            continue_ := false
          end
          else incr rollbacks
        else continue_ := false
      done)
    order;
  !rollbacks

(* One partition group solved end to end.  Each invocation builds its own
   sub-problem, its own solver state, and (when the caller records
   metrics) its own private registry — nothing here touches shared mutable
   state, which is what lets the groups run on separate domains with
   bit-identical results to the sequential order. *)
type group_outcome = {
  g_cost : float;
  g_members : int list;
  g_solution : (Tid.t * float) list;
  g_heuristic : bool;  (** the branch-and-bound refinement ran *)
  g_metrics : Obs.Metrics.t option;
  g_spans : Obs.Trace.span list;
      (** completed task spans, stitched under the caller post-join *)
  g_evals : State.evals;  (** greedy + branch-and-bound sub-solve evals *)
}

let solve_group config problem parts ~with_metrics ~fork ~deadline gid members
    =
  let metrics = if with_metrics then Some (Obs.Metrics.create ()) else None in
  let group_bids = parts.Partition.group_bases.(gid) in
  (* the whole group solve runs inside one per-task span (recorded into a
     private subtracer, safe on any domain); the spans come back in the
     outcome and the orchestrator stitches them in group order *)
  let out, g_spans =
    Obs.task fork
      ~attrs:
        [
          ("group", string_of_int gid);
          ("bases", string_of_int (List.length group_bids));
          ("results", string_of_int (List.length members));
        ]
      "group"
      (fun sub_trace ->
        let sub_span name f =
          match sub_trace with
          | Some tr -> Obs.Trace.span tr name f
          | None -> f ()
        in
        let sub = subproblem config problem ~deadline members group_bids in
        let greedy_out =
          sub_span "greedy" (fun () ->
              Greedy.solve ~config:config.greedy ?metrics ~deadline sub)
        in
        let g_heuristic = List.length group_bids < config.tau in
        let g_solution, g_cost, g_evals =
          if g_heuristic then begin
            let bound =
              if greedy_out.Greedy.feasible then Some greedy_out.Greedy.cost
              else None
            in
            let h_out =
              sub_span "heuristic" (fun () ->
                  Heuristic.solve
                    ~config:
                      {
                        Heuristic.heuristics = Heuristic.all_heuristics;
                        initial_bound = bound;
                        max_nodes = config.heuristic_max_nodes;
                      }
                    ?metrics ~deadline sub)
            in
            let evals =
              State.add_evals greedy_out.Greedy.stats.Greedy.evals
                h_out.Heuristic.stats.Heuristic.evals
            in
            match h_out.Heuristic.solution with
            | Some s when h_out.Heuristic.cost < greedy_out.Greedy.cost ->
              (s, h_out.Heuristic.cost, evals)
            | _ -> (greedy_out.Greedy.solution, greedy_out.Greedy.cost, evals)
          end
          else
            ( greedy_out.Greedy.solution,
              greedy_out.Greedy.cost,
              greedy_out.Greedy.stats.Greedy.evals )
        in
        (g_solution, g_cost, g_heuristic, g_evals))
  in
  let g_solution, g_cost, g_heuristic, g_evals = out in
  {
    g_cost;
    g_members = members;
    g_solution;
    g_heuristic;
    g_metrics = metrics;
    g_spans;
    g_evals;
  }

let solve ?(config = default_config) ?metrics ?fork ?pool
    ?(deadline = Resilience.Deadline.never) problem =
  let parts = Partition.partition ~config:config.partition problem in
  let num_groups = Partition.num_groups parts in
  let group_sizes =
    Array.map (fun bids -> List.length bids) parts.Partition.group_bases
  in
  (match metrics with
  | None -> ()
  | Some m ->
    Array.iter
      (fun size -> Obs.Metrics.observe m "dnc.group_size" (float_of_int size))
      group_sizes);
  (* Carve the remaining budget into one independent sub-token per group
     *before* the fan-out: each group's cut point is then a function of
     its own share, never of how groups were scheduled across domains, so
     logical-budget runs stay bit-identical at any jobs level. *)
  let subs =
    if num_groups > 0 then Resilience.Deadline.split deadline num_groups
    else [||]
  in
  let solve_group gid members =
    solve_group config problem parts ~with_metrics:(metrics <> None) ~fork
      ~deadline:subs.(gid) gid members
  in
  let group_outcomes =
    match pool with
    | Some pool when Exec.Pool.jobs pool > 1 ->
      (* chunk = 1: groups are heavy and uneven, claim them one by one *)
      Exec.Pool.mapi_array ~chunk:1 pool solve_group parts.Partition.groups
    | _ -> Array.mapi solve_group parts.Partition.groups
  in
  Resilience.Deadline.absorb deadline subs;
  (* graft the per-group task spans under the caller's open span, in
     group order: the stitched tree is then identical at any jobs level *)
  Obs.stitch fork (Array.map (fun g -> g.g_spans) group_outcomes);
  let groups_stopped = Array.exists Resilience.Deadline.expired subs in
  (* deterministic post-join aggregation: fold the per-group registries
     into the caller's in group order, count refinements in group order *)
  (match metrics with
  | None -> ()
  | Some m ->
    Array.iter
      (fun g ->
        match g.g_metrics with
        | Some gm -> Obs.Metrics.merge ~into:m gm
        | None -> ())
      group_outcomes);
  let heuristic_groups = ref 0 in
  Array.iter
    (fun g -> if g.g_heuristic then incr heuristic_groups)
    group_outcomes;
  (* per-group solutions: (cost, members, increments) *)
  let group_solutions =
    Array.map (fun g -> (g.g_cost, g.g_members, g.g_solution)) group_outcomes
  in
  (* combination on the global instance: overlapping bases take the max
     target across groups *)
  let st = State.create problem in
  let kept = Array.make num_groups true in
  (* which groups raise which base, and to what level *)
  let contributions : (int * float) list Tid.Table.t = Tid.Table.create 256 in
  Array.iteri
    (fun gid (_, _, solution) ->
      List.iter
        (fun (tid, level) ->
          let prior =
            Option.value ~default:[] (Tid.Table.find_opt contributions tid)
          in
          Tid.Table.replace contributions tid ((gid, level) :: prior))
        solution)
    group_solutions;
  (* set one base to the max target over kept groups *)
  let sync_base tid =
    match Problem.bid_of_tid problem tid with
    | None -> ()
    | Some bid ->
      let b = Problem.base problem bid in
      let target =
        List.fold_left
          (fun acc (gid, level) ->
            if kept.(gid) then Float.max acc level else acc)
          b.Problem.p0
          (Option.value ~default:[] (Tid.Table.find_opt contributions tid))
      in
      if Float.abs (State.base_level st bid -. target) > 1e-12 then
        State.set_base st bid target
  in
  Tid.Table.iter (fun tid _ -> sync_base tid) contributions;
  (* group-level refinement: drop whole group solutions, most expensive per
     member result first, while the requirement stays satisfied.  Because
     the solved groups jointly over-satisfy (each solves min(x, required)
     results), most of them are redundant; dropping at group granularity
     matches the per-group structure of the increments, which blind
     per-base rollback cannot recover. *)
  let required = Problem.required problem in
  let order =
    List.sort
      (fun a b ->
        let cost_per (c, m, _) = c /. float_of_int (max 1 (List.length m)) in
        Float.compare
          (cost_per group_solutions.(b))
          (cost_per group_solutions.(a)))
      (List.init num_groups Fun.id)
  in
  List.iter
    (fun gid ->
      let cost, _, solution = group_solutions.(gid) in
      if
        cost > 0.0 && solution <> []
        && State.satisfied_count st > required
        && not (Resilience.Deadline.expired deadline)
      then begin
        Resilience.Deadline.tick deadline;
        kept.(gid) <- false;
        List.iter (fun (tid, _) -> sync_base tid) solution;
        if State.satisfied_count st < required then begin
          kept.(gid) <- true;
          List.iter (fun (tid, _) -> sync_base tid) solution
        end
      end)
    order;
  (* repair: proportional quotas may leave the global requirement slightly
     short; finish with the greedy on the combined state *)
  let repair_config =
    { config.greedy with Greedy.selection = Greedy.Incremental }
  in
  let repair_iterations = ref 0 in
  (* evals the repair greedy already reported to [metrics] (deltas per
     [solve_state] call), so the final emission below does not recount them *)
  let repair_evals = ref State.no_evals in
  if State.satisfied_count st < Problem.required problem then begin
    let out = Greedy.solve_state ~config:repair_config ?metrics ~deadline st in
    repair_iterations := !repair_iterations + out.Greedy.iterations;
    repair_evals := State.add_evals !repair_evals out.Greedy.stats.Greedy.evals
  end;
  (* swap local search: partition-local quotas can strand effort in groups
     whose results are expensive to lift.  Tentatively zero out the worst
     cost-per-result group solutions one at a time, let the global greedy
     repair the shortfall wherever it is cheapest, and keep the move only
     when the total cost drops. *)
  let trials = min 20 num_groups in
  let by_realized_cost =
    List.filter
      (fun gid ->
        let c, _, s = group_solutions.(gid) in
        kept.(gid) && c > 0.0 && s <> [])
      (List.init num_groups Fun.id)
    |> List.sort (fun a b ->
           let cost_per (c, m, _) = c /. float_of_int (max 1 (List.length m)) in
           Float.compare
             (cost_per group_solutions.(b))
             (cost_per group_solutions.(a)))
  in
  let swaps_applied = ref 0 in
  let rec swap_loop tried = function
    | [] -> ()
    | gid :: rest
      when tried < trials && not (Resilience.Deadline.expired deadline) ->
      let _, _, solution = group_solutions.(gid) in
      let before_cost = State.cost st in
      let saved = State.snapshot st in
      kept.(gid) <- false;
      List.iter (fun (tid, _) -> sync_base tid) solution;
      if State.satisfied_count st < Problem.required problem then begin
        let out = Greedy.solve_state ~config:repair_config ?metrics ~deadline st in
        repair_iterations := !repair_iterations + out.Greedy.iterations;
        repair_evals :=
          State.add_evals !repair_evals out.Greedy.stats.Greedy.evals
      end;
      if
        State.satisfied_count st >= Problem.required problem
        && State.cost st < before_cost -. 1e-9
      then begin
        incr swaps_applied;
        swap_loop (tried + 1) rest
      end
      else begin
        kept.(gid) <- true;
        State.restore st saved;
        swap_loop (tried + 1) rest
      end
    | _ -> ()
  in
  swap_loop 0 by_realized_cost;
  (* final polish: the paper's per-base delta rollback *)
  let rollbacks = refine deadline st in
  let stopped =
    if Resilience.Deadline.expired deadline then
      Some (Resilience.Deadline.reason deadline)
    else if groups_stopped then
      (* a per-group share ran out even though the parent still has
         budget (integer division of the remainder) *)
      Some
        (match
           Array.to_list subs
           |> List.find_opt Resilience.Deadline.expired
         with
        | Some sub -> Resilience.Deadline.reason sub
        | None -> "group budget exhausted")
    else None
  in
  (* total evals: group sub-solves plus everything on the global combine
     state (whose lifetime counters already include the repair passes) *)
  let group_evals =
    Array.fold_left
      (fun acc g -> State.add_evals acc g.g_evals)
      State.no_evals group_outcomes
  in
  let evals = State.add_evals group_evals (State.evals st) in
  let stats =
    {
      num_groups;
      heuristic_groups = !heuristic_groups;
      rollbacks;
      largest_group = Array.fold_left max 0 group_sizes;
      smallest_group =
        (if num_groups = 0 then 0 else Array.fold_left min max_int group_sizes);
      mean_group_size =
        (if num_groups = 0 then 0.0
         else
           float_of_int (Array.fold_left ( + ) 0 group_sizes)
           /. float_of_int num_groups);
      repair_iterations = !repair_iterations;
      swaps_applied = !swaps_applied;
      evals;
      dedup_formulas = Problem.dedup_formulas problem;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
    Obs.Metrics.incr m ~by:num_groups "dnc.groups";
    Obs.Metrics.incr m ~by:!heuristic_groups "dnc.heuristic_groups";
    Obs.Metrics.incr m ~by:rollbacks "dnc.rollbacks";
    Obs.Metrics.incr m ~by:!repair_iterations "dnc.repair_iterations";
    Obs.Metrics.incr m ~by:!swaps_applied "dnc.swaps_applied";
    (* group registries (merged above) and the repair greedy already
       carry their own [state.*] increments; emit only the global combine
       state's remainder *)
    State.record_evals m (State.evals_since st !repair_evals);
    Obs.Metrics.observe m "problem.dedup_formulas"
      (float_of_int (Problem.dedup_formulas problem)));
  {
    solution = State.solution st;
    cost = State.cost st;
    satisfied = State.satisfied_results st;
    feasible = State.satisfied_count st >= Problem.required problem;
    stopped;
    num_groups;
    heuristic_groups = !heuristic_groups;
    rollbacks;
    stats;
  }
