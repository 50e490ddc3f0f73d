type algorithm =
  | Heuristic of Heuristic.config
  | Greedy of Greedy.config
  | Divide_conquer of Divide_conquer.config
  | Annealing of Annealing.config

let heuristic = Heuristic Heuristic.default_config

(* initial_bound = None is replaced by the greedy cost at solve time *)
let heuristic_seeded =
  Heuristic { Heuristic.default_config with initial_bound = Some nan }

let greedy = Greedy Greedy.default_config

let divide_conquer = Divide_conquer Divide_conquer.default_config

let annealing = Annealing Annealing.default_config

let algorithm_name = function
  | Heuristic { initial_bound = Some _; _ } -> "heuristic(seeded)"
  | Heuristic _ -> "heuristic"
  | Greedy { two_phase; selection; _ } ->
    Printf.sprintf "greedy(%s%s)"
      (if two_phase then "two-phase" else "one-phase")
      (match selection with
      | Greedy.Full_rescan -> ""
      | Greedy.Incremental -> ", incremental")
  | Divide_conquer _ -> "divide-and-conquer"
  | Annealing _ -> "simulated-annealing"

type stats =
  | Heuristic_stats of Heuristic.stats
  | Greedy_stats of Greedy.stats
  | Divide_conquer_stats of Divide_conquer.stats
  | Annealing_stats of Annealing.stats

(* trailing incremental-evaluation fields shared by every algorithm *)
let eval_fields (e : State.evals) dedup =
  [
    ("incremental_evals", float_of_int e.State.incremental_evals);
    ("full_evals", float_of_int e.State.full_evals);
    ("coeff_invalidations", float_of_int e.State.coeff_invalidations);
    ("dedup_formulas", float_of_int dedup);
  ]

let stats_fields = function
  | Heuristic_stats s ->
    [
      ("nodes", float_of_int s.Heuristic.nodes);
      ("bound_updates", float_of_int s.Heuristic.bound_updates);
      ("incumbent_prunes", float_of_int s.Heuristic.incumbent_prunes);
      ("h1_ordered", if s.Heuristic.h1_ordered then 1.0 else 0.0);
      ("h2_prunes", float_of_int s.Heuristic.h2_prunes);
      ("h3_prunes", float_of_int s.Heuristic.h3_prunes);
      ("h4_prunes", float_of_int s.Heuristic.h4_prunes);
      ("budget_exhausted", if s.Heuristic.budget_exhausted then 1.0 else 0.0);
    ]
    @ eval_fields s.Heuristic.evals s.Heuristic.dedup_formulas
  | Greedy_stats s ->
    [
      ("iterations", float_of_int s.Greedy.iterations);
      ("rollbacks", float_of_int s.Greedy.rollbacks);
      ("gain_evaluations", float_of_int s.Greedy.gain_evaluations);
      ("heap_pushes", float_of_int s.Greedy.heap_pushes);
      ("stale_pops", float_of_int s.Greedy.stale_pops);
    ]
    @ eval_fields s.Greedy.evals s.Greedy.dedup_formulas
  | Divide_conquer_stats s ->
    [
      ("groups", float_of_int s.Divide_conquer.num_groups);
      ("heuristic_groups", float_of_int s.Divide_conquer.heuristic_groups);
      ("rollbacks", float_of_int s.Divide_conquer.rollbacks);
      ("largest_group", float_of_int s.Divide_conquer.largest_group);
      ("smallest_group", float_of_int s.Divide_conquer.smallest_group);
      ("mean_group_size", s.Divide_conquer.mean_group_size);
      ("repair_iterations", float_of_int s.Divide_conquer.repair_iterations);
      ("swaps_applied", float_of_int s.Divide_conquer.swaps_applied);
    ]
    @ eval_fields s.Divide_conquer.evals s.Divide_conquer.dedup_formulas
  | Annealing_stats s ->
    [
      ("accepted_moves", float_of_int s.Annealing.accepted_moves);
      ("rejected_moves", float_of_int s.Annealing.rejected_moves);
      ("uphill_accepts", float_of_int s.Annealing.uphill_accepts);
      ("restarts", float_of_int s.Annealing.restarts);
      ("final_temperature", s.Annealing.final_temperature);
    ]
    @ eval_fields s.Annealing.evals s.Annealing.dedup_formulas

let render_stats stats =
  let fields =
    String.concat " "
      (List.map
         (fun (k, v) ->
           if Float.is_integer v && Float.abs v < 1e15 then
             Printf.sprintf "%s=%d" k (int_of_float v)
           else Printf.sprintf "%s=%g" k v)
         (stats_fields stats))
  in
  (* the one non-numeric field: why the search stopped early, if it did *)
  match stats with
  | Heuristic_stats { Heuristic.stop_reason = Some r; _ } ->
    Printf.sprintf "%s stop_reason=%S" fields r
  | _ -> fields

type resolution = Complete | Partial of { reason : string }

type outcome = {
  solution : (Lineage.Tid.t * float) list option;
  cost : float;
  satisfied : int list;
  optimal : bool;
  resolution : resolution;
  elapsed_s : float;
  stats : stats;
  detail : string;
}

let satisfied_of_solution problem solution =
  let st = State.create problem in
  List.iter
    (fun (tid, level) ->
      match Problem.bid_of_tid problem tid with
      | Some bid -> State.set_base st bid level
      | None -> ())
    solution;
  State.satisfied_results st

let resolution_of_stopped = function
  | None -> Complete
  | Some reason -> Partial { reason }

let solve ?(algorithm = divide_conquer) ?obs ?jobs ?pool
    ?(deadline = Resilience.Deadline.never) problem =
  let metrics = Option.map (fun (o : Obs.t) -> o.Obs.metrics) obs in
  let jobs =
    match pool with
    | Some p -> Exec.Pool.jobs p
    | None -> Exec.resolve_jobs ?jobs ()
  in
  (* Only divide-and-conquer has a parallel phase; run it under a
     [parallel] span recording the requested jobs and, post-join, the
     number of chunks (partition groups) the work was split into. *)
  let solve_dnc cfg =
    let run_groups pool =
      Obs.span obs
        ~attrs:[ ("jobs", string_of_int jobs) ]
        "parallel"
        (fun () ->
          (* capture the open [parallel] span: the group task spans are
             stitched under it after the join *)
          let fork = Obs.fork obs in
          let out =
            Divide_conquer.solve ~config:cfg ?metrics ?fork ?pool
              ~deadline problem
          in
          Obs.add_attr obs "chunks"
            (string_of_int out.Divide_conquer.num_groups);
          out)
    in
    match pool with
    | Some _ -> run_groups pool
    | None when jobs > 1 ->
      Exec.Pool.with_pool ~jobs (fun p -> run_groups (Some p))
    | None -> run_groups None
  in
  let run () =
    match algorithm with
    | Heuristic cfg ->
      let cfg =
        match cfg.Heuristic.initial_bound with
        | Some b when Float.is_nan b ->
          (* seeded variant: run greedy first for the upper bound (the
             shared deadline covers both runs) *)
          let g = Greedy.solve ?metrics ~deadline problem in
          {
            cfg with
            Heuristic.initial_bound =
              (if g.Greedy.feasible then Some g.Greedy.cost else None);
          }
        | _ -> cfg
      in
      let out = Heuristic.solve ~config:cfg ?metrics ~deadline problem in
      let satisfied =
        match out.Heuristic.solution with
        | Some s -> satisfied_of_solution problem s
        | None -> []
      in
      let stats = Heuristic_stats out.Heuristic.stats in
      {
        solution = out.Heuristic.solution;
        cost = out.Heuristic.cost;
        satisfied;
        optimal = out.Heuristic.optimal && out.Heuristic.solution <> None;
        resolution = resolution_of_stopped out.Heuristic.stopped;
        elapsed_s = 0.0;
        stats;
        detail = render_stats stats;
      }
    | Greedy cfg ->
      let out = Greedy.solve ~config:cfg ?metrics ~deadline problem in
      let stats = Greedy_stats out.Greedy.stats in
      {
        solution = (if out.Greedy.feasible then Some out.Greedy.solution else None);
        cost = (if out.Greedy.feasible then out.Greedy.cost else infinity);
        satisfied = out.Greedy.satisfied;
        optimal = false;
        resolution = resolution_of_stopped out.Greedy.stopped;
        elapsed_s = 0.0;
        stats;
        detail = render_stats stats;
      }
    | Divide_conquer cfg ->
      let out = solve_dnc cfg in
      let stats = Divide_conquer_stats out.Divide_conquer.stats in
      {
        solution =
          (if out.Divide_conquer.feasible then Some out.Divide_conquer.solution
           else None);
        cost =
          (if out.Divide_conquer.feasible then out.Divide_conquer.cost
           else infinity);
        satisfied = out.Divide_conquer.satisfied;
        optimal = false;
        resolution = resolution_of_stopped out.Divide_conquer.stopped;
        elapsed_s = 0.0;
        stats;
        detail = render_stats stats;
      }
    | Annealing cfg ->
      let out = Annealing.solve ~config:cfg ?metrics ~deadline problem in
      let stats = Annealing_stats out.Annealing.stats in
      {
        solution =
          (if out.Annealing.feasible then Some out.Annealing.solution else None);
        cost = (if out.Annealing.feasible then out.Annealing.cost else infinity);
        satisfied = out.Annealing.satisfied;
        optimal = false;
        resolution = resolution_of_stopped out.Annealing.stopped;
        elapsed_s = 0.0;
        stats;
        detail = render_stats stats;
      }
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Obs.span obs
      ~attrs:[ ("algorithm", algorithm_name algorithm) ]
      "solve"
      (fun () ->
        let out = run () in
        (* no solution on unpriceable lineage proves nothing *)
        let out =
          match out with
          | { solution = None; resolution = Complete; _ }
            when Problem.unpriceable problem > 0 ->
            { out with resolution = Partial { reason = "unpriceable lineage" } }
          | _ -> out
        in
        (match out.resolution with
        | Complete -> ()
        | Partial { reason } ->
          Obs.add_attr obs "resolution" (Printf.sprintf "partial: %s" reason);
          match metrics with
          | None -> ()
          | Some m -> Obs.Metrics.incr m "resilience.solver_partial");
        out)
  in
  { outcome with elapsed_s = Unix.gettimeofday () -. t0 }
