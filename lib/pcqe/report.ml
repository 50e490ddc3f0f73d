let table headers body =
  let rows = headers :: body in
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    rows;
  let line =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let render cells =
    "|"
    ^ String.concat "|"
        (List.mapi (fun i cell -> Printf.sprintf " %-*s " widths.(i) cell) cells)
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line ^ "\n" ^ render headers ^ "\n" ^ line ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render r ^ "\n")) body;
  Buffer.add_string buf line;
  Buffer.contents buf

let proposal_to_string (p : Engine.proposal) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "Improvement proposal (%s, %.3fs, %s):\n  total cost: %.2f\n  would release %d result(s)\n"
       p.Engine.solver_name p.Engine.elapsed_s p.Engine.solver_detail
       p.Engine.cost p.Engine.projected_release);
  (match p.Engine.resolution with
  | Optimize.Solver.Complete -> ()
  | Optimize.Solver.Partial { reason } ->
    Buffer.add_string buf
      (Printf.sprintf
         "  DEGRADED: %s — best feasible plan found so far, possibly not \
          the cheapest\n"
         reason));
  List.iter
    (fun (tid, target) ->
      Buffer.add_string buf
        (Printf.sprintf "  raise %s to confidence %.2f\n"
           (Lineage.Tid.to_string tid) target))
    p.Engine.increments;
  Buffer.contents buf

let response_to_string ?max_rows (r : Engine.response) =
  let buf = Buffer.create 512 in
  (match r.Engine.threshold with
  | Some beta ->
    Buffer.add_string buf
      (Printf.sprintf "Policy threshold in force: confidence > %g\n" beta);
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "  applied policy %s\n" (Rbac.Policy.to_string p)))
      r.Engine.applied_policies
  | None ->
    Buffer.add_string buf "No confidence policy applies to this request.\n");
  let all_rows = r.Engine.released in
  let shown, elided =
    match max_rows with
    | Some n when List.length all_rows > n ->
      (List.filteri (fun i _ -> i < n) all_rows, List.length all_rows - n)
    | _ -> (all_rows, 0)
  in
  if shown = [] then Buffer.add_string buf "Released results: none\n"
  else begin
    let headers =
      Relational.Schema.column_names r.Engine.schema @ [ "confidence" ]
    in
    let body =
      List.map
        (fun (row : Engine.released) ->
          List.map Relational.Value.to_string
            (Array.to_list (Relational.Tuple.values row.Engine.tuple))
          @ [ Printf.sprintf "%.4f" row.Engine.confidence ])
        shown
    in
    Buffer.add_string buf (table headers body);
    Buffer.add_char buf '\n';
    if elided > 0 then
      Buffer.add_string buf (Printf.sprintf "... %d more row(s)\n" elided)
  end;
  if r.Engine.withheld > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "%d result(s) withheld by the confidence policy (%d released of the \
          %d the request requires).\n"
         r.Engine.withheld
         (List.length r.Engine.released)
         r.Engine.requested);
  if r.Engine.ambiguous > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "%d of the withheld result(s) had a confidence interval straddling \
          the threshold (withheld fail-closed).\n"
         r.Engine.ambiguous);
  (match r.Engine.proposal with
  | Some p -> Buffer.add_string buf (proposal_to_string p)
  | None ->
    if r.Engine.infeasible then
      Buffer.add_string buf
        "No feasible confidence-improvement strategy exists (caps too low).\n"
    else (
      match r.Engine.degraded with
      | Some reason ->
        Buffer.add_string buf
          (Printf.sprintf
             "DEGRADED: strategy finding ended without a feasible plan \
              (%s); that proves nothing about feasibility.\n"
             reason)
      | None -> ()));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Per-request profile: the annotated plan (per-stage elapsed time and
   allocation) followed by the counter deltas grouped by what they
   attribute — cache behaviour, ladder rungs, engine accounting, solver
   work — so a reader sees where the request's time, memory and cache
   traffic went without knowing the counter namespace *)

let profile_to_string ?time (p : Obs.Profile.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Obs.Profile.render ?time { p with Obs.Profile.counters = [] });
  let remaining = ref p.Obs.Profile.counters in
  let section title prefixes =
    let mine, rest =
      List.partition
        (fun (name, _) ->
          List.exists (fun prefix -> String.starts_with ~prefix name) prefixes)
        !remaining
    in
    remaining := rest;
    if mine <> [] then begin
      Buffer.add_string buf (title ^ ":\n");
      List.iter
        (fun (name, d) ->
          Buffer.add_string buf (Printf.sprintf "  %-38s %+d\n" name d))
        mine
    end
  in
  section "cache attribution" [ "prepared."; "serving."; "cache." ];
  section "confidence ladder" [ "ladder." ];
  section "engine" [ "engine." ];
  section "solver" [ "dnc."; "greedy."; "heuristic."; "annealing." ];
  section "resilience" [ "resilience." ];
  section "other counters" [ "" ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE-style timed plan: the engine's span tree (per-stage
   elapsed time, rows in/out as span attributes) plus the release
   accounting of the response it timed *)

let timed_to_string ?response ?(with_metrics = false) (obs : Obs.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Timed plan (per-stage elapsed, rows in/out):\n";
  Buffer.add_string buf (Obs.Trace.render obs.Obs.trace);
  (match response with
  | None -> ()
  | Some (r : Engine.response) ->
    Buffer.add_string buf
      (Printf.sprintf "released=%d withheld=%d requested=%d%s\n"
         (List.length r.Engine.released)
         r.Engine.withheld r.Engine.requested
         (if r.Engine.ambiguous > 0 then
            Printf.sprintf " ambiguous=%d" r.Engine.ambiguous
          else "")));
  if with_metrics then begin
    let metrics = Obs.Metrics.render obs.Obs.metrics in
    if metrics <> "" then begin
      Buffer.add_string buf "Metrics:\n";
      Buffer.add_string buf metrics
    end
  end;
  Buffer.contents buf
