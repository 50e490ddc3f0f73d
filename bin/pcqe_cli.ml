(* pcqe — command-line front end for the PCQE engine.

   Subcommands:
     query   run a SQL query over CSV relations under a confidence policy
             (accepts --workspace DIR or individual --data/--rbac/
             --policies/--costs flags; --apply accepts the proposal)
     batch   answer a 'user|purpose|perc|SQL' request file through one
             warm serving session (prepared plans + confidence caches;
             --repeat N re-runs the file, --stats prints cache counters)
     repl    interactive SQL session over a workspace, with \prepare,
             \exec, \caches, \apply, \explain, \profile, \audit and \save
     explain profile a query through a warm serving session: annotated
             plan with per-stage elapsed time, allocation, cache
             attribution and confidence-ladder rungs
     plan    show the relational-algebra plan of a SQL query
     solve   generate a synthetic confidence-increment instance (Table 4
             parameters) and run one of the four strategy-finding
             algorithms on it
     export  print a relation (with confidences) back as CSV

   RBAC file format (one directive per line, '#' comments):
     role <name>
     user <name>
     assign <user> <role>
     inherit <senior> <junior>
     grant <role> <action> <resource>

   Policy file format: "<role>, <purpose>, <beta>" per line. *)

module Db = Relational.Database

let ( let* ) = Result.bind

let read_file path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Ok s
  with Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* CSV data directory loading: every *.csv file becomes a relation named
   after the file *)

let load_data_dir dir =
  let* entries =
    try Ok (Sys.readdir dir) with Sys_error msg -> Error msg
  in
  let csvs =
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".csv")
    |> List.sort String.compare
  in
  if csvs = [] then Error (Printf.sprintf "no .csv files in %s" dir)
  else
    List.fold_left
      (fun acc file ->
        let* db = acc in
        let name = Filename.remove_extension file in
        Relational.Csv.load_file db ~name (Filename.concat dir file))
      (Ok Db.empty) csvs

(* cost file: one "<tid> <cost spec>" per line, plus an optional
   "default <cost spec>" line; '#' comments allowed *)
let parse_costs text =
  let lines = String.split_on_char '\n' text in
  let table : (Lineage.Tid.t, Cost.Cost_model.t) Hashtbl.t = Hashtbl.create 16 in
  let default = ref (Cost.Cost_model.linear ~rate:100.0) in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) rest
      else
        match String.index_opt trimmed ' ' with
        | None -> Error (Printf.sprintf "costs line %d: missing spec" lineno)
        | Some i -> (
          let head = String.sub trimmed 0 i in
          let spec = String.sub trimmed i (String.length trimmed - i) in
          match Cost.Cost_model.parse spec with
          | Error msg -> Error (Printf.sprintf "costs line %d: %s" lineno msg)
          | Ok cost ->
            if head = "default" then begin
              default := cost;
              go (lineno + 1) rest
            end
            else (
              match Lineage.Tid.of_string head with
              | Some tid ->
                Hashtbl.replace table tid cost;
                go (lineno + 1) rest
              | None ->
                Error
                  (Printf.sprintf "costs line %d: bad tuple id %S" lineno head))))
  in
  let* () = go 1 lines in
  Ok
    (fun tid ->
      match Hashtbl.find_opt table tid with Some c -> c | None -> !default)

let solver_of_string = function
  | "heuristic" -> Ok Optimize.Solver.heuristic
  | "heuristic-seeded" -> Ok Optimize.Solver.heuristic_seeded
  | "greedy" -> Ok Optimize.Solver.greedy
  | "greedy-1p" ->
    Ok
      (Optimize.Solver.Greedy
         { Optimize.Greedy.default_config with two_phase = false })
  | "dnc" | "divide-and-conquer" -> Ok Optimize.Solver.divide_conquer
  | "annealing" -> Ok Optimize.Solver.annealing
  | s -> Error (Printf.sprintf "unknown solver %S" s)

(* ------------------------------------------------------------------ *)
(* query subcommand *)

let build_context workspace data_dir rbac_file policy_file costs_file solver =
  let* solver = solver_of_string solver in
  match workspace with
  | Some dir ->
    let* w = Pcqe.Workspace.load ~solver dir in
    Ok w.Pcqe.Workspace.context
  | None ->
    let need what = function
      | Some v -> Ok v
      | None ->
        Error
          (Printf.sprintf "either --workspace or --%s is required" what)
    in
    let* data_dir = need "data" data_dir in
    let* rbac_file = need "rbac" rbac_file in
    let* policy_file = need "policies" policy_file in
    let* db = load_data_dir data_dir in
    let* rbac_text = read_file rbac_file in
    let* rbac = Rbac.Config.parse rbac_text in
    let* policy_text = read_file policy_file in
    let* policies = Rbac.Policy.parse_store policy_text in
    let* cost_of =
      match costs_file with
      | None -> Ok (fun _ -> Cost.Cost_model.linear ~rate:100.0)
      | Some path ->
        let* text = read_file path in
        parse_costs text
    in
    Ok (Pcqe.Engine.make_context ~solver ~cost_of ~db ~rbac ~policies ())

(* when --trace or --metrics-out asks for observability, build a
   wall-clock handle and write the records out on exit in the requested
   exposition format *)
let with_obs ~trace ~metrics_out ~metrics_format f =
  let* write =
    match metrics_format with
    | "json" -> Ok (fun obs oc -> Obs.drain obs (Obs.Sink.jsonl oc))
    | "openmetrics" ->
      Ok
        (fun (obs : Obs.t) oc ->
          output_string oc (Obs.Metrics.to_openmetrics obs.Obs.metrics))
    | "text" -> Ok (fun obs oc -> output_string oc (Obs.report obs))
    | s ->
      Error
        (Printf.sprintf
           "--metrics-format %S: need text, json, or openmetrics" s)
  in
  if (not trace) && metrics_out = None then f None
  else begin
    let obs = Obs.wall () in
    let result = f (Some obs) in
    match metrics_out with
    | None -> result
    | Some path -> (
      try
        let oc = open_out path in
        write obs oc;
        close_out oc;
        result
      with Sys_error msg -> (
        match result with
        | Ok () -> Error (Printf.sprintf "cannot write metrics: %s" msg)
        | Error _ -> result))
  end

let deadline_spec_of_ms = function
  | None -> Ok Resilience.Deadline.No_deadline
  | Some ms when ms > 0.0 -> Ok (Resilience.Deadline.Wall_ms ms)
  | Some ms -> Error (Printf.sprintf "--deadline-ms %g: need a positive budget" ms)

(* --top K: rank released rows by confidence with a bounded heap (O(n log
   K)) instead of sorting the whole result. *)
let print_top_released k (resp : Pcqe.Engine.response) =
  let top =
    Topk.by_score ~k (fun r -> r.Pcqe.Engine.confidence) resp.Pcqe.Engine.released
  in
  Printf.printf "\nTop %d released by confidence:\n" k;
  List.iter
    (fun (r : Pcqe.Engine.released) ->
      Printf.printf "  %.6f  %s\n" r.Pcqe.Engine.confidence
        (Relational.Tuple.to_string r.Pcqe.Engine.tuple))
    top

let run_query workspace data_dir rbac_file policy_file costs_file user purpose
    perc solver jobs deadline_ms apply trace metrics_out
    metrics_format top sql =
  let result =
    let* ctx =
      build_context workspace data_dir rbac_file policy_file costs_file solver
    in
    let ctx =
      match jobs with
      | None -> ctx
      | Some j -> { ctx with Pcqe.Engine.jobs = Exec.resolve_jobs ~jobs:j () }
    in
    let* deadline = deadline_spec_of_ms deadline_ms in
    let ctx = { ctx with Pcqe.Engine.deadline } in
    with_obs ~trace ~metrics_out ~metrics_format (fun obs ->
        let ctx = { ctx with Pcqe.Engine.obs } in
        let request =
          { Pcqe.Engine.query = Pcqe.Query.sql sql; user; purpose; perc }
        in
        let* resp = Pcqe.Engine.answer ctx request in
        print_string (Pcqe.Report.response_to_string resp);
        (match top with Some k when k > 0 -> print_top_released k resp | _ -> ());
        (match (trace, obs) with
        | true, Some o ->
          print_string
            (Pcqe.Report.timed_to_string ~response:resp ~with_metrics:true o)
        | _ -> ());
        match (apply, resp.Pcqe.Engine.proposal) with
        | true, Some proposal ->
          let ctx' = Pcqe.Engine.accept_proposal ctx proposal in
          print_endline "\nApplying the improvement proposal...";
          let* resp' = Pcqe.Engine.answer ctx' request in
          print_string (Pcqe.Report.response_to_string resp');
          Ok ()
        | true, None ->
          print_endline "\n(no proposal to apply)";
          Ok ()
        | false, _ -> Ok ())
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* batch subcommand: answer a file of requests through one serving
   session, so repeated query texts share prepared plans and identical
   lineage classes share one confidence computation *)

(* request file: one "user|purpose|perc|SQL" per line, '#' comments *)
let parse_requests text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
      else
        match String.split_on_char '|' trimmed with
        | user :: purpose :: perc :: (_ :: _ as sql) -> (
          let sql = String.trim (String.concat "|" sql) in
          match float_of_string_opt (String.trim perc) with
          | Some perc when perc >= 0.0 && perc <= 1.0 ->
            let req =
              {
                Pcqe.Engine.query = Pcqe.Query.sql sql;
                user = String.trim user;
                purpose = String.trim purpose;
                perc;
              }
            in
            go (lineno + 1) (req :: acc) rest
          | _ ->
            Error
              (Printf.sprintf "requests line %d: bad perc %S (need [0,1])"
                 lineno (String.trim perc)))
        | _ ->
          Error
            (Printf.sprintf
               "requests line %d: need 'user|purpose|perc|SQL'" lineno))
  in
  go 1 [] lines

let print_batch_outcome i (req : Pcqe.Engine.request) = function
  | Error msg ->
    Printf.printf "[%d] %s/%s: error: %s\n" i req.Pcqe.Engine.user
      req.Pcqe.Engine.purpose msg
  | Ok (r : Pcqe.Engine.response) ->
    let released = List.length r.Pcqe.Engine.released in
    Printf.printf "[%d] %s/%s: released %d/%d, withheld %d%s%s%s\n" i
      req.Pcqe.Engine.user req.Pcqe.Engine.purpose released
      (released + r.Pcqe.Engine.withheld)
      r.Pcqe.Engine.withheld
      (match r.Pcqe.Engine.proposal with
      | Some p -> Printf.sprintf ", proposal cost %.2f" p.Pcqe.Engine.cost
      | None -> "")
      (if r.Pcqe.Engine.infeasible then ", infeasible" else "")
      (match r.Pcqe.Engine.degraded with
      | Some reason -> Printf.sprintf ", degraded (%s)" reason
      | None -> "")

let run_batch workspace data_dir rbac_file policy_file costs_file solver jobs
    deadline_ms repeat stats trace metrics_out metrics_format
    requests_file =
  let result =
    let* ctx =
      build_context workspace data_dir rbac_file policy_file costs_file solver
    in
    let ctx =
      match jobs with
      | None -> ctx
      | Some j -> { ctx with Pcqe.Engine.jobs = Exec.resolve_jobs ~jobs:j () }
    in
    let* deadline = deadline_spec_of_ms deadline_ms in
    let ctx = { ctx with Pcqe.Engine.deadline } in
    let* text = read_file requests_file in
    let* requests = parse_requests text in
    let* () =
      if requests = [] then
        Error (Printf.sprintf "no requests in %s" requests_file)
      else Ok ()
    in
    let* () =
      if repeat < 1 then
        Error (Printf.sprintf "--repeat %d: need at least 1" repeat)
      else Ok ()
    in
    with_obs ~trace ~metrics_out ~metrics_format (fun obs ->
        let ctx = { ctx with Pcqe.Engine.obs } in
        let session = Pcqe.Engine.Session.create ctx in
        for round = 1 to repeat do
          if repeat > 1 then Printf.printf "-- round %d\n" round;
          let responses = Pcqe.Engine.Session.batch session requests in
          List.iteri
            (fun i (req, resp) -> print_batch_outcome (i + 1) req resp)
            (List.combine requests responses)
        done;
        (match (trace, obs) with
        | true, Some o -> print_string (Obs.report o)
        | _ -> ());
        if stats then begin
          print_endline "serving caches:";
          List.iter
            (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
            (Pcqe.Engine.Session.cache_stats session)
        end;
        Ok ())
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* explain subcommand: the per-request profiler over a warm serving
   session.  The query is answered once to warm the caches, then again
   with profiling on — the profile therefore shows serving behaviour
   (plan-cache hits, reused confidence classes) rather than cold-start
   compilation, plus per-stage wall time and allocation and the
   confidence-ladder rungs the request used. *)

let run_explain workspace data_dir rbac_file policy_file costs_file user
    purpose perc solver jobs deadline_ms cold sql =
  let result =
    let* ctx =
      build_context workspace data_dir rbac_file policy_file costs_file solver
    in
    let ctx =
      match jobs with
      | None -> ctx
      | Some j -> { ctx with Pcqe.Engine.jobs = Exec.resolve_jobs ~jobs:j () }
    in
    let* deadline = deadline_spec_of_ms deadline_ms in
    let obs = Obs.wall () in
    let ctx =
      {
        ctx with
        Pcqe.Engine.deadline;
        obs = Some obs;
        profile = true;
      }
    in
    let session = Pcqe.Engine.Session.create ctx in
    let request =
      { Pcqe.Engine.query = Pcqe.Query.sql sql; user; purpose; perc }
    in
    let* () =
      if cold then Ok ()
      else
        let* _warm = Pcqe.Engine.Session.answer session request in
        Ok ()
    in
    Obs.Trace.reset obs.Obs.trace;
    let* resp = Pcqe.Engine.Session.answer session request in
    Printf.printf "Profile (%s serving answer):\n"
      (if cold then "cold" else "warm");
    (match resp.Pcqe.Engine.profile with
    | Some p -> print_string (Pcqe.Report.profile_to_string p)
    | None -> print_endline "no profile recorded");
    Printf.printf "released=%d withheld=%d requested=%d%s\n"
      (List.length resp.Pcqe.Engine.released)
      resp.Pcqe.Engine.withheld resp.Pcqe.Engine.requested
      (if resp.Pcqe.Engine.ambiguous > 0 then
         Printf.sprintf " ambiguous=%d" resp.Pcqe.Engine.ambiguous
       else "");
    List.iteri
      (fun i r ->
        if i < 20 then
          Printf.printf "  %s  confidence %.4f  tier=%s\n"
            (Relational.Tuple.to_string r.Pcqe.Engine.tuple)
            r.Pcqe.Engine.confidence r.Pcqe.Engine.conf_tier)
      resp.Pcqe.Engine.released;
    if List.length resp.Pcqe.Engine.released > 20 then
      print_endline "  ... (first 20 rows only)";
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* plan subcommand *)

let run_plan data_dir sql =
  let result =
    let* db = load_data_dir data_dir in
    let* plan = Relational.Sql_planner.compile sql in
    let* schema = Relational.Algebra.output_schema db plan in
    let* annotated = Relational.Estimate.explain db plan in
    Printf.printf "parsed plan:\n%s\n\n" annotated;
    let* optimized = Relational.Rewrite.optimize db plan in
    let* () =
      if optimized <> plan then begin
        let* annotated' = Relational.Estimate.explain db optimized in
        Printf.printf "after rewriting:\n%s\n\n" annotated';
        Ok ()
      end
      else Ok ()
    in
    Printf.printf "output schema: (%s)\n" (Relational.Schema.to_string schema);
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* solve subcommand *)

let run_solve size bpr seed beta theta solver jobs deadline_ms trace metrics_out
    metrics_format =
  let result =
    let* solver = solver_of_string solver in
    let* deadline_spec = deadline_spec_of_ms deadline_ms in
    let params =
      {
        Workload.Synth.default_params with
        data_size = size;
        bases_per_result = bpr;
        beta;
        theta;
      }
    in
    let jobs = Exec.resolve_jobs ?jobs () in
    Exec.with_pool_opt ~jobs (fun pool ->
    let problem = Workload.Synth.instance ?pool ~params ~seed () in
    Printf.printf "%s\n" (Optimize.Problem.to_string problem);
    with_obs ~trace ~metrics_out ~metrics_format (fun obs ->
    let deadline = Resilience.Deadline.start deadline_spec in
    let out =
      Optimize.Solver.solve ~algorithm:solver ?obs ?pool ~deadline problem
    in
    let resolution =
      match out.Optimize.Solver.resolution with
      | Optimize.Solver.Complete -> "complete"
      | Optimize.Solver.Partial { reason } ->
        Printf.sprintf "partial (%s)" reason
    in
    (match out.Optimize.Solver.solution with
    | Some increments ->
      Printf.printf
        "solver: %s\nfeasible: yes\nresolution: %s\ncost: %.2f\nraised tuples: %d\nsatisfied results: %d\nelapsed: %.3fs\ndetail: %s\n"
        (Optimize.Solver.algorithm_name solver)
        resolution out.Optimize.Solver.cost
        (List.length increments)
        (List.length out.Optimize.Solver.satisfied)
        out.Optimize.Solver.elapsed_s out.Optimize.Solver.detail
    | None ->
      Printf.printf
        "solver: %s\nfeasible: no\nresolution: %s\nelapsed: %.3fs\ndetail: %s\n"
        (Optimize.Solver.algorithm_name solver)
        resolution out.Optimize.Solver.elapsed_s out.Optimize.Solver.detail);
    (match (trace, obs) with
    | true, Some o -> print_string (Obs.report o)
    | _ -> ());
    Ok ()))
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* repl subcommand *)

let run_repl workspace solver =
  let result =
    let* solver = solver_of_string solver in
    let* w = Pcqe.Workspace.load ~solver workspace in
    let state = ref (Pcqe.Repl.create w.Pcqe.Workspace.context) in
    print_endline
      "pcqe repl -- SQL plus meta commands; \\help for help, \\quit to leave";
    let running = ref true in
    while !running do
      print_string "pcqe> ";
      match In_channel.input_line stdin with
      | None -> running := false
      | Some line -> (
        match Pcqe.Repl.execute !state line with
        | Pcqe.Repl.Quit -> running := false
        | Pcqe.Repl.Reply (state', text) ->
          state := state';
          if text <> "" then print_endline text)
    done;
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* export subcommand *)

let run_export data_dir relation =
  let result =
    let* db = load_data_dir data_dir in
    match Db.relation db relation with
    | None -> Error (Printf.sprintf "unknown relation %S" relation)
    | Some r ->
      print_string (Relational.Csv.to_string db r);
      Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* serve subcommand: the fault-tolerant network serving tier *)

let run_serve workspace data_dir rbac_file policy_file costs_file solver jobs
    listen admit queue retry_after_ms default_deadline_ms
    max_requests drain_deadline_s metrics_out metrics_format =
  let result =
    let* ctx =
      build_context workspace data_dir rbac_file policy_file costs_file solver
    in
    let ctx =
      match jobs with
      | None -> ctx
      | Some j -> { ctx with Pcqe.Engine.jobs = Exec.resolve_jobs ~jobs:j () }
    in
    let* listen = Net.Server.listen_of_string listen in
    let* default_deadline_ms =
      match default_deadline_ms with
      | Some ms when ms <= 0.0 ->
        Error (Printf.sprintf "--default-deadline-ms %g: need a positive budget" ms)
      | other -> Ok other
    in
    let config =
      {
        Net.Server.default_config with
        admit;
        queue;
        retry_after_ms;
        default_deadline_ms;
      }
    in
    with_obs ~trace:false ~metrics_out ~metrics_format (fun obs ->
        let server = Net.Server.start ?obs ~config ~ctx listen in
        Printf.printf "pcqe: serving on %s (admit %d, queue %d)\n%!"
          (Net.Server.listen_to_string (Net.Server.address server))
          admit queue;
        (* graceful shutdown: SIGINT/SIGTERM flip a flag observed by the
           wait loop; the server then drains in-flight requests under the
           bounded deadline before severing connections *)
        let stopping = Atomic.make false in
        let install s =
          try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stopping true))
          with Invalid_argument _ | Sys_error _ -> ()
        in
        install Sys.sigint;
        install Sys.sigterm;
        (* --max-requests N bounds the run (smoke tests, demos); 0 serves
           until a signal arrives *)
        let rec wait () =
          if Atomic.get stopping then ()
          else if
            max_requests > 0 && Net.Server.requests_served server >= max_requests
          then ()
          else begin
            Thread.delay 0.05;
            wait ()
          end
        in
        wait ();
        if Atomic.get stopping then
          Printf.printf
            "pcqe: signal received; draining in-flight requests (deadline %.1fs)\n%!"
            drain_deadline_s;
        Net.Server.stop ~drain_deadline_s server;
        (* the cache gauges are refreshed on demand, not per request —
           right before the metrics flush is the moment that matters *)
        Net.Server.refresh_gauges server;
        (* one final metrics line, whatever stopped us: scrapers and log
           tails get the closing counter totals even without --metrics-out *)
        let stats = Net.Server.stats server in
        let v name =
          match List.assoc_opt name stats with Some n -> n | None -> 0
        in
        Printf.printf
          "pcqe: final served=%d answers=%d accepted=%d shed=%d timeouts=%d \
           errors=%d connections=%d\n%!"
          (Net.Server.requests_served server)
          (v "net.answers") (v "net.accepted") (v "net.shed") (v "net.timeouts")
          (v "net.errors") (v "net.connections");
        print_endline "pcqe: server stopped; counters:";
        List.iter (fun (k, v) -> Printf.printf "  %-18s %d\n" k v) stats;
        Ok ())
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* loadgen subcommand: closed-loop principals against a running server *)

let run_loadgen connect users purpose perc sqls requests think_ms zipf_s
    deadline_ms timeout_ms retries seed =
  let result =
    let* addr = Net.Server.listen_of_string connect in
    let users =
      String.split_on_char ',' users
      |> List.map String.trim
      |> List.filter (( <> ) "")
      |> Array.of_list
    in
    let* () = if Array.length users = 0 then Error "--users: need at least one" else Ok () in
    let* queries =
      match sqls with
      | [] -> Error "need at least one --sql"
      | qs -> Ok (Array.of_list qs)
    in
    let* deadline_ms =
      match deadline_ms with
      | Some ms when ms <= 0.0 ->
        Error (Printf.sprintf "--deadline-ms %g: need a positive budget" ms)
      | other -> Ok other
    in
    let client_config =
      {
        Net.Client.default_config with
        request_timeout_ms = timeout_ms;
        retries;
      }
    in
    let clients =
      Array.init (Array.length users) (fun i ->
          Net.Client.create ~config:client_config ~seed:(seed + (i * 7919)) addr)
    in
    let report =
      Workload.Load_gen.run
        {
          Workload.Load_gen.principals = Array.length users;
          requests_per_principal = requests;
          think_ms;
          zipf_s;
          seed;
        }
        ~queries
        ~user_of:(fun i -> users.(i))
        ~exec:(fun ~principal ~user ~sql ->
          match
            Net.Client.query clients.(principal) ~user ~purpose ~perc
              ?deadline_ms sql
          with
          | Net.Client.Answer a ->
            Workload.Load_gen.Answered { degraded = a.Net.Wire.degraded <> None }
          | Net.Client.Shed _ -> Workload.Load_gen.Shed
          | Net.Client.Timed_out _ -> Workload.Load_gen.Timed_out
          | Net.Client.Accepted _ -> Workload.Load_gen.Failed "unexpected accept"
          | Net.Client.Failed m -> Workload.Load_gen.Failed m)
    in
    let retries_total =
      Array.fold_left (fun acc c -> acc + Net.Client.retries_used c) 0 clients
    in
    let breaker_total =
      Array.fold_left (fun acc c -> acc + Net.Client.breaker_opens c) 0 clients
    in
    Array.iter Net.Client.close clients;
    print_endline (Workload.Load_gen.report_to_string report);
    Printf.printf "retries %d  breaker-opens %d\n" retries_total breaker_total;
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "pcqe: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* cmdliner wiring *)

open Cmdliner

let data_arg =
  Arg.(
    required
    & opt (some dir) None
    & info [ "data" ] ~docv:"DIR" ~doc:"Directory of CSV relations.")

let data_opt_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "data" ] ~docv:"DIR" ~doc:"Directory of CSV relations.")

let workspace_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "workspace" ] ~docv:"DIR"
        ~doc:
          "Workspace directory (relations/, rbac.txt, policies.txt, and \
           optional views.sql, costs.txt, caps.txt); replaces the \
           individual flags.")

let sql_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let solver_arg =
  Arg.(
    value & opt string "dnc"
    & info [ "solver" ] ~docv:"NAME"
        ~doc:
          "Strategy-finding algorithm: heuristic, heuristic-seeded, greedy, \
           greedy-1p, dnc, or annealing.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Parallelism for strategy finding (and synthetic-instance \
           generation): $(docv) domains, 0 = one per core.  Defaults to \
           the PCQE_JOBS environment variable, else 1.  Results are \
           identical at every level.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds.  On expiry the confidence \
           ladder withholds the tuples it could not price in time, and the \
           solver stops at its best-so-far feasible answer and the result \
           is reported as partial (degraded) instead of running unbounded.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the timed plan: a nested span tree with per-stage elapsed \
           times, plus the solver counters and histograms.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the recorded observability data to $(docv) (format per \
           --metrics-format).")

let metrics_format_arg =
  Arg.(
    value & opt string "json"
    & info [ "metrics-format" ] ~docv:"FORMAT"
        ~doc:
          "Exposition format for --metrics-out: $(b,json) (JSONL spans, \
           counters, gauges and histograms), $(b,openmetrics) (OpenMetrics \
           text: counters, gauges, and histogram quantile summaries, for \
           scrapers), or $(b,text) (the human-readable report).")

let query_cmd =
  let rbac_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "rbac" ] ~docv:"FILE" ~doc:"RBAC definition file.")
  in
  let policy_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "policies" ] ~docv:"FILE" ~doc:"Confidence policy file.")
  in
  let user_arg =
    Arg.(required & opt (some string) None & info [ "user" ] ~docv:"USER")
  in
  let purpose_arg =
    Arg.(required & opt (some string) None & info [ "purpose" ] ~docv:"PURPOSE")
  in
  let perc_arg =
    Arg.(
      value & opt float 0.5
      & info [ "perc" ] ~docv:"FRACTION"
          ~doc:"Fraction of results the user needs (theta).")
  in
  let costs_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "costs" ] ~docv:"FILE"
          ~doc:
            "Per-tuple cost functions: one '<tid> <spec>' per line (specs: \
             linear R, binomial S, exponential S R, logarithmic S), plus an \
             optional 'default <spec>' line.")
  in
  let apply_arg =
    Arg.(
      value & flag
      & info [ "apply" ]
          ~doc:"Accept the improvement proposal and show the improved answer.")
  in
  let top_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"K"
          ~doc:
            "Also print the K released rows with the highest confidence \
             (bounded-heap selection, no full sort).")
  in
  let doc = "run a SQL query under RBAC and confidence policies" in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      const run_query $ workspace_arg $ data_opt_arg $ rbac_arg $ policy_arg
      $ costs_arg $ user_arg $ purpose_arg $ perc_arg $ solver_arg $ jobs_arg
      $ deadline_arg $ apply_arg $ trace_arg
      $ metrics_out_arg $ metrics_format_arg $ top_arg $ sql_arg)

let explain_cmd =
  let rbac_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "rbac" ] ~docv:"FILE" ~doc:"RBAC definition file.")
  in
  let policy_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "policies" ] ~docv:"FILE" ~doc:"Confidence policy file.")
  in
  let costs_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "costs" ] ~docv:"FILE" ~doc:"Per-tuple cost functions.")
  in
  let user_arg =
    Arg.(required & opt (some string) None & info [ "user" ] ~docv:"USER")
  in
  let purpose_arg =
    Arg.(required & opt (some string) None & info [ "purpose" ] ~docv:"PURPOSE")
  in
  let perc_arg =
    Arg.(
      value & opt float 0.5
      & info [ "perc" ] ~docv:"FRACTION"
          ~doc:"Fraction of results the user needs (theta).")
  in
  let cold_arg =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Profile the first (cold) answer instead of warming the \
             serving caches first; shows compilation and confidence \
             computation rather than cache reuse.")
  in
  let doc = "profile a query: annotated plan with per-stage cost attribution" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Answers the query twice through one serving session — once to \
         warm the prepared-plan and confidence caches, once with the \
         per-request profiler on — and prints the annotated plan: one row \
         per engine stage with elapsed wall time, allocated bytes and \
         span attributes (rows, released, withheld), parallel task spans \
         (solver groups, Monte-Carlo chunks) stitched under their stage, \
         followed by the request's counter deltas grouped into cache \
         attribution, confidence-ladder rungs, engine, solver and \
         resilience sections.  Profiling is observe-only: the answer is \
         bit-identical with it on or off.";
    ]
  in
  Cmd.v
    (Cmd.info "explain" ~doc ~man)
    Term.(
      const run_explain $ workspace_arg $ data_opt_arg $ rbac_arg $ policy_arg
      $ costs_arg $ user_arg $ purpose_arg $ perc_arg $ solver_arg $ jobs_arg
      $ deadline_arg $ cold_arg $ sql_arg)

let batch_cmd =
  let rbac_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "rbac" ] ~docv:"FILE" ~doc:"RBAC definition file.")
  in
  let policy_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "policies" ] ~docv:"FILE" ~doc:"Confidence policy file.")
  in
  let costs_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "costs" ] ~docv:"FILE" ~doc:"Per-tuple cost functions.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Answer the request file $(docv) times through the same \
             session; rounds after the first run entirely against the warm \
             caches.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the serving-cache statistics (prepared-plan hits, \
             reused vs recomputed confidence classes) after the batch.")
  in
  let requests_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"REQUESTS"
          ~doc:
            "Request file: one 'user|purpose|perc|SQL' per line, '#' \
             comments.")
  in
  let doc = "answer a file of requests through one warm serving session" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Answers every ⟨query, user, purpose, perc⟩ request in the file, \
         in order, through a single serving session: each distinct query \
         text is parsed, view-expanded and rewritten once (the prepared \
         plan cache), each distinct lineage class gets one confidence \
         computation (the per-epoch confidence cache), and the prewarm \
         runs in parallel under --jobs.  Responses are bit-identical to \
         answering each request cold.";
    ]
  in
  Cmd.v
    (Cmd.info "batch" ~doc ~man)
    Term.(
      const run_batch $ workspace_arg $ data_opt_arg $ rbac_arg $ policy_arg
      $ costs_arg $ solver_arg $ jobs_arg $ deadline_arg
      $ repeat_arg $ stats_arg $ trace_arg $ metrics_out_arg
      $ metrics_format_arg $ requests_arg)

let plan_cmd =
  let doc = "print the relational-algebra plan of a SQL query" in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run_plan $ data_arg $ sql_arg)

let solve_cmd =
  let size_arg =
    Arg.(value & opt int 1000 & info [ "size" ] ~docv:"N" ~doc:"Base tuples.")
  in
  let bpr_arg =
    Arg.(
      value & opt int 5
      & info [ "bases-per-result" ] ~docv:"N" ~doc:"Base tuples per result.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let beta_arg =
    Arg.(
      value & opt float 0.6
      & info [ "beta" ] ~docv:"B" ~doc:"Confidence threshold.")
  in
  let theta_arg =
    Arg.(
      value & opt float 0.5
      & info [ "theta" ] ~docv:"T" ~doc:"Required fraction of results.")
  in
  let doc = "solve a synthetic confidence-increment instance" in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const run_solve $ size_arg $ bpr_arg $ seed_arg $ beta_arg $ theta_arg
      $ solver_arg $ jobs_arg $ deadline_arg $ trace_arg $ metrics_out_arg
      $ metrics_format_arg)

let repl_cmd =
  let ws_arg =
    Arg.(
      required
      & opt (some dir) None
      & info [ "workspace" ] ~docv:"DIR" ~doc:"Workspace directory.")
  in
  let doc = "interactive SQL session over a workspace" in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const run_repl $ ws_arg $ solver_arg)

let export_cmd =
  let rel_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RELATION")
  in
  let doc = "print a relation (with confidences) as CSV" in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run_export $ data_arg $ rel_arg)

let serve_cmd =
  let rbac_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "rbac" ] ~docv:"FILE" ~doc:"RBAC definition file.")
  in
  let policy_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "policies" ] ~docv:"FILE" ~doc:"Confidence policy file.")
  in
  let costs_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "costs" ] ~docv:"FILE" ~doc:"Per-tuple cost functions.")
  in
  let listen_arg =
    Arg.(
      value
      & opt string "tcp:127.0.0.1:7419"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Listen address: $(b,tcp:HOST:PORT) (port 0 = ephemeral) or \
                $(b,unix:PATH).")
  in
  let admit_arg =
    Arg.(
      value & opt int Net.Server.default_config.Net.Server.admit
      & info [ "admit" ] ~docv:"N"
          ~doc:"Maximum concurrently executing requests.")
  in
  let queue_arg =
    Arg.(
      value & opt int Net.Server.default_config.Net.Server.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Maximum requests waiting for an execution slot; beyond this \
             the server sheds load with an explicit Overloaded response.")
  in
  let retry_after_arg =
    Arg.(
      value & opt float Net.Server.default_config.Net.Server.retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Retry hint carried in Overloaded responses.")
  in
  let default_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Deadline applied to requests that carry none; queue wait \
             counts against it, and on expiry strategy finding degrades \
             to best-so-far instead of hanging.")
  in
  let max_requests_arg =
    Arg.(
      value & opt int 0
      & info [ "max-requests" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) terminal responses and print the \
             counters (0 = serve until signalled); for smoke tests and \
             bounded demos.")
  in
  let drain_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-deadline-s" ] ~docv:"S"
          ~doc:
            "On shutdown (SIGINT/SIGTERM or --max-requests), let requests \
             already executing finish for up to $(docv) seconds before \
             severing their connections; queued and new requests are \
             refused immediately.")
  in
  let doc = "serve queries over TCP or unix sockets with admission control" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Hosts one warm serving session, shared by every principal, behind \
         a length-framed, checksummed wire protocol.  At most --admit requests execute \
         concurrently, --queue more wait (their deadline still running); \
         past that the server sheds load explicitly.  Client deadlines \
         travel in the frame and become engine deadlines, so overload \
         degrades answers (fail-closed) instead of hanging them.  \
         --metrics-out with --metrics-format=openmetrics exports the \
         net.* counters and queue gauges for scrapers.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run_serve $ workspace_arg $ data_opt_arg $ rbac_arg $ policy_arg
      $ costs_arg $ solver_arg $ jobs_arg
      $ listen_arg $ admit_arg $ queue_arg $ retry_after_arg
      $ default_deadline_arg $ max_requests_arg $ drain_arg $ metrics_out_arg
      $ metrics_format_arg)

let loadgen_cmd =
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address: $(b,tcp:HOST:PORT) or $(b,unix:PATH).")
  in
  let users_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "users" ] ~docv:"U1,U2,..."
          ~doc:"Comma-separated principals; one closed-loop client each.")
  in
  let purpose_arg =
    Arg.(value & opt string "serve" & info [ "purpose" ] ~docv:"PURPOSE")
  in
  let perc_arg =
    Arg.(
      value & opt float 0.5
      & info [ "perc" ] ~docv:"FRACTION"
          ~doc:"Fraction of results each request needs (theta).")
  in
  let sql_arg =
    Arg.(
      value & opt_all string []
      & info [ "sql" ] ~docv:"SQL"
          ~doc:
            "Query mix (repeatable); queries are drawn zipf-skewed in the \
             order given (first = hottest).")
  in
  let requests_arg =
    Arg.(
      value & opt int 20
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per principal.")
  in
  let think_arg =
    Arg.(
      value & opt float 0.0
      & info [ "think-ms" ] ~docv:"MS"
          ~doc:"Mean think time between requests (exponential; 0 = none).")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S" ~doc:"Query-mix skew (0 = uniform).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline carried in the frame.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt float Net.Client.default_config.Net.Client.request_timeout_ms
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Client response timeout.")
  in
  let retries_arg =
    Arg.(
      value & opt int Net.Client.default_config.Net.Client.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry attempts for idempotent requests (capped exponential \
             backoff with seeded jitter).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let doc = "drive a pcqe server with closed-loop concurrent principals" in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const run_loadgen $ connect_arg $ users_arg $ purpose_arg $ perc_arg
      $ sql_arg $ requests_arg $ think_arg $ zipf_arg $ deadline_arg
      $ timeout_arg $ retries_arg $ seed_arg)

let main_cmd =
  let doc = "policy-compliant query evaluation over confidence-annotated data" in
  Cmd.group
    (Cmd.info "pcqe" ~version:"1.0.0" ~doc)
    [
      query_cmd;
      batch_cmd;
      explain_cmd;
      plan_cmd;
      solve_cmd;
      export_cmd;
      repl_cmd;
      serve_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
