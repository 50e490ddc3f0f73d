module Db = Relational.Database
module StrMap = Map.Make (String)

type t = {
  ctx : Engine.context;
  user : string option;
  purpose : string;
  perc : float;
  last_proposal : Engine.proposal option;
  last_sql : string option;
  prepared : string StrMap.t;  (* \prepare name -> SQL text *)
  audit : Audit.t;
  obs : Obs.t;  (* session-lifetime registry; trace reset per query *)
  timing : bool;
  faults : Resilience.Fault.plan option;  (* \faults — armed chaos plan *)
}

type outcome = Reply of t * string | Quit

let create ctx =
  (* the REPL is a serving session: plug in caches once so repeated
     queries reuse prepared plans and confidence classes (\caches shows
     the counters); a context that already carries caches keeps them *)
  let ctx =
    match ctx.Engine.caches with
    | Some _ -> ctx
    | None -> { ctx with Engine.caches = Some (Caches.create ()) }
  in
  {
    ctx;
    user = None;
    purpose = "adhoc";
    perc = 1.0;
    last_proposal = None;
    last_sql = None;
    prepared = StrMap.empty;
    audit = Audit.empty;
    obs = Obs.wall ();
    timing = false;
    faults = None;
  }

let context t = t.ctx

let audit t = t.audit

let help_text =
  {|Meta commands:
  \user <name>        act as this user
  \purpose <purpose>  set the query purpose
  \perc <fraction>    set the required result fraction (theta)
  \solver <name>      heuristic | greedy | dnc | annealing
  \jobs <n>           parallelism for strategy finding (0 = one per core)
  \deadline <ms>|off  wall-clock budget per answer; expiry withholds the
                      tuples the confidence ladder could not price in
                      time and degrades the proposal to best-so-far
                      (reported and audited)
  \apply              accept the last improvement proposal
  \prepare <name> <sql>  compile a named query once (plan cache)
  \exec <name>        answer a prepared query under the current settings
  \caches             show serving-cache statistics (plans + confidences)
  \faults <seed> <site>[,<site>...] [max]  arm a seeded fault-injection
                      plan (rate 0.05) over the named sites, optionally
                      capped at <max> injections; \faults shows the armed
                      plan with per-site hit counts; \faults off disarms
  \explain            lineage explanations for the last query
  \profile [sql]      re-run the last query (or the given SQL) with
                      profiling on: annotated plan with per-stage time,
                      allocation, cache attribution and ladder rungs
  \timing on|off      print the per-stage timed plan after each query
  \metrics            show the counters and histograms accumulated so far
  \tables             list relations (with cardinalities)
  \views              list registered views
  \policies           list confidence policies
  \whoami             show the session settings
  \help               this text
  \quit               leave
Anything else is SQL, answered under the current user and purpose.|}

let solver_of_string = function
  | "heuristic" -> Some Optimize.Solver.heuristic
  | "heuristic-seeded" -> Some Optimize.Solver.heuristic_seeded
  | "greedy" -> Some Optimize.Solver.greedy
  | "dnc" | "divide-and-conquer" -> Some Optimize.Solver.divide_conquer
  | "annealing" -> Some Optimize.Solver.annealing
  | _ -> None

let run_sql t sql =
  match t.user with
  | None ->
    Reply (t, "no user set: \\user <name> first (see \\help)")
  | Some user -> (
    let request =
      { Engine.query = Query.sql sql; user; purpose = t.purpose; perc = t.perc }
    in
    let ctx =
      if t.timing then begin
        (* fresh span tree per query; the metrics registry accumulates
           across the session (inspect with \metrics) *)
        Obs.Trace.reset t.obs.Obs.trace;
        { t.ctx with Engine.obs = Some t.obs }
      end
      else t.ctx
    in
    match Engine.answer ctx request with
    | exception Resilience.Fault.Injected what ->
      (* an armed \faults plan fired: the query aborts, the session
         survives — exactly what the chaos harness asserts *)
      Reply
        ( {
            t with
            audit =
              Audit.record_denial t.audit ~user ~reason:("fault injected: " ^ what);
          },
          Printf.sprintf "fault injected: %s (nothing released; \\faults shows the plan)"
            what )
    | Error msg ->
      Reply
        ( { t with audit = Audit.record_denial t.audit ~user ~reason:msg },
          "error: " ^ msg )
    | Ok resp ->
      let text = Report.response_to_string ~max_rows:50 resp in
      let text =
        if t.timing then
          text ^ Report.timed_to_string ~response:resp t.obs
        else text
      in
      let t =
        {
          t with
          last_proposal = resp.Engine.proposal;
          last_sql = Some sql;
          audit =
            Audit.record_answer t.audit ~user ~purpose:t.purpose ~sql resp;
        }
      in
      let text =
        match resp.Engine.proposal with
        | Some _ -> text ^ "(\\apply to accept the proposal)\n"
        | None -> text
      in
      Reply (t, String.trim text))

(* Profile a query through the warm serving context, on the session's
   wall-clock handle so the per-stage numbers are real timings.  The
   answer itself is discarded (profiles are diagnostics; the response is
   bit-identical to the unprofiled run, property-tested), only the
   annotated plan is shown. *)
let profile_sql t sql =
  match t.user with
  | None -> Reply (t, "no user set: \\user <name> first (see \\help)")
  | Some user -> (
    let request =
      { Engine.query = Query.sql sql; user; purpose = t.purpose; perc = t.perc }
    in
    Obs.Trace.reset t.obs.Obs.trace;
    let ctx = { t.ctx with Engine.profile = true; obs = Some t.obs } in
    match Engine.answer ctx request with
    | Error msg -> Reply (t, "error: " ^ msg)
    | Ok resp -> (
      match resp.Engine.profile with
      | Some p -> Reply (t, String.trim (Report.profile_to_string p))
      | None -> Reply (t, "no profile recorded")))

let meta t line =
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "\\quit" ] | [ "\\q" ] | [ "\\exit" ] -> Quit
  | [ "\\help" ] | [ "\\h" ] -> Reply (t, help_text)
  | [ "\\user"; name ] -> Reply ({ t with user = Some name }, "acting as " ^ name)
  | [ "\\purpose"; purpose ] ->
    Reply ({ t with purpose }, "purpose set to " ^ purpose)
  | [ "\\perc"; value ] -> (
    match float_of_string_opt value with
    | Some p when p >= 0.0 && p <= 1.0 ->
      Reply ({ t with perc = p }, Printf.sprintf "perc set to %g" p)
    | _ -> Reply (t, Printf.sprintf "bad fraction %S (need [0,1])" value))
  | [ "\\solver"; name ] -> (
    match solver_of_string name with
    | Some solver ->
      Reply
        ( { t with ctx = { t.ctx with Engine.solver } },
          "solver set to " ^ Optimize.Solver.algorithm_name solver )
    | None -> Reply (t, Printf.sprintf "unknown solver %S" name))
  | [ "\\jobs"; n ] -> (
    match int_of_string_opt n with
    | Some j when j >= 0 ->
      let jobs = Exec.resolve_jobs ~jobs:j () in
      Reply
        ( { t with ctx = { t.ctx with Engine.jobs } },
          Printf.sprintf "jobs set to %d" jobs )
    | _ -> Reply (t, Printf.sprintf "invalid jobs count %S" n))
  | [ "\\deadline"; "off" ] ->
    Reply
      ( { t with ctx = { t.ctx with Engine.deadline = Resilience.Deadline.No_deadline } },
        "deadline off" )
  | [ "\\deadline"; v ] -> (
    match float_of_string_opt v with
    | Some ms when ms > 0.0 ->
      Reply
        ( { t with ctx = { t.ctx with Engine.deadline = Resilience.Deadline.Wall_ms ms } },
          Printf.sprintf "deadline set to %gms per answer" ms )
    | _ -> Reply (t, Printf.sprintf "bad deadline %S (need ms > 0, or off)" v))
  | [ "\\deadline" ] ->
    Reply
      ( t,
        match t.ctx.Engine.deadline with
        | Resilience.Deadline.No_deadline -> "no deadline (\\deadline <ms>|off)"
        | Resilience.Deadline.Wall_ms ms -> Printf.sprintf "deadline: %gms" ms
        | Resilience.Deadline.Logical n ->
          Printf.sprintf "deadline: %d logical ticks" n )
  | [ "\\apply" ] -> (
    match t.last_proposal with
    | None -> Reply (t, "no pending proposal")
    | Some proposal ->
      let ctx = Engine.accept_proposal t.ctx proposal in
      let audit =
        Audit.record_acceptance t.audit
          ~user:(Option.value ~default:"(unset)" t.user)
          proposal
      in
      Reply
        ( { t with ctx; last_proposal = None; audit },
          Printf.sprintf "applied %d increment(s) at cost %.2f"
            (List.length proposal.Engine.increments)
            proposal.Engine.cost ))
  | "\\prepare" :: name :: (_ :: _ as sql_words) -> (
    let sql = String.concat " " sql_words in
    let session = Engine.Session.create t.ctx in
    match Engine.Session.prepare session (Query.sql sql) with
    | Ok p ->
      Reply
        ( { t with prepared = StrMap.add name sql t.prepared },
          Printf.sprintf "prepared %s over %s" name
            (String.concat ", " (Prepared.base_relations p)) )
    | Error msg -> Reply (t, "error: " ^ msg))
  | [ "\\prepare" ] | [ "\\prepare"; _ ] ->
    Reply (t, "usage: \\prepare <name> <sql>")
  | [ "\\exec"; name ] -> (
    match StrMap.find_opt name t.prepared with
    | Some sql -> run_sql t sql
    | None ->
      Reply
        ( t,
          Printf.sprintf "no prepared query %S (\\prepare <name> <sql>)" name ))
  | [ "\\exec" ] ->
    let names = List.map fst (StrMap.bindings t.prepared) in
    Reply
      ( t,
        if names = [] then "no prepared queries (\\prepare <name> <sql>)"
        else
          "prepared queries:\n"
          ^ String.concat "\n" (List.map (fun n -> "  " ^ n) names) )
  | [ "\\caches" ] -> (
    match t.ctx.Engine.caches with
    | Some caches -> Reply (t, String.trim (Caches.stats_to_string caches))
    | None -> Reply (t, "serving caches are off"))
  | [ "\\faults"; "off" ] ->
    Resilience.Fault.disarm ();
    Reply
      ( { t with faults = None },
        match t.faults with
        | Some p ->
          Printf.sprintf "faults disarmed (%d injected)"
            (Resilience.Fault.injected p)
        | None -> "faults disarmed" )
  | [ "\\faults" ] -> (
    match t.faults with
    | None ->
      Reply
        ( t,
          "no fault plan armed (\\faults <seed> <site>[,<site>...] [max])\n"
          ^ "registered sites: "
          ^ String.concat ", " (Resilience.Fault.registered_sites ()) )
    | Some p ->
      let module F = Resilience.Fault in
      let lines =
        [
          Printf.sprintf "  %-24s %d" "seed" (F.seed p);
          Printf.sprintf "  %-24s %g" "rate" (F.rate p);
          Printf.sprintf "  %-24s %s" "max-injections"
            (match F.max_injections p with
            | None -> "unlimited"
            | Some m -> string_of_int m);
          Printf.sprintf "  %-24s %d" "injected" (F.injected p);
        ]
        @ List.map
            (fun (site, n) -> Printf.sprintf "  %-24s %d hit(s)" site n)
            (F.hits p)
      in
      Reply (t, "armed fault plan:\n" ^ String.concat "\n" lines))
  | "\\faults" :: seed :: sites :: rest -> (
    match
      ( int_of_string_opt seed,
        match rest with
        | [] -> Some None
        | [ m ] -> Option.map Option.some (int_of_string_opt m)
        | _ -> None )
    with
    | Some seed, Some max_injections -> (
      let sites = String.split_on_char ',' sites |> List.filter (( <> ) "") in
      match
        Resilience.Fault.plan ?max_injections ~sites ~seed ()
      with
      | p ->
        Resilience.Fault.arm p;
        Reply
          ( { t with faults = Some p },
            Printf.sprintf "fault plan armed: seed %d over %s%s" seed
              (String.concat ", " sites)
              (match max_injections with
              | None -> ""
              | Some m -> Printf.sprintf ", at most %d injection(s)" m) )
      | exception Invalid_argument msg -> Reply (t, "error: " ^ msg))
    | _ ->
      Reply (t, "usage: \\faults <seed> <site>[,<site>...] [max] | \\faults off"))
  | [ "\\explain" ] -> (
    match t.last_sql with
    | None -> Reply (t, "no previous query to explain")
    | Some sql -> (
      let ( let* ) = Result.bind in
      let result =
        let* plan = Relational.Sql_planner.compile sql in
        let plan = Relational.Views.expand t.ctx.Engine.views plan in
        let* plan = Relational.Rewrite.optimize t.ctx.Engine.db plan in
        let* res = Relational.Eval.run t.ctx.Engine.db plan in
        let p = Db.confidence_fn t.ctx.Engine.db in
        let deadline = Resilience.Deadline.start t.ctx.Engine.deadline in
        let buf = Buffer.create 512 in
        List.iteri
          (fun i row ->
            if i < 20 then begin
              let tier = ref "" in
              let est =
                Lineage.Approx.confidence ~deadline
                  ~on_tier:(fun t -> tier := Lineage.Approx.tier_name t)
                  p row.Relational.Eval.lineage
              in
              Buffer.add_string buf
                (Printf.sprintf "%s  confidence %.4f\n"
                   (Relational.Tuple.to_string row.Relational.Eval.tuple)
                   (Lineage.Approx.point est));
              Buffer.add_string buf
                (Lineage.Explain.to_string ~tier:!tier ~deadline p
                   row.Relational.Eval.lineage)
            end)
          res.Relational.Eval.rows;
        if List.length res.Relational.Eval.rows > 20 then
          Buffer.add_string buf "... (first 20 rows only)\n";
        Ok (Buffer.contents buf)
      in
      match result with
      | Ok text -> Reply (t, String.trim text)
      | Error msg -> Reply (t, "error: " ^ msg)))
  | [ "\\profile" ] -> (
    match t.last_sql with
    | None -> Reply (t, "no previous query to profile (run one first)")
    | Some sql -> profile_sql t sql)
  | "\\profile" :: (_ :: _ as sql_words) ->
    profile_sql t (String.concat " " sql_words)
  | [ "\\timing"; "on" ] ->
    Reply ({ t with timing = true }, "timing on: every query prints its timed plan")
  | [ "\\timing"; "off" ] -> Reply ({ t with timing = false }, "timing off")
  | [ "\\timing" ] ->
    Reply (t, Printf.sprintf "timing is %s (\\timing on|off)"
             (if t.timing then "on" else "off"))
  | [ "\\metrics" ] ->
    let text = Obs.Metrics.render t.obs.Obs.metrics in
    Reply
      ( t,
        if text = "" then
          "no metrics recorded yet (\\timing on, then run a query)"
        else String.trim text )
  | [ "\\audit" ] -> Reply (t, String.trim (Audit.to_string t.audit))
  | [ "\\save"; dir ] -> (
    let w =
      {
        Workspace.context = t.ctx;
        cost_specs = [];
        default_cost = Cost.Cost_model.linear ~rate:100.0;
        caps = [];
      }
    in
    match Workspace.save dir w with
    | Ok () ->
      (* persist the session's audit trail alongside the workspace *)
      let audit_path = Filename.concat dir "audit.log" in
      (try
         let oc = open_out_bin audit_path in
         output_string oc (Audit.render t.audit ^ "\n");
         close_out oc
       with Sys_error _ -> ());
      Reply (t, "saved workspace (and audit.log) to " ^ dir)
    | Error msg -> Reply (t, "save failed: " ^ msg))
  | [ "\\tables" ] ->
    let lines =
      List.map
        (fun name ->
          let rel = Db.relation_exn t.ctx.Engine.db name in
          Printf.sprintf "  %-20s %d row(s)  (%s)" name
            (Relational.Relation.cardinality rel)
            (Relational.Schema.to_string (Relational.Relation.schema rel)))
        (Db.relation_names t.ctx.Engine.db)
    in
    Reply (t, if lines = [] then "no relations" else String.concat "\n" lines)
  | [ "\\views" ] ->
    let names = Relational.Views.names t.ctx.Engine.views in
    Reply
      ( t,
        if names = [] then "no views"
        else String.concat "\n" (List.map (fun n -> "  " ^ n) names) )
  | [ "\\policies" ] ->
    let ps = Rbac.Policy.to_list t.ctx.Engine.policies in
    Reply
      ( t,
        if ps = [] then "no policies"
        else
          String.concat "\n"
            (List.map (fun p -> "  " ^ Rbac.Policy.to_string p) ps) )
  | [ "\\whoami" ] ->
    Reply
      ( t,
        Printf.sprintf "user=%s purpose=%s perc=%g solver=%s jobs=%d%s"
          (Option.value ~default:"(unset)" t.user)
          t.purpose t.perc
          (Optimize.Solver.algorithm_name t.ctx.Engine.solver)
          t.ctx.Engine.jobs
          (match t.ctx.Engine.deadline with
          | Resilience.Deadline.No_deadline -> ""
          | Resilience.Deadline.Wall_ms ms ->
            Printf.sprintf " deadline=%gms" ms
          | Resilience.Deadline.Logical n ->
            Printf.sprintf " deadline=%dticks" n) )
  | cmd :: _ -> Reply (t, Printf.sprintf "unknown command %s (try \\help)" cmd)
  | [] -> Reply (t, "")

let execute t line =
  let line = String.trim line in
  if line = "" then Reply (t, "")
  else if line.[0] = '\\' then meta t line
  else if line.[0] = '.' then
    (* psql-style backslash commands also answer to a dot prefix
       (".timing on", ".metrics") *)
    meta t ("\\" ^ String.sub line 1 (String.length line - 1))
  else run_sql t line
