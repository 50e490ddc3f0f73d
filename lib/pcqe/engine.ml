module Tid = Lineage.Tid
module Db = Relational.Database

type context = {
  db : Db.t;
  rbac : Rbac.Core_rbac.t;
  policies : Rbac.Policy.store;
  views : Relational.Views.t;
  cost_of : Tid.t -> Cost.Cost_model.t;
  cap_of : Tid.t -> float;
  solver : Optimize.Solver.algorithm;
  delta : float;
  jobs : int;
  deadline : Resilience.Deadline.spec;
  obs : Obs.t option;
  caches : Caches.t option;
  profile : bool;
}

let make_context ?(solver = Optimize.Solver.divide_conquer) ?(delta = 0.1)
    ?jobs ?(deadline = Resilience.Deadline.No_deadline) ?cost_of ?cap_of
    ?(views = Relational.Views.empty) ?obs ?caches ?(profile = false) ~db ~rbac
    ~policies () =
  let default_cost = Cost.Cost_model.linear ~rate:100.0 in
  {
    db;
    rbac;
    policies;
    views;
    cost_of = Option.value cost_of ~default:(fun _ -> default_cost);
    cap_of = Option.value cap_of ~default:(fun _ -> 1.0);
    solver;
    delta;
    jobs = Exec.resolve_jobs ?jobs ();
    deadline;
    obs;
    caches;
    profile;
  }

type request = { query : Query.t; user : string; purpose : string; perc : float }

type released = {
  tuple : Relational.Tuple.t;
  lineage : Lineage.Formula.t;
  confidence : float;
  conf_tier : string;
}

type proposal = {
  increments : (Tid.t * float) list;
  cost : float;
  projected_release : int;
  solver_name : string;
  solver_stats : Optimize.Solver.stats;
  solver_detail : string;
  elapsed_s : float;
  resolution : Optimize.Solver.resolution;
}

type response = {
  schema : Relational.Schema.t;
  released : released list;
  withheld : int;
  ambiguous : int;
  requested : int;
  threshold : float option;
  applied_policies : Rbac.Policy.t list;
  proposal : proposal option;
  infeasible : bool;
  degraded : string option;
  profile : Obs.Profile.t option;
}

let ( let* ) = Result.bind

let check_rbac_with ~who ~check plan =
  let denied =
    List.filter
      (fun rel -> not (check { Rbac.Core_rbac.action = "select"; resource = rel }))
      (Relational.Algebra.base_relations plan)
  in
  if denied = [] then Ok ()
  else
    Error
      (Printf.sprintf "access denied: %s lacks select on %s" who
         (String.concat ", " denied))

let check_rbac ctx ~user plan =
  if not (List.mem user (Rbac.Core_rbac.users ctx.rbac)) then
    Error (Printf.sprintf "unknown user %S" user)
  else
    check_rbac_with
      ~who:(Printf.sprintf "user %S" user)
      ~check:(fun p -> Rbac.Core_rbac.check ctx.rbac ~user p)
      plan

(* The [ladder.<tier>] counter names, built once: pricing a row allocates
   no name. *)
let ladder_counter =
  let open Lineage.Approx in
  let name tier = "ladder." ^ tier_name tier in
  let var = name Var and read_once = name Read_once and circuit = name Circuit
  and obdd = name Obdd and monte_carlo = name Monte_carlo in
  function
  | Var -> var
  | Read_once -> read_once
  | Circuit -> circuit
  | Obdd -> obdd
  | Monte_carlo -> monte_carlo

let answer_common ctx ~check_access ~roles ~query ~purpose ~perc =
  let obs = ctx.obs in
  Obs.span obs "answer" (fun () ->
      Obs.incr obs "engine.queries";
      (* one token per answer: a wall budget covers everything from here,
         so a slow evaluation leaves less time for strategy finding *)
      let deadline = Resilience.Deadline.start ctx.deadline in
      let* () =
        if perc >= 0.0 && perc <= 1.0 then Ok ()
        else Error (Printf.sprintf "perc %g outside [0,1]" perc)
      in
      (* prepare stage: parse → view expansion → rewrite, compiled once
         per ⟨query text, structural epoch, views epoch⟩.  With serving
         caches the prepared plan comes from the LRU plan cache; without
         them this is exactly the old inline front end (Prepared.compile
         emits the same parse/plan, view-expand and rewrite spans). *)
      let* prepared =
        match ctx.caches with
        | Some caches ->
          Plan_cache.find_or_compile ?obs (Caches.plans caches) ~db:ctx.db
            ~views:ctx.views query
        | None -> Prepared.compile ?obs ~db:ctx.db ~views:ctx.views query
      in
      let plan = Prepared.plan prepared in
      (* (1) traditional access control over the base relations *)
      let* () = Obs.span obs "rbac" (fun () -> check_access plan) in
      (* (2) lineage-carrying query evaluation + confidence computation *)
      let* res =
        Obs.span obs "eval" (fun () ->
            let r = Prepared.eval ?obs prepared ~db:ctx.db in
            (match r with
            | Ok res ->
              let rows = List.length res.Relational.Eval.rows in
              Obs.add_attr obs "rows" (string_of_int rows);
              Obs.observe obs "engine.rows" (float_of_int rows)
            | Error _ -> ());
            r)
      in
      let with_conf =
        Obs.span obs "confidence" (fun () ->
            (* rung accounting: one [ladder.<tier>] tick per class actually
               run through the ladder (cache hits don't re-count the rung
               that originally answered) *)
            let on_tier tier = Obs.incr obs (ladder_counter tier) in
            let price =
              match ctx.caches with
              | Some caches ->
                (* per-epoch confidence cache: one computation per
                   distinct lineage class, bit-identical to the ladder;
                   building the pricer syncs it with [ctx.db] once *)
                Conf_cache.confidence ?obs ~deadline ~on_tier
                  (Caches.conf caches) ~db:ctx.db
              | None ->
                let p = Db.confidence_fn ctx.db in
                fun f ->
                  let name = ref "" in
                  let est =
                    Lineage.Approx.confidence ~deadline
                      ~on_tier:(fun tier ->
                        name := Lineage.Approx.tier_name tier;
                        on_tier tier)
                      p f
                  in
                  (est, !name)
            in
            List.map
              (fun r ->
                let est, tier = price r.Relational.Eval.lineage in
                (r, est, tier))
              res.Relational.Eval.rows)
      in
      (* (3) policy evaluation: select the policy by role and purpose *)
      let applied_policies =
        Rbac.Policy.applicable ctx.policies ~roles ~purpose
      in
      let threshold =
        Rbac.Policy.effective_threshold ctx.policies ~roles ~purpose
      in
      let released, withheld, ambiguous =
        Obs.span obs "policy-filter" (fun () ->
            let mk r est tier =
              {
                tuple = r.Relational.Eval.tuple;
                lineage = r.Relational.Eval.lineage;
                confidence = Lineage.Approx.point est;
                conf_tier = tier;
              }
            in
            let released, withheld, ambiguous =
              match threshold with
              | None ->
                (List.map (fun (r, est, tier) -> mk r est tier) with_conf, 0, 0)
              | Some beta ->
                (* fail-closed: release only when the estimate proves the
                   confidence strictly above beta; an interval straddling
                   beta (or a failed estimate) withholds the tuple *)
                let rel, wh, amb, failed =
                  List.fold_left
                    (fun (rel, wh, amb, failed) (r, est, tier) ->
                      match Lineage.Approx.releasable ~beta est with
                      | `Release -> (mk r est tier :: rel, wh, amb, failed)
                      | `Ambiguous -> (rel, wh + 1, amb + 1, failed)
                      | `Withhold ->
                        ( rel,
                          wh + 1,
                          amb,
                          match est with
                          | Lineage.Approx.Failed _ -> failed + 1
                          | _ -> failed ))
                    ([], 0, 0, 0) with_conf
                in
                if failed > 0 then
                  Obs.incr obs ~by:failed "resilience.confidence_failures";
                (List.rev rel, wh, amb)
            in
            Obs.add_attr obs "released" (string_of_int (List.length released));
            Obs.add_attr obs "withheld" (string_of_int withheld);
            Obs.incr obs ~by:(List.length released) "engine.released";
            Obs.incr obs ~by:withheld "engine.withheld";
            if ambiguous > 0 then begin
              Obs.add_attr obs "ambiguous" (string_of_int ambiguous);
              Obs.incr obs ~by:ambiguous "resilience.withheld_ambiguous"
            end;
            (released, withheld, ambiguous))
      in
      (* (4) strategy finding when fewer than perc of the results pass;
         [need] is the request's floor on released results and is reported
         back as [requested] so callers never recompute the ceil *)
      let n = List.length with_conf in
      let need = int_of_float (ceil (perc *. float_of_int n)) in
      let* proposal, infeasible, degraded =
        match threshold with
        | Some beta when List.length released < need && withheld > 0 ->
          Obs.span obs "strategy-finding" (fun () ->
              (* the instance is built from the policy filter's verdicts:
                 no row is priced twice *)
              let released =
                Array.of_list
                  (List.map
                     (fun (_, est, _) ->
                       Lineage.Approx.releasable ~beta est = `Release)
                     with_conf)
              in
              (* with serving caches, the circuits the confidence stage
                 compiled price the solver probes and the projection *)
              let circuit =
                Option.map
                  (fun caches -> Conf_cache.circuit ?obs (Caches.conf caches))
                  ctx.caches
              in
              let* problem, _failing =
                Optimize.Problem.of_query_results ~released ~delta:ctx.delta
                  ~deadline ?circuit ~theta:perc ~beta ~cost_of:ctx.cost_of
                  ~cap_of:ctx.cap_of ctx.db res
              in
              let out =
                Optimize.Solver.solve ~algorithm:ctx.solver ?obs
                  ~jobs:ctx.jobs ~deadline problem
              in
              let degraded =
                match out.Optimize.Solver.resolution with
                | Optimize.Solver.Complete -> None
                | Optimize.Solver.Partial { reason } ->
                  Obs.add_attr obs "degraded" reason;
                  Obs.incr obs "resilience.degraded_answers";
                  Some reason
              in
              match out.Optimize.Solver.solution with
              | Some increments ->
                (* project the release count by re-evaluating *every* result
                   under the raised confidences: with non-monotone lineage
                   (outer joins, NOT IN) an increment can push a previously-
                   passing row back below the threshold, so counting
                   satisfied new rows alone would overestimate *)
                let raised = Tid.Table.create 16 in
                List.iter
                  (fun (tid, p) -> Tid.Table.replace raised tid p)
                  increments;
                let conf_after tid =
                  let current = Db.confidence ctx.db tid in
                  match Tid.Table.find_opt raised tid with
                  | Some target -> Float.max current target
                  | None -> current
                in
                let projected_release =
                  List.fold_left
                    (fun acc row ->
                      match
                        Lineage.Approx.releasable ~beta
                          (Lineage.Approx.confidence ~deadline ?circuit
                             conf_after row.Relational.Eval.lineage)
                      with
                      | `Release -> acc + 1
                      | `Withhold | `Ambiguous -> acc)
                    0 res.Relational.Eval.rows
                in
                Obs.add_attr obs "solver"
                  (Optimize.Solver.algorithm_name ctx.solver);
                Obs.incr obs "engine.proposals";
                Ok
                  ( Some
                      {
                        increments;
                        cost = out.Optimize.Solver.cost;
                        projected_release;
                        solver_name = Optimize.Solver.algorithm_name ctx.solver;
                        solver_stats = out.Optimize.Solver.stats;
                        solver_detail = out.Optimize.Solver.detail;
                        elapsed_s = out.Optimize.Solver.elapsed_s;
                        resolution = out.Optimize.Solver.resolution;
                      },
                    false,
                    degraded )
              | None -> (
                (* no feasible best-so-far: infeasible only when the solver
                   ran to completion — a deadline cut proves nothing *)
                match degraded with
                | None ->
                  Obs.incr obs "engine.infeasible";
                  Ok (None, true, None)
                | Some _ -> Ok (None, false, degraded)))
        | _ -> Ok (None, false, None)
      in
      Obs.span obs "projection" (fun () ->
          Ok
            {
              schema = res.Relational.Eval.schema;
              released;
              withheld;
              ambiguous;
              requested = need;
              threshold;
              applied_policies;
              proposal;
              infeasible;
              degraded;
              profile = None;
            }))

(* Profiling wrapper: run the answer with observability guaranteed on
   (a private deterministic handle when the context has none), then build
   the profile from the root span this answer recorded plus the counter
   deltas over the run.  Strictly observe-only: the answer path is the
   same code, and span/counter recording never feeds back into it — the
   no-profile response is bit-identical (property-tested). *)
let profiled (ctx : context) run =
  if not ctx.profile then run ctx
  else begin
    let obs = match ctx.obs with Some o -> o | None -> Obs.deterministic () in
    let before = Obs.Profile.snapshot obs.Obs.metrics in
    (* roots recorded before this answer (e.g. earlier requests on a
       shared handle) are not ours: remember where the forest ends *)
    let mark = List.length (Obs.Trace.roots obs.Obs.trace) in
    match run { ctx with obs = Some obs } with
    | Error _ as e -> e
    | Ok resp ->
      let profile =
        match List.nth_opt (Obs.Trace.roots obs.Obs.trace) mark with
        | Some root ->
          Some (Obs.Profile.of_span ~before ~metrics:obs.Obs.metrics root)
        | None -> None
      in
      Ok { resp with profile }
  end

let answer ctx request =
  profiled ctx (fun ctx ->
      let check_access plan = check_rbac ctx ~user:request.user plan in
      let roles = Rbac.Core_rbac.authorized_roles ctx.rbac request.user in
      answer_common ctx ~check_access ~roles ~query:request.query
        ~purpose:request.purpose ~perc:request.perc)

let answer_session ctx session query ~purpose ~perc =
  profiled ctx (fun ctx ->
      let check_access plan =
        check_rbac_with
          ~who:
            (Printf.sprintf "session of %S"
               (Rbac.Core_rbac.session_user session))
          ~check:(fun p -> Rbac.Core_rbac.check_session ctx.rbac session p)
          plan
      in
      (* session roles plus their juniors select the policies *)
      let roles =
        List.concat_map
          (fun r -> r :: Rbac.Core_rbac.junior_roles ctx.rbac r)
          (Rbac.Core_rbac.session_roles session)
      in
      answer_common ctx ~check_access ~roles ~query ~purpose ~perc)

let accept_proposal ctx proposal =
  { ctx with db = Db.apply_increments ctx.db proposal.increments }

module Session = struct
  type session = { mutable ctx : context }
  type t = session

  let create ?plan_capacity ?conf_max_entries ctx =
    let caches =
      match ctx.caches with
      | Some caches -> caches
      | None -> Caches.create ?plan_capacity ?conf_max_entries ()
    in
    { ctx = { ctx with caches = Some caches } }

  let context t = t.ctx
  let set_context t ctx = t.ctx <- { ctx with caches = t.ctx.caches }

  let caches t =
    match t.ctx.caches with Some c -> c | None -> assert false (* by create *)

  let cache_stats t = Caches.stats (caches t)

  let prepare t query =
    Plan_cache.find_or_compile ?obs:t.ctx.obs
      (Caches.plans (caches t))
      ~db:t.ctx.db ~views:t.ctx.views query

  (* serving-grade gauges: cache occupancy/counters, refreshed after every
     served answer so a metrics export always reflects the live serving
     state *)
  let export_gauges t =
    match t.ctx.obs with
    | None -> ()
    | Some _ as obs -> Caches.export_gauges (caches t) obs

  let answer t request =
    let obs = t.ctx.obs in
    let t0 = Obs.now obs in
    let r = answer t.ctx request in
    (* bounded sketch, not an exact series: sessions serve indefinitely
       and the latency histogram must stay fixed-memory *)
    Obs.observe_bounded obs "serving.answer_s" (Obs.now obs -. t0);
    export_gauges t;
    r

  let accept_proposal t proposal = t.ctx <- accept_proposal t.ctx proposal

  (* Prewarm then answer.  The prewarm compiles one prepared plan per
     distinct query text, evaluates it once, and computes every distinct
     uncached lineage class — in parallel over the {!Exec} pool when
     [ctx.jobs > 1].  Per-class confidence is a pure function of the
     formula and the confidences (Monte-Carlo seeds derive from the
     formula hash), so the parallel computation is deterministic and the
     single-threaded answers below read bit-identical values; the caches
     themselves are only written from this orchestrator thread. *)
  let batch t requests =
    let ctx = t.ctx in
    let obs = ctx.obs in
    let conf = Caches.conf (caches t) in
    let t0 = Obs.now obs in
    let responses =
      Obs.span obs "batch" (fun () ->
        (* distinct query texts in first-appearance order, with the
           requests that issued them *)
        let order = ref [] in
        let groups : (string, Query.t * request list ref) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter
          (fun req ->
            let key = Prepared.key_of_query req.query in
            match Hashtbl.find_opt groups key with
            | Some (_, reqs) -> reqs := req :: !reqs
            | None ->
              Hashtbl.add groups key (req.query, ref [ req ]);
              order := key :: !order)
          requests;
        Conf_cache.sync ?obs conf ~db:ctx.db;
        let fresh : unit Lineage.Formula.Table.t =
          Lineage.Formula.Table.create 64
        in
        List.iter
          (fun key ->
            let query, reqs = Hashtbl.find groups key in
            match prepare t query with
            | Error _ -> () (* the per-request answer reports the error *)
            | Ok p ->
              (* warm only what some batch member may access: evaluation
                 is RBAC-gated in the cold path, and the prewarm must not
                 do work no request could trigger *)
              let accessible =
                List.exists
                  (fun req ->
                    check_rbac ctx ~user:req.user (Prepared.plan p) = Ok ())
                  !reqs
              in
              if accessible then
                match Prepared.eval ?obs p ~db:ctx.db with
                | Error _ -> ()
                | Ok res ->
                  List.iter
                    (fun r ->
                      let f = r.Relational.Eval.lineage in
                      if
                        not
                          (Conf_cache.mem conf f
                          || Lineage.Formula.Table.mem fresh f)
                      then Lineage.Formula.Table.add fresh f ())
                    res.Relational.Eval.rows)
          (List.rev !order);
        let distinct =
          Array.of_list
            (Lineage.Formula.Table.fold (fun f () acc -> f :: acc) fresh [])
        in
        let p = Db.confidence_fn ctx.db in
        (* each prewarmed class is a ["prewarm-class"] task span stitched
           under the open [batch] span in class order; the rung a class
           used comes back with its value and is counted post-join, so
           worker domains never touch the shared registry *)
        let fork = Obs.fork obs in
        let compute i f =
          Obs.task fork
            ~attrs:[ ("class", string_of_int i) ]
            "prewarm-class"
            (fun _ ->
              let tier = ref Lineage.Approx.Var in
              let e =
                Lineage.Approx.confidence ~on_tier:(fun rung -> tier := rung) p f
              in
              ((f, e), !tier))
        in
        let outs =
          if Array.length distinct = 0 then [||]
          else
            Exec.with_pool_opt ~jobs:ctx.jobs (fun pool ->
                match pool with
                | Some pool -> Exec.Pool.mapi_array pool compute distinct
                | None -> Array.mapi compute distinct)
        in
        Obs.stitch fork (Array.map snd outs);
        Array.iter
          (fun ((_, rung), _) ->
            Obs.incr obs (ladder_counter rung))
          outs;
        let values = Array.map (fun ((fv, _), _) -> fv) outs in
        Conf_cache.warm ?obs conf ~db:ctx.db (Array.to_list values);
        Obs.add_attr obs "requests" (string_of_int (List.length requests));
        Obs.add_attr obs "prewarmed" (string_of_int (Array.length distinct));
        (* answer every request in submission order; plans and confidence
           classes now come from the warm caches *)
        List.map (fun req -> answer t req) requests)
    in
    Obs.observe_bounded obs "serving.batch_s" (Obs.now obs -. t0);
    export_gauges t;
    responses
end
