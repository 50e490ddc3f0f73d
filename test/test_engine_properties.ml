(* Property tests of the whole PCQE pipeline on randomly generated
   databases, queries and policies.

   The invariants:
   1. soundness  - no released result has confidence <= the effective
      threshold (the security property of the whole system);
   2. completeness - released + withheld accounts for every query result;
   3. proposals deliver - accepting a proposal and re-asking releases at
      least [ceil (perc * n)] results (or at least as many as projected);
   4. improvement monotone - accepting a proposal never lowers any stored
      confidence;
   5. determinism - answering twice gives identical releases;
   6. observe-only - enabling observability changes no response field. *)

module Db = Relational.Database
module V = Relational.Value
module S = Relational.Schema
module R = Relational.Relation
module Sm = Prng.Splitmix
module E = Pcqe.Engine

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* random database: two relations with random sizes (at most [r_rows]
   and [s_rows] rows), values and confidences *)
let random_db ?(r_rows = 8) ?(s_rows = 6) rng =
  let r = R.create "R" (S.of_list [ ("k", V.TString); ("n", V.TInt) ]) in
  let s = R.create "S" (S.of_list [ ("k", V.TString); ("m", V.TInt) ]) in
  let db = Db.add_relation (Db.add_relation Db.empty r) s in
  let keys = [| "a"; "b"; "c"; "d" |] in
  let fill db rel count =
    let rec go db i =
      if i = 0 then db
      else
        let vs =
          [ V.String (Sm.choice rng keys); V.Int (Sm.int_in rng 0 9) ]
        in
        let conf = Sm.float_in rng 0.05 0.95 in
        go (fst (Db.insert db rel vs ~conf)) (i - 1)
    in
    go db count
  in
  let db = fill db "R" (Sm.int_in rng 1 r_rows) in
  fill db "S" (Sm.int_in rng 0 s_rows)

let queries =
  [|
    "SELECT k, n FROM R";
    "SELECT k FROM R WHERE n > 3";
    "SELECT R.k, S.m FROM R JOIN S ON R.k = S.k";
    "SELECT R.k, S.m FROM R LEFT JOIN S ON R.k = S.k";
    "SELECT n FROM R WHERE R.k IN (SELECT k FROM S)";
    "SELECT k FROM R UNION SELECT k FROM S";
    "SELECT k, COUNT(*) AS c FROM R GROUP BY k";
  |]

let mk_ctx rng db beta =
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_user (add_role empty "analyst") "u" in
    let m = ok (assign_user m ~user:"u" ~role:"analyst") in
    ok (grant m ~role:"analyst" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta ]
  in
  (* one fixed model per relation, chosen up front: cost_of must be a pure
     function of the tuple id (the engine may call it many times) *)
  let model_r =
    if Sm.bool rng then Cost.Cost_model.linear ~rate:(float_of_int (Sm.int_in rng 1 100))
    else Cost.Cost_model.binomial ~scale:(float_of_int (Sm.int_in rng 1 100))
  in
  let model_s =
    if Sm.bool rng then Cost.Cost_model.linear ~rate:(float_of_int (Sm.int_in rng 1 100))
    else Cost.Cost_model.binomial ~scale:(float_of_int (Sm.int_in rng 1 100))
  in
  let cost_of tid =
    if tid.Lineage.Tid.rel = "R" then model_r else model_s
  in
  E.make_context ~cost_of ~db ~rbac ~policies ()

let scenario seed =
  let rng = Sm.of_int seed in
  let db = random_db rng in
  let beta = Sm.float_in rng 0.1 0.9 in
  let sql = Sm.choice rng queries in
  let perc = Sm.float_in rng 0.0 1.0 in
  let ctx = mk_ctx rng db beta in
  let request =
    { E.query = Pcqe.Query.sql sql; user = "u"; purpose = "task"; perc }
  in
  (ctx, request, beta)

let qcheck_soundness =
  QCheck.Test.make ~name:"released results exceed the threshold" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, request, beta = scenario seed in
      match E.answer ctx request with
      | Error _ -> QCheck.assume_fail ()
      | Ok resp ->
        List.for_all (fun r -> r.E.confidence > beta) resp.E.released)

let qcheck_accounting =
  QCheck.Test.make ~name:"released + withheld covers every result" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, request, _ = scenario seed in
      match E.answer ctx request with
      | Error _ -> QCheck.assume_fail ()
      | Ok resp -> (
        (* recompute the result count independently *)
        match Pcqe.Query.to_plan request.E.query with
        | Error _ -> false
        | Ok plan -> (
          match Relational.Eval.run ctx.E.db plan with
          | Error _ -> false
          | Ok res ->
            List.length resp.E.released + resp.E.withheld
            = List.length res.Relational.Eval.rows)))

let qcheck_proposal_delivers =
  QCheck.Test.make ~name:"accepted proposals release the projection" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, request, _ = scenario seed in
      match E.answer ctx request with
      | Error _ -> QCheck.assume_fail ()
      | Ok resp -> (
        match resp.E.proposal with
        | None -> QCheck.assume_fail ()
        | Some proposal -> (
          let ctx' = E.accept_proposal ctx proposal in
          match E.answer ctx' request with
          | Error _ -> false
          | Ok resp' ->
            List.length resp'.E.released >= proposal.E.projected_release)))

let qcheck_improvement_monotone =
  QCheck.Test.make ~name:"improvement never lowers a confidence" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, request, _ = scenario seed in
      match E.answer ctx request with
      | Error _ -> QCheck.assume_fail ()
      | Ok resp -> (
        match resp.E.proposal with
        | None -> QCheck.assume_fail ()
        | Some proposal ->
          let ctx' = E.accept_proposal ctx proposal in
          List.for_all
            (fun (tid, before) -> Db.confidence ctx'.E.db tid >= before -. 1e-12)
            (Db.all_confidences ctx.E.db)))

let qcheck_deterministic =
  QCheck.Test.make ~name:"answering is deterministic" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, request, _ = scenario seed in
      match (E.answer ctx request, E.answer ctx request) with
      | Ok a, Ok b ->
        List.length a.E.released = List.length b.E.released
        && a.E.withheld = b.E.withheld
        && List.for_all2
             (fun x y -> Float.abs (x.E.confidence -. y.E.confidence) < 1e-12)
             a.E.released b.E.released
      | Error _, Error _ -> true
      | _ -> false)

(* field-by-field response comparison shared by the observe-only
   properties below (the [profile] field is deliberately not compared:
   it is the one field profiling is allowed to add) *)
let same_proposal (a : E.proposal option) (b : E.proposal option) =
  match (a, b) with
  | None, None -> true
  | Some p, Some q ->
    p.E.increments = q.E.increments
    && Float.abs (p.E.cost -. q.E.cost) < 1e-12
    && p.E.projected_release = q.E.projected_release
    && p.E.solver_name = q.E.solver_name
    && p.E.solver_detail = q.E.solver_detail
  | _ -> false

let same_response (a : E.response) (b : E.response) =
  a.E.schema = b.E.schema
  && a.E.withheld = b.E.withheld
  && a.E.ambiguous = b.E.ambiguous
  && a.E.requested = b.E.requested
  && a.E.threshold = b.E.threshold
  && a.E.infeasible = b.E.infeasible
  && a.E.degraded = b.E.degraded
  && List.length a.E.released = List.length b.E.released
  && List.for_all2
       (fun x y ->
         x.E.tuple = y.E.tuple
         && Float.abs (x.E.confidence -. y.E.confidence) < 1e-12)
       a.E.released b.E.released
  && same_proposal a.E.proposal b.E.proposal

(* observability must be strictly observe-only: the same request answered
   with tracing and metrics enabled (deterministic counter clock) yields a
   response identical in every field to the plain one *)
let qcheck_obs_transparent =
  QCheck.Test.make ~name:"enabling observability changes no answer" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, request, _ = scenario seed in
      let obs = Obs.deterministic () in
      let traced = { ctx with E.obs = Some obs } in
      match (E.answer ctx request, E.answer traced request) with
      | Ok a, Ok b ->
        same_response a b
        (* and the traced run actually recorded the pipeline *)
        && (match Obs.Trace.roots obs.Obs.trace with
           | [ root ] -> root.Obs.Trace.name = "answer"
           | _ -> false)
      | Error a, Error b -> a = b
      | _ -> false)

(* the per-request profiler is observe-only too, at every solver and
   every jobs level (pool task spans and all): a profiled answer is
   bit-identical to the plain one, and carries a profile rooted at the
   answer span *)
let qcheck_profile_transparent =
  let solvers =
    [
      Optimize.Solver.heuristic;
      Optimize.Solver.greedy;
      Optimize.Solver.divide_conquer;
      Optimize.Solver.annealing;
    ]
  in
  QCheck.Test.make ~name:"profiling changes no answer (solvers x jobs)"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      List.for_all
        (fun solver ->
          List.for_all
            (fun jobs ->
              let ctx, request, _ = scenario seed in
              let ctx = { ctx with E.solver; jobs } in
              let profiling = { ctx with E.profile = true } in
              match (E.answer ctx request, E.answer profiling request) with
              | Ok a, Ok b ->
                same_response a b
                && a.E.profile = None
                && (match b.E.profile with
                   | Some p -> (
                     match p.Obs.Profile.stages with
                     | root :: _ -> root.Obs.Profile.path = [ "answer" ]
                     | [] -> false)
                   | None -> false)
              | Error a, Error b -> a = b
              | _ -> false)
            [ 1; 2; 4 ])
        solvers)

(* Hierarchical ("safe") shapes over two distinct relations: scan and
   select, projection and DISTINCT, a join and a LEFT JOIN, and the set
   operators.  Every row's lineage is read-once, so the ladder prices it
   at its var or read_once rung, and possible-worlds probability
   ([Prob.exact] of the lineage) is the reference it must meet. *)
let read_once_queries =
  [|
    "SELECT * FROM R";
    "SELECT * FROM R WHERE n > 3";
    "SELECT k FROM R";
    "SELECT DISTINCT k, n FROM R WHERE n < 6";
    "SELECT * FROM R JOIN S ON R.k = S.k";
    "SELECT * FROM R, S WHERE R.n < S.m";
    "SELECT * FROM R LEFT JOIN S ON R.k = S.k";
    "SELECT k FROM R UNION SELECT k FROM S";
    "SELECT k FROM R INTERSECT SELECT k FROM S";
    "SELECT k FROM R EXCEPT SELECT k FROM S";
  |]

let qcheck_read_once_exact =
  QCheck.Test.make ~name:"read-once shapes price exactly" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let db = random_db ~r_rows:6 ~s_rows:6 rng in (* at most 12 tuples *)
      let beta = Sm.float_in rng 0.1 0.9 in
      let sql = Sm.choice rng read_once_queries in
      let ctx = mk_ctx rng db beta in
      (* no policy covers purpose "open": every row comes back priced *)
      let request purpose =
        { E.query = Pcqe.Query.sql sql; user = "u"; purpose; perc = 0.0 }
      in
      let above ctx =
        let all = ok (E.answer ctx (request "open")) in
        let p = Db.confidence_fn ctx.E.db in
        let exact (r : E.released) = Lineage.Prob.exact p r.E.lineage in
        let priced =
          List.for_all
            (fun r ->
              Float.abs (r.E.confidence -. exact r) <= 1e-12
              && (r.E.conf_tier = "var" || r.E.conf_tier = "read_once"))
            all.E.released
        in
        (priced, List.filter (fun r -> exact r > beta) all.E.released)
      in
      let releases expected (resp : E.response) =
        List.equal
          (fun (a : E.released) (b : E.released) ->
            Relational.Tuple.equal a.E.tuple b.E.tuple
            && Lineage.Formula.equal a.E.lineage b.E.lineage)
          expected resp.E.released
      in
      let priced, expected = above ctx in
      let session = E.Session.create ctx in
      let first = ok (E.Session.answer session (request "task")) in
      (* a confidence write between session answers: the warm re-answer
         must track it exactly *)
      let tid = Lineage.Tid.make "R" 0 in
      let ctx' = { ctx with E.db = Db.set_confidence db tid (Sm.float_in rng 0.0 1.0) } in
      E.Session.set_context session ctx';
      let priced', expected' = above ctx' in
      priced && priced'
      && releases expected (ok (E.answer ctx (request "task")))
      && releases expected first
      && releases expected' (ok (E.Session.answer session (request "task"))))

let () =
  Alcotest.run "engine-properties"
    [
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest qcheck_soundness;
          QCheck_alcotest.to_alcotest qcheck_accounting;
          QCheck_alcotest.to_alcotest qcheck_proposal_delivers;
          QCheck_alcotest.to_alcotest qcheck_improvement_monotone;
          QCheck_alcotest.to_alcotest qcheck_deterministic;
          QCheck_alcotest.to_alcotest qcheck_obs_transparent;
          QCheck_alcotest.to_alcotest qcheck_profile_transparent;
          QCheck_alcotest.to_alcotest qcheck_read_once_exact;
        ] );
    ]
