(* The staged serving pipeline: database epochs, the prepared-plan
   cache, the per-epoch confidence cache, and the Engine.Session batch
   surface.

   The load-bearing invariant throughout is transparency: a warm answer
   (shared prepared plans, cached lineage-class confidences) must be
   bit-identical to the cold per-request path — same released tuples,
   same confidences, same withheld counts, same proposals — across all
   four solvers, under a logical deadline, and at the suite's
   PCQE_JOBS=2 parallelism. *)

module Db = Relational.Database
module V = Relational.Value
module S = Relational.Schema
module R = Relational.Relation
module Vw = Relational.Views
module Sm = Prng.Splitmix
module E = Pcqe.Engine
module Tid = Lineage.Tid

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ------------------------------------------------------------------ *)
(* database epochs *)

let test_epoch_split () =
  let r = R.create "R" (S.of_list [ ("n", V.TInt) ]) in
  let db0 = Db.empty in
  let db1 = Db.add_relation db0 r in
  Alcotest.(check bool) "add_relation bumps structural" true
    (Db.structural_epoch db1 > Db.structural_epoch db0);
  Alcotest.(check int) "add_relation leaves confidence"
    (Db.confidence_epoch db0) (Db.confidence_epoch db1);
  let db2, tid = Db.insert db1 "R" [ V.Int 1 ] ~conf:0.5 in
  Alcotest.(check bool) "insert bumps structural" true
    (Db.structural_epoch db2 > Db.structural_epoch db1);
  Alcotest.(check bool) "insert bumps confidence" true
    (Db.confidence_epoch db2 > Db.confidence_epoch db1);
  let db3 = Db.set_confidence db2 tid 0.7 in
  Alcotest.(check int) "set_confidence leaves structural"
    (Db.structural_epoch db2) (Db.structural_epoch db3);
  Alcotest.(check bool) "set_confidence bumps confidence" true
    (Db.confidence_epoch db3 > Db.confidence_epoch db2)

let test_changed_since () =
  let r = R.create "R" (S.of_list [ ("n", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let db, t1 = Db.insert db "R" [ V.Int 1 ] ~conf:0.5 in
  let db, t2 = Db.insert db "R" [ V.Int 2 ] ~conf:0.5 in
  let e0 = Db.confidence_epoch db in
  Alcotest.(check bool) "current epoch -> empty set" true
    (Db.changed_since db ~since:e0 = Some Tid.Set.empty);
  let db' = Db.set_confidence db t1 0.6 in
  let db' = Db.set_confidence db' t2 0.7 in
  let db' = Db.set_confidence db' t1 0.8 in
  (match Db.changed_since db' ~since:e0 with
  | Some dirty ->
    Alcotest.(check (list string)) "dirty set is exactly {t1, t2}"
      (List.sort compare [ Tid.to_string t1; Tid.to_string t2 ])
      (List.sort compare (List.map Tid.to_string (Tid.Set.elements dirty)))
  | None -> Alcotest.fail "changed_since lost a 3-entry gap");
  (* stamps from a divergent sibling history are rejected *)
  let sibling = Db.set_confidence db t1 0.9 in
  Alcotest.(check bool) "sibling stamp -> None" true
    (Db.changed_since db' ~since:(Db.confidence_epoch sibling) = None)

let test_changed_since_truncation () =
  let r = R.create "R" (S.of_list [ ("n", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let db, tid = Db.insert db "R" [ V.Int 1 ] ~conf:0.0 in
  let e0 = Db.confidence_epoch db in
  (* push the bounded change log past its capacity: the old stamp must
     answer None (wholesale flush), never a partial dirty set *)
  let db' = ref db in
  for i = 1 to 400 do
    db' := Db.set_confidence !db' tid (float_of_int i /. 1000.0)
  done;
  Alcotest.(check bool) "overflowed gap -> None" true
    (Db.changed_since !db' ~since:e0 = None);
  (* a gap that still fits in the log is answered exactly *)
  let e_recent = Db.confidence_epoch !db' in
  let db'' = Db.set_confidence !db' tid 0.99 in
  Alcotest.(check bool) "recent gap still answered" true
    (Db.changed_since db'' ~since:e_recent = Some (Tid.Set.singleton tid))

let test_views_epoch () =
  let v0 = Vw.empty in
  let v1 = ok (Vw.of_sql v0 ~name:"A" "SELECT n FROM R") in
  Alcotest.(check bool) "add bumps" true (Vw.epoch v1 > Vw.epoch v0);
  let v2 = ok (Vw.of_sql v1 ~name:"A" "SELECT n FROM R WHERE n > 1") in
  Alcotest.(check bool) "redefinition bumps" true (Vw.epoch v2 > Vw.epoch v1);
  let v3 = Vw.remove v2 "missing" in
  Alcotest.(check int) "removing nothing keeps the epoch" (Vw.epoch v2)
    (Vw.epoch v3);
  let v4 = Vw.remove v2 "A" in
  Alcotest.(check bool) "remove bumps" true (Vw.epoch v4 > Vw.epoch v2)

(* a prepared plan pins the structural epoch: a confidence write keeps it
   valid, an insert retires it *)
let test_prepared_pins_epoch () =
  let r = R.create "R" (S.of_list [ ("n", V.TInt) ]) in
  let db, tid = Db.insert (Db.add_relation Db.empty r) "R" [ V.Int 1 ] ~conf:0.5 in
  let views = Vw.empty in
  let p =
    ok (Pcqe.Prepared.compile ~db ~views (Pcqe.Query.sql "SELECT n FROM R"))
  in
  Alcotest.(check bool) "valid against the compiling db" true
    (Pcqe.Prepared.valid p ~db ~views);
  Alcotest.(check bool) "confidence write keeps it valid" true
    (Pcqe.Prepared.valid p ~db:(Db.set_confidence db tid 0.9) ~views);
  Alcotest.(check bool) "insert retires it" false
    (Pcqe.Prepared.valid p ~db:(fst (Db.insert db "R" [ V.Int 2 ] ~conf:0.5)) ~views)

(* ------------------------------------------------------------------ *)
(* fixtures *)

let mk_rbac () =
  let open Rbac.Core_rbac in
  let m = add_user (add_role empty "analyst") "u" in
  let m = ok (assign_user m ~user:"u" ~role:"analyst") in
  ok (grant m ~role:"analyst" { action = "select"; resource = "*" })

let mk_ctx ?views ?(beta = 0.6) ~confs () =
  let r = R.create "R" (S.of_list [ ("n", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let db, tids =
    List.fold_left
      (fun (db, tids) (i, conf) ->
        let db, tid = Db.insert db "R" [ V.Int i ] ~conf in
        (db, tid :: tids))
      (db, [])
      (List.mapi (fun i c -> (i, c)) confs)
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta ]
  in
  ( E.make_context ?views ~db ~rbac:(mk_rbac ()) ~policies (),
    List.rev tids )

let request ?(sql = "SELECT n FROM R") ?(perc = 0.5) () =
  { E.query = Pcqe.Query.sql sql; user = "u"; purpose = "task"; perc }

let stat session name =
  match List.assoc_opt name (E.Session.cache_stats session) with
  | Some v -> v
  | None -> Alcotest.failf "missing cache stat %s" name

(* ------------------------------------------------------------------ *)
(* prepared-plan cache *)

(* A self-join: its rows carry multi-tuple lineage, so answers go
   through the confidence cache (single-tuple lineage is priced by one
   base-confidence lookup, without it). *)
let self_join_sql = "SELECT X.n FROM R AS X, R AS Y WHERE X.n < Y.n"

let test_plan_cache_hit_miss () =
  let ctx, _ = mk_ctx ~confs:[ 0.9; 0.8; 0.7 ] () in
  let session = E.Session.create ctx in
  (* rows n=0 ((r0 & r1) | (r0 & r2), 0.846) and n=1 (r1 & r2, 0.56):
     one release meets perc 0.5, so no strategy finding runs *)
  let req = request ~sql:self_join_sql () in
  let a = ok (E.Session.answer session req) in
  let b = ok (E.Session.answer session req) in
  Alcotest.(check int) "same releases" (List.length a.E.released)
    (List.length b.E.released);
  Alcotest.(check int) "one compile" 1 (stat session "prepared.miss");
  Alcotest.(check int) "one reuse" 1 (stat session "prepared.hit");
  Alcotest.(check int) "one class per result row" 2
    (stat session "conf.entries");
  Alcotest.(check int) "second answer served from cache" 2
    (stat session "serving.reused_classes")

let test_plan_cache_structural_invalidation () =
  let ctx, _ = mk_ctx ~confs:[ 0.9; 0.8 ] () in
  let session = E.Session.create ctx in
  let req = request ~perc:0.0 () in
  let a = ok (E.Session.answer session req) in
  Alcotest.(check int) "two rows" 2 (List.length a.E.released);
  (* tuple mutation advances the structural epoch: the prepared plan and
     its memoized evaluation must both be retired *)
  let db', _ = Db.insert (E.Session.context session).E.db "R" [ V.Int 9 ] ~conf:0.9 in
  E.Session.set_context session { (E.Session.context session) with E.db = db' };
  let b = ok (E.Session.answer session req) in
  Alcotest.(check int) "new row visible" 3 (List.length b.E.released);
  Alcotest.(check int) "recompiled" 2 (stat session "prepared.miss")

(* mutating a view definition must invalidate prepared plans that
   expanded it — the view store participates in epoch validation *)
let test_view_mutation_invalidates_plans () =
  let views = ok (Vw.of_sql Vw.empty ~name:"Big" "SELECT n FROM R WHERE n >= 1") in
  let ctx, _ = mk_ctx ~views ~confs:[ 0.9; 0.8; 0.7 ] () in
  let session = E.Session.create ctx in
  let req = request ~sql:"SELECT n FROM Big" ~perc:0.0 () in
  let a = ok (E.Session.answer session req) in
  Alcotest.(check int) "view selects two rows" 2 (List.length a.E.released);
  let views' = ok (Vw.of_sql views ~name:"Big" "SELECT n FROM R WHERE n >= 2") in
  E.Session.set_context session
    { (E.Session.context session) with E.views = views' };
  let b = ok (E.Session.answer session req) in
  Alcotest.(check int) "redefined view answers through the new plan" 1
    (List.length b.E.released);
  Alcotest.(check int) "stale plan retired, not reused" 2
    (stat session "prepared.miss");
  Alcotest.(check int) "no false hit" 0 (stat session "prepared.hit")

let test_plan_cache_eviction () =
  let ctx, _ = mk_ctx ~confs:[ 0.9 ] () in
  let session = E.Session.create ~plan_capacity:2 ctx in
  List.iter
    (fun sql -> ignore (ok (E.Session.prepare session (Pcqe.Query.sql sql))))
    [
      "SELECT n FROM R";
      "SELECT n FROM R WHERE n > 0";
      "SELECT n FROM R WHERE n > 1";
    ];
  Alcotest.(check int) "capacity-bounded" 1 (stat session "prepared.evict");
  Alcotest.(check int) "two entries live" 2 (stat session "plans.entries")

(* ------------------------------------------------------------------ *)
(* accept_proposal: prepared plan reused, only dirty classes recomputed *)

let test_accept_proposal_reuse () =
  (* self-join pairing r_i with r_(i+4): four rows with disjoint
     two-tuple lineage, each at 0.25 under beta 0.6 with perc 0.5 — the
     solver must raise both tuples of some rows, leaving the other
     rows' lineage classes untouched *)
  let ctx, tids = mk_ctx ~confs:(List.init 8 (fun _ -> 0.5)) () in
  let tids = Array.of_list tids in
  let session = E.Session.create ctx in
  let req =
    request ~perc:0.5
      ~sql:"SELECT X.n FROM R AS X, R AS Y WHERE X.n + 4 = Y.n" ()
  in
  let resp = ok (E.Session.answer session req) in
  let proposal =
    match resp.E.proposal with
    | Some p -> p
    | None -> Alcotest.fail "expected a proposal"
  in
  let miss0 = stat session "prepared.miss" in
  let reused0 = stat session "serving.reused_classes" in
  let recomputed0 = stat session "serving.recomputed_classes" in
  E.Session.accept_proposal session proposal;
  let resp' = ok (E.Session.answer session req) in
  Alcotest.(check bool) "improvement delivered" true
    (List.length resp'.E.released >= proposal.E.projected_release);
  Alcotest.(check int) "prepared plan reused (no recompile)" miss0
    (stat session "prepared.miss");
  Alcotest.(check int) "four rows" 4
    (List.length resp.E.released + resp.E.withheld);
  (* row i's class is dirty when r_i or r_(i+4) was raised *)
  let raised tid = List.mem_assoc tid proposal.E.increments in
  let dirty =
    List.length
      (List.filter
         (fun i -> raised tids.(i) || raised tids.(i + 4))
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check bool) "solver dirtied a strict subset" true
    (dirty >= 1 && dirty < 4);
  Alcotest.(check int) "exactly the dirty classes recomputed" dirty
    (stat session "serving.recomputed_classes" - recomputed0);
  Alcotest.(check int) "exactly the dirty classes invalidated" dirty
    (stat session "serving.invalidated_classes");
  Alcotest.(check int) "every untouched class reused" (4 - dirty)
    (stat session "serving.reused_classes" - reused0)

(* Strategy finding prices its solver probes with the circuits the
   confidence stage compiled into the serving cache: running it builds
   no circuit of its own. *)
let test_strategy_finding_reuses_circuits () =
  let r = R.create "R" (S.of_list [ ("k", V.TInt); ("n", V.TInt) ]) in
  let db =
    List.fold_left
      (fun db i ->
        fst (Db.insert (db : Db.t) "R" [ V.Int (i mod 2); V.Int i ] ~conf:0.3))
      (Db.add_relation Db.empty r) (List.init 6 Fun.id)
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta:0.9 ]
  in
  (* DISTINCT over a self-join: each output row's lineage reuses the
     same tuples across terms, so it is priced by the circuit rung *)
  let sql = "SELECT DISTINCT X.k FROM R AS X, R AS Y WHERE X.n < Y.n" in
  let counters perc =
    let obs = Obs.deterministic () in
    let ctx = E.make_context ~obs ~db ~rbac:(mk_rbac ()) ~policies () in
    let session = E.Session.create ctx in
    let resp = ok (E.Session.answer session (request ~sql ~perc ())) in
    let counter name = Obs.Metrics.counter obs.Obs.metrics name in
    (resp, counter "ladder.circuit_build", counter "ladder.circuit_reeval")
  in
  let confidence_only, built, reeval = counters 0.0 in
  Alcotest.(check bool) "no strategy finding at perc 0" true
    (confidence_only.E.proposal = None);
  Alcotest.(check bool) "circuits built by the confidence stage" true (built > 0);
  let with_solver, built', reeval' = counters 1.0 in
  Alcotest.(check bool) "strategy finding ran" true
    (with_solver.E.proposal <> None);
  Alcotest.(check int) "no circuit built by strategy finding" built built';
  (* each withheld row's class is read from the cache twice: once to
     build the instance, once to project the release *)
  Alcotest.(check int) "instance and projection read the cached circuits"
    (2 * with_solver.E.withheld) (reeval' - reeval)

(* ------------------------------------------------------------------ *)
(* transparency: batch-with-caches == per-request cold answers *)

let random_db rng =
  let r = R.create "R" (S.of_list [ ("k", V.TString); ("n", V.TInt) ]) in
  let s = R.create "S" (S.of_list [ ("k", V.TString); ("m", V.TInt) ]) in
  let db = Db.add_relation (Db.add_relation Db.empty r) s in
  let keys = [| "a"; "b"; "c"; "d" |] in
  let fill db rel count =
    let rec go db i =
      if i = 0 then db
      else
        let vs = [ V.String (Sm.choice rng keys); V.Int (Sm.int_in rng 0 9) ] in
        go (fst (Db.insert db rel vs ~conf:(Sm.float_in rng 0.05 0.95))) (i - 1)
    in
    go db count
  in
  let db = fill db "R" (Sm.int_in rng 1 8) in
  fill db "S" (Sm.int_in rng 0 6)

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

let solvers =
  [|
    Optimize.Solver.Heuristic
      { Optimize.Heuristic.default_config with max_nodes = Some 20_000 };
    Optimize.Solver.greedy;
    Optimize.Solver.divide_conquer;
    Optimize.Solver.Annealing
      { Optimize.Annealing.default_config with
        iterations = 20_000;
        restarts = 1;
      };
  |]

(* everything a requester (or the audit log, modulo cache counters) can
   observe; NaN-tolerant via [compare] *)
let fingerprint = function
  | Error m -> Error m
  | Ok (r : E.response) ->
    Ok
      ( r.E.schema,
        List.map (fun x -> (x.E.tuple, x.E.lineage, x.E.confidence)) r.E.released,
        r.E.withheld,
        r.E.ambiguous,
        r.E.requested,
        r.E.threshold,
        List.map Rbac.Policy.to_string r.E.applied_policies,
        Option.map
          (fun (p : E.proposal) ->
            ( p.E.increments,
              p.E.cost,
              p.E.projected_release,
              p.E.solver_name,
              p.E.solver_detail ))
          r.E.proposal,
        r.E.infeasible,
        r.E.degraded )

let scenario seed =
  let rng = Sm.of_int seed in
  let db = random_db rng in
  let beta = Sm.float_in rng 0.1 0.9 in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta ]
  in
  let solver = Sm.choice rng solvers in
  let deadline =
    if Sm.bool rng then Resilience.Deadline.No_deadline
    else Resilience.Deadline.Logical (Sm.int_in rng 1 200)
  in
  let ctx =
    E.make_context ~solver ~deadline ~db ~rbac:(mk_rbac ())
      ~policies ()
  in
  (* a handful of requests with deliberately repeated query texts, so the
     warm path actually shares plans and confidence classes *)
  let requests =
    List.init
      (Sm.int_in rng 2 6)
      (fun _ ->
        {
          E.query = Pcqe.Query.sql (Sm.choice rng queries);
          user = "u";
          purpose = "task";
          perc = Sm.float_in rng 0.0 1.0;
        })
  in
  (ctx, requests)

let qcheck_batch_transparent =
  QCheck.Test.make
    ~name:"batch with caches == cold per-request answers (all solvers)"
    ~count:120
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, requests = scenario seed in
      let cold = List.map (fun r -> E.answer ctx r) requests in
      let session = E.Session.create ctx in
      let filling = E.Session.batch session requests in
      let warm = E.Session.batch session requests in
      List.for_all2
        (fun c w -> compare (fingerprint c) (fingerprint w) = 0)
        cold filling
      && List.for_all2
           (fun c w -> compare (fingerprint c) (fingerprint w) = 0)
           cold warm)

let qcheck_accept_then_batch_transparent =
  QCheck.Test.make
    ~name:"post-accept re-answers stay identical to cold" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let ctx, requests = scenario seed in
      let session = E.Session.create ctx in
      let first = E.Session.batch session requests in
      let proposal =
        List.find_map
          (function Ok r -> r.E.proposal | Error _ -> None)
          first
      in
      match proposal with
      | None -> QCheck.assume_fail ()
      | Some proposal ->
        E.Session.accept_proposal session proposal;
        let ctx' = E.accept_proposal ctx proposal in
        let cold = List.map (fun r -> E.answer ctx' r) requests in
        let warm = E.Session.batch session requests in
        List.for_all2
          (fun c w -> compare (fingerprint c) (fingerprint w) = 0)
          cold warm)

(* one session serving many principals in two roles with different β:
   plans and lineage classes are shared across principals, answers are
   not — each principal's warm answer is its own cold one *)
let test_batch_across_principals () =
  let ctx, _ = mk_ctx ~confs:(List.init 8 (fun i -> 0.4 +. (0.07 *. float i))) () in
  let users = List.init 8 (fun i -> Printf.sprintf "p%d" i) in
  let role i = if i mod 2 = 0 then "analyst" else "auditor" in
  let assignments = List.mapi (fun i u -> (u, role i)) users in
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_role (add_role empty "analyst") "auditor" in
    let m =
      List.fold_left
        (fun m (u, role) -> ok (assign_user (add_user m u) ~user:u ~role))
        m assignments
    in
    List.fold_left
      (fun m role ->
        ok (grant m ~role { action = "select"; resource = "*" }))
      m [ "analyst"; "auditor" ]
  in
  let policies =
    Rbac.Policy.of_list
      [
        Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta:0.6;
        Rbac.Policy.make ~role:"auditor" ~purpose:"task" ~beta:0.3;
      ]
  in
  let ctx = { ctx with E.rbac; policies } in
  let requests =
    List.concat_map
      (fun user ->
        List.map
          (fun sql ->
            { E.query = Pcqe.Query.sql sql; user; purpose = "task"; perc = 0.5 })
          [ "SELECT n FROM R"; self_join_sql ])
      users
  in
  let cold = List.map (fun r -> fingerprint (E.answer ctx r)) requests in
  let session = E.Session.create ctx in
  let filling = List.map fingerprint (E.Session.batch session requests) in
  let warm = List.map fingerprint (E.Session.batch session requests) in
  Alcotest.(check int) "one plan per text, not per principal" 2
    (stat session "plans.entries");
  Alcotest.(check bool) "filling round == cold" true (compare cold filling = 0);
  Alcotest.(check bool) "warm round == cold" true (compare cold warm = 0)

(* every Session.answer lands in the bounded serving.answer_s histogram *)
let test_answer_latency_histogram () =
  let ctx, _ = mk_ctx ~confs:[ 0.9; 0.5 ] () in
  let obs = Obs.deterministic () in
  let session = E.Session.create { ctx with E.obs = Some obs } in
  for _ = 1 to 5 do
    ignore (ok (E.Session.answer session (request ())))
  done;
  match Obs.Metrics.histogram obs.Obs.metrics "serving.answer_s" with
  | Some h -> Alcotest.(check int) "one observation per answer" 5 h.Obs.Metrics.count
  | None -> Alcotest.fail "serving.answer_s histogram missing"

(* ------------------------------------------------------------------ *)
(* change-log overflow: a session more than 256 confidence writes behind
   drops its cached values, keeps its circuits and stays exact *)

(* A session warmed over a self-join takes a flood of accepted raises,
   more than the change log holds.  Its re-answer equals the cold engine
   on the flooded data. *)
let test_session_exact_after_flood () =
  let r = R.create "R" (S.of_list [ ("k", V.TInt); ("n", V.TInt) ]) in
  let rows = 48 in
  let db =
    List.fold_left
      (fun db i ->
        fst
          (Db.insert db "R"
             [ V.Int i; V.Int (i * 7 mod rows) ]
             ~conf:(0.35 +. (0.6 *. float (i * 13 mod rows) /. float rows))))
      (Db.add_relation Db.empty r) (List.init rows Fun.id)
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta:0.6 ]
  in
  let ctx = E.make_context ~db ~rbac:(mk_rbac ()) ~policies () in
  (* a self-join: its two-tuple classes are priced through the cache *)
  let req =
    request ~sql:"SELECT X.k FROM R AS X, R AS Y WHERE X.n = Y.k" ~perc:0.3 ()
  in
  let template =
    match E.answer ctx { req with E.perc = 1.0 } with
    | Ok { E.proposal = Some p; _ } -> p
    | _ -> Alcotest.fail "expected a proposal to carry the flood"
  in
  let flood = List.init (rows / 2) (fun i -> Tid.make "R" (2 * i)) in
  let rounds = 1 + (300 / List.length flood) in
  let target k = 0.96 +. (0.0001 *. float k) in
  let flooded =
    Db.apply_increments db
      (List.map (fun tid -> (tid, target (rounds - 1))) flood)
  in
  let cold = fingerprint (E.answer { ctx with E.db = flooded } req) in
  let session = E.Session.create ctx in
  Alcotest.(check bool) "warm == cold before the flood" true
    (compare
       (fingerprint (E.answer ctx req))
       (fingerprint (E.Session.answer session req))
    = 0);
  let since = Db.confidence_epoch (E.Session.context session).E.db in
  for k = 0 to rounds - 1 do
    E.Session.accept_proposal session
      { template with E.increments = List.map (fun tid -> (tid, target k)) flood }
  done;
  Alcotest.(check bool) "flood overflowed the change log" true
    (Db.changed_since (E.Session.context session).E.db ~since = None);
  Alcotest.(check bool) "post-flood answer == cold" true
    (compare cold (fingerprint (E.Session.answer session req)) = 0)

(* After a flood, an entangled class is re-priced from the circuit the
   cache compiled before it: the flush drops values, not circuits. *)
let test_flood_keeps_circuits () =
  let r = R.create "R" (S.of_list [ ("k", V.TInt); ("n", V.TInt) ]) in
  let db =
    List.fold_left
      (fun db i ->
        fst (Db.insert (db : Db.t) "R" [ V.Int (i mod 2); V.Int i ] ~conf:0.3))
      (Db.add_relation Db.empty r) (List.init 6 Fun.id)
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta:0.9 ]
  in
  (* DISTINCT over a self-join: priced by the circuit rung *)
  let req =
    request ~sql:"SELECT DISTINCT X.k FROM R AS X, R AS Y WHERE X.n < Y.n"
      ~perc:0.0 ()
  in
  let obs = Obs.deterministic () in
  let ctx = E.make_context ~obs ~db ~rbac:(mk_rbac ()) ~policies () in
  let session = E.Session.create ctx in
  ignore (ok (E.Session.answer session req));
  let counter name = Obs.Metrics.counter obs.Obs.metrics name in
  let built = counter "ladder.circuit_build" in
  let reeval = counter "ladder.circuit_reeval" in
  Alcotest.(check bool) "circuits built" true (built > 0);
  let flooded = ref db in
  for i = 1 to 300 do
    flooded :=
      Db.set_confidence !flooded
        (Tid.make "R" (i mod 6))
        (0.3 +. (0.6 *. float i /. 300.0))
  done;
  Alcotest.(check bool) "flood overflowed the change log" true
    (Db.changed_since !flooded ~since:(Db.confidence_epoch db) = None);
  E.Session.set_context session
    { (E.Session.context session) with E.db = !flooded };
  let warm = fingerprint (E.Session.answer session req) in
  Alcotest.(check int) "no circuit rebuilt" built (counter "ladder.circuit_build");
  Alcotest.(check int) "every circuit re-evaluated" built
    (counter "ladder.circuit_reeval" - reeval);
  Alcotest.(check bool) "post-flood answer == cold" true
    (compare warm
       (fingerprint (E.answer { ctx with E.db = !flooded; obs = None } req))
    = 0)

let () =
  Alcotest.run "serving"
    [
      ( "epochs",
        [
          Alcotest.test_case "structural vs confidence" `Quick test_epoch_split;
          Alcotest.test_case "changed_since" `Quick test_changed_since;
          Alcotest.test_case "changed_since truncation" `Quick
            test_changed_since_truncation;
          Alcotest.test_case "views epoch" `Quick test_views_epoch;
          Alcotest.test_case "prepared pins the epoch" `Quick
            test_prepared_pins_epoch;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_plan_cache_hit_miss;
          Alcotest.test_case "structural invalidation" `Quick
            test_plan_cache_structural_invalidation;
          Alcotest.test_case "view mutation invalidates" `Quick
            test_view_mutation_invalidates_plans;
          Alcotest.test_case "LRU eviction" `Quick test_plan_cache_eviction;
        ] );
      ( "serving",
        [
          Alcotest.test_case "accept_proposal reuses classes" `Quick
            test_accept_proposal_reuse;
          Alcotest.test_case "strategy finding reuses circuits" `Quick
            test_strategy_finding_reuses_circuits;
          QCheck_alcotest.to_alcotest qcheck_batch_transparent;
          QCheck_alcotest.to_alcotest qcheck_accept_then_batch_transparent;
          Alcotest.test_case "batch across principals == cold" `Quick
            test_batch_across_principals;
          Alcotest.test_case "answer latency histogram" `Quick
            test_answer_latency_histogram;
        ] );
      ( "conf-cache",
        [
          Alcotest.test_case "session exact after a flood" `Quick
            test_session_exact_after_flood;
          Alcotest.test_case "flood keeps circuits" `Quick
            test_flood_keeps_circuits;
        ] );
    ]
