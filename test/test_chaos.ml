(* Chaos suite: seeded fault injection against the real components.

   The resilience contract under injected faults:

   1. fail-closed — whatever faults fire, no tuple with confidence at or
      below the policy threshold is ever released (a fault may turn an
      answer into an error, never into a leak);
   2. consistency — an aborted [State.set_base] leaves the solver state
      exactly as it was (levels, confidences, satisfied set, cost);
   3. containment — a pool worker exception neither kills the pool nor
      corrupts later runs;
   4. observe-only — metrics and tracing change no outcome, faults or
      not.

   Every plan is seeded, so a failure reproduces from the seed alone. *)

module DL = Resilience.Deadline
module Fault = Resilience.Fault
module Problem = Optimize.Problem
module State = Optimize.State
module Solver = Optimize.Solver
module Approx = Lineage.Approx
module F = Lineage.Formula
module Tid = Lineage.Tid
module Pool = Exec.Pool
module Db = Relational.Database
module V = Relational.Value
module E = Pcqe.Engine

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ------------------------------------------------------------------ *)
(* state consistency after an aborted commit *)

let state_fingerprint st =
  let problem = State.problem st in
  ( Array.init (Problem.num_bases problem) (State.base_level st),
    Array.init (Problem.num_results problem) (State.result_confidence st),
    State.satisfied_results st,
    State.cost st )

let test_state_consistent_after_aborted_set_base () =
  List.iter
    (fun incremental ->
      List.iter
        (fun seed ->
          let problem =
            Workload.Synth.small_instance ~num_bases:15 ~num_results:10
              ~required:5 ~bases_per_result:4 ~incremental ~seed ()
          in
          let st = State.create problem in
          (* a couple of committed raises first, so the aborted commit
             lands on a warmed, non-initial state *)
          State.set_base st 0 (Problem.base problem 0).Problem.cap;
          State.set_base st 1 (Problem.base problem 1).Problem.cap;
          let before = state_fingerprint st in
          let plan =
            Fault.plan ~rate:1.0 ~max_injections:1
              ~sites:[ Fault.site_state_eval ] ~seed ()
          in
          let aborted =
            Fault.with_plan plan (fun () ->
                match State.set_base st 2 (Problem.base problem 2).Problem.cap with
                | () -> false
                | exception Fault.Injected _ -> true)
          in
          if aborted then begin
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: state rolled back" seed)
              true
              (state_fingerprint st = before);
            (* and the state is still fully usable: redo the same commit
               without faults and land where a fresh replay lands *)
            State.set_base st 2 (Problem.base problem 2).Problem.cap;
            let fresh = State.create problem in
            State.set_base fresh 0 (Problem.base problem 0).Problem.cap;
            State.set_base fresh 1 (Problem.base problem 1).Problem.cap;
            State.set_base fresh 2 (Problem.base problem 2).Problem.cap;
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: usable after abort" seed)
              true
              (state_fingerprint st = state_fingerprint fresh)
          end)
        [ 0; 1; 2; 3; 4 ])
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* pool containment *)

let test_pool_survives_injected_faults () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let plan =
        Fault.plan ~rate:0.4 ~sites:[ Fault.site_pool_chunk ] ~seed:5 ()
      in
      let raised =
        Fault.with_plan plan (fun () ->
            match
              Pool.map_array ~chunk:1 pool succ (Array.init 32 Fun.id)
            with
            | _ -> false
            | exception Fault.Injected _ -> true)
      in
      Alcotest.(check bool) "rate 0.4 over 32 chunks injects" true raised;
      (* the pool is intact: the exact same call now succeeds *)
      Alcotest.(check (array int))
        "pool usable after injected faults"
        (Array.init 32 succ)
        (Pool.map_array ~chunk:1 pool succ (Array.init 32 Fun.id)))

let test_pool_lowest_index_under_injection () =
  (* rate 1.0: every chunk fails; the re-raised payload must be the
     lowest-indexed hit regardless of domain interleaving *)
  Pool.with_pool ~jobs:4 (fun pool ->
      for trial = 0 to 199 do
        let plan =
          Fault.plan ~rate:1.0 ~sites:[ Fault.site_pool_chunk ] ~seed:trial ()
        in
        match
          Fault.with_plan plan (fun () ->
              Pool.map_array ~chunk:1 pool succ (Array.init 16 Fun.id))
        with
        | _ -> Alcotest.fail "rate 1.0 must inject"
        | exception Fault.Injected payload ->
          Alcotest.(check string)
            (Printf.sprintf "trial %d: deterministic payload" trial)
            "pool.chunk#0" payload
      done)

(* ------------------------------------------------------------------ *)
(* fail-closed: the ladder under a cut-off sampler *)

let entangled n =
  let v i = F.var (Tid.make "b" i) in
  F.disj (List.init n (fun i -> F.conj [ v i; v ((i + 1) mod n) ]))

let test_ladder_failure_withholds () =
  (* exact tiers unavailable, and the Monte-Carlo sampler is killed:
     the estimate degrades to Failed and the release rule withholds *)
  let f = entangled 16 in
  let plan = Fault.plan ~rate:1.0 ~sites:[ Fault.site_prob_mc ] ~seed:1 () in
  let est =
    Fault.with_plan plan (fun () ->
        Approx.confidence ~exact_node_cap:2 (fun _ -> 0.9) f)
  in
  (match est with
  | Approx.Failed _ -> ()
  | Approx.Exact _ | Approx.Interval _ ->
    Alcotest.fail "killed sampler must degrade to Failed");
  Alcotest.(check bool) "failed estimate is withheld" true
    (Approx.releasable ~beta:0.1 est = `Withhold)

(* ------------------------------------------------------------------ *)
(* engine-level fail-closed under faults and deadlines *)

let build_engine ~deadline =
  let open Relational in
  let r = Relation.create "T" (Schema.of_list [ ("x", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let db =
    List.fold_left
      (fun db (x, conf) -> fst (Db.insert db "T" [ V.Int x ] ~conf))
      db
      [ (1, 0.9); (2, 0.7); (3, 0.45); (4, 0.3); (5, 0.2); (6, 0.55) ]
  in
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_user (add_role empty "analyst") "u" in
    let m = ok (assign_user m ~user:"u" ~role:"analyst") in
    ok (grant m ~role:"analyst" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta:0.5 ]
  in
  E.make_context ~deadline ~db ~rbac ~policies ()

let exact_confidences ctx (resp : E.response) =
  List.map
    (fun (row : E.released) ->
      Lineage.Prob.exact (Db.confidence_fn ctx.E.db) row.E.lineage)
    resp.E.released

let test_engine_never_releases_below_beta_under_faults () =
  let beta = 0.5 in
  for seed = 0 to 14 do
    let plan = Fault.plan ~rate:0.3 ~seed () in
    let ctx =
      build_engine ~deadline:(DL.Logical (seed * 7))
    in
    let request =
      { E.query = Pcqe.Query.sql "SELECT x FROM T"; user = "u"; purpose = "p";
        perc = 1.0 }
    in
    match Fault.with_plan plan (fun () -> E.answer ctx request) with
    | exception Fault.Injected _ ->
      (* the fault escaped as an error: nothing was released — fine *)
      ()
    | Error _ -> ()
    | Ok resp ->
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: released tuple above beta (%.3f)" seed c)
            true (c > beta))
        (exact_confidences ctx resp);
      (* released + withheld still accounts for every result *)
      Alcotest.(check int)
        (Printf.sprintf "seed %d: accounting" seed)
        6
        (List.length resp.E.released + resp.E.withheld)
  done

let test_engine_deadline_degrades_not_leaks () =
  (* an absurdly tight logical budget forces a partial solve; the
     response must say so, and releases still clear the threshold *)
  let ctx = build_engine ~deadline:(DL.Logical 1) in
  let resp =
    ok
      (E.answer ctx
         { E.query = Pcqe.Query.sql "SELECT x FROM T"; user = "u";
           purpose = "p"; perc = 1.0 })
  in
  (match resp.E.degraded with
  | Some reason ->
    Alcotest.(check string) "reason is the budget's"
      (DL.reason (DL.logical 1)) reason
  | None -> Alcotest.fail "1-tick budget must degrade strategy finding");
  Alcotest.(check bool) "not reported infeasible" false resp.E.infeasible;
  List.iter
    (fun c -> Alcotest.(check bool) "release above beta" true (c > 0.5))
    (exact_confidences ctx resp)

(* ------------------------------------------------------------------ *)
(* observe-only: metrics and counters never change outcomes *)

let test_counters_observe_only () =
  let problem =
    Workload.Synth.small_instance ~num_bases:20 ~num_results:12 ~required:6
      ~seed:9 ()
  in
  List.iter
    (fun budget ->
      let deadline () = DL.logical budget in
      let quiet =
        Solver.solve ~algorithm:Solver.divide_conquer ~deadline:(deadline ())
          problem
      in
      let obs = Obs.create () in
      let observed =
        Solver.solve ~algorithm:Solver.divide_conquer ~obs
          ~deadline:(deadline ()) problem
      in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: same solution" budget)
        true
        (quiet.Solver.solution = observed.Solver.solution);
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: same resolution" budget)
        true
        (quiet.Solver.resolution = observed.Solver.resolution);
      Alcotest.(check bool)
        (Printf.sprintf "budget %d: same satisfied" budget)
        true
        (quiet.Solver.satisfied = observed.Solver.satisfied))
    [ 0; 25; 1_000_000 ]

let () =
  Alcotest.run "chaos"
    [
      ( "state",
        [
          Alcotest.test_case "consistent after aborted set_base" `Quick
            test_state_consistent_after_aborted_set_base;
        ] );
      ( "pool",
        [
          Alcotest.test_case "survives injected faults" `Quick
            test_pool_survives_injected_faults;
          Alcotest.test_case "lowest index under injection" `Quick
            test_pool_lowest_index_under_injection;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "killed sampler withholds" `Quick
            test_ladder_failure_withholds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "never releases below beta under faults" `Quick
            test_engine_never_releases_below_beta_under_faults;
          Alcotest.test_case "deadline degrades, never leaks" `Quick
            test_engine_deadline_degrades_not_leaks;
        ] );
      ( "observe-only",
        [
          Alcotest.test_case "counters change no outcome" `Quick
            test_counters_observe_only;
        ] );
    ]
