(* Tests for the optimization problem representation and the mutable
   assignment state shared by all solvers. *)

module Problem = Optimize.Problem
module State = Optimize.State
module F = Lineage.Formula
module Tid = Lineage.Tid
module C = Cost.Cost_model

let t i = Tid.make "b" i
let v i = F.var (t i)

let base ?(p0 = 0.1) ?(cap = 1.0) ?(rate = 100.0) i =
  { Problem.tid = t i; p0; cap; cost = C.linear ~rate }

(* two results over three bases: r0 = (b0 | b1), r1 = b1 & b2 *)
let small () =
  Problem.make_exn ~beta:0.5 ~required:1
    ~bases:[ base 0; base 1; base 2 ]
    ~formulas:[ F.disj [ v 0; v 1 ]; F.conj [ v 1; v 2 ] ]
    ()

let test_make_validation () =
  let check_err what f =
    match f () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected failure: %s" what
  in
  check_err "beta out of range" (fun () ->
      Problem.make ~beta:1.5 ~required:0 ~bases:[ base 0 ] ~formulas:[ v 0 ] ());
  check_err "required negative" (fun () ->
      Problem.make ~beta:0.5 ~required:(-1) ~bases:[ base 0 ] ~formulas:[ v 0 ] ());
  check_err "required too big" (fun () ->
      Problem.make ~beta:0.5 ~required:2 ~bases:[ base 0 ] ~formulas:[ v 0 ] ());
  check_err "unknown base in formula" (fun () ->
      Problem.make ~beta:0.5 ~required:1 ~bases:[ base 0 ] ~formulas:[ v 7 ] ());
  check_err "p0 above cap" (fun () ->
      Problem.make ~beta:0.5 ~required:1
        ~bases:[ { (base 0) with Problem.p0 = 0.9; cap = 0.5 } ]
        ~formulas:[ v 0 ] ());
  check_err "duplicate base" (fun () ->
      Problem.make ~beta:0.5 ~required:1 ~bases:[ base 0; base 0 ]
        ~formulas:[ v 0 ] ());
  check_err "bad delta" (fun () ->
      Problem.make ~delta:0.0 ~beta:0.5 ~required:1 ~bases:[ base 0 ]
        ~formulas:[ v 0 ] ())

let test_indexes () =
  let p = small () in
  Alcotest.(check int) "bases" 3 (Problem.num_bases p);
  Alcotest.(check int) "results" 2 (Problem.num_results p);
  Alcotest.(check (option int)) "bid of b1" (Some 1) (Problem.bid_of_tid p (t 1));
  Alcotest.(check (option int)) "unknown tid" None (Problem.bid_of_tid p (t 9));
  Alcotest.(check (list int)) "b1 affects both results" [ 0; 1 ]
    (Problem.results_of_base p 1);
  Alcotest.(check (list int)) "b0 affects r0" [ 0 ] (Problem.results_of_base p 0);
  Alcotest.(check (list int)) "r1 bases" [ 1; 2 ] (Problem.bases_of_result p 1)

let test_grid_levels () =
  let p =
    Problem.make_exn ~delta:0.25 ~beta:0.5 ~required:0
      ~bases:[ { (base 0) with Problem.p0 = 0.2; cap = 0.9 } ]
      ~formulas:[] ()
  in
  (* hmm: no formulas means base 0 unused but still valid *)
  Alcotest.(check (list (float 1e-9))) "ends exactly at cap"
    [ 0.2; 0.45; 0.7; 0.9 ]
    (Problem.grid_levels p 0)

let test_eval_result () =
  let p = small () in
  let levels = [| 0.3; 0.4; 0.5 |] in
  Alcotest.(check (float 1e-9)) "or" 0.58 (Problem.eval_result p levels 0);
  Alcotest.(check (float 1e-9)) "and" 0.2 (Problem.eval_result p levels 1)

let test_eval_result_non_read_once () =
  (* r = (b0 & b1) | (b0 & b2): shared b0 forces the exact evaluator *)
  let p =
    Problem.make_exn ~beta:0.5 ~required:1
      ~bases:[ base 0; base 1; base 2 ]
      ~formulas:[ F.disj [ F.conj [ v 0; v 1 ]; F.conj [ v 0; v 2 ] ] ]
      ()
  in
  let levels = [| 0.5; 0.4; 0.2 |] in
  Alcotest.(check bool) "priced by the circuit rung" true
    (Problem.evaluator_kind p 0 = Some Lineage.Approx.Circuit);
  Alcotest.(check (float 1e-9)) "circuit rung through compiled eval"
    (0.5 *. (0.4 +. 0.2 -. 0.08))
    (Problem.eval_result p levels 0)

let test_state_initialization () =
  let st = State.create (small ()) in
  Alcotest.(check (float 1e-9)) "levels at p0" 0.1 (State.base_level st 0);
  (* r0 = 1-0.9*0.9 = 0.19, r1 = 0.01: none above 0.5 *)
  Alcotest.(check int) "nothing satisfied" 0 (State.satisfied_count st);
  Alcotest.(check (float 1e-9)) "cost 0" 0.0 (State.cost st);
  Alcotest.(check (float 1e-9)) "conf r0" 0.19 (State.result_confidence st 0)

let test_state_set_and_satisfaction () =
  let st = State.create (small ()) in
  State.set_base st 0 0.9;
  (* r0 = 1 - 0.1*0.9 = 0.91 > 0.5 *)
  Alcotest.(check int) "r0 satisfied" 1 (State.satisfied_count st);
  Alcotest.(check bool) "specifically r0" true (State.is_satisfied st 0);
  Alcotest.(check (list int)) "satisfied list" [ 0 ] (State.satisfied_results st);
  Alcotest.(check (float 1e-9)) "cost tracked" 80.0 (State.cost st);
  (* lower back down *)
  State.set_base st 0 0.1;
  Alcotest.(check int) "unsatisfied again" 0 (State.satisfied_count st);
  Alcotest.(check (float 1e-9)) "cost restored" 0.0 (State.cost st)

let test_state_validation () =
  let st = State.create (small ()) in
  Alcotest.(check bool) "below p0 rejected" true
    (try
       State.set_base st 0 0.0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "above cap rejected" true
    (try
       State.set_base st 0 1.5;
       false
     with Invalid_argument _ -> true)

let test_delta_steps () =
  let st = State.create (small ()) in
  Alcotest.(check bool) "raise ok" true (State.raise_by_delta st 0);
  Alcotest.(check (float 1e-9)) "one step" 0.2 (State.base_level st 0);
  Alcotest.(check bool) "lower ok" true (State.lower_by_delta st 0);
  Alcotest.(check bool) "lower at p0 fails" false (State.lower_by_delta st 0);
  (* raise to the cap and refuse further *)
  let steps = ref 0 in
  while State.raise_by_delta st 0 do
    incr steps
  done;
  Alcotest.(check (float 1e-9)) "at cap" 1.0 (State.base_level st 0);
  Alcotest.(check int) "nine steps from 0.1" 9 !steps

let test_solution_and_raised () =
  let st = State.create (small ()) in
  State.set_base st 1 0.5;
  Alcotest.(check (list int)) "raised" [ 1 ] (State.raised_bases st);
  match State.solution st with
  | [ (tid, level) ] ->
    Alcotest.(check string) "tid" "b#1" (Tid.to_string tid);
    Alcotest.(check (float 1e-9)) "level" 0.5 level
  | _ -> Alcotest.fail "expected one increment"

let test_snapshot_restore () =
  let st = State.create (small ()) in
  State.set_base st 0 0.6;
  let snap = State.snapshot st in
  State.set_base st 0 0.9;
  State.set_base st 2 0.4;
  State.restore st snap;
  Alcotest.(check (float 1e-9)) "b0 restored" 0.6 (State.base_level st 0);
  Alcotest.(check (float 1e-9)) "b2 restored" 0.1 (State.base_level st 2);
  State.reset st;
  Alcotest.(check (float 1e-9)) "reset to p0" 0.1 (State.base_level st 0);
  Alcotest.(check (float 1e-9)) "cost zero" 0.0 (State.cost st)

let test_confidence_with_override () =
  let st = State.create (small ()) in
  let c = State.confidence_with_override st ~rid:0 ~bid:0 ~level:0.9 in
  Alcotest.(check (float 1e-9)) "override value" 0.91 c;
  Alcotest.(check (float 1e-9)) "state untouched" 0.1 (State.base_level st 0);
  Alcotest.(check (float 1e-9)) "cached conf untouched" 0.19
    (State.result_confidence st 0)

let test_gain () =
  let st = State.create (small ()) in
  (* raising b0 by 0.1: r0 goes 0.19 -> 1-0.8*0.9 = 0.28; dcost = 10 *)
  Alcotest.(check (float 1e-9)) "gain b0" (0.09 /. 10.0) (State.gain st 0 0.1);
  (* b1 affects both results *)
  let g1 = State.gain st 1 0.1 in
  Alcotest.(check bool) "b1 gain larger" true (g1 > State.gain st 0 0.1);
  (* at cap, gain is 0 *)
  State.set_base st 0 1.0;
  Alcotest.(check (float 1e-9)) "gain at cap" 0.0 (State.gain st 0 0.1)

let test_gain_only_unsatisfied () =
  let st = State.create (small ()) in
  State.set_base st 0 0.9 (* r0 satisfied *);
  let with_sat = State.gain st 1 ~only_unsatisfied:false 0.1 in
  let without_sat = State.gain st 1 ~only_unsatisfied:true 0.1 in
  Alcotest.(check bool) "excluding satisfied shrinks gain" true
    (without_sat < with_sat)

let test_bdd_compiled_eval_matches_exact () =
  (* non-read-once lineage from the DAG generator: the compiled
     evaluator (the ladder's circuit rung) must agree with per-call
     Shannon expansion *)
  let rng = Prng.Splitmix.of_int 31 in
  for _ = 1 to 20 do
    let tids = List.init 6 (Tid.make "d") in
    let f = Workload.Dag_query.random_dag rng ~sharing:1.0 tids in
    let bases =
      List.map
        (fun tid ->
          { Problem.tid; p0 = Prng.Splitmix.float_in rng 0.1 0.9; cap = 1.0;
            cost = C.linear ~rate:10.0 })
        tids
    in
    let p = Problem.make_exn ~beta:0.5 ~required:0 ~bases ~formulas:[ f ] () in
    let levels = Array.map (fun b -> b.Problem.p0) (Problem.bases p) in
    let lookup tid =
      match Problem.bid_of_tid p tid with
      | Some bid -> levels.(bid)
      | None -> 0.0
    in
    let expect = Lineage.Prob.exact lookup f in
    Alcotest.(check (float 1e-9)) "compiled matches exact" expect
      (Problem.eval_result p levels 0)
  done

(* H0 lineage, R(A) ⋈ S(A, B) ⋈ T(B) over a 60%-dense S: every R and T
   tuple repeats, past the circuit gate, and its OBDD overflows the
   ladder's node cap — no exact rung prices it *)
let test_unpriceable_class () =
  let rng = Prng.Splitmix.of_int 7 in
  let r a = Tid.make "r" a and s a b = Tid.make "s" ((a * 12) + b) in
  let tt b = Tid.make "t" b in
  let edges =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if Prng.Splitmix.float_in rng 0.0 1.0 < 0.6 then Some (a, b)
            else None)
          (List.init 12 Fun.id))
      (List.init 12 Fun.id)
  in
  let f =
    F.disj
      (List.map
         (fun (a, b) -> F.conj [ F.var (r a); F.var (s a b); F.var (tt b) ])
         edges)
  in
  let bases =
    List.map
      (fun tid ->
        { Problem.tid; p0 = Prng.Splitmix.float_in rng 0.1 0.9; cap = 1.0;
          cost = C.linear ~rate:10.0 })
      (Tid.Set.elements (F.vars f))
  in
  let t0 = Unix.gettimeofday () in
  let p = Problem.make_exn ~beta:0.999 ~required:1 ~bases ~formulas:[ f ] () in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "make is prompt (%.2f s)" wall) true
    (wall < 2.0);
  Alcotest.(check bool) "unpriceable" true (Problem.evaluator_kind p 0 = None);
  Alcotest.(check int) "counted" 1 (Problem.unpriceable p);
  let full = Array.map (fun b -> b.Problem.cap) (Problem.bases p) in
  Alcotest.(check (float 0.0)) "evaluates to 0 even at the caps" 0.0
    (Problem.eval_result p full 0);
  List.iter
    (fun (name, algorithm) ->
      let o = Optimize.Solver.solve ~algorithm ~jobs:1 p in
      Alcotest.(check (list int)) (name ^ ": not satisfied") []
        o.Optimize.Solver.satisfied;
      Alcotest.(check bool) (name ^ ": no solution") true
        (o.Optimize.Solver.solution = None))
    [
      ("greedy", Optimize.Solver.greedy);
      ("divide-and-conquer", Optimize.Solver.divide_conquer);
      ("annealing", Optimize.Solver.annealing);
      ("heuristic", Optimize.Solver.heuristic);
    ]

let test_of_query_results () =
  (* build a tiny database and query, then derive the instance *)
  let open Relational in
  let r = Relation.create "R" (Schema.of_list [ ("k", Value.TString) ]) in
  let db = Database.add_relation Database.empty r in
  let db, _ = Database.insert db "R" [ Value.String "a" ] ~conf:0.3 in
  let db, _ = Database.insert db "R" [ Value.String "b" ] ~conf:0.9 in
  let db, _ = Database.insert db "R" [ Value.String "c" ] ~conf:0.2 in
  let res = Eval.run_exn db (Algebra.scan "R") in
  (* the policy filter's verdicts: exact confidence strictly above beta *)
  let released =
    Array.of_list
      (List.map
         (fun (r : Eval.row) ->
           Lineage.Prob.exact (Database.confidence_fn db) r.Eval.lineage
           > 0.5)
         res.Eval.rows)
  in
  Alcotest.(check bool) "misaligned verdicts rejected" true
    (Result.is_error
       (Problem.of_query_results ~released:[| true |] ~theta:1.0 ~beta:0.5
          ~cost_of:(fun _ -> C.linear ~rate:10.0)
          ~cap_of:(fun _ -> 1.0)
          db res));
  match
    Problem.of_query_results ~released ~theta:1.0 ~beta:0.5
      ~cost_of:(fun _ -> C.linear ~rate:10.0)
      ~cap_of:(fun _ -> 1.0)
      db res
  with
  | Error msg -> Alcotest.fail msg
  | Ok (p, failing) ->
    (* rows 0 and 2 are below beta *)
    Alcotest.(check (list int)) "failing rows" [ 0; 2 ] failing;
    Alcotest.(check int) "instance results" 2 (Problem.num_results p);
    Alcotest.(check int) "instance bases" 2 (Problem.num_bases p);
    (* theta = 1.0: want all 3, one already passes -> need 2 more *)
    Alcotest.(check int) "required" 2 (Problem.required p)

let () =
  Alcotest.run "problem-state"
    [
      ( "problem",
        [
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "indexes" `Quick test_indexes;
          Alcotest.test_case "grid levels" `Quick test_grid_levels;
          Alcotest.test_case "eval" `Quick test_eval_result;
          Alcotest.test_case "eval non-read-once" `Quick test_eval_result_non_read_once;
          Alcotest.test_case "bdd compiled eval" `Quick test_bdd_compiled_eval_matches_exact;
          Alcotest.test_case "of_query_results" `Quick test_of_query_results;
          Alcotest.test_case "unpriceable class" `Quick test_unpriceable_class;
        ] );
      ( "state",
        [
          Alcotest.test_case "initialization" `Quick test_state_initialization;
          Alcotest.test_case "set/satisfaction" `Quick test_state_set_and_satisfaction;
          Alcotest.test_case "validation" `Quick test_state_validation;
          Alcotest.test_case "delta steps" `Quick test_delta_steps;
          Alcotest.test_case "solution" `Quick test_solution_and_raised;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "override" `Quick test_confidence_with_override;
          Alcotest.test_case "gain" `Quick test_gain;
          Alcotest.test_case "gain unsatisfied-only" `Quick test_gain_only_unsatisfied;
        ] );
    ]
