(* Tests for the resilience layer: deadline tokens, seeded fault plans,
   anytime (partial) solver outcomes, and the confidence degradation
   ladder.  The invariants:

   1. deadlines are cooperative and sticky; logical budgets are
      scheduling-independent (split/absorb is pure arithmetic);
   2. fault plans are a pure function of (seed, site, hit index);
   3. a deadline-cut solve reports Partial, and any solution it still
      reports is feasible — degraded optimality, never compliance;
   4. logical-budget divide-and-conquer is bit-identical at any jobs
      level;
   5. the ladder's interval contains the exact confidence and the
      release rule is fail-closed;
   6. the confidence stage honours the answer's deadline, and a
      non-hierarchical query finishes in default mode. *)

module DL = Resilience.Deadline
module Fault = Resilience.Fault
module Problem = Optimize.Problem
module State = Optimize.State
module Solver = Optimize.Solver
module D = Optimize.Divide_conquer
module Approx = Lineage.Approx
module F = Lineage.Formula
module Tid = Lineage.Tid
module Db = Relational.Database
module V = Relational.Value
module E = Pcqe.Engine

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ------------------------------------------------------------------ *)
(* deadline tokens *)

let test_never () =
  Alcotest.(check bool) "inactive" false (DL.active DL.never);
  DL.tick DL.never;
  DL.tick ~by:1000 DL.never;
  Alcotest.(check bool) "never expires" false (DL.expired DL.never);
  Alcotest.(check int) "no accounting" 0 (DL.used DL.never);
  DL.cancel DL.never ();
  Alcotest.(check bool) "cancel is a no-op" false (DL.expired DL.never);
  Alcotest.(check string) "reason" "no deadline" (DL.reason DL.never)

let test_logical_expiry () =
  let t = DL.logical 3 in
  Alcotest.(check bool) "active" true (DL.active t);
  DL.tick t;
  DL.tick t;
  Alcotest.(check bool) "2 < 3" false (DL.expired t);
  DL.tick t;
  Alcotest.(check bool) "3 >= 3" true (DL.expired t);
  Alcotest.(check bool) "sticky" true (DL.expired t);
  Alcotest.(check int) "used" 3 (DL.used t);
  Alcotest.(check string) "reason" "logical budget (3 ticks) exhausted"
    (DL.reason t)

let test_logical_zero_born_expired () =
  Alcotest.(check bool) "0-budget expires at once" true
    (DL.expired (DL.logical 0))

let test_wall_with_counter_clock () =
  (* counter clock: one reading per call, so expiry is deterministic *)
  let clock = Obs.Clock.counter ~step:1.0 () in
  let t = DL.wall_ms ~clock 1500.0 in
  (* start read 0.0 -> expires_at 1.5; reads 1.0 then 2.0 *)
  Alcotest.(check bool) "before the deadline" false (DL.expired t);
  Alcotest.(check bool) "after the deadline" true (DL.expired t);
  Alcotest.(check bool) "sticky without reading the clock" true (DL.expired t);
  Alcotest.(check string) "reason" "wall deadline (1500ms) exceeded"
    (DL.reason t)

let test_cancel () =
  let t = DL.logical 1_000_000 in
  DL.cancel t ~reason:"user interrupt" ();
  Alcotest.(check bool) "cancelled" true (DL.expired t);
  Alcotest.(check string) "custom reason" "user interrupt" (DL.reason t)

let test_invalid_specs () =
  Alcotest.check_raises "zero wall budget"
    (Invalid_argument "Deadline.start: wall budget 0 must be > 0") (fun () ->
      ignore (DL.start (DL.Wall_ms 0.0)));
  Alcotest.check_raises "negative logical budget"
    (Invalid_argument "Deadline.start: logical budget -1 must be >= 0")
    (fun () -> ignore (DL.start (DL.Logical (-1))))

let test_split_absorb_logical () =
  let t = DL.logical 10 in
  DL.tick ~by:2 t;
  let subs = DL.split t 4 in
  Alcotest.(check int) "four children" 4 (Array.length subs);
  Array.iter
    (fun s ->
      (* each child owns floor ((10 - 2) / 4) = 2 ticks *)
      DL.tick s;
      Alcotest.(check bool) "child not expired at 1" false (DL.expired s);
      DL.tick s;
      Alcotest.(check bool) "child expired at 2" true (DL.expired s))
    subs;
  DL.absorb t subs;
  Alcotest.(check int) "parent absorbed the children" 10 (DL.used t);
  Alcotest.(check bool) "parent expired after absorb" true (DL.expired t)

let test_split_of_expired_parent () =
  let t = DL.logical 1 in
  DL.tick t;
  Alcotest.(check bool) "parent expired" true (DL.expired t);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "children born expired" true (DL.expired s))
    (DL.split t 3)

let test_split_never () =
  Array.iter
    (fun s -> Alcotest.(check bool) "unbounded children" false (DL.active s))
    (DL.split DL.never 5)

let test_split_remainder_uneven () =
  (* budget 10, 3 used: 7 remain, split 3 ways -> floor(7/3) = 2 each;
     the remainder tick is conservative slack, not lost budget *)
  let t = DL.logical 10 in
  DL.tick ~by:3 t;
  let subs = DL.split t 3 in
  Array.iter
    (fun s ->
      DL.tick ~by:2 s;
      Alcotest.(check bool) "child expired at its share" true (DL.expired s))
    subs;
  DL.absorb t subs;
  (* 3 + 3·2 = 9 of 10: the undistributed remainder is still spendable *)
  Alcotest.(check int) "remainder accounted" 9 (DL.used t);
  Alcotest.(check bool) "parent survives on the remainder" false (DL.expired t);
  DL.tick t;
  Alcotest.(check bool) "and expires exactly on budget" true (DL.expired t);
  (* more children than remaining ticks: floor share is 0, every child
     is born expired — never a negative or inflated budget *)
  let t = DL.logical 3 in
  DL.tick ~by:1 t;
  Array.iter
    (fun s -> Alcotest.(check bool) "zero-share child born expired" true (DL.expired s))
    (DL.split t 5)

let test_split_after_cancel_sticky () =
  let t = DL.logical 50 in
  DL.tick t;
  DL.cancel t ~reason:"operator abort" ();
  Alcotest.(check bool) "cancel is expiry" true (DL.expired t);
  Alcotest.(check string) "reason survives" "operator abort" (DL.reason t);
  (* children of a cancelled token are born expired, at any depth *)
  let subs = DL.split t 2 in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "child of cancelled born expired" true (DL.expired s);
      Array.iter
        (fun g ->
          Alcotest.(check bool) "grandchild born expired" true (DL.expired g))
        (DL.split s 2))
    subs;
  DL.absorb t subs;
  Alcotest.(check bool) "still expired after absorb" true (DL.expired t);
  Alcotest.(check string) "reason sticks through absorb" "operator abort"
    (DL.reason t)

let test_nested_split_absorb_accounting () =
  (* two levels of split/absorb: tick totals flow back up undistorted,
     and a cancelled grandchild stays expired while its siblings and
     ancestors keep their arithmetic *)
  let t = DL.logical 100 in
  DL.tick ~by:4 t;
  let children = DL.split t 2 in
  (* each child owns floor(96/2) = 48 *)
  let grandkids = DL.split children.(0) 3 in
  (* each grandchild owns floor(48/3) = 16 *)
  DL.tick ~by:16 grandkids.(0);
  Alcotest.(check bool) "grandchild spent its share" true (DL.expired grandkids.(0));
  DL.tick ~by:5 grandkids.(1);
  DL.cancel grandkids.(1) ();
  Alcotest.(check bool) "cancelled under budget, still expired" true
    (DL.expired grandkids.(1));
  DL.tick ~by:7 grandkids.(2);
  DL.absorb children.(0) grandkids;
  Alcotest.(check int) "child absorbed 16+5+7" 28 (DL.used children.(0));
  Alcotest.(check bool) "child not expired (28 < 48)" false
    (DL.expired children.(0));
  (* the cancelled grandchild's expiry is sticky and local *)
  Alcotest.(check bool) "cancellation still sticky" true (DL.expired grandkids.(1));
  DL.tick ~by:9 children.(1);
  DL.absorb t children;
  Alcotest.(check int) "root: 4 + 28 + 9" 41 (DL.used t);
  Alcotest.(check bool) "root alive" false (DL.expired t)

(* ------------------------------------------------------------------ *)
(* fault plans *)

let injected_indices plan site n =
  (* which of [n] hits raise under [plan]? *)
  Fault.with_plan plan (fun () ->
      List.init n (fun i ->
          match Fault.hit site with
          | () -> (i, false)
          | exception Fault.Injected _ -> (i, true))
      |> List.filter_map (fun (i, inj) -> if inj then Some i else None))

let test_fault_unknown_site_rejected () =
  (* a typo'd site must fail loudly at plan construction, not silently
     never fire *)
  (match Fault.plan ~sites:[ "pool.chnk" ] ~seed:1 () with
  | _ -> Alcotest.fail "unknown site accepted"
  | exception Invalid_argument msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the bad site" true
      (contains msg "pool.chnk"));
  (* the net.* sites ship registered *)
  List.iter
    (fun s ->
      Alcotest.(check bool) ("registered: " ^ s) true
        (List.mem s (Fault.registered_sites ())))
    [ "net.accept"; "net.read"; "net.write"; "net.delay" ];
  (* registering a custom site makes it plannable *)
  Fault.register_site "test.custom";
  let p = Fault.plan ~sites:[ "test.custom" ] ~seed:1 () in
  Fault.arm p;
  Fault.disarm ()

let test_fault_noop_when_disarmed () =
  Alcotest.(check bool) "disarmed" false (Fault.armed ());
  (* a bare hit must be a no-op *)
  Fault.hit Fault.site_pool_chunk;
  Alcotest.(check pass) "hit without a plan" () ()

let test_fault_determinism () =
  let run () =
    injected_indices
      (Fault.plan ~rate:0.5 ~seed:42 ())
      Fault.site_state_eval 200
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "some injections at rate 0.5" true (List.length a > 0);
  Alcotest.(check (list int)) "same seed, same injections" a b;
  let c =
    injected_indices
      (Fault.plan ~rate:0.5 ~seed:43 ())
      Fault.site_state_eval 200
  in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_fault_rates () =
  Alcotest.(check (list int))
    "rate 0 never injects" []
    (injected_indices (Fault.plan ~rate:0.0 ~seed:1 ()) Fault.site_prob_mc 50);
  Alcotest.(check (list int))
    "rate 1 always injects"
    (List.init 50 Fun.id)
    (injected_indices (Fault.plan ~rate:1.0 ~seed:1 ()) Fault.site_prob_mc 50)

let test_fault_max_injections () =
  let p = Fault.plan ~rate:1.0 ~max_injections:3 ~seed:7 () in
  let inj = injected_indices p Fault.site_pool_chunk 10 in
  Alcotest.(check (list int)) "first three only" [ 0; 1; 2 ] inj;
  Alcotest.(check int) "accounted" 3 (Fault.injected p)

let test_fault_site_filter () =
  let p = Fault.plan ~rate:1.0 ~sites:[ Fault.site_prob_mc ] ~seed:7 () in
  Alcotest.(check (list int))
    "unselected site never injects" []
    (injected_indices p Fault.site_state_eval 20)

let test_fault_protect () =
  let p = Fault.plan ~rate:1.0 ~seed:7 () in
  Fault.with_plan p (fun () ->
      Fault.protect (fun () ->
          for _ = 1 to 20 do
            Fault.hit Fault.site_state_eval
          done));
  Alcotest.(check int) "nothing injected under protect" 0 (Fault.injected p);
  Alcotest.(check (list (pair string int)))
    "suppressed hits are not counted"
    (List.map (fun s -> (s, 0)) (Fault.registered_sites ()))
    (Fault.hits p)

(* ------------------------------------------------------------------ *)
(* anytime solvers: Partial resolution, feasible-or-None *)

let replay problem solution =
  let st = State.create problem in
  List.iter
    (fun (tid, level) ->
      match Problem.bid_of_tid problem tid with
      | Some bid -> State.set_base st bid level
      | None -> Alcotest.fail "unknown base in solution")
    solution;
  st

let check_outcome ?(name = "") problem (out : Solver.outcome) =
  match out.Solver.solution with
  | None -> ()
  | Some solution ->
    let st = replay problem solution in
    Alcotest.(check bool)
      (name ^ " reported solution is feasible")
      true
      (State.satisfied_count st >= Problem.required problem);
    Alcotest.(check bool)
      (name ^ " reported cost matches replay")
      true
      (Float.abs (State.cost st -. out.Solver.cost) < 1e-6)

let algorithms =
  [
    ("heuristic", Solver.heuristic);
    ("heuristic-seeded", Solver.heuristic_seeded);
    ("greedy", Solver.greedy);
    ("dnc", Solver.divide_conquer);
    ("annealing", Solver.annealing);
  ]

let test_partial_on_tiny_budget () =
  let problem =
    Workload.Synth.small_instance ~num_bases:25 ~num_results:14 ~required:7
      ~bases_per_result:4 ~seed:3 ()
  in
  List.iter
    (fun (name, algorithm) ->
      let out = Solver.solve ~algorithm ~deadline:(DL.logical 2) problem in
      (match out.Solver.resolution with
      | Solver.Partial { reason } ->
        Alcotest.(check bool)
          (name ^ " reason mentions the budget")
          true
          (reason = DL.reason (DL.logical 2))
      | Solver.Complete ->
        Alcotest.failf "%s: 2-tick budget should not complete" name);
      check_outcome ~name problem out)
    algorithms

let test_unbounded_is_complete () =
  let problem = Workload.Synth.small_instance ~seed:3 () in
  List.iter
    (fun (name, algorithm) ->
      let out = Solver.solve ~algorithm problem in
      match out.Solver.resolution with
      | Solver.Complete -> check_outcome ~name problem out
      | Solver.Partial { reason } ->
        Alcotest.failf "%s: unbounded solve reported partial (%s)" name reason)
    algorithms

let test_generous_budget_matches_unbounded () =
  (* a budget the solver never reaches must not change the outcome *)
  let problem =
    Workload.Synth.small_instance ~num_bases:20 ~num_results:10 ~required:5
      ~seed:5 ()
  in
  List.iter
    (fun (name, algorithm) ->
      let a = Solver.solve ~algorithm problem in
      let b =
        Solver.solve ~algorithm ~deadline:(DL.logical 50_000_000) problem
      in
      Alcotest.(check bool)
        (name ^ " same solution") true
        (a.Solver.solution = b.Solver.solution);
      Alcotest.(check bool)
        (name ^ " same cost") true
        (a.Solver.cost = b.Solver.cost
        || (Float.is_nan a.Solver.cost && Float.is_nan b.Solver.cost)))
    algorithms

let qcheck_partial_feasible =
  QCheck.Test.make ~name:"every partial solution is feasible" ~count:150
    QCheck.(pair (int_range 0 40) (int_range 0 400))
    (fun (seed, budget) ->
      let problem =
        Workload.Synth.small_instance ~num_bases:20 ~num_results:12 ~required:6
          ~bases_per_result:4 ~seed ()
      in
      List.for_all
        (fun (_, algorithm) ->
          let out =
            Solver.solve ~algorithm ~deadline:(DL.logical budget) problem
          in
          match out.Solver.solution with
          | None -> true
          | Some solution ->
            let st = replay problem solution in
            State.satisfied_count st >= Problem.required problem)
        algorithms)

(* ------------------------------------------------------------------ *)
(* logical budgets are jobs-invariant (divide-and-conquer) *)

let dnc_outcome ~jobs ~budget problem =
  let deadline = DL.logical budget in
  let out =
    if jobs = 1 then D.solve ~deadline problem
    else
      Exec.Pool.with_pool ~jobs (fun pool -> D.solve ~pool ~deadline problem)
  in
  ( out.D.solution,
    out.D.cost,
    out.D.satisfied,
    out.D.feasible,
    out.D.stopped,
    DL.used deadline )

let test_dnc_budget_jobs_invariant () =
  List.iter
    (fun budget ->
      List.iter
        (fun seed ->
          let problem () =
            Workload.Synth.instance
              ~params:
                { Workload.Synth.default_params with data_size = 300 }
              ~seed ()
          in
          let base = dnc_outcome ~jobs:1 ~budget (problem ()) in
          List.iter
            (fun jobs ->
              let other = dnc_outcome ~jobs ~budget (problem ()) in
              Alcotest.(check bool)
                (Printf.sprintf
                   "seed %d budget %d: jobs=%d identical to jobs=1" seed budget
                   jobs)
                true (base = other))
            [ 2; 4 ])
        [ 1; 11 ])
    [ 0; 37; 500; 100_000 ]

(* ------------------------------------------------------------------ *)
(* the confidence degradation ladder *)

let t i = Tid.make "b" i
let v i = F.var (t i)

(* sliding-window pairwise conjunctions: every variable occurs twice, so
   with [n] variables the Shannon cost estimate is 2^n — entangled enough
   to push the ladder past its exact tier *)
let entangled n =
  F.disj (List.init n (fun i -> F.conj [ v i; v ((i + 1) mod n) ]))

let test_ladder_read_once_exact () =
  let p tid = if tid = t 0 then 0.3 else 0.9 in
  match Approx.confidence p (v 0) with
  | Approx.Exact c -> Alcotest.(check (float 1e-12)) "exact tier" 0.3 c
  | _ -> Alcotest.fail "read-once lineage must resolve exactly"

let test_ladder_small_entangled_exact () =
  (* few repeated variables: the Shannon tier answers exactly *)
  let f = entangled 5 in
  let p _ = 0.4 in
  match Approx.confidence p f with
  | Approx.Exact c ->
    Alcotest.(check (float 1e-9)) "matches Prob.exact"
      (Lineage.Prob.exact p f) c
  | _ -> Alcotest.fail "small entangled lineage must resolve exactly"

let test_ladder_falls_back_to_interval () =
  (* 16 repeated variables (estimate 2^16 > 4096) and a 2-node OBDD cap:
     both exact tiers are off the table, so the ladder must sample *)
  let f = entangled 16 in
  let p _ = 0.35 in
  let truth = Lineage.Prob.exact p f in
  match Approx.confidence ~exact_node_cap:2 p f with
  | Approx.Interval { lo; hi; estimate; samples } ->
    Alcotest.(check bool) "well-formed" true (0.0 <= lo && lo <= hi && hi <= 1.0);
    Alcotest.(check bool) "estimate inside" true (lo <= estimate && estimate <= hi);
    Alcotest.(check bool)
      (Printf.sprintf "truth %.4f inside [%.4f, %.4f]" truth lo hi)
      true
      (lo <= truth && truth <= hi);
    Alcotest.(check bool) "hoeffding sample count" true
      (samples = Approx.samples_for Approx.default_mc)
  | Approx.Exact _ -> Alcotest.fail "cap 2 cannot build the OBDD"
  | Approx.Failed m -> Alcotest.failf "sampling failed: %s" m

let test_ladder_deterministic () =
  let f = entangled 16 in
  let p _ = 0.35 in
  let a = Approx.confidence ~exact_node_cap:2 p f in
  let b = Approx.confidence ~exact_node_cap:2 p f in
  Alcotest.(check bool) "same estimate both times" true (a = b)

let test_releasable_fail_closed () =
  let check name expected est =
    Alcotest.(check bool) name true (Approx.releasable ~beta:0.5 est = expected)
  in
  check "exact above releases" `Release (Approx.Exact 0.51);
  check "exact at threshold withholds" `Withhold (Approx.Exact 0.5);
  check "exact below withholds" `Withhold (Approx.Exact 0.2);
  check "interval above releases" `Release
    (Approx.Interval { lo = 0.52; hi = 0.6; estimate = 0.55; samples = 100 });
  check "straddling interval is ambiguous" `Ambiguous
    (Approx.Interval { lo = 0.45; hi = 0.55; estimate = 0.5; samples = 100 });
  check "interval below withholds" `Withhold
    (Approx.Interval { lo = 0.3; hi = 0.5; estimate = 0.4; samples = 100 });
  check "failed estimate withholds" `Withhold (Approx.Failed "boom")

let test_samples_for_validation () =
  Alcotest.(check bool) "hoeffding size" true
    (Approx.samples_for Approx.default_mc > 10_000);
  Alcotest.(check bool) "cap respected" true
    (Approx.samples_for { Approx.default_mc with samples_cap = 7 } = 7);
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Approx.samples_for: eps 0 outside (0,1)") (fun () ->
      ignore (Approx.samples_for { Approx.default_mc with eps = 0.0 }))

(* ------------------------------------------------------------------ *)
(* deadlines in the confidence stage *)

let test_ladder_expired_deadline_fails_closed () =
  let f = entangled 16 in
  let p _ = 0.35 in
  let tiers = ref [] in
  (match
     Approx.confidence ~deadline:(DL.logical 0)
       ~on_tier:(fun t -> tiers := t :: !tiers)
       p f
   with
  | Approx.Failed reason -> Alcotest.(check string) "reason" "deadline" reason
  | _ -> Alcotest.fail "an expired deadline must fail the bounded rungs");
  Alcotest.(check (list string)) "reported under the OBDD rung" [ "obdd" ]
    (List.map Approx.tier_name !tiers);
  (* the exact rungs are bounded by construction and ignore it *)
  match Approx.confidence ~deadline:(DL.logical 0) p (entangled 5) with
  | Approx.Exact c ->
    Alcotest.(check (float 1e-9)) "circuit rung still answers"
      (Lineage.Prob.exact p (entangled 5)) c
  | _ -> Alcotest.fail "the circuit rung does not consult the deadline"

let test_ladder_deadline_between_chunks () =
  (* counter clock, one reading per check: the OBDD (1.0) and
     Monte-Carlo (2.0) checks and chunk 0 (3.0) pass, chunk 1 (4.0) is
     past the 3.5 s deadline *)
  let clock = Obs.Clock.counter ~step:1.0 () in
  let deadline = DL.wall_ms ~clock 3500.0 in
  Alcotest.(check bool) "several chunks" true
    (Approx.samples_for Approx.default_mc > 4096);
  match
    Approx.confidence ~deadline ~exact_node_cap:2 (fun _ -> 0.35)
      (entangled 16)
  with
  | Approx.Failed reason -> Alcotest.(check string) "reason" "deadline" reason
  | _ -> Alcotest.fail "sampling must stop at the first chunk past the deadline"

(* R(A, Tag) ⋈ S(A, B) ⋈ T(B): the non-hierarchical H0 query; every R
   row shares one Tag, so its single output row's lineage joins all of
   S's edges and every R and T tuple occurs many times *)
let h0_sql = "SELECT DISTINCT R.Tag FROM R, S, T WHERE R.A = S.A AND S.B = T.B"

let h0_context ~beta ~deadline =
  let open Relational in
  let rel name cols =
    Relation.create name (Schema.of_list (List.map (fun c -> (c, V.TInt)) cols))
  in
  let db =
    List.fold_left Db.add_relation Db.empty
      [ rel "R" [ "A"; "Tag" ]; rel "S" [ "A"; "B" ]; rel "T" [ "B" ] ]
  in
  let rng = Prng.Splitmix.of_int 2009 in
  let conf () = Prng.Splitmix.float_in rng 0.1 0.9 in
  let insert db name values = fst (Db.insert db name values ~conf:(conf ())) in
  let db = ref db in
  for i = 0 to 11 do
    db := insert !db "R" [ V.Int i; V.Int 0 ];
    db := insert !db "T" [ V.Int i ]
  done;
  for a = 0 to 11 do
    for b = 0 to 11 do
      if Prng.Splitmix.float_in rng 0.0 1.0 < 0.6 then
        db := insert !db "S" [ V.Int a; V.Int b ]
    done
  done;
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_user (add_role empty "analyst") "u" in
    let m = ok (assign_user m ~user:"u" ~role:"analyst") in
    ok (grant m ~role:"analyst" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list [ Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta ]
  in
  E.make_context ~deadline ~obs:(Obs.deterministic ()) ~db:!db ~rbac ~policies
    ()

let h0_request = { E.query = Pcqe.Query.sql h0_sql; user = "u"; purpose = "p"; perc = 0.0 }

let test_h0_default_mode_finishes () =
  let check label beta (resp : E.response) =
    Alcotest.(check int) (label ^ ": one output row") 1
      (List.length resp.E.released + resp.E.withheld);
    List.iter
      (fun (r : E.released) ->
        Alcotest.(check bool)
          (label ^ ": priced by a bounded rung") true
          (List.mem r.E.conf_tier [ "obdd"; "monte_carlo" ]);
        Alcotest.(check bool)
          (Printf.sprintf "%s: released above beta (%.4f)" label r.E.confidence)
          true (r.E.confidence > beta))
      resp.E.released
  in
  List.iter
    (fun beta ->
      let ctx = h0_context ~beta ~deadline:DL.No_deadline in
      check "cold" beta (ok (E.answer ctx h0_request));
      let session = E.Session.create ctx in
      check "session" beta (ok (E.Session.answer session h0_request)))
    [ 0.3; 0.999 ];
  (* with a generous threshold the row clears it and is released *)
  let ctx = h0_context ~beta:0.3 ~deadline:DL.No_deadline in
  let resp = ok (E.answer ctx h0_request) in
  Alcotest.(check int) "released at beta 0.3" 1 (List.length resp.E.released)

(* Strategy finding on H0: the row's lineage is beyond every exact rung,
   so its class is unpriceable and no solver probe may hang on it *)
let test_h0_strategy_finding_bounded () =
  let request = { h0_request with E.perc = 1.0 } in
  let timed label deadline =
    let ctx = h0_context ~beta:0.999 ~deadline in
    let t0 = Unix.gettimeofday () in
    let resp = ok (E.answer ctx request) in
    let wall = Unix.gettimeofday () -. t0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: under 2 s (%.2f s)" label wall)
      true (wall < 2.0);
    Alcotest.(check int) (label ^ ": nothing released") 0
      (List.length resp.E.released);
    Alcotest.(check bool) (label ^ ": never infeasible") false resp.E.infeasible;
    Alcotest.(check bool) (label ^ ": degraded") true (resp.E.degraded <> None);
    let obs = Option.get ctx.E.obs in
    Alcotest.(check int) (label ^ ": counted as degraded") 1
      (Obs.Metrics.counter obs.Obs.metrics "resilience.degraded_answers");
    resp
  in
  ignore (timed "logical 200" (DL.Logical 200));
  let resp = timed "no deadline" DL.No_deadline in
  Alcotest.(check (option string)) "reason" (Some "unpriceable lineage")
    resp.E.degraded

let test_engine_confidence_deadline_withholds () =
  (* an exhausted logical budget: the H0 row cannot be priced, so it is
     withheld and counted, never released *)
  let ctx = h0_context ~beta:0.3 ~deadline:(DL.Logical 0) in
  let resp = ok (E.answer ctx h0_request) in
  Alcotest.(check int) "nothing released" 0 (List.length resp.E.released);
  Alcotest.(check int) "withheld" 1 resp.E.withheld;
  let obs = Option.get ctx.E.obs in
  Alcotest.(check int) "counted as a confidence failure" 1
    (Obs.Metrics.counter obs.Obs.metrics "resilience.confidence_failures")

let () =
  Alcotest.run "resilience"
    [
      ( "deadline",
        [
          Alcotest.test_case "never" `Quick test_never;
          Alcotest.test_case "logical expiry" `Quick test_logical_expiry;
          Alcotest.test_case "zero budget" `Quick test_logical_zero_born_expired;
          Alcotest.test_case "wall via counter clock" `Quick
            test_wall_with_counter_clock;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "invalid specs" `Quick test_invalid_specs;
          Alcotest.test_case "split/absorb" `Quick test_split_absorb_logical;
          Alcotest.test_case "split of expired parent" `Quick
            test_split_of_expired_parent;
          Alcotest.test_case "split of never" `Quick test_split_never;
          Alcotest.test_case "uneven split remainder" `Quick
            test_split_remainder_uneven;
          Alcotest.test_case "cancel sticky through split" `Quick
            test_split_after_cancel_sticky;
          Alcotest.test_case "nested split/absorb accounting" `Quick
            test_nested_split_absorb_accounting;
        ] );
      ( "fault",
        [
          Alcotest.test_case "unknown site rejected" `Quick
            test_fault_unknown_site_rejected;
          Alcotest.test_case "disarmed no-op" `Quick test_fault_noop_when_disarmed;
          Alcotest.test_case "seeded determinism" `Quick test_fault_determinism;
          Alcotest.test_case "rates 0 and 1" `Quick test_fault_rates;
          Alcotest.test_case "max injections" `Quick test_fault_max_injections;
          Alcotest.test_case "site filter" `Quick test_fault_site_filter;
          Alcotest.test_case "protect suppresses" `Quick test_fault_protect;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "tiny budget is partial" `Quick
            test_partial_on_tiny_budget;
          Alcotest.test_case "unbounded is complete" `Quick
            test_unbounded_is_complete;
          Alcotest.test_case "generous budget changes nothing" `Quick
            test_generous_budget_matches_unbounded;
          QCheck_alcotest.to_alcotest qcheck_partial_feasible;
        ] );
      ( "jobs-invariance",
        [
          Alcotest.test_case "dnc logical budget, jobs 1/2/4" `Slow
            test_dnc_budget_jobs_invariant;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "read-once exact" `Quick test_ladder_read_once_exact;
          Alcotest.test_case "small entangled exact" `Quick
            test_ladder_small_entangled_exact;
          Alcotest.test_case "interval fallback contains truth" `Quick
            test_ladder_falls_back_to_interval;
          Alcotest.test_case "deterministic" `Quick test_ladder_deterministic;
          Alcotest.test_case "fail-closed release rule" `Quick
            test_releasable_fail_closed;
          Alcotest.test_case "samples_for" `Quick test_samples_for_validation;
          Alcotest.test_case "expired deadline fails closed" `Quick
            test_ladder_expired_deadline_fails_closed;
          Alcotest.test_case "deadline between sampling chunks" `Quick
            test_ladder_deadline_between_chunks;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "H0 finishes in default mode" `Quick
            test_h0_default_mode_finishes;
          Alcotest.test_case "expired budget withholds" `Quick
            test_engine_confidence_deadline_withholds;
          Alcotest.test_case "H0 strategy finding is bounded" `Quick
            test_h0_strategy_finding_bounded;
        ] );
    ]
