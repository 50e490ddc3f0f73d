(* Tests for incremental confidence re-evaluation: the affine coefficient
   caches in State, lineage dedup classes in Problem, and the observe-only
   evaluation counters.

   The contract under test is bit-identity: with incremental evaluation on
   (the default) every satisfied/unsatisfied decision, solver solution,
   satisfied count and cost must equal the forced-off baseline — the caches
   may only change how often the compiled evaluators run. *)

module Problem = Optimize.Problem
module State = Optimize.State
module Solver = Optimize.Solver
module Synth = Workload.Synth
module F = Lineage.Formula
module Tid = Lineage.Tid
module Sm = Prng.Splitmix
module C = Cost.Cost_model

(* ------------------------------------------------------------------ *)
(* random instances with tight caps and occasional duplicate formulas,
   built twice (same seed) so the incremental and baseline layouts
   describe the same instance *)

let random_problem ~incremental seed =
  let rng = Sm.of_int seed in
  let nb = Sm.int_in rng 3 8 in
  let nr = Sm.int_in rng 2 6 in
  let bases =
    List.init nb (fun i ->
        let p0 = Sm.float_in rng 0.05 0.3 in
        let cap = Float.min 1.0 (p0 +. Sm.float_in rng 0.1 0.9) in
        { Problem.tid = Tid.make "q" i; p0; cap; cost = C.random rng })
  in
  let tids = Array.of_list (List.map (fun b -> b.Problem.tid) bases) in
  let formulas =
    let prev = ref [] in
    List.init nr (fun _ ->
        let f =
          match !prev with
          | f :: _ when Sm.float_in rng 0.0 1.0 < 0.3 ->
            f (* structural duplicate: exercises the dedup classes *)
          | _ ->
            let k = Sm.int_in rng 2 (min 5 nb) in
            let chosen = Sm.sample_without_replacement rng k nb in
            let leaves =
              Array.to_list (Array.map (fun i -> tids.(i)) chosen)
            in
            Workload.Dag_query.random_monotone_tree rng leaves
        in
        prev := f :: !prev;
        f)
  in
  Problem.make_exn ~beta:0.4 ~incremental ~required:(min 1 nr) ~bases
    ~formulas ()

(* one update drawn from a (bid, op) pair of naturals; ops 2/3 jump
   straight to the cap / p0 boundaries *)
let apply pb st (bsel, osel) =
  let bid = bsel mod Problem.num_bases pb in
  match osel mod 4 with
  | 0 -> ignore (State.raise_by_delta st bid)
  | 1 -> ignore (State.lower_by_delta st bid)
  | 2 -> State.set_base st bid (Problem.base pb bid).Problem.cap
  | _ -> State.set_base st bid (Problem.base pb bid).Problem.p0

let qcheck_agreement =
  QCheck.Test.make
    ~name:"incremental state agrees with fresh full evaluation" ~count:300
    QCheck.(pair small_nat (small_list (pair small_nat small_nat)))
    (fun (seed, ops) ->
      let pb = random_problem ~incremental:true seed in
      let pb_off = random_problem ~incremental:false seed in
      let st = State.create pb in
      let st_off = State.create pb_off in
      List.iter
        (fun op ->
          apply pb st op;
          apply pb_off st_off op;
          let levels = State.snapshot st in
          for rid = 0 to Problem.num_results pb - 1 do
            (* against a fresh full evaluation of the baseline layout *)
            let fresh = Problem.eval_result pb_off levels rid in
            if Float.abs (State.result_confidence st rid -. fresh) > 1e-9
            then
              QCheck.Test.fail_reportf
                "rid %d: incremental %.17g vs fresh %.17g" rid
                (State.result_confidence st rid)
                fresh;
            (* satisfied decisions must be *identical*, not just close *)
            if State.is_satisfied st rid <> State.is_satisfied st_off rid
            then QCheck.Test.fail_reportf "rid %d: satisfied flag differs" rid
          done;
          if Float.abs (State.cost st -. State.cost st_off) > 1e-9 then
            QCheck.Test.fail_reportf "cost differs")
        ops;
      (* probes are read-only and O(1) on the cached path *)
      for bid = 0 to Problem.num_bases pb - 1 do
        let level = (Problem.base pb bid).Problem.cap in
        List.iter
          (fun rid ->
            let a = State.confidence_with_override st ~rid ~bid ~level in
            let b = State.confidence_with_override st_off ~rid ~bid ~level in
            if Float.abs (a -. b) > 1e-9 then
              QCheck.Test.fail_reportf "override rid %d bid %d differs" rid
                bid)
          (Problem.results_of_base pb bid)
      done;
      true)

(* ------------------------------------------------------------------ *)
(* the four solvers produce identical outcomes with the caches on and
   forced off *)

let outcome_triple (o : Solver.outcome) = (o.solution, o.cost, o.satisfied)

let check_solver_identity name algorithm make_problem =
  let on = Solver.solve ~algorithm (make_problem true) in
  let off = Solver.solve ~algorithm (make_problem false) in
  Alcotest.(check bool)
    (name ^ ": identical solution/cost/satisfied")
    true
    (outcome_triple on = outcome_triple off)

let synth_problem incremental =
  Synth.instance
    ~params:{ Synth.default_params with data_size = 150 }
    ~incremental ~seed:7 ()

let small_problem incremental =
  Synth.small_instance ~incremental ~seed:7 ()

(* entangled lineage: result [j] is an Or of pairwise Ands over a sliding
   window of five bases, so every base occurs in several clauses and no
   formula is read-once *)
let entangled_problem incremental =
  let rng = Sm.of_int 11 in
  let nb = 12 in
  let bases =
    List.init nb (fun i ->
        {
          Problem.tid = Tid.make "ent" i;
          p0 = Sm.float_in rng 0.05 0.15;
          cap = 1.0;
          cost = C.random rng;
        })
  in
  let tids = Array.of_list (List.map (fun b -> b.Problem.tid) bases) in
  let formulas =
    List.init 10 (fun j ->
        F.disj
          (List.init 4 (fun i ->
               F.conj
                 [ F.var tids.((j + i) mod nb); F.var tids.((j + i + 1) mod nb) ])))
  in
  Problem.make_exn ~delta:0.1 ~incremental ~beta:0.6 ~required:4 ~bases
    ~formulas ()

(* self-join shape: every formula of a synthetic instance four times,
   which the dedup classes collapse *)
let duplicated_problem incremental =
  let p = synth_problem incremental in
  let formulas =
    Array.to_list (Problem.results p) |> List.map (fun r -> r.Problem.formula)
  in
  Problem.make_exn ~delta:(Problem.delta p) ~incremental ~beta:(Problem.beta p)
    ~required:(4 * Problem.required p)
    ~bases:(Array.to_list (Problem.bases p))
    ~formulas:(List.concat (List.init 4 (fun _ -> formulas)))
    ()

let entangled_heuristic =
  Solver.Heuristic
    { Optimize.Heuristic.default_config with max_nodes = Some 5_000 }

let test_solver_identity () =
  check_solver_identity "greedy" Solver.greedy synth_problem;
  check_solver_identity "divide-and-conquer" Solver.divide_conquer
    synth_problem;
  check_solver_identity "annealing"
    (Solver.Annealing
       { Optimize.Annealing.default_config with iterations = 5_000 })
    synth_problem;
  check_solver_identity "heuristic" Solver.heuristic small_problem;
  check_solver_identity "heuristic-seeded" Solver.heuristic_seeded
    small_problem;
  check_solver_identity "heuristic(entangled)" entangled_heuristic
    entangled_problem;
  check_solver_identity "greedy(self-join x4)" Solver.greedy duplicated_problem

(* the caches must pay: on instances where the baseline re-evaluates
   beyond its initial per-class pass, caches on do strictly fewer full
   evaluations *)
let test_fewer_full_evals () =
  let full_evals algorithm problem =
    let out = Solver.solve ~algorithm problem in
    match List.assoc_opt "full_evals" (Solver.stats_fields out.Solver.stats) with
    | Some v -> int_of_float v
    | None -> Alcotest.fail "stats carry no full_evals"
  in
  List.iter
    (fun (name, algorithm, make_problem) ->
      let off_problem = make_problem false in
      let off = full_evals algorithm off_problem in
      let on = full_evals algorithm (make_problem true) in
      Alcotest.(check bool)
        (name ^ ": baseline re-evaluates") true
        (off > Problem.num_results off_problem);
      if on >= off then
        Alcotest.failf "%s: %d full evals with caches on, %d off" name on off)
    [
      ("greedy", Solver.greedy, synth_problem);
      ("divide-and-conquer", Solver.divide_conquer, synth_problem);
      ( "annealing",
        Solver.Annealing
          { Optimize.Annealing.default_config with iterations = 5_000 },
        synth_problem );
      ("heuristic(entangled)", entangled_heuristic, entangled_problem);
      ("greedy(self-join x4)", Solver.greedy, duplicated_problem);
    ]

(* ------------------------------------------------------------------ *)
(* dedup classes *)

let t i = Tid.make "b" i
let v i = F.var (t i)

let base i =
  { Problem.tid = t i; p0 = 0.1; cap = 1.0; cost = C.linear ~rate:10.0 }

let test_dedup_classes () =
  (* r0 and r2 share lineage (a self-join style repeat); r1 is distinct *)
  let formulas =
    [ F.conj [ v 0; v 1 ]; F.disj [ v 1; v 2 ]; F.conj [ v 0; v 1 ] ]
  in
  let p =
    Problem.make_exn ~beta:0.5 ~required:1
      ~bases:[ base 0; base 1; base 2 ]
      ~formulas ()
  in
  Alcotest.(check int) "two classes" 2 (Problem.num_classes p);
  Alcotest.(check int) "one deduped formula" 1 (Problem.dedup_formulas p);
  Alcotest.(check int) "r0 and r2 share a class"
    (Problem.class_of_result p 0)
    (Problem.class_of_result p 2);
  Alcotest.(check (list int)) "class members"
    [ 0; 2 ]
    (Problem.class_members p (Problem.class_of_result p 0));
  (* forced off: identity mapping, no dedup *)
  let p_off =
    Problem.make_exn ~beta:0.5 ~required:1 ~incremental:false
      ~bases:[ base 0; base 1; base 2 ]
      ~formulas ()
  in
  Alcotest.(check int) "off: classes = results" 3 (Problem.num_classes p_off);
  Alcotest.(check int) "off: no dedup" 0 (Problem.dedup_formulas p_off)

let test_counters () =
  let pb = synth_problem true in
  let st = State.create pb in
  let after_create = State.full_evals st in
  Alcotest.(check bool) "create evaluates every class" true
    (after_create = Problem.num_classes pb);
  ignore (State.raise_by_delta st 0);
  (* first probe observes a second point and derives the pair; the
     repeat is served from it *)
  ignore (State.gain st 0 (Problem.delta pb));
  ignore (State.gain st 0 (Problem.delta pb));
  Alcotest.(check bool) "probes hit the affine cache" true
    (State.incremental_evals st > 0);
  (* a second commit to the same base keeps its own coefficients valid *)
  let full_before = State.full_evals st in
  ignore (State.raise_by_delta st 0);
  Alcotest.(check int) "same-base re-commit is free"
    full_before (State.full_evals st)

(* ------------------------------------------------------------------ *)
(* counters are observe-only: attaching a metrics registry changes no
   outcome field, and the registry receives the state counters *)

let test_observe_only () =
  let plain = Solver.solve ~algorithm:Solver.greedy (synth_problem true) in
  let obs = Obs.deterministic () in
  let observed =
    Solver.solve ~algorithm:Solver.greedy ~obs (synth_problem true)
  in
  Alcotest.(check bool) "identical outcome with metrics on" true
    (outcome_triple plain = outcome_triple observed);
  Alcotest.(check bool) "registry saw full evals" true
    (Obs.Metrics.counter obs.Obs.metrics "state.full_evals" > 0);
  Alcotest.(check bool) "registry saw incremental evals" true
    (Obs.Metrics.counter obs.Obs.metrics "state.incremental_evals" > 0);
  (* stats expose the same counters for the bench artifact *)
  let fields = Solver.stats_fields observed.Solver.stats in
  let has name = List.mem_assoc name fields in
  Alcotest.(check bool) "stats_fields carry the counters" true
    (has "incremental_evals" && has "full_evals"
    && has "coeff_invalidations" && has "dedup_formulas")

let () =
  Alcotest.run "incremental"
    [
      ("agreement", [ QCheck_alcotest.to_alcotest qcheck_agreement ]);
      ( "solvers",
        [
          Alcotest.test_case "on/off identity" `Quick test_solver_identity;
          Alcotest.test_case "caches cut full evals" `Quick
            test_fewer_full_evals;
        ] );
      ( "classes",
        [
          Alcotest.test_case "dedup" `Quick test_dedup_classes;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "observability",
        [ Alcotest.test_case "observe-only" `Quick test_observe_only ] );
    ]
