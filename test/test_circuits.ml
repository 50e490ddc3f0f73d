(* Tests for d-DNNF lineage circuits: bitwise agreement with the exact
   evaluator (the identity contract that lets the circuit stand as the
   ladder's exact rung), read-once formulas compiling to pure products,
   the node-cap fallback boundary, and end-to-end strategy finding over
   circuit-backed compiled evaluators — the same outcome at every jobs
   level, checked against the possible-worlds reference. *)

module F = Lineage.Formula
module P = Lineage.Prob
module C = Lineage.Circuit
module Tid = Lineage.Tid
module Problem = Optimize.Problem
module Solver = Optimize.Solver

let v i = F.var (Tid.make "t" i)
let p_by_row values (tid : Tid.t) = values.(tid.Tid.row)

let bitwise_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

(* ------------------------------------------------------------------ *)
(* unit tests *)

let test_paper_example () =
  (* (t2 | t3) & t13 — read-once, decomposes without decisions *)
  let f = F.conj [ F.disj [ v 2; v 3 ]; v 13 ] in
  let p (tid : Tid.t) =
    match tid.Tid.row with 2 -> 0.3 | 3 -> 0.4 | 13 -> 0.1 | _ -> 0.0
  in
  let c = C.compile f in
  Alcotest.(check bool)
    "bitwise vs exact" true
    (bitwise_equal (C.eval c p) (P.exact p f));
  Alcotest.(check (float 1e-12)) "value" 0.058 (C.eval c p);
  Alcotest.(check int) "no decisions" 0 (C.decisions c)

let test_shared_vars_need_decisions () =
  (* (t0 & t1) | (t0 & t2): t0 is shared — the circuit must decide on it *)
  let f = F.disj [ F.conj [ v 0; v 1 ]; F.conj [ v 0; v 2 ] ] in
  let p = p_by_row [| 0.5; 0.4; 0.2 |] in
  let c = C.compile f in
  Alcotest.(check bool) "has decisions" true (C.decisions c > 0);
  Alcotest.(check bool)
    "bitwise vs exact" true
    (bitwise_equal (C.eval c p) (P.exact p f))

let test_reeval_under_new_confidences () =
  (* the whole point: compile once, evaluate under many vectors *)
  let f = F.disj [ F.conj [ v 0; v 1 ]; F.conj [ v 1; v 2 ]; v 0 ] in
  let c = C.compile f in
  List.iter
    (fun values ->
      let p = p_by_row values in
      Alcotest.(check bool)
        "bitwise vs exact" true
        (bitwise_equal (C.eval c p) (P.exact p f)))
    [
      [| 0.1; 0.2; 0.3 |]; [| 0.9; 0.5; 0.05 |]; [| 0.0; 1.0; 0.5 |];
      [| 0.25; 0.25; 0.25 |];
    ]

let test_constants_and_negation () =
  let p = p_by_row [| 0.3 |] in
  Alcotest.(check (float 0.0)) "true" 1.0 (C.eval (C.compile F.tru) p);
  Alcotest.(check (float 0.0)) "false" 0.0 (C.eval (C.compile F.fls) p);
  let f = F.neg (v 0) in
  Alcotest.(check bool)
    "negation" true
    (bitwise_equal (C.eval (C.compile f) p) (P.exact p f))

let test_node_cap_boundary () =
  let f = F.disj [ F.conj [ v 0; v 1 ]; F.conj [ v 0; v 2 ] ] in
  let full = C.compile f in
  let n = C.size full in
  (* exactly enough nodes compiles; one fewer must refuse *)
  Alcotest.(check int) "cap = size compiles" n (C.size (C.compile ~node_cap:n f));
  Alcotest.(check bool)
    "cap - 1 raises" true
    (match C.compile ~node_cap:(n - 1) f with
    | exception C.Node_cap_exceeded -> true
    | _ -> false);
  Alcotest.(check bool)
    "compile_opt returns None" true
    (C.compile_opt ~node_cap:(n - 1) f = None);
  Alcotest.(check bool)
    "compile_opt at cap succeeds" true
    (C.compile_opt ~node_cap:n f <> None)

let test_read_once_no_decisions () =
  (* a read-once formula decomposes into independent products all the
     way down: no Shannon decision, and the read-once evaluator's value *)
  let f =
    F.disj [ F.conj [ v 0; F.neg (v 1) ]; F.conj [ v 2; F.disj [ v 3; v 4 ] ] ]
  in
  Alcotest.(check bool) "formula is read-once" true (F.is_read_once f);
  let p = p_by_row [| 0.3; 0.6; 0.45; 0.2; 0.9 |] in
  let c = C.compile f in
  Alcotest.(check int) "no decisions" 0 (C.decisions c);
  Alcotest.(check bool)
    "bitwise vs read_once" true
    (bitwise_equal (C.eval c p) (P.read_once p f))

(* ------------------------------------------------------------------ *)
(* properties: Circuit.eval ≡ Prob.exact, bit for bit *)

(* random formulas over a small variable pool — repetition across
   branches yields shared variables (decision nodes) and, with
   hash-consing, shared subformulas (memoized circuit nodes) *)
let gen_formula =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 1 then map (fun i -> v i) (int_range 0 3)
           else
             frequency
               [
                 (2, map (fun i -> v i) (int_range 0 3));
                 (1, map F.neg (self (n / 2)));
                 (2, map F.conj (list_size (int_range 2 3) (self (n / 2))));
                 (2, map F.disj (list_size (int_range 2 3) (self (n / 2))));
               ]))

let arb_formula = QCheck.make ~print:F.to_string gen_formula

let qcheck_eval_bitwise_exact =
  QCheck.Test.make ~name:"Circuit.eval is bitwise Prob.exact" ~count:500
    arb_formula (fun f ->
      let p = p_by_row [| 0.23; 0.48; 0.61; 0.87 |] in
      bitwise_equal (C.eval (C.compile f) p) (P.exact p f))

let qcheck_shared_subformulas =
  (* duplicate the generated formula inside a conjunction/disjunction:
     hash-consing makes both branches the same node, so the circuit must
     share (memoize) the compiled subcircuit and still agree bitwise *)
  QCheck.Test.make ~name:"shared subformulas agree bitwise" ~count:300
    arb_formula (fun f ->
      let g = F.disj [ F.conj [ f; v 0 ]; F.conj [ f; v 1 ]; f ] in
      let p = p_by_row [| 0.31; 0.57; 0.79; 0.11 |] in
      bitwise_equal (C.eval (C.compile g) p) (P.exact p g))

let qcheck_cap_is_all_or_nothing =
  (* a capped compile either yields a circuit that agrees bitwise, or
     refuses cleanly — never a wrong value *)
  QCheck.Test.make ~name:"node cap: agree or refuse" ~count:300
    (QCheck.pair arb_formula QCheck.small_nat) (fun (f, cap) ->
      let p = p_by_row [| 0.42; 0.17; 0.66; 0.93 |] in
      match C.compile_opt ~node_cap:(cap + 1) f with
      | None -> true
      | Some c -> bitwise_equal (C.eval c p) (P.exact p f))

(* ------------------------------------------------------------------ *)
(* solver identity: circuit-backed vs ladder-backed compiled evaluators *)

(* dyadic confidences and δ keep every evaluator's float arithmetic
   exact, so outcomes can be compared with (=) rather than a tolerance *)
let entangled_dyadic ~num_bases ~num_results ~width ~required ~seed () =
  let rng = Prng.Splitmix.of_int seed in
  let dyadics = [| 0.125; 0.25; 0.375; 0.5 |] in
  let bases =
    List.init num_bases (fun i ->
        {
          Problem.tid = Tid.make "cir" i;
          p0 = dyadics.(Prng.Splitmix.int rng 4);
          cap = 1.0;
          cost = Cost.Cost_model.random rng;
        })
  in
  let tids = Array.of_list (List.map (fun b -> b.Problem.tid) bases) in
  let formulas =
    List.init num_results (fun j ->
        F.disj
          (List.init (width - 1) (fun i ->
               let a = tids.((j + i) mod num_bases) in
               let b = tids.((j + i + 1) mod num_bases) in
               F.conj [ F.var a; F.var b ])))
  in
  Problem.make_exn ~delta:0.25 ~incremental:true ~beta:0.6 ~required ~bases
    ~formulas ()

let solvers =
  [
    ("greedy", Solver.greedy);
    ("divide-and-conquer", Solver.divide_conquer);
    ( "annealing",
      Solver.Annealing
        { Optimize.Annealing.default_config with iterations = 20_000 } );
    ("heuristic", Solver.Heuristic Optimize.Heuristic.default_config);
  ]

let test_solver_identity () =
  let pb =
    entangled_dyadic ~num_bases:10 ~num_results:8 ~width:4 ~required:3 ~seed:7
      ()
  in
  (* the instance really is circuit-backed *)
  let circuit_classes = ref 0 in
  for cid = 0 to Problem.num_classes pb - 1 do
    if Problem.evaluator_kind pb cid = Some Lineage.Approx.Circuit then
      incr circuit_classes
  done;
  Alcotest.(check bool) "some circuit-backed classes" true (!circuit_classes > 0);
  List.iter
    (fun (sname, algorithm) ->
      let reference = Solver.solve ~algorithm ~jobs:1 pb in
      List.iter
        (fun jobs ->
          let o = Solver.solve ~algorithm ~jobs pb in
          let label = Printf.sprintf "%s jobs=%d" sname jobs in
          Alcotest.(check bool)
            (label ^ ": solutions equal") true
            (o.Solver.solution = reference.Solver.solution);
          Alcotest.(check (list int))
            (label ^ ": satisfied equal") reference.Solver.satisfied
            o.Solver.satisfied;
          Alcotest.(check bool)
            (label ^ ": costs bitwise equal") true
            (bitwise_equal o.Solver.cost reference.Solver.cost))
        [ 2; 4 ];
      (* the circuit-backed evaluation agrees with the possible-worlds
         reference: at the proposed levels, exactly the results the
         solver counts as satisfied clear beta under [Prob.exact] *)
      match reference.Solver.solution with
      | None -> Alcotest.failf "%s: instance is feasible" sname
      | Some increments ->
        let level tid =
          match List.assoc_opt tid increments with
          | Some target -> target
          | None -> (
            match Problem.bid_of_tid pb tid with
            | Some bid -> (Problem.base pb bid).Problem.p0
            | None -> 0.0)
        in
        let exact_satisfied =
          List.filter
            (fun rid ->
              P.exact level (Problem.result pb rid).Problem.formula
              > Problem.beta pb)
            (List.init (Problem.num_results pb) Fun.id)
        in
        Alcotest.(check (list int))
          (sname ^ ": satisfied = exact reference") exact_satisfied
          (List.sort compare reference.Solver.satisfied))
    solvers

let () =
  Alcotest.run "circuits"
    [
      ( "unit",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "shared vars decide" `Quick
            test_shared_vars_need_decisions;
          Alcotest.test_case "re-eval under new p" `Quick
            test_reeval_under_new_confidences;
          Alcotest.test_case "constants and negation" `Quick
            test_constants_and_negation;
          Alcotest.test_case "node-cap boundary" `Quick test_node_cap_boundary;
          Alcotest.test_case "read-once has no decisions" `Quick
            test_read_once_no_decisions;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_eval_bitwise_exact;
          QCheck_alcotest.to_alcotest qcheck_shared_subformulas;
          QCheck_alcotest.to_alcotest qcheck_cap_is_all_or_nothing;
        ] );
      ( "solver identity",
        [
          Alcotest.test_case "four solvers x jobs 1/2/4" `Quick
            test_solver_identity;
        ] );
    ]
