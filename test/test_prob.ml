(* Tests for confidence computation: read-once evaluation, exact Shannon
   expansion, Monte-Carlo estimation, and cross-validation against brute
   force enumeration. *)

module F = Lineage.Formula
module P = Lineage.Prob
module Tid = Lineage.Tid

let v i = F.var (Tid.make "t" i)

(* the confidence ladder, the one lineage pricer: exact on every formula
   these tests build *)
let confidence p f = Lineage.Approx.point (Lineage.Approx.confidence p f)

(* brute-force probability by enumerating all worlds over the formula's
   variables *)
let brute_force p f =
  let vars = Tid.Set.elements (F.vars f) in
  let n = List.length vars in
  let total = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let assignment tid =
      let rec index i = function
        | [] -> assert false
        | x :: rest -> if Tid.equal x tid then i else index (i + 1) rest
      in
      mask land (1 lsl index 0 vars) <> 0
    in
    if F.eval assignment f then begin
      let weight =
        List.fold_left
          (fun acc tid ->
            let rec index i = function
              | [] -> assert false
              | x :: rest -> if Tid.equal x tid then i else index (i + 1) rest
            in
            let bit = mask land (1 lsl index 0 vars) <> 0 in
            acc *. (if bit then p tid else 1.0 -. p tid))
          1.0 vars
      in
      total := !total +. weight
    end
  done;
  !total

let const_p x _ = x

let p_by_row values tid = values.(tid.Tid.row)

let test_read_once_and () =
  let f = F.conj [ v 0; v 1 ] in
  let p = p_by_row [| 0.3; 0.4 |] in
  Alcotest.(check (float 1e-12)) "and" 0.12 (P.read_once p f)

let test_read_once_or () =
  let f = F.disj [ v 0; v 1 ] in
  let p = p_by_row [| 0.3; 0.4 |] in
  Alcotest.(check (float 1e-12)) "or" 0.58 (P.read_once p f)

let test_paper_example () =
  (* p38 = (p02 + p03 - p02*p03) * p13 = 0.058 *)
  let f = F.conj [ F.disj [ v 2; v 3 ]; v 13 ] in
  let p tid =
    match tid.Tid.row with 2 -> 0.3 | 3 -> 0.4 | 13 -> 0.1 | _ -> 0.0
  in
  Alcotest.(check (float 1e-12)) "p38" 0.058 (confidence p f);
  (* raising p03 to 0.5 gives 0.065 *)
  let p' tid = if tid.Tid.row = 3 then 0.5 else p tid in
  Alcotest.(check (float 1e-12)) "p38 after increment" 0.065 (confidence p' f)

let test_constants () =
  Alcotest.(check (float 0.0)) "true" 1.0 (confidence (const_p 0.5) F.tru);
  Alcotest.(check (float 0.0)) "false" 0.0 (confidence (const_p 0.5) F.fls)

let test_negation () =
  let f = F.neg (v 0) in
  Alcotest.(check (float 1e-12)) "not" 0.7 (confidence (const_p 0.3) f)

let test_exact_on_shared_vars () =
  (* (t0 & t1) | (t0 & t2): not read-once; P = p0*(p1 + p2 - p1*p2) *)
  let f = F.disj [ F.conj [ v 0; v 1 ]; F.conj [ v 0; v 2 ] ] in
  let p = p_by_row [| 0.5; 0.4; 0.2 |] in
  let expect = 0.5 *. (0.4 +. 0.2 -. 0.08) in
  Alcotest.(check (float 1e-12)) "shannon" expect (P.exact p f);
  Alcotest.(check (float 1e-12)) "dispatcher agrees" expect (confidence p f)

let test_exact_with_negation_sharing () =
  (* t0 | (!t0 & t1) = t0 | t1 *)
  let f = F.disj [ v 0; F.conj [ F.neg (v 0); v 1 ] ] in
  let p = p_by_row [| 0.3; 0.5 |] in
  Alcotest.(check (float 1e-12)) "negated sharing" 0.65 (P.exact p f)

let test_shannon_cost_estimate () =
  let read_once = F.conj [ v 0; v 1 ] in
  Alcotest.(check int) "read-once costs 1" 1 (P.shannon_cost_estimate read_once);
  let shared = F.disj [ F.conj [ v 0; v 1 ]; F.conj [ v 0; v 2 ] ] in
  Alcotest.(check int) "one shared var costs 2" 2 (P.shannon_cost_estimate shared)

let test_monte_carlo_converges () =
  let f = F.disj [ F.conj [ v 0; v 1 ]; F.conj [ v 0; v 2 ] ] in
  let p = p_by_row [| 0.5; 0.4; 0.2 |] in
  let rng = Prng.Splitmix.of_int 1234 in
  let est = P.monte_carlo rng ~samples:40_000 p f in
  let exact = P.exact p f in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.4f near exact %.4f" est exact)
    true
    (Float.abs (est -. exact) < 0.02)

let test_monte_carlo_rejects_bad_samples () =
  let rng = Prng.Splitmix.of_int 1 in
  Alcotest.(check bool) "samples must be positive" true
    (try
       ignore (P.monte_carlo rng ~samples:0 (const_p 0.5) (v 0));
       false
     with Invalid_argument _ -> true)

(* random formulas over 4 vars, validated against brute force *)
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

(* Birnbaum importance, computed by [Explain.influence] over the
   ladder's compiled evaluator (0 for a variable the formula lacks) *)
let derivative p f v =
  match Lineage.Explain.influence p f with
  | None -> Alcotest.fail "influence not available"
  | Some ranked -> Option.value (List.assoc_opt v ranked) ~default:0.0

let test_derivative_basics () =
  let f = F.conj [ F.disj [ v 2; v 3 ]; v 13 ] in
  let p tid = match tid.Tid.row with 2 -> 0.3 | 3 -> 0.4 | 13 -> 0.1 | _ -> 0.0 in
  (* dP/dp13 = p02 + p03 - p02*p03 = 0.58 *)
  Alcotest.(check (float 1e-12)) "d/dp13" 0.58 (derivative p f (Tid.make "t" 13));
  (* dP/dp3 = p13 * (1 - p02) = 0.07 *)
  Alcotest.(check (float 1e-12)) "d/dp3" 0.07 (derivative p f (Tid.make "t" 3));
  Alcotest.(check (float 0.0)) "absent var" 0.0 (derivative p f (Tid.make "t" 99))

let qcheck_derivative_matches_finite_difference =
  QCheck.Test.make ~name:"derivative matches finite differences" ~count:300
    arb_formula
    (fun f ->
      let values = [| 0.23; 0.48; 0.61; 0.87 |] in
      let p tid = values.(tid.Tid.row) in
      let v = Tid.make "t" 1 in
      let eps = 1e-6 in
      let p_plus tid = if Tid.equal tid v then values.(1) +. eps else p tid in
      let fd = (P.exact p_plus f -. P.exact p f) /. eps in
      Float.abs (derivative p f v -. fd) < 1e-4)

let qcheck_monotone_derivative_nonnegative =
  QCheck.Test.make ~name:"monotone formulas have non-negative derivatives"
    ~count:300 arb_formula
    (fun f ->
      QCheck.assume (F.is_monotone f);
      let p tid = [| 0.2; 0.4; 0.6; 0.8 |].(tid.Tid.row) in
      derivative p f (Tid.make "t" 0) >= -1e-12)

let qcheck_exact_matches_brute_force =
  QCheck.Test.make ~name:"exact matches brute force" ~count:300 arb_formula
    (fun f ->
      let p = p_by_row [| 0.13; 0.42; 0.71; 0.9 |] in
      Float.abs (P.exact p f -. brute_force p f) < 1e-9)

let qcheck_confidence_in_unit_interval =
  QCheck.Test.make ~name:"confidence lies in [0,1]" ~count:300 arb_formula
    (fun f ->
      let p = p_by_row [| 0.1; 0.5; 0.9; 0.33 |] in
      let c = confidence p f in
      c >= -1e-12 && c <= 1.0 +. 1e-12)

let qcheck_monotone_formulas_monotone_in_p =
  QCheck.Test.make ~name:"monotone formulas are monotone in tuple confidence"
    ~count:300 arb_formula
    (fun f ->
      QCheck.assume (F.is_monotone f);
      let lo = p_by_row [| 0.1; 0.2; 0.3; 0.4 |] in
      let hi = p_by_row [| 0.2; 0.3; 0.4; 0.5 |] in
      confidence lo f <= confidence hi f +. 1e-12)

let qcheck_read_once_agrees_when_applicable =
  QCheck.Test.make ~name:"read_once agrees with exact on read-once formulas"
    ~count:300 arb_formula
    (fun f ->
      QCheck.assume (F.is_read_once f);
      let p = p_by_row [| 0.15; 0.35; 0.55; 0.75 |] in
      Float.abs (P.read_once p f -. P.exact p f) < 1e-9)

let () =
  Alcotest.run "prob"
    [
      ( "evaluators",
        [
          Alcotest.test_case "read-once and" `Quick test_read_once_and;
          Alcotest.test_case "read-once or" `Quick test_read_once_or;
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "negation" `Quick test_negation;
          Alcotest.test_case "shannon on shared" `Quick test_exact_on_shared_vars;
          Alcotest.test_case "negated sharing" `Quick test_exact_with_negation_sharing;
          Alcotest.test_case "cost estimate" `Quick test_shannon_cost_estimate;
          Alcotest.test_case "monte-carlo" `Slow test_monte_carlo_converges;
          Alcotest.test_case "monte-carlo validation" `Quick test_monte_carlo_rejects_bad_samples;
          Alcotest.test_case "derivative" `Quick test_derivative_basics;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_exact_matches_brute_force;
          QCheck_alcotest.to_alcotest qcheck_confidence_in_unit_interval;
          QCheck_alcotest.to_alcotest qcheck_monotone_formulas_monotone_in_p;
          QCheck_alcotest.to_alcotest qcheck_read_once_agrees_when_applicable;
          QCheck_alcotest.to_alcotest qcheck_derivative_matches_finite_difference;
          QCheck_alcotest.to_alcotest qcheck_monotone_derivative_nonnegative;
        ] );
    ]
