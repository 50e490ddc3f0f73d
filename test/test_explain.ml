(* Tests for why-provenance (minimal witnesses) and influence ranking. *)

module F = Lineage.Formula
module X = Lineage.Explain
module Tid = Lineage.Tid

let t i = Tid.make "t" i
let v i = F.var (t i)

let set l = Tid.Set.of_list (List.map t l)

let sets = Alcotest.testable
  (Fmt.of_to_string (fun s ->
       "{" ^ String.concat "," (List.map Tid.to_string (Tid.Set.elements s)) ^ "}"))
  Tid.Set.equal

let witness_ok f =
  match X.witnesses f with
  | Ok ws -> ws
  | Error msg -> Alcotest.failf "witnesses failed: %s" msg

let test_var () =
  Alcotest.(check (list sets)) "single var" [ set [ 0 ] ] (witness_ok (v 0))

let test_conjunction () =
  Alcotest.(check (list sets)) "conjunction is one witness"
    [ set [ 0; 1 ] ]
    (witness_ok (F.conj [ v 0; v 1 ]))

let test_disjunction () =
  Alcotest.(check (list sets)) "disjunction has two"
    [ set [ 0 ]; set [ 1 ] ]
    (witness_ok (F.disj [ v 0; v 1 ]))

let test_paper_lineage () =
  (* (t2 | t3) & t13: witnesses {t2,t13} and {t3,t13} *)
  let f = F.conj [ F.disj [ v 2; v 3 ]; v 13 ] in
  Alcotest.(check (list sets)) "paper"
    [ set [ 2; 13 ]; set [ 3; 13 ] ]
    (witness_ok f)

let test_absorption () =
  (* t0 | (t0 & t1): the bigger witness is absorbed *)
  let f = F.Or [ v 0; F.And [ v 0; v 1 ] ] in
  Alcotest.(check (list sets)) "absorbed" [ set [ 0 ] ] (witness_ok f)

let test_constants () =
  Alcotest.(check (list sets)) "true has the empty witness" [ Tid.Set.empty ]
    (witness_ok F.tru);
  Alcotest.(check (list sets)) "false has none" [] (witness_ok F.fls)

let test_negation_rejected () =
  match X.witnesses (F.conj [ v 0; F.neg (v 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negation must be rejected"

let test_top_witnesses_ranked () =
  let f = F.disj [ v 0; F.conj [ v 1; v 2 ] ] in
  let p tid = [| 0.3; 0.9; 0.8 |].(tid.Tid.row) in
  match X.top_witnesses p f with
  | [ (w1, p1); (w2, p2) ] ->
    (* {t1,t2} has probability 0.72 > 0.3 of {t0} *)
    Alcotest.(check sets) "best first" (set [ 1; 2 ]) w1;
    Alcotest.(check (float 1e-9)) "p1" 0.72 p1;
    Alcotest.(check sets) "then t0" (set [ 0 ]) w2;
    Alcotest.(check (float 1e-9)) "p2" 0.3 p2
  | ws -> Alcotest.failf "expected 2 witnesses, got %d" (List.length ws)

let test_top_witnesses_k () =
  let f = F.disj [ v 0; v 1; v 2 ] in
  let p _ = 0.5 in
  Alcotest.(check int) "k limits" 2 (List.length (X.top_witnesses ~k:2 p f))

let test_influence_ranking () =
  let f = F.conj [ F.disj [ v 2; v 3 ]; v 13 ] in
  let p tid = match tid.Tid.row with 2 -> 0.3 | 3 -> 0.4 | _ -> 0.1 in
  match X.influence p f with
  | Some ((first, d1) :: rest) ->
    (* t13 gates the whole conjunction: dP/dp13 = 0.58 dominates *)
    Alcotest.(check string) "t13 most influential" "t#13" (Tid.to_string first);
    Alcotest.(check (float 1e-9)) "value" 0.58 d1;
    Alcotest.(check int) "all vars listed" 2 (List.length rest)
  | Some [] -> Alcotest.fail "no influences"
  | None -> Alcotest.fail "read-once lineage has an exact rung"

let test_to_string () =
  let f = F.conj [ v 0; v 1 ] in
  let text = X.to_string (fun _ -> 0.5) f in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "witnesses section" true (contains "witnesses");
  Alcotest.(check bool) "influence section" true (contains "influence");
  Alcotest.(check bool) "mentions tuples" true (contains "t#0")

let test_influence_beyond_exact_rungs () =
  (* sliding-window pairs over 16 variables: every variable repeats, so
     the circuit rung is gated out, and an expired deadline stops the
     OBDD rung before its build *)
  let f = F.disj (List.init 16 (fun i -> F.conj [ v i; v ((i + 1) mod 16) ])) in
  let deadline = Resilience.Deadline.logical 0 in
  let p _ = 0.5 in
  Alcotest.(check bool) "no influence" true (X.influence ~deadline p f = None);
  let text = X.to_string ~deadline p f in
  let needle = "influence: not available" in
  let n = String.length needle and h = String.length text in
  let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
  Alcotest.(check bool) "rendered as not available" true (go 0);
  (* without a deadline the OBDD rung answers *)
  Alcotest.(check bool) "priced without a deadline" true
    (X.influence p f <> None)

(* property: every witness satisfies the formula; removing any element
   breaks it (minimality) *)
let gen_monotone =
  QCheck.Gen.(
    fix (fun self n ->
           if n <= 1 then map (fun i -> v i) (int_range 0 4)
           else
             frequency
               [
                 (2, map (fun i -> v i) (int_range 0 4));
                 (2, map F.conj (list_size (int_range 2 3) (self (n / 2))));
                 (2, map F.disj (list_size (int_range 2 3) (self (n / 2))));
               ]))

let arb_monotone =
  (* keep formulas small: DNF conversion is exponential by design *)
  QCheck.make ~print:F.to_string QCheck.Gen.(sized_size (int_range 1 8) (fun n -> gen_monotone n))

let qcheck_witnesses_satisfy =
  QCheck.Test.make ~name:"each witness satisfies the formula" ~count:200
    arb_monotone
    (fun f ->
      match X.witnesses f with
      | Error _ -> false
      | Ok ws ->
        List.for_all
          (fun w -> F.eval (fun tid -> Tid.Set.mem tid w) f)
          ws)

let qcheck_witnesses_minimal =
  QCheck.Test.make ~name:"witnesses are minimal" ~count:200 arb_monotone
    (fun f ->
      match X.witnesses f with
      | Error _ -> false
      | Ok ws ->
        List.for_all
          (fun w ->
            Tid.Set.for_all
              (fun drop ->
                let smaller = Tid.Set.remove drop w in
                not (F.eval (fun tid -> Tid.Set.mem tid smaller) f))
              w)
          ws)

let qcheck_witness_union_covers =
  QCheck.Test.make ~name:"formula true iff some witness is contained" ~count:200
    (QCheck.pair arb_monotone (QCheck.list_of_size (QCheck.Gen.return 5) QCheck.bool))
    (fun (f, bits) ->
      match X.witnesses f with
      | Error _ -> false
      | Ok ws ->
        let assignment tid = List.nth bits tid.Tid.row in
        let world =
          Tid.Set.of_list
            (List.concat (List.mapi (fun i b -> if b then [ t i ] else []) bits))
        in
        F.eval assignment f
        = List.exists (fun w -> Tid.Set.subset w world) ws)

let () =
  Alcotest.run "explain"
    [
      ( "witnesses",
        [
          Alcotest.test_case "var" `Quick test_var;
          Alcotest.test_case "conjunction" `Quick test_conjunction;
          Alcotest.test_case "disjunction" `Quick test_disjunction;
          Alcotest.test_case "paper lineage" `Quick test_paper_lineage;
          Alcotest.test_case "absorption" `Quick test_absorption;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "negation rejected" `Quick test_negation_rejected;
          Alcotest.test_case "ranked" `Quick test_top_witnesses_ranked;
          Alcotest.test_case "k" `Quick test_top_witnesses_k;
        ] );
      ( "influence",
        [
          Alcotest.test_case "ranking" `Quick test_influence_ranking;
          Alcotest.test_case "rendering" `Quick test_to_string;
          Alcotest.test_case "beyond the exact rungs" `Quick
            test_influence_beyond_exact_rungs;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_witnesses_satisfy;
          QCheck_alcotest.to_alcotest qcheck_witnesses_minimal;
          QCheck_alcotest.to_alcotest qcheck_witness_union_covers;
        ] );
    ]
