(* Tests for IN/EXISTS subqueries: membership-event lineage, NOT IN
   negation, boolean combinations, SQL surface, and error cases. *)

module A = Relational.Algebra
module E = Relational.Eval
module X = Relational.Expr
module V = Relational.Value
module S = Relational.Schema
module Db = Relational.Database
module R = Relational.Relation
module F = Lineage.Formula

let mk_db () =
  let r = R.create "R" (S.of_list [ ("k", V.TString); ("n", V.TInt) ]) in
  let s = R.create "S" (S.of_list [ ("k", V.TString) ]) in
  let db = Db.add_relation (Db.add_relation Db.empty r) s in
  let ins db rel vs conf = fst (Db.insert db rel vs ~conf) in
  let db = ins db "R" [ V.String "a"; V.Int 1 ] 0.9 in
  let db = ins db "R" [ V.String "b"; V.Int 2 ] 0.8 in
  let db = ins db "R" [ V.String "c"; V.Int 3 ] 0.7 in
  let db = ins db "S" [ V.String "a" ] 0.6 in
  let db = ins db "S" [ V.String "a" ] 0.5 in
  let db = ins db "S" [ V.String "b" ] 0.4 in
  db

(* exact confidence of one result row: the possible-worlds reference *)
let confidence db (r : E.row) =
  Lineage.Prob.exact (Relational.Database.confidence_fn db) r.E.lineage

let run db plan =
  match E.run db plan with
  | Ok r -> r
  | Error msg -> Alcotest.failf "eval failed: %s" msg

let run_sql db sql =
  match Relational.Sql_planner.compile sql with
  | Error msg -> Alcotest.failf "compile: %s" msg
  | Ok plan -> run db plan

let row_strings res =
  List.map (fun r -> Relational.Tuple.to_string r.E.tuple) res.E.rows

let lineage_strings res =
  List.map (fun r -> F.to_string (F.simplify r.E.lineage)) res.E.rows

let sub_k = A.Project ([ "k" ], A.scan "S")

let test_in_semantics () =
  let db = mk_db () in
  let plan = A.Select_sub (A.In_sub (X.col "R.k", sub_k), A.scan "R") in
  let res = run db plan in
  (* rows a and b have matches; c has none and is dropped *)
  Alcotest.(check (list string)) "rows" [ "(a, 1)"; "(b, 2)" ] (row_strings res);
  Alcotest.(check (list string)) "membership lineage"
    [ "R#0 & (S#0 | S#1)"; "R#1 & S#2" ]
    (lineage_strings res)

let test_in_confidence () =
  let db = mk_db () in
  let plan = A.Select_sub (A.In_sub (X.col "R.k", sub_k), A.scan "R") in
  let res = run db plan in
  let confs = List.map (confidence db) res.E.rows in
  (* a: 0.9 * (1 - 0.4*0.5) = 0.72; b: 0.8 * 0.4 = 0.32 *)
  Alcotest.(check (list (float 1e-9))) "confidences" [ 0.72; 0.32 ] confs

let test_not_in () =
  let db = mk_db () in
  let plan =
    A.Select_sub (A.Not_c (A.In_sub (X.col "R.k", sub_k)), A.scan "R")
  in
  let res = run db plan in
  (* every row survives: a and b with negated membership, c untouched *)
  Alcotest.(check (list string)) "rows" [ "(a, 1)"; "(b, 2)"; "(c, 3)" ]
    (row_strings res);
  Alcotest.(check (list string)) "negated lineage"
    [ "R#0 & !(S#0 | S#1)"; "R#1 & !S#2"; "R#2" ]
    (lineage_strings res)

let test_exists () =
  let db = mk_db () in
  let nonempty =
    A.Select_sub (A.Exists_sub (A.Select (X.(col "k" =% str "b"), A.scan "S")), A.scan "R")
  in
  let res = run db nonempty in
  Alcotest.(check int) "all rows kept" 3 (List.length res.E.rows);
  (* lineage of each row gets the existence event conjoined *)
  Alcotest.(check (list string)) "existence lineage"
    [ "R#0 & S#2"; "R#1 & S#2"; "R#2 & S#2" ]
    (lineage_strings res);
  (* an empty subquery kills everything *)
  let empty =
    A.Select_sub (A.Exists_sub (A.Select (X.(col "k" =% str "zz"), A.scan "S")), A.scan "R")
  in
  Alcotest.(check int) "not exists, no rows" 0 (List.length (run db empty).E.rows)

let test_boolean_combination () =
  let db = mk_db () in
  (* k IN sub OR n = 3: c qualifies deterministically *)
  let plan =
    A.Select_sub
      ( A.Or_c (A.In_sub (X.col "R.k", sub_k), A.Pred X.(col "n" =% int 3)),
        A.scan "R" )
  in
  let res = run db plan in
  Alcotest.(check (list string)) "rows" [ "(a, 1)"; "(b, 2)"; "(c, 3)" ]
    (row_strings res);
  (* c's condition is deterministically true: lineage stays R#2 *)
  Alcotest.(check string) "deterministic disjunct" "R#2"
    (List.nth (lineage_strings res) 2)

let test_null_lhs_never_matches () =
  let r = R.create "T" (S.of_list [ ("x", V.TString) ]) in
  let db = Db.add_relation (mk_db ()) r in
  let db, _ = Db.insert db "T" [ V.Null ] ~conf:1.0 in
  let in_plan = A.Select_sub (A.In_sub (X.col "x", sub_k), A.scan "T") in
  Alcotest.(check int) "NULL IN -> dropped" 0 (List.length (run db in_plan).E.rows);
  let notin_plan =
    A.Select_sub (A.Not_c (A.In_sub (X.col "x", sub_k)), A.scan "T")
  in
  Alcotest.(check int) "NULL NOT IN -> kept (documented deviation)" 1
    (List.length (run db notin_plan).E.rows)

let test_arity_check () =
  let db = mk_db () in
  let bad = A.Select_sub (A.In_sub (X.col "R.k", A.scan "S"), A.scan "R") in
  (* S has one column so this is fine; use R (two columns) as the subquery *)
  ignore (run db bad);
  let really_bad = A.Select_sub (A.In_sub (X.col "R.k", A.scan "R"), A.scan "S") in
  match E.run db really_bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "two-column IN subquery must be rejected"

let test_sql_in_subquery () =
  let db = mk_db () in
  let res = run_sql db "SELECT n FROM R WHERE R.k IN (SELECT k FROM S)" in
  Alcotest.(check (list string)) "sql in" [ "(1)"; "(2)" ] (row_strings res)

let test_sql_not_in_subquery () =
  let db = mk_db () in
  let res =
    run_sql db "SELECT R.k FROM R WHERE R.k NOT IN (SELECT k FROM S) AND n > 0"
  in
  Alcotest.(check int) "all three kept with adjusted lineage" 3
    (List.length res.E.rows)

let test_sql_exists () =
  let db = mk_db () in
  let res =
    run_sql db
      "SELECT n FROM R WHERE EXISTS (SELECT k FROM S WHERE k = 'b') AND n < 3"
  in
  Alcotest.(check (list string)) "exists + plain" [ "(1)"; "(2)" ]
    (row_strings res)

let test_sql_not_exists () =
  let db = mk_db () in
  let res =
    run_sql db "SELECT n FROM R WHERE NOT EXISTS (SELECT k FROM S WHERE k = 'z')"
  in
  Alcotest.(check int) "vacuous not-exists keeps all" 3 (List.length res.E.rows);
  (* and the lineage is unchanged: the negated empty event is true *)
  Alcotest.(check (list string)) "clean lineage" [ "R#0"; "R#1"; "R#2" ]
    (lineage_strings res)

let test_sql_in_literal_list_still_works () =
  let db = mk_db () in
  let res = run_sql db "SELECT n FROM R WHERE n IN (1, 3)" in
  Alcotest.(check (list string)) "literal list" [ "(1)"; "(3)" ] (row_strings res);
  let res = run_sql db "SELECT n FROM R WHERE n NOT IN (1, 3)" in
  Alcotest.(check (list string)) "negated literal list" [ "(2)" ] (row_strings res)

let test_correlation_rejected () =
  let db = mk_db () in
  (* the subquery references the outer R.n: unsupported, must error *)
  match
    Relational.Sql_planner.compile
      "SELECT n FROM R WHERE R.k IN (SELECT k FROM S WHERE R.n > 1)"
  with
  | Error _ -> ()
  | Ok plan -> (
    match E.run db plan with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "correlated subquery must be rejected")

let () =
  Alcotest.run "subquery"
    [
      ( "algebra",
        [
          Alcotest.test_case "IN semantics" `Quick test_in_semantics;
          Alcotest.test_case "IN confidence" `Quick test_in_confidence;
          Alcotest.test_case "NOT IN" `Quick test_not_in;
          Alcotest.test_case "EXISTS" `Quick test_exists;
          Alcotest.test_case "boolean combination" `Quick test_boolean_combination;
          Alcotest.test_case "NULL lhs" `Quick test_null_lhs_never_matches;
          Alcotest.test_case "arity check" `Quick test_arity_check;
        ] );
      ( "sql",
        [
          Alcotest.test_case "IN subquery" `Quick test_sql_in_subquery;
          Alcotest.test_case "NOT IN subquery" `Quick test_sql_not_in_subquery;
          Alcotest.test_case "EXISTS" `Quick test_sql_exists;
          Alcotest.test_case "NOT EXISTS" `Quick test_sql_not_exists;
          Alcotest.test_case "literal lists" `Quick test_sql_in_literal_list_still_works;
          Alcotest.test_case "correlation rejected" `Quick test_correlation_rejected;
        ] );
    ]
