(* Tests for left outer joins: padding, lineage with negation, confidence,
   and the SQL surface. *)

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
  let s = R.create "S" (S.of_list [ ("k", V.TString); ("m", V.TInt) ]) in
  let db = Db.add_relation (Db.add_relation Db.empty r) s in
  let ins db rel vs conf = fst (Db.insert db rel vs ~conf) in
  let db = ins db "R" [ V.String "a"; V.Int 1 ] 0.9 in
  let db = ins db "R" [ V.String "b"; V.Int 2 ] 0.8 in
  let db = ins db "S" [ V.String "a"; V.Int 10 ] 0.6 in
  let db = ins db "S" [ V.String "a"; V.Int 11 ] 0.5 in
  db

(* exact confidence of one result row: the possible-worlds reference *)
let confidence db (r : E.row) =
  Lineage.Prob.exact (Relational.Database.confidence_fn db) r.E.lineage

let run db plan =
  match E.run db plan with
  | Ok r -> r
  | Error msg -> Alcotest.failf "eval failed: %s" msg

let plan = A.left_join X.(col "R.k" =% col "S.k") (A.scan "R") (A.scan "S")

let test_rows_and_padding () =
  let db = mk_db () in
  let res = run db plan in
  let rows = List.map (fun r -> Relational.Tuple.to_string r.E.tuple) res.E.rows in
  (* 'a' matches twice (plus its padded possibility); 'b' never matches *)
  Alcotest.(check (list string)) "rows"
    [
      "(a, 1, a, 10)";
      "(a, 1, a, 11)";
      "(a, 1, NULL, NULL)";
      "(b, 2, NULL, NULL)";
    ]
    rows

let test_lineage () =
  let db = mk_db () in
  let res = run db plan in
  let lineages = List.map (fun r -> F.to_string r.E.lineage) res.E.rows in
  Alcotest.(check (list string)) "lineage"
    [ "R#0 & S#0"; "R#0 & S#1"; "R#0 & !(S#0 | S#1)"; "R#1" ]
    lineages

let test_confidences () =
  let db = mk_db () in
  let res = run db plan in
  let confs = List.map (confidence db) res.E.rows in
  (* matched: 0.9*0.6 and 0.9*0.5; padded-a: 0.9 * (1-0.6)(1-0.5) = 0.18;
     unmatched b: 0.8 *)
  Alcotest.(check (list (float 1e-9))) "confidences" [ 0.54; 0.45; 0.18; 0.8 ]
    confs

let test_total_probability_per_left_row () =
  (* for each left row, the matched and padded variants partition the
     worlds where the left row exists, so confidences sum to conf(left)
     ... except matched rows can coexist, so use inclusion: padded +
     P(exists some match) = conf(left).  Check via the padded row only:
     conf(padded-a) = 0.9 - P(R0 & (S0 | S1)) = 0.9 - 0.9*0.8 = 0.18. *)
  let db = mk_db () in
  let res = run db plan in
  let padded_a = List.nth res.E.rows 2 in
  Alcotest.(check (float 1e-9)) "complement" (0.9 -. (0.9 *. 0.8))
    (confidence db padded_a)

let test_left_join_after_filter_on_right () =
  (* if the right side is empty after filtering, every left row pads *)
  let db = mk_db () in
  let p =
    A.left_join
      X.(col "R.k" =% col "S.k")
      (A.scan "R")
      (A.Select (X.(col "m" >% int 100), A.scan "S"))
  in
  let res = run db p in
  Alcotest.(check int) "both rows padded" 2 (List.length res.E.rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "null padded" true
        (V.equal (Relational.Tuple.get r.E.tuple 2) V.Null))
    res.E.rows

let test_sql_left_join () =
  let db = mk_db () in
  match Relational.Sql_planner.compile
          "SELECT R.k, S.m FROM R LEFT JOIN S ON R.k = S.k"
  with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
    let res = run db plan in
    Alcotest.(check int) "projected rows" 4 (List.length res.E.rows)

let test_sql_left_outer_join_keyword () =
  match Relational.Sql_parser.parse
          "SELECT a FROM t LEFT OUTER JOIN u ON t.x = u.x"
  with
  | Ok (Relational.Sql_ast.Select s) -> (
    match s.Relational.Sql_ast.joins with
    | [ { Relational.Sql_ast.jkind = Relational.Sql_ast.Left_outer_join; _ } ] -> ()
    | _ -> Alcotest.fail "expected a left join clause")
  | Ok _ -> Alcotest.fail "expected select"
  | Error msg -> Alcotest.fail msg
  [@@warning "-4"]

let test_null_predicates_on_padded_rows () =
  (* the classic "find left rows without a match" idiom *)
  let db = mk_db () in
  match
    Relational.Sql_planner.compile
      "SELECT R.k FROM R LEFT JOIN S ON R.k = S.k WHERE S.m IS NULL"
  with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
    let res = run db plan in
    let rows =
      List.map (fun r -> Relational.Tuple.to_string r.E.tuple) res.E.rows
    in
    Alcotest.(check (list string)) "a (padded variant) and b" [ "(a)"; "(b)" ] rows

let () =
  Alcotest.run "outer-join"
    [
      ( "left-join",
        [
          Alcotest.test_case "rows and padding" `Quick test_rows_and_padding;
          Alcotest.test_case "lineage" `Quick test_lineage;
          Alcotest.test_case "confidences" `Quick test_confidences;
          Alcotest.test_case "probability complement" `Quick
            test_total_probability_per_left_row;
          Alcotest.test_case "empty right" `Quick test_left_join_after_filter_on_right;
          Alcotest.test_case "sql LEFT JOIN" `Quick test_sql_left_join;
          Alcotest.test_case "sql LEFT OUTER JOIN" `Quick
            test_sql_left_outer_join_keyword;
          Alcotest.test_case "IS NULL idiom" `Quick test_null_predicates_on_padded_rows;
        ] );
    ]
