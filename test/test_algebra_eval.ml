(* Tests for relational-algebra evaluation with lineage: operator semantics,
   lineage composition, schema inference, and the paper's running example. *)

module A = Relational.Algebra
module E = Relational.Eval
module X = Relational.Expr
module V = Relational.Value
module S = Relational.Schema
module Db = Relational.Database
module R = Relational.Relation
module F = Lineage.Formula
module Tid = Lineage.Tid

let mk_db () =
  let r =
    R.create "R" (S.of_list [ ("k", V.TString); ("n", V.TInt) ])
  in
  let s =
    R.create "S" (S.of_list [ ("k", V.TString); ("m", V.TInt) ])
  in
  let db = Db.add_relation (Db.add_relation Db.empty r) s in
  let ins db rel vs conf = fst (Db.insert db rel vs ~conf) in
  let db = ins db "R" [ V.String "a"; V.Int 1 ] 0.9 in
  let db = ins db "R" [ V.String "a"; V.Int 2 ] 0.8 in
  let db = ins db "R" [ V.String "b"; V.Int 3 ] 0.7 in
  let db = ins db "S" [ V.String "a"; V.Int 10 ] 0.6 in
  let db = ins db "S" [ V.String "c"; V.Int 30 ] 0.5 in
  db

(* exact confidence of one result row: the possible-worlds reference *)
let confidence db (r : E.row) =
  Lineage.Prob.exact (Relational.Database.confidence_fn db) r.E.lineage

let run db plan =
  match E.run db plan with
  | Ok r -> r
  | Error msg -> Alcotest.failf "eval failed: %s" msg

let lineage_strings res =
  List.map (fun r -> F.to_string r.E.lineage) res.E.rows

let tuples_as_strings res =
  List.map (fun r -> Relational.Tuple.to_string r.E.tuple) res.E.rows

let test_scan () =
  let db = mk_db () in
  let res = run db (A.scan "R") in
  Alcotest.(check int) "3 rows" 3 (List.length res.E.rows);
  Alcotest.(check (list string)) "var lineage" [ "R#0"; "R#1"; "R#2" ]
    (lineage_strings res);
  Alcotest.(check (list string)) "qualified schema" [ "R.k"; "R.n" ]
    (S.column_names res.E.schema)

let test_select () =
  let db = mk_db () in
  let res = run db A.(select X.(col "n" >% int 1) (scan "R")) in
  Alcotest.(check int) "2 rows" 2 (List.length res.E.rows);
  Alcotest.(check (list string)) "lineage unchanged" [ "R#1"; "R#2" ]
    (lineage_strings res)

let test_project_merges_lineage () =
  let db = mk_db () in
  let res = run db A.(project [ "k" ] (scan "R")) in
  Alcotest.(check int) "dedup to 2" 2 (List.length res.E.rows);
  Alcotest.(check (list string)) "or-merged lineage" [ "R#0 | R#1"; "R#2" ]
    (lineage_strings res)

let test_join_lineage_and () =
  let db = mk_db () in
  let res = run db A.(join X.(col "R.k" =% col "S.k") (scan "R") (scan "S")) in
  Alcotest.(check int) "two matches" 2 (List.length res.E.rows);
  Alcotest.(check (list string)) "conjunction" [ "R#0 & S#0"; "R#1 & S#0" ]
    (lineage_strings res)

let test_cross_product () =
  let db = mk_db () in
  let res = run db A.(cross (scan "R") (scan "S")) in
  Alcotest.(check int) "3x2" 6 (List.length res.E.rows)

let test_union_merges () =
  let db = mk_db () in
  let left = A.(project [ "k" ] (scan "R")) in
  let right = A.(project [ "k" ] (scan "S")) in
  let res = run db (A.Union (left, right)) in
  Alcotest.(check int) "a, b, c" 3 (List.length res.E.rows);
  (* "a" appears on both sides: lineage is the disjunction of both *)
  let a_row =
    List.find
      (fun r -> V.equal (Relational.Tuple.get r.E.tuple 0) (V.String "a"))
      res.E.rows
  in
  Alcotest.(check string) "union lineage" "R#0 | R#1 | S#0"
    (F.to_string a_row.E.lineage)

let test_intersect () =
  let db = mk_db () in
  let left = A.(project [ "k" ] (scan "R")) in
  let right = A.(project [ "k" ] (scan "S")) in
  let res = run db (A.Intersect (left, right)) in
  Alcotest.(check int) "only a" 1 (List.length res.E.rows);
  Alcotest.(check (list string)) "and of both sides" [ "(R#0 | R#1) & S#0" ]
    (lineage_strings res)

let test_diff_negates () =
  let db = mk_db () in
  let left = A.(project [ "k" ] (scan "R")) in
  let right = A.(project [ "k" ] (scan "S")) in
  let res = run db (A.Diff (left, right)) in
  Alcotest.(check int) "a and b" 2 (List.length res.E.rows);
  Alcotest.(check (list string)) "negated right lineage"
    [ "(R#0 | R#1) & !S#0"; "R#2" ]
    (lineage_strings res)

let test_order_by_limit () =
  let db = mk_db () in
  let res =
    run db A.(Limit (2, Order_by ([ ("n", A.Desc) ], scan "R")))
  in
  Alcotest.(check (list string)) "top 2 by n desc"
    [ "(b, 3)"; "(a, 2)" ]
    (tuples_as_strings res)

let test_group_by () =
  let db = mk_db () in
  let res =
    run db
      (A.Group_by
         ( [ "k" ],
           [
             { A.fn = A.CountStar; arg = None; out = "cnt" };
             { A.fn = A.Sum; arg = Some "n"; out = "total" };
             { A.fn = A.Max; arg = Some "n"; out = "mx" };
           ],
           A.scan "R" ))
  in
  Alcotest.(check (list string)) "grouped"
    [ "(a, 2, 3, 2)"; "(b, 1, 3, 3)" ]
    (tuples_as_strings res);
  Alcotest.(check (list string)) "existence lineage" [ "R#0 | R#1"; "R#2" ]
    (lineage_strings res)

let test_group_by_avg_and_min () =
  let db = mk_db () in
  let res =
    run db
      (A.Group_by
         ( [],
           [
             { A.fn = A.Avg; arg = Some "n"; out = "avg_n" };
             { A.fn = A.Min; arg = Some "n"; out = "min_n" };
             { A.fn = A.Count; arg = Some "n"; out = "c" };
           ],
           A.scan "R" ))
  in
  Alcotest.(check (list string)) "global group" [ "(2.0, 1, 3)" ]
    (tuples_as_strings res)

let test_rename () =
  let db = mk_db () in
  let res = run db (A.Rename ("X", A.scan "R")) in
  Alcotest.(check (list string)) "requalified" [ "X.k"; "X.n" ]
    (S.column_names res.E.schema)

let test_self_join_lineage () =
  let db = mk_db () in
  let plan =
    A.(
      join
        X.(col "X.k" =% col "Y.k")
        (Rename ("X", scan "R"))
        (Rename ("Y", scan "R")))
  in
  let res = run db plan in
  (* a-a pairs: (0,0) (0,1) (1,0) (1,1), b-b: (2,2) *)
  Alcotest.(check int) "5 pairs" 5 (List.length res.E.rows);
  (* the diagonal pair must not duplicate the variable in its lineage *)
  let diag =
    List.find (fun r -> F.to_string r.E.lineage = "R#0") res.E.rows
  in
  let c = confidence db diag in
  Alcotest.(check (float 1e-12)) "self-join diagonal confidence" 0.9 c

let test_confidence_computation () =
  let db = mk_db () in
  let res = run db A.(project [ "k" ] (scan "R")) in
  let confs = List.map (confidence db) res.E.rows in
  (* P(R0 or R1) = 1 - 0.1*0.2 = 0.98; P(R2) = 0.7 *)
  Alcotest.(check (list (float 1e-9))) "confidences" [ 0.98; 0.7 ] confs

let test_schema_errors () =
  let db = mk_db () in
  (match E.run db (A.scan "Nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown relation must fail");
  (match E.run db A.(project [ "zz" ] (scan "R")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown column must fail");
  (match E.run db (A.Union (A.scan "R", A.scan "S")) with
  | Ok _ -> () (* R and S have compatible types string,int *)
  | Error msg -> Alcotest.failf "union should typecheck: %s" msg);
  match
    E.run db
      (A.Union (A.scan "R", A.(project [ "k" ] (scan "S"))))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity mismatch must fail"

let test_base_relations () =
  let plan =
    A.(Union (join X.(col "R.k" =% col "S.k") (scan "R") (scan "S"), scan "R"))
  in
  Alcotest.(check (list string)) "dedup scan list" [ "R"; "S" ]
    (A.base_relations plan)

let test_hash_join_matches_nested_loop () =
  (* the single-equality predicate takes the hash-join path; wrapping it in
     a conjunction with TRUE forces the nested loop -- both must agree
     exactly (rows, order, lineage) *)
  let rng = Prng.Splitmix.of_int 8 in
  let r = R.create "BigR" (S.of_list [ ("k", V.TInt); ("n", V.TInt) ]) in
  let s = R.create "BigS" (S.of_list [ ("k", V.TInt); ("m", V.TInt) ]) in
  let db = Db.add_relation (Db.add_relation (mk_db ()) r) s in
  let fill db rel count =
    let rec go db i =
      if i = 0 then db
      else
        let key =
          if Prng.Splitmix.coin rng 0.1 then V.Null
          else V.Int (Prng.Splitmix.int rng 20)
        in
        go (fst (Db.insert db rel [ key; V.Int i ] ~conf:0.5)) (i - 1)
    in
    go db count
  in
  let db = fill db "BigR" 60 in
  let db = fill db "BigS" 60 in
  let eq = X.(col "BigR.k" =% col "BigS.k") in
  let hash_plan = A.Join (Some eq, A.scan "BigR", A.scan "BigS") in
  let loop_plan =
    A.Join (Some X.(And (eq, bool true)), A.scan "BigR", A.scan "BigS")
  in
  let h = run db hash_plan and l = run db loop_plan in
  Alcotest.(check int) "same cardinality" (List.length l.E.rows)
    (List.length h.E.rows);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same tuple" true
        (Relational.Tuple.equal a.E.tuple b.E.tuple);
      Alcotest.(check bool) "same lineage" true (F.equal a.E.lineage b.E.lineage))
    h.E.rows l.E.rows

(* GROUP BY against a naive reference: groups found by a linear scan in
   first-appearance order, members kept in row order.  Keys are drawn
   from a small domain with NULLs, so groups repeat and NULL keys group
   together. *)
let prop_group_by_matches_naive =
  let row_gen =
    QCheck.Gen.(
      triple (int_range 0 6) (opt ~ratio:0.7 (int_range 0 2)) (int_range 0 9))
  in
  QCheck.Test.make ~name:"group by = naive grouping" ~count:200
    QCheck.(
      pair
        (make QCheck.Gen.(list_size (int_range 0 60) row_gen))
        (make QCheck.Gen.(int_range 0 2)))
    (fun (rows, nkeys) ->
      let g =
        R.create "G"
          (S.of_list [ ("k1", V.TInt); ("k2", V.TInt); ("n", V.TInt) ])
      in
      let db =
        List.fold_left
          (fun db (k1, k2, n) ->
            let k2 = match k2 with Some k -> V.Int k | None -> V.Null in
            fst (Db.insert db "G" [ V.Int k1; k2; V.Int n ] ~conf:0.5))
          (Db.add_relation Db.empty g) rows
      in
      let keys = List.filteri (fun i _ -> i < nkeys) [ "k1"; "k2" ] in
      let aggs =
        [
          { A.fn = A.CountStar; arg = None; out = "cnt" };
          { A.fn = A.Sum; arg = Some "n"; out = "total" };
        ]
      in
      let got = run db (A.Group_by (keys, aggs, A.scan "G")) in
      let base = (run db (A.scan "G")).E.rows in
      let idx = Array.of_list (List.init nkeys Fun.id) in
      let naive =
        List.fold_left
          (fun groups (r : E.row) ->
            let key = Relational.Tuple.project r.E.tuple idx in
            if List.exists (fun (k, _) -> Relational.Tuple.equal k key) groups
            then
              List.map
                (fun (k, ms) ->
                  if Relational.Tuple.equal k key then (k, ms @ [ r ]) else (k, ms))
                groups
            else groups @ [ (key, [ r ]) ])
          [] base
      in
      let want =
        List.map
          (fun (key, members) ->
            let total =
              List.fold_left
                (fun acc (r : E.row) ->
                  match Relational.Tuple.get r.E.tuple 2 with
                  | V.Int n -> acc + n
                  | _ -> acc)
                0 members
            in
            ( Relational.Tuple.to_string
                (Relational.Tuple.append key
                   (Relational.Tuple.of_list
                      [ V.Int (List.length members); V.Int total ])),
              F.disj (List.map (fun (r : E.row) -> r.E.lineage) members) ))
          naive
      in
      List.length want = List.length got.E.rows
      && List.for_all2
           (fun (tuple, lineage) (r : E.row) ->
             String.equal tuple (Relational.Tuple.to_string r.E.tuple)
             && F.equal lineage r.E.lineage)
           want got.E.rows)

(* the paper's running example, end to end through the algebra layer *)
let test_paper_example () =
  let proposal =
    R.create "Proposal"
      (S.of_list
         [ ("Company", V.TString); ("Prop", V.TString); ("Funding", V.TFloat) ])
  in
  let info =
    R.create "CompanyInfo" (S.of_list [ ("Company", V.TString); ("Income", V.TFloat) ])
  in
  let db = Db.add_relation (Db.add_relation Db.empty proposal) info in
  let ins db rel vs conf = fst (Db.insert db rel vs ~conf) in
  let db = ins db "Proposal" [ V.String "X"; V.String "p1"; V.Float 800_000.0 ] 0.3 in
  let db = ins db "Proposal" [ V.String "X"; V.String "p2"; V.Float 500_000.0 ] 0.4 in
  let db = ins db "CompanyInfo" [ V.String "X"; V.Float 1_000_000.0 ] 0.1 in
  let plan =
    A.(
      project
        [ "CompanyInfo.Company"; "Income" ]
        (join
           X.(col "Proposal.Company" =% col "CompanyInfo.Company")
           (select X.(col "Funding" <% float 1_000_000.0) (scan "Proposal"))
           (scan "CompanyInfo")))
  in
  let res = run db plan in
  Alcotest.(check int) "one result" 1 (List.length res.E.rows);
  let conf = confidence db (List.hd res.E.rows) in
  Alcotest.(check (float 1e-12)) "p38 = 0.058" 0.058 conf

let () =
  Alcotest.run "algebra-eval"
    [
      ( "operators",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "project dedup" `Quick test_project_merges_lineage;
          Alcotest.test_case "join lineage" `Quick test_join_lineage_and;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          Alcotest.test_case "union" `Quick test_union_merges;
          Alcotest.test_case "intersect" `Quick test_intersect;
          Alcotest.test_case "diff" `Quick test_diff_negates;
          Alcotest.test_case "order/limit" `Quick test_order_by_limit;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "avg/min/count" `Quick test_group_by_avg_and_min;
          QCheck_alcotest.to_alcotest prop_group_by_matches_naive;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "self join" `Quick test_self_join_lineage;
          Alcotest.test_case "confidences" `Quick test_confidence_computation;
          Alcotest.test_case "schema errors" `Quick test_schema_errors;
          Alcotest.test_case "base relations" `Quick test_base_relations;
          Alcotest.test_case "hash join = nested loop" `Quick
            test_hash_join_matches_nested_loop;
          Alcotest.test_case "paper example" `Quick test_paper_example;
        ] );
    ]
