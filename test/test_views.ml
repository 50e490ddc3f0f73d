(* Tests for named views (quality-view style) and expected-value
   aggregates. *)

module A = Relational.Algebra
module E = Relational.Eval
module X = Relational.Expr
module V = Relational.Value
module S = Relational.Schema
module Db = Relational.Database
module R = Relational.Relation
module Vw = Relational.Views
module F = Lineage.Formula

let mk_db () =
  let r = R.create "Orders" (S.of_list [ ("cust", V.TString); ("total", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let ins db vs conf = fst (Db.insert db "Orders" vs ~conf) in
  let db = ins db [ V.String "ann"; V.Int 10 ] 0.9 in
  let db = ins db [ V.String "ann"; V.Int 20 ] 0.5 in
  let db = ins db [ V.String "bob"; V.Int 30 ] 0.8 in
  db

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

let run db plan =
  match E.run db plan with
  | Ok r -> r
  | Error msg -> Alcotest.failf "eval failed: %s" msg

let test_view_expansion () =
  let db = mk_db () in
  let views =
    ok (Vw.of_sql Vw.empty ~name:"BigOrders" "SELECT cust, total FROM Orders WHERE total >= 20")
  in
  let plan = Vw.expand views (A.scan "BigOrders") in
  let res = run db plan in
  Alcotest.(check int) "two big orders" 2 (List.length res.E.rows);
  (* the view's columns are qualified with the view name *)
  Alcotest.(check (list string)) "schema" [ "BigOrders.cust"; "BigOrders.total" ]
    (S.column_names res.E.schema);
  (* lineage flows through views *)
  Alcotest.(check (list string)) "lineage"
    [ "Orders#1"; "Orders#2" ]
    (List.map (fun r -> F.to_string r.E.lineage) res.E.rows)

let test_view_over_view () =
  let db = mk_db () in
  let views =
    ok (Vw.of_sql Vw.empty ~name:"BigOrders" "SELECT cust, total FROM Orders WHERE total >= 20")
  in
  let views =
    ok (Vw.of_sql views ~name:"AnnBig" "SELECT cust FROM BigOrders WHERE cust = 'ann'")
  in
  let res = run db (Vw.expand views (A.scan "AnnBig")) in
  Alcotest.(check int) "one row" 1 (List.length res.E.rows)

let test_view_shadows_relation () =
  let db = mk_db () in
  (* a view named like the base relation wins at expansion *)
  let views =
    ok (Vw.of_sql Vw.empty ~name:"TopOrders" "SELECT cust FROM Orders WHERE total >= 30")
  in
  Alcotest.(check (list string)) "names" [ "TopOrders" ] (Vw.names views);
  let res = run db (Vw.expand views (A.scan "TopOrders")) in
  Alcotest.(check int) "only bob" 1 (List.length res.E.rows)

let test_recursion_rejected () =
  let self = A.scan "Loop" in
  (match Vw.add Vw.empty "Loop" self with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self-recursive view must be rejected");
  (* mutual recursion: A references B, then B referencing A must fail *)
  let va = ok (Vw.add Vw.empty "A" (A.scan "B")) in
  match Vw.add va "B" (A.scan "A") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mutually recursive views must be rejected"

let test_remove_and_find () =
  let views = ok (Vw.add Vw.empty "V" (A.scan "Orders")) in
  Alcotest.(check bool) "found" true (Vw.find views "V" <> None);
  let views = Vw.remove views "V" in
  Alcotest.(check bool) "removed" true (Vw.find views "V" = None)

let test_engine_uses_views () =
  let db = mk_db () in
  let views =
    ok
      (Vw.of_sql Vw.empty ~name:"Reliable"
         "SELECT cust, total FROM Orders WHERE total < 25")
  in
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_user (add_role empty "analyst") "ana" in
    let m = ok (assign_user m ~user:"ana" ~role:"analyst") in
    ok (grant m ~role:"analyst" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list [ Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta:0.6 ]
  in
  let ctx = Pcqe.Engine.make_context ~views ~db ~rbac ~policies () in
  match
    Pcqe.Engine.answer ctx
      {
        Pcqe.Engine.query = Pcqe.Query.sql "SELECT cust, total FROM Reliable";
        user = "ana";
        purpose = "p";
        perc = 0.0;
      }
  with
  | Ok resp ->
    (* rows: ann@0.9 passes, ann@0.5 filtered *)
    Alcotest.(check int) "released" 1 (List.length resp.Pcqe.Engine.released);
    Alcotest.(check int) "withheld" 1 resp.Pcqe.Engine.withheld
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* expected-value aggregates *)

let test_expected_count () =
  let db = mk_db () in
  let plan =
    A.Group_by
      ( [ "cust" ],
        [ { A.fn = A.Expected_count; arg = None; out = "ecnt" } ],
        A.scan "Orders" )
  in
  let res = run db plan in
  Alcotest.(check (list string)) "expected counts"
    [ "(ann, 1.4)"; "(bob, 0.8)" ]
    (List.map (fun r -> Relational.Tuple.to_string r.E.tuple) res.E.rows)

let test_expected_sum () =
  let db = mk_db () in
  let plan =
    A.Group_by
      ( [ "cust" ],
        [ { A.fn = A.Expected_sum; arg = Some "total"; out = "esum" } ],
        A.scan "Orders" )
  in
  let res = run db plan in
  (* ann: 0.9*10 + 0.5*20 = 19; bob: 0.8*30 = 24 *)
  Alcotest.(check (list string)) "expected sums"
    [ "(ann, 19.0)"; "(bob, 24.0)" ]
    (List.map (fun r -> Relational.Tuple.to_string r.E.tuple) res.E.rows)

let test_expected_aggregates_sql () =
  let db = mk_db () in
  match
    Relational.Sql_planner.compile
      "SELECT cust, ECOUNT(*) AS ec, ESUM(total) AS es FROM Orders GROUP BY cust"
  with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
    let res = run db plan in
    Alcotest.(check int) "two groups" 2 (List.length res.E.rows);
    Alcotest.(check (list string)) "schema" [ "cust"; "ec"; "es" ]
      (S.column_names res.E.schema)

(* One group whose member carries H0 lineage (R(A) ⋈ S(A, B) ⋈ T(B)
   over a 60%-dense S): beyond every exact rung, so the ladder prices it
   by sampling instead of an exponential exact expansion. *)
let test_expected_count_h0_group () =
  let rel name cols =
    R.create name (S.of_list (List.map (fun c -> (c, V.TInt)) cols))
  in
  let db =
    List.fold_left Db.add_relation Db.empty
      [ rel "R" [ "A"; "Tag" ]; rel "S" [ "A"; "B" ]; rel "T" [ "B" ] ]
  in
  let rng = Prng.Splitmix.of_int 2009 in
  let ins db name vs =
    fst (Db.insert db name vs ~conf:(Prng.Splitmix.float_in rng 0.1 0.9))
  in
  let db = ref db in
  for i = 0 to 11 do
    db := ins !db "R" [ V.Int i; V.Int 0 ];
    db := ins !db "T" [ V.Int i ]
  done;
  for a = 0 to 11 do
    for b = 0 to 11 do
      if Prng.Splitmix.float_in rng 0.0 1.0 < 0.6 then
        db := ins !db "S" [ V.Int a; V.Int b ]
    done
  done;
  let h0 =
    ok
      (Relational.Sql_planner.compile
         "SELECT DISTINCT R.Tag FROM R, S, T WHERE R.A = S.A AND S.B = T.B")
  in
  let plan =
    A.Group_by ([], [ { A.fn = A.Expected_count; arg = None; out = "ec" } ], h0)
  in
  match (run !db plan).E.rows with
  | [ row ] -> (
    match Relational.Tuple.get row.E.tuple 0 with
    | V.Float ec ->
      Alcotest.(check bool) (Printf.sprintf "ECOUNT %g in [0, 1]" ec) true
        (ec >= 0.0 && ec <= 1.0)
    | v -> Alcotest.failf "ECOUNT is %s" (V.to_string v))
  | rows -> Alcotest.failf "%d groups" (List.length rows)

let test_esum_requires_numeric () =
  let db = mk_db () in
  match
    Relational.Sql_planner.compile "SELECT ESUM(cust) AS x FROM Orders GROUP BY cust"
  with
  | Error _ -> ()
  | Ok plan -> (
    match E.run db plan with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "ESUM over a string column must fail")

let test_ecount_star_only () =
  match Relational.Sql_parser.parse "SELECT ECOUNT(total) FROM Orders" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ECOUNT(col) must be rejected"

(* every definition change must move the epoch — prepared plans that
   expanded a view are validated against it *)
let test_epoch_tracks_definitions () =
  let v0 = Vw.empty in
  let v1 = ok (Vw.of_sql v0 ~name:"Big" "SELECT cust FROM Orders") in
  let v2 = ok (Vw.of_sql v1 ~name:"Big" "SELECT cust FROM Orders WHERE total > 10") in
  let v3 = Vw.remove v2 "Big" in
  Alcotest.(check bool) "add < redefine < remove" true
    (Vw.epoch v0 < Vw.epoch v1
    && Vw.epoch v1 < Vw.epoch v2
    && Vw.epoch v2 < Vw.epoch v3);
  Alcotest.(check int) "no-op remove keeps the epoch" (Vw.epoch v3)
    (Vw.epoch (Vw.remove v3 "Big"))

let () =
  Alcotest.run "views"
    [
      ( "views",
        [
          Alcotest.test_case "expansion" `Quick test_view_expansion;
          Alcotest.test_case "view over view" `Quick test_view_over_view;
          Alcotest.test_case "shadowing" `Quick test_view_shadows_relation;
          Alcotest.test_case "recursion rejected" `Quick test_recursion_rejected;
          Alcotest.test_case "remove/find" `Quick test_remove_and_find;
          Alcotest.test_case "engine integration" `Quick test_engine_uses_views;
          Alcotest.test_case "epoch" `Quick test_epoch_tracks_definitions;
        ] );
      ( "expected-aggregates",
        [
          Alcotest.test_case "ECOUNT" `Quick test_expected_count;
          Alcotest.test_case "ESUM" `Quick test_expected_sum;
          Alcotest.test_case "SQL surface" `Quick test_expected_aggregates_sql;
          Alcotest.test_case "ESUM type check" `Quick test_esum_requires_numeric;
          Alcotest.test_case "ECOUNT star only" `Quick test_ecount_star_only;
          Alcotest.test_case "H0-shaped group finishes" `Quick
            test_expected_count_h0_group;
        ] );
    ]
