(* Tests for the expression language: arithmetic, three-valued logic,
   LIKE/IN/BETWEEN, and error reporting. *)

module E = Relational.Expr
module V = Relational.Value
module S = Relational.Schema
module T = Relational.Tuple

let schema =
  S.of_list
    [ ("a", V.TInt); ("b", V.TFloat); ("s", V.TString); ("flag", V.TBool) ]

let tup = T.of_list [ V.Int 4; V.Float 2.5; V.String "hello"; V.Bool true ]

let tup_nulls = T.of_list [ V.Null; V.Null; V.Null; V.Null ]

let eval_ok e =
  match E.eval schema tup e with
  | Ok v -> v
  | Error msg -> Alcotest.failf "eval error: %s" msg

let pred_ok ?(t = tup) e =
  match E.eval_pred schema t e with
  | Ok b -> b
  | Error msg -> Alcotest.failf "pred error: %s" msg

let check_v what expect got =
  Alcotest.(check bool) what true (V.equal expect got)

let test_literals_and_columns () =
  check_v "int lit" (V.Int 7) (eval_ok (E.int 7));
  check_v "col a" (V.Int 4) (eval_ok (E.col "a"));
  check_v "col s" (V.String "hello") (eval_ok (E.col "s"))

let test_arithmetic () =
  check_v "int add stays int" (V.Int 7) (eval_ok E.(Arith (Add, int 3, int 4)));
  check_v "int mul" (V.Int 12) (eval_ok E.(Arith (Mul, int 3, int 4)));
  check_v "mixed promotes" (V.Float 6.5) (eval_ok E.(Arith (Add, col "a", col "b")));
  check_v "division is real" (V.Float 1.5) (eval_ok E.(Arith (Div, int 3, int 2)));
  check_v "divide by zero is NULL" V.Null (eval_ok E.(Arith (Div, int 3, int 0)));
  check_v "negation" (V.Int (-4)) (eval_ok E.(Neg (col "a")))

let test_null_propagation () =
  check_v "null + x" V.Null (eval_ok E.(Arith (Add, null, int 1)));
  check_v "null = x is NULL" V.Null (eval_ok E.(null =% int 1));
  Alcotest.(check bool) "WHERE filters unknown" false
    (pred_ok E.(null =% int 1))

let test_comparisons () =
  Alcotest.(check bool) "4 > 2.5 cross-type" true (pred_ok E.(col "a" >% col "b"));
  Alcotest.(check bool) "eq" true (pred_ok E.(col "a" =% int 4));
  Alcotest.(check bool) "neq" true (pred_ok E.(col "a" <>% int 5));
  Alcotest.(check bool) "leq" true (pred_ok E.(col "a" <=% int 4));
  Alcotest.(check bool) "string cmp" true (pred_ok E.(col "s" <% str "world"))

let test_three_valued_and_or () =
  (* NULL OR true = true; NULL AND true = unknown -> filtered *)
  Alcotest.(check bool) "null or true" true
    (pred_ok E.(Or (null =% int 1, bool true)));
  Alcotest.(check bool) "null and true filtered" false
    (pred_ok E.(And (null =% int 1, bool true)));
  Alcotest.(check bool) "null and false = false" false
    (pred_ok E.(And (null =% int 1, bool false)));
  Alcotest.(check bool) "not null-cmp filtered" false
    (pred_ok E.(Not (null =% int 1)))

let test_is_null () =
  Alcotest.(check bool) "is null on null row" true
    (pred_ok ~t:tup_nulls E.(IsNull (col "a")));
  Alcotest.(check bool) "is not null" true (pred_ok E.(IsNotNull (col "a")));
  Alcotest.(check bool) "is null false on value" false (pred_ok E.(IsNull (col "a")))

let test_like () =
  Alcotest.(check bool) "exact" true (E.like_match ~pattern:"hello" "hello");
  Alcotest.(check bool) "mismatch" false (E.like_match ~pattern:"hello" "hullo");
  Alcotest.(check bool) "percent prefix" true (E.like_match ~pattern:"%llo" "hello");
  Alcotest.(check bool) "percent suffix" true (E.like_match ~pattern:"he%" "hello");
  Alcotest.(check bool) "percent middle" true (E.like_match ~pattern:"h%o" "hello");
  Alcotest.(check bool) "empty percent" true (E.like_match ~pattern:"%" "");
  Alcotest.(check bool) "underscore" true (E.like_match ~pattern:"h_llo" "hello");
  Alcotest.(check bool) "underscore needs a char" false (E.like_match ~pattern:"_" "");
  Alcotest.(check bool) "double percent" true (E.like_match ~pattern:"%ell%" "hello");
  Alcotest.(check bool) "greedy backtrack" true
    (E.like_match ~pattern:"%o%o%" "frodo of bolso");
  Alcotest.(check bool) "pred like" true (pred_ok E.(Like (col "s", "h%")))

let test_in () =
  Alcotest.(check bool) "in list" true
    (pred_ok E.(In (col "a", [ V.Int 1; V.Int 4 ])));
  Alcotest.(check bool) "not in list" false
    (pred_ok E.(In (col "a", [ V.Int 1; V.Int 2 ])));
  Alcotest.(check bool) "null in filtered" false
    (pred_ok ~t:tup_nulls E.(In (col "a", [ V.Int 1 ])))

let test_between () =
  Alcotest.(check bool) "inside" true (pred_ok E.(Between (col "a", int 1, int 5)));
  Alcotest.(check bool) "boundary" true (pred_ok E.(Between (col "a", int 4, int 5)));
  Alcotest.(check bool) "outside" false (pred_ok E.(Between (col "a", int 5, int 9)))

let test_errors () =
  (match E.eval schema tup (E.col "zz") with
  | Error msg ->
    Alcotest.(check bool) "mentions column" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected unknown-column error");
  (match E.eval schema tup E.(Arith (Add, col "s", int 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected type error");
  match E.eval_pred schema tup (E.col "a") with
  | Error _ -> () (* int is not a predicate *)
  | Ok _ -> Alcotest.fail "expected predicate type error"

(* [bind_pred] resolves names once, but an unresolved name is still an
   error of each row evaluated, never of binding: the row engine reports
   it only for a non-empty input, with the text the per-row resolution
   gave. *)
let test_bound_once () =
  let check_err what expect = function
    | Error msg -> Alcotest.(check string) what expect msg
    | Ok _ -> Alcotest.failf "%s: expected an error" what
  in
  let unknown = E.bind_pred schema E.(col "zz" >% int 1) in
  check_err "unknown column" "unknown column \"zz\"" (unknown tup);
  let qualified =
    S.of_list [ ("r.a", V.TInt); ("t.a", V.TInt) ]
  in
  check_err "ambiguous column" "ambiguous column \"a\" (matches r.a, t.a)"
    (E.bind_pred qualified (E.col "a") (T.of_list [ V.Int 1; V.Int 2 ]));
  let module R = Relational.Relation in
  let module Db = Relational.Database in
  let module A = Relational.Algebra in
  let db = Db.add_relation Db.empty (R.create "r" (S.of_list [ ("a", V.TInt) ])) in
  let bad = A.Select (E.(col "zz" >% int 1), A.Scan "r") in
  let join = A.Join (Some E.(col "zz" =% int 1), A.Scan "r", A.Rename ("t", A.Scan "r")) in
  (* [run_rows]: [run] checks the root's column references first *)
  let rows = function
    | Ok rows -> List.length rows
    | Error msg -> Alcotest.failf "unexpected error: %s" msg
  in
  Alcotest.(check int) "empty input: no error" 0
    (rows (Relational.Eval.run_rows db bad));
  Alcotest.(check int) "empty join: no error" 0
    (rows (Relational.Eval.run_rows db join));
  let db, _ = Db.insert db "r" [ V.Int 3 ] ~conf:0.5 in
  check_err "select" "predicate error: unknown column \"zz\""
    (Relational.Eval.run_rows db bad);
  check_err "join" "join predicate error: unknown column \"zz\""
    (Relational.Eval.run_rows db join)

let test_columns_listing () =
  let e = E.(And (col "a" =% col "b", Like (col "s", "x%"))) in
  Alcotest.(check (list string)) "columns in order" [ "a"; "b"; "s" ] (E.columns e)

let test_to_string_roundtrip_shape () =
  let e = E.(Between (col "a", int 1, int 5)) in
  Alcotest.(check string) "render" "(a BETWEEN 1 AND 5)" (E.to_string e)

(* property: like_match with a pattern free of wildcards is string equality *)
let qcheck_like_no_wildcards =
  QCheck.Test.make ~name:"LIKE without wildcards is equality" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 8)) (string_of_size (QCheck.Gen.int_range 0 8)))
    (fun (p, s) ->
      QCheck.assume (not (String.exists (fun c -> c = '%' || c = '_') p));
      QCheck.assume (not (String.exists (fun c -> c = '%' || c = '_') s));
      E.like_match ~pattern:p s = (p = s))

let qcheck_percent_matches_everything =
  QCheck.Test.make ~name:"pattern %s% matches any superstring" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 4)) (string_of_size (QCheck.Gen.int_range 0 4)))
    (fun (a, b) ->
      QCheck.assume (not (String.exists (fun c -> c = '%' || c = '_') b));
      E.like_match ~pattern:("%" ^ b ^ "%") (a ^ b ^ a))

let () =
  Alcotest.run "expr"
    [
      ( "eval",
        [
          Alcotest.test_case "literals/columns" `Quick test_literals_and_columns;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "null propagation" `Quick test_null_propagation;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "3VL and/or" `Quick test_three_valued_and_or;
          Alcotest.test_case "is null" `Quick test_is_null;
          Alcotest.test_case "like" `Quick test_like;
          Alcotest.test_case "in" `Quick test_in;
          Alcotest.test_case "between" `Quick test_between;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "bound once" `Quick test_bound_once;
          Alcotest.test_case "columns" `Quick test_columns_listing;
          Alcotest.test_case "to_string" `Quick test_to_string_roundtrip_shape;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_like_no_wildcards;
          QCheck_alcotest.to_alcotest qcheck_percent_matches_everything;
        ] );
    ]
