(* Tests for tuples. *)

module T = Relational.Tuple
module V = Relational.Value
module S = Relational.Schema

let test_roundtrip () =
  let t = T.of_list [ V.Int 1; V.String "x" ] in
  Alcotest.(check int) "arity" 2 (T.arity t);
  Alcotest.(check bool) "get 0" true (V.equal (T.get t 0) (V.Int 1));
  Alcotest.(check bool) "get 1" true (V.equal (T.get t 1) (V.String "x"))

let test_values_copy () =
  let t = T.of_list [ V.Int 1 ] in
  let vs = T.values t in
  vs.(0) <- V.Int 99;
  Alcotest.(check bool) "mutating the copy leaves the tuple intact" true
    (V.equal (T.get t 0) (V.Int 1))

let test_append () =
  let a = T.of_list [ V.Int 1 ] and b = T.of_list [ V.Int 2; V.Int 3 ] in
  let c = T.append a b in
  Alcotest.(check int) "arity" 3 (T.arity c);
  Alcotest.(check bool) "order" true (V.equal (T.get c 2) (V.Int 3))

let test_project () =
  let t = T.of_list [ V.Int 1; V.Int 2; V.Int 3 ] in
  let p = T.project t [| 2; 0 |] in
  Alcotest.(check bool) "reorder" true
    (T.equal p (T.of_list [ V.Int 3; V.Int 1 ]))

let test_conforms () =
  let s = S.of_list [ ("a", V.TInt); ("b", V.TFloat) ] in
  Alcotest.(check bool) "exact" true (T.conforms (T.of_list [ V.Int 1; V.Float 2.0 ]) s);
  Alcotest.(check bool) "int in float col" true
    (T.conforms (T.of_list [ V.Int 1; V.Int 2 ]) s);
  Alcotest.(check bool) "null anywhere" true
    (T.conforms (T.of_list [ V.Null; V.Null ]) s);
  Alcotest.(check bool) "wrong arity" false (T.conforms (T.of_list [ V.Int 1 ]) s);
  Alcotest.(check bool) "wrong type" false
    (T.conforms (T.of_list [ V.String "x"; V.Float 1.0 ]) s)

let test_compare_and_hash () =
  let a = T.of_list [ V.Int 1; V.Float 2.0 ] in
  let b = T.of_list [ V.Float 1.0; V.Int 2 ] in
  Alcotest.(check bool) "numeric cross-type equality" true (T.equal a b);
  Alcotest.(check int) "hash agrees" (T.hash a) (T.hash b);
  let c = T.of_list [ V.Int 1 ] in
  Alcotest.(check bool) "shorter sorts first" true (T.compare c a < 0)

let test_to_string () =
  Alcotest.(check string) "render" "(1, x)"
    (T.to_string (T.of_list [ V.Int 1; V.String "x" ]))

(* integers are written digit by digit, not through string_of_int: the
   text must still be string_of_int's, for tuples and tids alike *)
let test_int_text () =
  let rng = Random.State.make [| 7 |] in
  let ints =
    [ 0; 1; 9; 10; -1; -9; -10; 99; 100; 123456789; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.init 500 (fun _ -> Random.State.bits rng - Random.State.bits rng)
    @ List.init 500 (fun _ -> Random.State.int64 rng Int64.max_int |> Int64.to_int)
  in
  List.iter
    (fun n ->
      let s = string_of_int n in
      Alcotest.(check string) "tuple" ("(" ^ s ^ ", " ^ s ^ ")") (T.to_string (T.of_list [ V.Int n; V.Int n ]));
      Alcotest.(check string) "tid" ("R#" ^ s) (Lineage.Tid.to_string (Lineage.Tid.make "R" n)))
    ints

let () =
  Alcotest.run "tuple"
    [
      ( "tuple",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "values copies" `Quick test_values_copy;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "conforms" `Quick test_conforms;
          Alcotest.test_case "compare/hash" `Quick test_compare_and_hash;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "int text = string_of_int" `Quick test_int_text;
        ] );
    ]
