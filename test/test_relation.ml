(* Tests for base relations: tid assignment, insertion, iteration. *)

module R = Relational.Relation
module V = Relational.Value
module S = Relational.Schema
module Tid = Lineage.Tid

let schema = S.of_list [ ("name", V.TString); ("n", V.TInt) ]

let row name n = Relational.Tuple.of_list [ V.String name; V.Int n ]

let test_insert_assigns_sequential_tids () =
  let r = R.create "R" schema in
  let r, t0 = R.insert r (row "a" 1) in
  let r, t1 = R.insert r (row "b" 2) in
  ignore r;
  Alcotest.(check string) "t0" "R#0" (Tid.to_string t0);
  Alcotest.(check string) "t1" "R#1" (Tid.to_string t1)

let test_insert_type_check () =
  let r = R.create "R" schema in
  Alcotest.(check bool) "bad tuple rejected" true
    (try
       ignore (R.insert r (Relational.Tuple.of_list [ V.Int 1; V.Int 2 ]));
       false
     with Invalid_argument _ -> true)

let test_tuples_in_insertion_order () =
  let r = R.create "R" schema in
  let r, _ = R.insert r (row "a" 1) in
  let r, _ = R.insert r (row "b" 2) in
  let r, _ = R.insert r (row "c" 3) in
  let names =
    List.map
      (fun (_, t) -> V.to_string (Relational.Tuple.get t 0))
      (R.tuples r)
  in
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] names

let test_functional_updates () =
  let r0 = R.create "R" schema in
  let r1, _ = R.insert r0 (row "a" 1) in
  Alcotest.(check int) "original untouched" 0 (R.cardinality r0);
  Alcotest.(check int) "new has one" 1 (R.cardinality r1)

let test_fold () =
  let r = R.create "R" schema in
  let r, _ = R.insert r (row "a" 1) in
  let r, _ = R.insert r (row "b" 2) in
  let total =
    R.fold
      (fun acc _ t ->
        match Relational.Tuple.get t 1 with V.Int n -> acc + n | _ -> acc)
      0 r
  in
  Alcotest.(check int) "sum" 3 total

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_to_string_contains_rows () =
  let r = R.create "R" schema in
  let r, _ = R.insert r (row "hello" 7) in
  let s = R.to_string r in
  Alcotest.(check bool) "mentions value" true (contains ~needle:"hello" s);
  Alcotest.(check bool) "mentions tid" true (contains ~needle:"R#0" s)

let () =
  Alcotest.run "relation"
    [
      ( "relation",
        [
          Alcotest.test_case "sequential tids" `Quick test_insert_assigns_sequential_tids;
          Alcotest.test_case "type check" `Quick test_insert_type_check;
          Alcotest.test_case "insertion order" `Quick test_tuples_in_insertion_order;
          Alcotest.test_case "functional" `Quick test_functional_updates;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "to_string" `Quick test_to_string_contains_rows;
        ] );
    ]
