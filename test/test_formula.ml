(* Tests for lineage formulas: smart constructors, simplification,
   restriction, and structural predicates.  Includes a qcheck property that
   simplification preserves semantics on random formulas. *)

module F = Lineage.Formula
module Tid = Lineage.Tid

let v i = F.var (Tid.make "t" i)

let t0 = v 0
let t1 = v 1
let t2 = v 2

let feq = Alcotest.testable F.pp F.equal

let test_conj_simplifications () =
  Alcotest.(check feq) "empty conj is true" F.tru (F.conj []);
  Alcotest.(check feq) "singleton collapses" t0 (F.conj [ t0 ]);
  Alcotest.(check feq) "true dropped" (F.conj [ t0; t1 ]) (F.conj [ t0; F.tru; t1 ]);
  Alcotest.(check feq) "false short-circuits" F.fls (F.conj [ t0; F.fls; t1 ]);
  Alcotest.(check feq) "nested flattened" (F.conj [ t0; t1; t2 ])
    (F.conj [ F.conj [ t0; t1 ]; t2 ]);
  Alcotest.(check feq) "duplicates removed" t0 (F.conj [ t0; t0 ])

let test_disj_simplifications () =
  Alcotest.(check feq) "empty disj is false" F.fls (F.disj []);
  Alcotest.(check feq) "true short-circuits" F.tru (F.disj [ t0; F.tru ]);
  Alcotest.(check feq) "false dropped" (F.disj [ t0; t1 ]) (F.disj [ F.fls; t0; t1 ]);
  Alcotest.(check feq) "nested flattened" (F.disj [ t0; t1; t2 ])
    (F.disj [ t0; F.disj [ t1; t2 ] ])

let test_neg () =
  Alcotest.(check feq) "neg true" F.fls (F.neg F.tru);
  Alcotest.(check feq) "neg false" F.tru (F.neg F.fls);
  Alcotest.(check feq) "double negation" t0 (F.neg (F.neg t0))

let test_vars () =
  let f = F.conj [ F.disj [ t0; t1 ]; t2; t0 ] in
  Alcotest.(check int) "three distinct vars" 3 (F.var_count f);
  Alcotest.(check bool) "contains t1" true
    (Tid.Set.mem (Tid.make "t" 1) (F.vars f))

let test_size_depth () =
  let f = F.conj [ F.disj [ t0; t1 ]; t2 ] in
  Alcotest.(check int) "size" 5 (F.size f);
  Alcotest.(check int) "depth" 3 (F.depth f);
  Alcotest.(check int) "leaf depth" 1 (F.depth t0)

let test_read_once () =
  Alcotest.(check bool) "tree is read-once" true
    (F.is_read_once (F.conj [ F.disj [ t0; t1 ]; t2 ]));
  (* duplicates inside one conj/disj are removed by the constructors, so
     build sharing across operators *)
  let shared = F.disj [ F.conj [ t0; t1 ]; F.conj [ t0; t2 ] ] in
  Alcotest.(check bool) "shared var not read-once" false (F.is_read_once shared)

let test_monotone () =
  Alcotest.(check bool) "and/or monotone" true
    (F.is_monotone (F.conj [ t0; F.disj [ t1; t2 ] ]));
  Alcotest.(check bool) "negation not monotone" false
    (F.is_monotone (F.conj [ t0; F.neg t1 ]))

let test_eval () =
  let f = F.conj [ F.disj [ t0; t1 ]; t2 ] in
  let assignment m tid = List.mem tid.Tid.row m in
  Alcotest.(check bool) "t0,t2 true" true (F.eval (assignment [ 0; 2 ]) f);
  Alcotest.(check bool) "t2 missing" false (F.eval (assignment [ 0; 1 ]) f);
  Alcotest.(check bool) "only t2" false (F.eval (assignment [ 2 ]) f)

let test_restrict () =
  let f = F.conj [ F.disj [ t0; t1 ]; t2 ] in
  Alcotest.(check feq) "restrict t0 true" t2 (F.restrict (Tid.make "t" 0) true f);
  Alcotest.(check feq) "restrict t0 false" (F.conj [ t1; t2 ])
    (F.restrict (Tid.make "t" 0) false f);
  Alcotest.(check feq) "restrict all" F.fls
    (F.restrict (Tid.make "t" 2) false (F.restrict (Tid.make "t" 0) true f))

let test_absorption () =
  (* x | (x & y) = x *)
  Alcotest.(check feq) "or absorption" t0
    (F.simplify (F.Or [ t0; F.And [ t0; t1 ] ]));
  (* x & (x | y) = x *)
  Alcotest.(check feq) "and absorption" t0
    (F.simplify (F.And [ t0; F.Or [ t0; t1 ] ]))

let test_map_vars () =
  let f = F.conj [ t0; t1 ] in
  let g = F.map_vars (fun tid -> Tid.make "u" tid.Tid.row) f in
  Alcotest.(check bool) "renamed" true
    (Tid.Set.mem (Tid.make "u" 0) (F.vars g)
    && not (Tid.Set.mem (Tid.make "t" 0) (F.vars g)))

let test_to_string () =
  Alcotest.(check string) "infix" "(t#0 | t#1) & t#2"
    (F.to_string (F.conj [ F.disj [ t0; t1 ]; t2 ]));
  Alcotest.(check string) "negation" "!t#0" (F.to_string (F.neg t0))

(* random formula generator over 4 variables *)
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

let qcheck_simplify_preserves_semantics =
  QCheck.Test.make ~name:"simplify preserves semantics" ~count:500
    (QCheck.pair arb_formula (QCheck.list_of_size (QCheck.Gen.return 4) QCheck.bool))
    (fun (f, bits) ->
      let assignment tid = List.nth bits tid.Tid.row in
      F.eval assignment f = F.eval assignment (F.simplify f))

let qcheck_restrict_fixes_variable =
  QCheck.Test.make ~name:"restrict removes the variable" ~count:300 arb_formula
    (fun f ->
      let tid = Tid.make "t" 0 in
      let f' = F.restrict tid true f in
      not (Tid.Set.mem tid (F.vars f')))

let qcheck_double_restrict_commutes =
  QCheck.Test.make ~name:"restrictions on distinct vars commute" ~count:300
    arb_formula
    (fun f ->
      let a = Tid.make "t" 0 and b = Tid.make "t" 1 in
      F.equal
        (F.restrict a true (F.restrict b false f))
        (F.restrict b false (F.restrict a true f)))

(* [is_read_once] against its definition, on formulas built without the
   smart constructors (so an operator may repeat a variable) over two
   relations that share row numbers, including rows that collide in the
   low bits and negative ones; up to a few hundred occurrences *)
let qcheck_read_once_definition =
  let open QCheck.Gen in
  let var =
    map2
      (fun rel row -> F.Var (Tid.make rel row))
      (oneofl [ "t"; "u" ])
      (oneof [ int_range 0 40; map (fun k -> k lsl 20) (int_range 0 8); int_range (-3) (-1) ])
  in
  let gen =
    sized_size (int_range 1 300)
    @@ fix (fun self n ->
           if n <= 1 then var
           else
             frequency
               [
                 (1, var);
                 (1, map (fun f -> F.Not f) (self (n / 2)));
                 (2, map (fun fs -> F.And fs) (list_size (int_range 2 6) (self (n / 3))));
                 (2, map (fun fs -> F.Or fs) (list_size (int_range 2 6) (self (n / 3))));
               ])
  in
  let rec occurrences = function
    | F.True | F.False -> 0
    | F.Var _ -> 1
    | F.Not f -> occurrences f
    | F.And fs | F.Or fs -> List.fold_left (fun acc f -> acc + occurrences f) 0 fs
  in
  QCheck.Test.make ~name:"read-once iff no variable repeats" ~count:500
    (QCheck.make ~print:F.to_string gen)
    (fun f -> F.is_read_once f = (occurrences f = F.var_count f))

let () =
  Alcotest.run "formula"
    [
      ( "constructors",
        [
          Alcotest.test_case "conj" `Quick test_conj_simplifications;
          Alcotest.test_case "disj" `Quick test_disj_simplifications;
          Alcotest.test_case "neg" `Quick test_neg;
          Alcotest.test_case "vars" `Quick test_vars;
          Alcotest.test_case "size/depth" `Quick test_size_depth;
          Alcotest.test_case "read-once" `Quick test_read_once;
          Alcotest.test_case "monotone" `Quick test_monotone;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "absorption" `Quick test_absorption;
          Alcotest.test_case "map_vars" `Quick test_map_vars;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_simplify_preserves_semantics;
          QCheck_alcotest.to_alcotest qcheck_restrict_fixes_variable;
          QCheck_alcotest.to_alcotest qcheck_double_restrict_commutes;
          QCheck_alcotest.to_alcotest qcheck_read_once_definition;
        ] );
    ]
