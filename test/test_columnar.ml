(* Columnar engine identity: for random schemas, data, confidences and
   scan/filter/project pipelines, the vectorized evaluator must produce
   results bit-identical to the row engine — same tuples (constructors
   included), same order, structurally identical lineage — and the same
   errors when evaluation fails.  Parallel bulk CSV
   ingest must likewise be indistinguishable from the sequential loader. *)

module V = Relational.Value
module S = Relational.Schema
module R = Relational.Relation
module Db = Relational.Database
module A = Relational.Algebra
module Ex = Relational.Expr
module Eval = Relational.Eval
module Col = Relational.Col_eval
module Sm = Prng.Splitmix
module F = Lineage.Formula

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ---------------- random generation ---------------- *)

let types = [| V.TInt; V.TFloat; V.TBool; V.TString |]

let random_schema rng =
  let n = Sm.int_in rng 1 4 in
  S.of_list (List.init n (fun i -> (Printf.sprintf "c%d" i, Sm.choice rng types)))

let string_pool = [| "a"; "b"; "ab"; "a,b"; "x\"y"; ""; "abc"; "%a_" |]

let random_value rng huge ty =
  if Sm.coin rng 0.15 then V.Null
  else
    match ty with
    | V.TInt ->
      if huge && Sm.coin rng 0.1 then V.Int ((1 lsl 60) + Sm.int_in rng 0 5)
      else V.Int (Sm.int_in rng (-4) 4)
    | V.TFloat ->
      if Sm.coin rng 0.4 then V.Int (Sm.int_in rng (-3) 3)
      else if Sm.coin rng 0.15 then V.Float (if Sm.bool rng then 0.0 else -0.0)
      else V.Float (Float.of_int (Sm.int_in rng (-3) 3) /. 2.0)
    | V.TBool -> V.Bool (Sm.bool rng)
    | V.TString -> V.String (Sm.choice rng string_pool)

let random_db rng ~huge =
  let schema = random_schema rng in
  let nrows = Sm.int_in rng 0 40 in
  let r = R.create "r" schema in
  let db = Db.add_relation Db.empty r in
  let cols = S.columns schema in
  let rec fill db i =
    if i = 0 then db
    else
      let vs = List.map (fun c -> random_value rng huge c.S.cty) cols in
      let conf = Sm.float_in rng 0.0 1.0 in
      fill (fst (Db.insert db "r" vs ~conf)) (i - 1)
  in
  (fill db nrows, schema)

let random_col rng schema = Ex.col (Sm.choice rng (Array.of_list (S.column_names schema)))

let random_lit rng =
  Ex.Lit (random_value rng false (Sm.choice rng types))

let random_operand rng schema =
  if Sm.coin rng 0.7 then random_col rng schema else random_lit rng

let cmps = [| Ex.Eq; Ex.Neq; Ex.Lt; Ex.Leq; Ex.Gt; Ex.Geq |]

(* Random predicate: mostly vectorizable shapes, sometimes type-mismatched
   or non-vectorizable ones, so both the columnar kernels and the
   decline-to-row-engine path (including error identity) are exercised. *)
let rec random_pred rng schema depth =
  let leaf () =
    match Sm.int_in rng 0 6 with
    | 0 | 1 ->
      Ex.Cmp (Sm.choice rng cmps, random_operand rng schema, random_operand rng schema)
    | 2 -> Ex.IsNull (random_col rng schema)
    | 3 -> Ex.IsNotNull (random_col rng schema)
    | 4 ->
      Ex.In
        ( random_col rng schema,
          List.init (Sm.int_in rng 0 3) (fun _ ->
              random_value rng false (Sm.choice rng types)) )
    | 5 -> Ex.Like (random_col rng schema, Sm.choice rng [| "a%"; "%b"; "_"; "%" |])
    | _ ->
      Ex.Between
        (random_col rng schema, random_lit rng, random_lit rng)
  in
  if depth = 0 || Sm.coin rng 0.5 then leaf ()
  else
    match Sm.int_in rng 0 2 with
    | 0 -> Ex.And (random_pred rng schema (depth - 1), random_pred rng schema (depth - 1))
    | 1 -> Ex.Or (random_pred rng schema (depth - 1), random_pred rng schema (depth - 1))
    | _ -> Ex.Not (random_pred rng schema (depth - 1))

(* ORDER BY keys, now and then naming an unknown column (the row
   engine's error) *)
let random_keys rng schema =
  List.init (Sm.int_in rng 1 2) (fun _ ->
      let c =
        if Sm.coin rng 0.05 then "nope"
        else Sm.choice rng (Array.of_list (S.column_names schema))
      in
      (c, if Sm.bool rng then A.Asc else A.Desc))

let random_plan rng schema =
  let rec wrap plan schema n =
    if n = 0 then plan
    else
      let plan, schema =
        match Sm.int_in rng 0 4 with
        | 0 -> (A.Select (random_pred rng schema 2, plan), schema)
        | 1 ->
          let names = S.column_names schema in
          let keep = List.filter (fun _ -> Sm.coin rng 0.7) names in
          let keep = if keep = [] then [ List.hd names ] else keep in
          let schema' =
            match S.project schema keep with
            | Ok (s, _) -> s
            | Error _ -> schema
          in
          (A.Project (keep, plan), schema')
        | 2 -> (A.Distinct plan, schema)
        | 3 ->
          if Sm.bool rng then (A.Limit (Sm.int_in rng 0 20, plan), schema)
          else (A.Limit (Sm.int_in rng 0 20, A.Order_by (random_keys rng schema, plan)), schema)
        | _ -> (A.Rename ("t", plan), S.qualify "t" schema)
      in
      wrap plan schema (n - 1)
  in
  wrap (A.Scan "r") (S.qualify "r" schema) (Sm.int_in rng 0 4)

(* ---------------- bit-identity comparison ---------------- *)

(* constructor-strict value equality: Int 1 and Float 1. are different,
   NaN equals NaN (the row engine's dedup follows Float.compare) *)
let value_ident (a : V.t) (b : V.t) =
  match (a, b) with
  | V.Null, V.Null -> true
  | V.Bool x, V.Bool y -> x = y
  | V.Int x, V.Int y -> x = y
  | V.Float x, V.Float y -> Float.compare x y = 0
  | V.String x, V.String y -> String.equal x y
  | _ -> false

let row_ident (a : Eval.row) (b : Eval.row) =
  let va = Relational.Tuple.values a.tuple
  and vb = Relational.Tuple.values b.tuple in
  Array.length va = Array.length vb
  && Array.for_all2 value_ident va vb
  && F.equal a.lineage b.lineage

let result_ident a b =
  match (a, b) with
  | Ok (ra : Eval.annotated), Ok (rb : Eval.annotated) ->
    S.equal ra.Eval.schema rb.Eval.schema
    && List.length ra.Eval.rows = List.length rb.Eval.rows
    && List.for_all2 row_ident ra.Eval.rows rb.Eval.rows
  | Error ea, Error eb -> String.equal ea eb
  | _ -> false

(* ---------------- properties ---------------- *)

let qcheck_pipeline_identity =
  QCheck.Test.make ~name:"columnar == row engine" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let db, schema = random_db rng ~huge:(Sm.coin rng 0.15) in
      let plan = random_plan rng schema in
      result_ident (Eval.run db plan) (Col.run db plan))

(* ---------------- large batches ---------------- *)

(* Relations of 20K+ rows run many vectors through every kernel, long
   selection vectors through nested selects, and top-K over thousands of
   candidates.  Values cluster so ORDER BY keys tie, real columns mix Int
   and Float cells (ints up to 2^53 in magnitude, NaN), and literals sit
   on both sides of 2^53. *)
let big = 1 lsl 53

let large_value rng (ty : V.ty) =
  if Sm.coin rng 0.1 then V.Null
  else
    match ty with
    | V.TInt ->
      if Sm.coin rng 0.02 then V.Int (Sm.choice rng [| big; -big; big - 1 |])
      else V.Int (Sm.int_in rng (-30) 30)
    | V.TFloat -> (
      match Sm.int_in rng 0 9 with
      | 0 -> V.Int (Sm.choice rng [| big; -big; big - 1; 1 - big |])
      | 1 | 2 | 3 -> V.Int (Sm.int_in rng (-10) 10)
      | 4 -> V.Float (Sm.choice rng [| Float.of_int big; Float.nan; -0.0 |])
      | _ -> V.Float (Float.of_int (Sm.int_in rng (-20) 20) /. 2.0))
    | V.TBool -> V.Bool (Sm.bool rng)
    | V.TString -> V.String (Sm.choice rng string_pool)

let large_schema =
  S.of_list [ ("i", V.TInt); ("x", V.TFloat); ("b", V.TBool); ("s", V.TString) ]

let large_db rng =
  let n = Sm.int_in rng 20_000 24_000 in
  let tuples =
    List.init n (fun _ ->
        Relational.Tuple.of_list
          (List.map (fun c -> large_value rng c.S.cty) (S.columns large_schema)))
  in
  let r = R.of_tuples "r" large_schema tuples in
  Db.bulk_load Db.empty r (Array.init n (fun _ -> Sm.float_in rng 0.0 1.0))

let large_lit rng =
  match Sm.int_in rng 0 5 with
  | 0 -> V.Int (Sm.choice rng [| big; -big; big + 1; -big - 1; big - 1 |])
  | 1 -> V.Float (Sm.choice rng [| Float.of_int big; -0.0; 2.5; Float.nan |])
  | _ -> V.Int (Sm.int_in rng (-12) 12)

let rec large_pred rng depth =
  let num () = Ex.col (Sm.choice rng [| "i"; "x" |]) in
  let leaf () =
    match Sm.int_in rng 0 6 with
    | 0 | 1 -> Ex.Cmp (Sm.choice rng cmps, num (), Ex.Lit (large_lit rng))
    | 2 -> Ex.Cmp (Sm.choice rng cmps, Ex.Lit (large_lit rng), num ())
    | 3 -> Ex.Cmp (Sm.choice rng cmps, num (), num ())
    | 4 -> Ex.In (num (), List.init (Sm.int_in rng 1 4) (fun _ -> large_lit rng))
    | 5 -> if Sm.bool rng then Ex.IsNull (num ()) else Ex.col "b"
    | _ -> Ex.Between (num (), Ex.Lit (large_lit rng), Ex.Lit (large_lit rng))
  in
  if depth = 0 then leaf ()
  else
    let sub () = large_pred rng (depth - 1) in
    match Sm.int_in rng 0 4 with
    | 0 -> Ex.Not (Ex.And (sub (), sub ()))
    | 1 -> Ex.Or (Ex.And (sub (), sub ()), sub ())
    | 2 | 3 -> Ex.And (sub (), sub ())
    | _ -> leaf ()

let qcheck_large_identity =
  QCheck.Test.make ~name:"columnar == row engine on 20K-row batches" ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let db = large_db rng in
      let scan = A.Scan "r" in
      let nested = A.Select (large_pred rng 2, A.Select (large_pred rng 2, scan)) in
      let keys = [ ("i", A.Desc); ("x", A.Asc) ] in
      let plans =
        [
          A.Select (large_pred rng 3, scan);
          nested;
          A.Limit (Sm.int_in rng 0 50, A.Order_by (keys, nested));
          A.Limit (Sm.int_in rng 0 50, A.Order_by ([ ("x", A.Desc) ], scan));
          A.Limit (30, A.Order_by ([ ("s", A.Asc) ], A.Project ([ "s"; "i" ], nested)));
        ]
      in
      (* the unfiltered top-K always runs columnar *)
      Col.vectorizes db (List.nth plans 3)
      && List.for_all
           (fun plan -> result_ident (Eval.run db plan) (Col.run db plan))
           plans)

let qcheck_decline_on_huge_ints =
  QCheck.Test.make ~name:"ints beyond 2^53 decline but stay identical"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let db, schema = random_db rng ~huge:true in
      let plan = A.Select (random_pred rng schema 1, A.Scan "r") in
      ignore schema;
      result_ident (Eval.run db plan) (Col.run db plan))

(* ---------------- bulk ingest identity ---------------- *)

(* One document in three is above [load_string_bulk]'s 64 KiB chunking
   threshold, so the jobs 2 and 4 arms really parse several chunks. *)
let random_csv rng =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "s:string,n:int,x:real,__confidence:real\n";
  let nrows =
    if Sm.coin rng 0.33 then Sm.int_in rng 3_500 4_000 else Sm.int_in rng 0 60
  in
  let bad = Sm.coin rng 0.2 in
  let bad_at = if bad then Sm.int_in rng 0 (max 0 (nrows - 1)) else -1 in
  for i = 0 to nrows - 1 do
    if Sm.coin rng 0.1 then Buffer.add_string buf "  \n";
    if i = bad_at then
      Buffer.add_string buf
        (Sm.choice rng [| "x,notint,0.5,0.5\n"; "only,two\n"; "a,1,0.5,1.5\n" |])
    else
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%g,%g\n"
           (Relational.Csv.render_line [ Sm.choice rng string_pool ])
           (Sm.int_in rng (-5) 5)
           (Sm.float_in rng (-2.0) 2.0)
           (Sm.float_in rng 0.0 1.0))
  done;
  Buffer.contents buf

let relation_ident db1 db2 name =
  let r1 = Db.relation_exn db1 name and r2 = Db.relation_exn db2 name in
  let t1 = R.tuples r1 and t2 = R.tuples r2 in
  S.equal (R.schema r1) (R.schema r2)
  && List.length t1 = List.length t2
  && List.for_all2
       (fun (tid1, tup1) (tid2, tup2) ->
         Lineage.Tid.equal tid1 tid2
         && Array.for_all2 value_ident
              (Relational.Tuple.values tup1)
              (Relational.Tuple.values tup2)
         && Float.equal (Db.confidence db1 tid1) (Db.confidence db2 tid2))
       t1 t2

let qcheck_bulk_ingest_identity =
  QCheck.Test.make ~name:"bulk ingest == sequential ingest at jobs 1/2/4"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let text = random_csv rng in
      let seq = Relational.Csv.load_into Db.empty ~name:"r" text in
      List.for_all
        (fun jobs ->
          let bulk =
            Relational.Csv.load_string_bulk Db.empty ~name:"r" ~jobs text
          in
          match (seq, bulk) with
          | Ok db1, Ok db2 -> relation_ident db1 db2 "r"
          | Error e1, Error e2 -> String.equal e1 e2
          | _ -> false)
        [ 1; 2; 4 ])

(* ---------------- top-K selection ---------------- *)

let qcheck_topk_equals_sort =
  QCheck.Test.make ~name:"Topk.by_score == stable sort desc + take k"
    ~count:500
    QCheck.(pair (int_range 0 12) (list (float_range (-5.0) 5.0)))
    (fun (k, xs) ->
      let scored = List.mapi (fun i x -> (i, x)) xs in
      let expected =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) scored
        |> List.filteri (fun i _ -> i < k)
      in
      Topk.by_score ~k snd scored = expected)

(* scores from a four-value set, so most of them tie: the heap must keep
   tied rows in input order, as the stable sort does *)
let qcheck_topk_ties_equal_sort =
  QCheck.Test.make ~name:"Topk.by_score == stable sort on tied scores"
    ~count:500
    QCheck.(pair (int_range 0 12) (list (int_range 0 3)))
    (fun (k, xs) ->
      let scored = List.mapi (fun i x -> (i, float_of_int x /. 4.0)) xs in
      let expected =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) scored
        |> List.filteri (fun i _ -> i < k)
      in
      Topk.by_score ~k snd scored = expected)

(* ---------------- directed cases ---------------- *)

let test_vectorizes () =
  let db = Db.empty in
  let r = R.create "t" (S.of_list [ ("a", V.TInt); ("s", V.TString) ]) in
  let db = Db.add_relation db r in
  let db = fst (Db.insert db "t" [ V.Int 1; V.String "x" ] ~conf:0.9) in
  let db = fst (Db.insert db "t" [ V.Int 9; V.Null ] ~conf:0.4) in
  let plan = A.Select (Ex.(col "a" >% int 2), A.Scan "t") in
  Alcotest.(check bool) "select over scan vectorizes" true (Col.vectorizes db plan);
  let res = ok (Col.run db plan) in
  Alcotest.(check int) "one row" 1 (List.length res.rows);
  (* a relation with an int beyond 2^53 declines wholesale *)
  let db2 = fst (Db.insert db "t" [ V.Int (1 lsl 60); V.String "y" ] ~conf:0.5) in
  Alcotest.(check bool) "huge int declines" false (Col.vectorizes db2 plan);
  Alcotest.(check bool) "declined still identical" true
    (result_ident (Eval.run db2 plan) (Col.run db2 plan))

let test_scan_cache_epochs () =
  let db = Db.add_relation Db.empty (R.create "t" (S.of_list [ ("a", V.TInt) ])) in
  let db = fst (Db.insert db "t" [ V.Int 1 ] ~conf:0.5) in
  let b1 = Option.get (Col.scan_batch db "t") in
  (* confidence mutation: same batch *)
  let tid = Lineage.Tid.make "t" 0 in
  let db1 = Db.set_confidence db tid 0.8 in
  let b2 = Option.get (Col.scan_batch db1 "t") in
  Alcotest.(check bool) "batch reused across confidence change" true (b1 == b2);
  (* structural mutation: fresh batch *)
  let db = fst (Db.insert db1 "t" [ V.Int 2 ] ~conf:0.1) in
  let b3 = Option.get (Col.scan_batch db "t") in
  Alcotest.(check bool) "structural change rebuilds" true (not (b1 == b3));
  Alcotest.(check int) "new row visible" 2 b3.Relational.Colbatch.nrows

let test_bulk_epochs () =
  let text = "a:int,__confidence:real\n1,0.5\n2,0.75\n" in
  let db0 = Db.empty in
  let db = ok (Relational.Csv.load_string_bulk db0 ~name:"r" text) in
  Alcotest.(check (float 0.0)) "conf 0" 0.5 (Db.confidence db (Lineage.Tid.make "r" 0));
  Alcotest.(check (float 0.0)) "conf 1" 0.75 (Db.confidence db (Lineage.Tid.make "r" 1));
  (* the single bulk change-log entry stays truthful: both loaded tuples
     appear in the targeted invalidation set for a cache synced before *)
  (match Db.changed_since db ~since:(Db.confidence_epoch db0) with
  | Some set -> Alcotest.(check int) "both tids logged" 2 (Lineage.Tid.Set.cardinal set)
  | None -> Alcotest.fail "changed_since lost the bulk load")

(* Big enough to cross the bulk chunking threshold, with blank lines
   sprinkled in, so the chunk realignment and prefix-sum numbering run for
   real.  Jobs are explicit (an explicit request is clamped to the host's
   cores, so a one-core host parses a single chunk). *)
let test_bulk_large_chunked () =
  let buf = Buffer.create (1 lsl 18) in
  Buffer.add_string buf "s:string,n:int,__confidence:real\n";
  let n = 8_000 in
  for i = 0 to n - 1 do
    if i mod 97 = 0 then Buffer.add_string buf "\n";
    Buffer.add_string buf (Printf.sprintf "row-%d-padding-padding,%d,%g\n" i i
                             (Float.of_int (i mod 100) /. 100.0))
  done;
  let text = Buffer.contents buf in
  Alcotest.(check bool) "text crosses chunk threshold" true
    (String.length text >= 1 lsl 16);
  let seq = ok (Relational.Csv.load_into Db.empty ~name:"big" text) in
  List.iter
    (fun jobs ->
      let bulk =
        ok (Relational.Csv.load_string_bulk Db.empty ~name:"big" ~jobs text)
      in
      Alcotest.(check bool)
        (Printf.sprintf "large bulk identical at jobs %d" jobs)
        true
        (relation_ident seq bulk "big"))
    [ 2; 4 ];
  (* error reporting: corrupt one record mid-file, expect the sequential
     error message verbatim (line numbers skip blank lines) *)
  let corrupt =
    let half = String.length text / 2 in
    let nl = String.index_from text half '\n' in
    String.sub text 0 (nl + 1)
    ^ "oops,notanint,0.5\n"
    ^ String.sub text (nl + 1) (String.length text - nl - 1)
  in
  let e1 =
    match Relational.Csv.load_into Db.empty ~name:"big" corrupt with
    | Error e -> e
    | Ok _ -> Alcotest.fail "sequential load accepted corrupt input"
  in
  let e2 =
    match Relational.Csv.load_string_bulk Db.empty ~name:"big" ~jobs:2 corrupt with
    | Error e -> e
    | Ok _ -> Alcotest.fail "bulk load accepted corrupt input"
  in
  Alcotest.(check string) "bulk error identical" e1 e2

(* Every comparison and IN list around 2^53, on an int column and on a
   real column holding both Int and Float cells at the edge: the kernels
   must agree with the row engine, including where a real column cannot
   represent the literal (there the predicate stays on the row engine). *)
let test_exact_edges () =
  let schema = S.of_list [ ("i", V.TInt); ("x", V.TFloat) ] in
  let cells =
    [ V.Int big; V.Int (-big); V.Int (big - 1); V.Float (Float.of_int big);
      V.Float (-.Float.of_int big); V.Int 0; V.Null ]
  in
  let tuples =
    List.concat_map
      (fun x ->
        List.map
          (fun i -> Relational.Tuple.of_list [ i; x ])
          [ V.Int big; V.Int (-big); V.Int (big - 1); V.Int 0; V.Null ])
      cells
  in
  let r = R.of_tuples "r" schema tuples in
  let db = Db.bulk_load Db.empty r (Array.make (List.length tuples) 0.5) in
  let lits =
    [ V.Int (big - 1); V.Int big; V.Int (big + 1); V.Int (-big - 1);
      V.Float (Float.of_int big); V.Float (Float.of_int (big - 1)) ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun lit ->
          let preds =
            Ex.In (Ex.col c, [ lit; V.Int 0 ])
            :: List.map (fun op -> Ex.Cmp (op, Ex.col c, Ex.Lit lit)) (Array.to_list cmps)
          in
          List.iter
            (fun pred ->
              let plan = A.Select (pred, A.Scan "r") in
              let fits = match lit with V.Int k -> abs k <= big | _ -> true in
              if c = "i" || fits then
                Alcotest.(check bool)
                  (Ex.to_string pred ^ " vectorizes") true (Col.vectorizes db plan);
              Alcotest.(check bool) (Ex.to_string pred) true
                (result_ident (Eval.run db plan) (Col.run db plan)))
            preds)
        lits)
    [ "i"; "x" ]

(* A string column with no non-null cell has an empty dictionary: every
   comparison, LIKE and IN on it is unknown, so NOT of one keeps no row,
   and string-to-string comparisons with it are unknown too. *)
let test_all_null_strings () =
  let schema = S.of_list [ ("s", V.TString); ("t", V.TString); ("u", V.TString) ] in
  let tuples =
    List.init 5 (fun i ->
        Relational.Tuple.of_list
          [ V.Null; (if i = 2 then V.Null else V.String (Sm.choice (Sm.of_int i) string_pool)); V.Null ])
  in
  let r = R.of_tuples "r" schema tuples in
  let db = Db.bulk_load Db.empty r (Array.make (List.length tuples) 0.5) in
  let a = Ex.str "a" in
  let preds =
    [
      Ex.(col "s" =% a);
      Ex.Not Ex.(col "s" =% a);
      Ex.Not (Ex.Like (Ex.col "s", "a%"));
      Ex.Not (Ex.In (Ex.col "s", [ V.String "a" ]));
      Ex.(col "s" <% col "t");
      Ex.Not Ex.(col "t" <% col "s");
      Ex.Not Ex.(col "s" <>% col "u");
      Ex.Not (Ex.IsNull (Ex.col "s"));
    ]
  in
  List.iter
    (fun pred ->
      let plan = A.Select (pred, A.Scan "r") in
      Alcotest.(check bool) (Ex.to_string pred ^ " vectorizes") true (Col.vectorizes db plan);
      let res = ok (Col.run db plan) in
      Alcotest.(check int) (Ex.to_string pred ^ " keeps no row") 0 (List.length res.Eval.rows);
      Alcotest.(check bool) (Ex.to_string pred) true
        (result_ident (Eval.run db plan) (Col.run db plan)))
    preds;
  List.iter
    (fun plan ->
      Alcotest.(check bool) "projection and top-K identical" true
        (result_ident (Eval.run db plan) (Col.run db plan)))
    [
      A.Project ([ "s" ], A.Scan "r");
      A.Limit (3, A.Order_by ([ ("s", A.Asc); ("t", A.Desc) ], A.Scan "r"));
    ]

(* Projection onto a single no-null string column takes the dictionary
   dedup fast path (group by code, lineage built as a direct Or of Vars);
   the same column containing a Null falls back to the generic path.
   Both must match the row engine exactly, and the merged-group lineage
   shape is pinned explicitly so a fast-path regression cannot hide
   behind a symmetric change to the row engine. *)
let test_dedup_dict_fast_path () =
  let mk with_null =
    let r = R.create "t" (S.of_list [ ("g", V.TString); ("n", V.TInt) ]) in
    let db = Db.add_relation Db.empty r in
    let rows = [ ("a", 1); ("b", 2); ("a", 3); ("c", 4); ("b", 5); ("a", 6) ] in
    let db =
      List.fold_left
        (fun db (g, n) ->
          fst
            (Db.insert db "t"
               [ V.String g; V.Int n ]
               ~conf:(0.1 *. Float.of_int n)))
        db rows
    in
    if with_null then fst (Db.insert db "t" [ V.Null; V.Int 7 ] ~conf:0.7)
    else db
  in
  let plan = A.Project ([ "g" ], A.Scan "t") in
  List.iter
    (fun with_null ->
      let db = mk with_null in
      Alcotest.(check bool) "project vectorizes" true (Col.vectorizes db plan);
      Alcotest.(check bool)
        (if with_null then "null column: generic path identical"
         else "no-null column: dict fast path identical")
        true
        (result_ident (Eval.run db plan) (Col.run db plan)))
    [ false; true ];
  let db = mk false in
  let res = ok (Col.run db plan) in
  let tid i = Lineage.Tid.make "t" i in
  let expect =
    [
      F.Or [ F.Var (tid 0); F.Var (tid 2); F.Var (tid 5) ];
      F.Or [ F.Var (tid 1); F.Var (tid 4) ];
      F.Var (tid 3);
    ]
  in
  let got = List.map (fun r -> r.Eval.lineage) res.Eval.rows in
  Alcotest.(check int) "three groups" 3 (List.length got);
  Alcotest.(check bool) "grouped lineage pinned" true
    (List.for_all2 F.equal expect got)

let () =
  Alcotest.run "columnar"
    [
      ( "identity",
        [
          QCheck_alcotest.to_alcotest qcheck_pipeline_identity;
          QCheck_alcotest.to_alcotest qcheck_large_identity;
          QCheck_alcotest.to_alcotest qcheck_decline_on_huge_ints;
          QCheck_alcotest.to_alcotest qcheck_bulk_ingest_identity;
          QCheck_alcotest.to_alcotest qcheck_topk_equals_sort;
          QCheck_alcotest.to_alcotest qcheck_topk_ties_equal_sort;
        ] );
      ( "directed",
        [
          ("vectorizes + decline", `Quick, test_vectorizes);
          ("scan cache epochs", `Quick, test_scan_cache_epochs);
          ("bulk ingest epochs", `Quick, test_bulk_epochs);
          ("bulk ingest chunked", `Quick, test_bulk_large_chunked);
          ("dict dedup fast path", `Quick, test_dedup_dict_fast_path);
          ("comparisons around 2^53", `Quick, test_exact_edges);
          ("all-null string columns", `Quick, test_all_null_strings);
        ] );
    ]
