(* Vectorized plan evaluation: predicate compiler, scan-batch cache, and
   the hybrid tie with the row engine.  See the interface for the
   bit-identity contract. *)

module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Column kernels                                                      *)
(* ------------------------------------------------------------------ *)

(* Predicates compute three-valued bytes: 0 = false, 1 = true,
   2 = unknown.  A kernel bound to one batch, [k ps c out], writes the
   byte of physical row [ps.(i)] into [out.(i)] for every [i < c]
   ([c] is at most [Colbatch.vector]).  Each loop below reads its column
   buffers directly and turns a comparison into a byte by arithmetic and
   table lookups: no closure call, no [Colbatch.phys] and no branch on
   the data. *)

(* Stage 1 (compile): resolve columns against the child schema and prove
   no row can make the row engine fail — otherwise decline with [None].
   Stage 2 (bind): given a batch, close over its column buffers. *)
type pred = Colbatch.t -> Colbatch.kernel

let mtrue = '\001'
let munknown = '\002'
let b3 b = if b then mtrue else '\000'

(* Comparison tables: the byte of sign -1/0/1 at index sign + 1, then
   three unknown bytes, so a null row's index is shifted past them. *)
let sign_table : Expr.cmp -> string = function
  | Expr.Eq -> "\000\001\000\002\002\002"
  | Expr.Neq -> "\001\000\001\002\002\002"
  | Expr.Lt -> "\001\000\000\002\002\002"
  | Expr.Leq -> "\001\001\000\002\002\002"
  | Expr.Gt -> "\000\000\001\002\002\002"
  | Expr.Geq -> "\000\001\001\002\002\002"

(* sign(b, a) = -sign(a, b) *)
let mirror : Expr.cmp -> Expr.cmp = function
  | Expr.Lt -> Expr.Gt
  | Expr.Leq -> Expr.Geq
  | Expr.Gt -> Expr.Lt
  | Expr.Geq -> Expr.Leq
  | (Expr.Eq | Expr.Neq) as op -> op

(* [Int.compare x y + 1] and [Float.compare x y + 1] from comparison
   bits; the float form is the runtime's own (NaN equals NaN and is below
   every other float). *)
let[@inline] icmp1 (x : int) y = Bool.to_int (x > y) + Bool.to_int (x >= y)

let[@inline] fcmp1 (x : float) y =
  Bool.to_int (x > y)
  - Bool.to_int (x < y)
  + Bool.to_int (x = x)
  - Bool.to_int (y = y)
  + 1

let[@inline] byte s i = String.unsafe_get s i
(* a 0/1 byte: null flags and bool columns *)
let[@inline] flag bs p = Char.code (Bytes.unsafe_get bs p)

let int_lit (a : ints) nulls tbl k (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    Bytes.unsafe_set out i
      (byte tbl (icmp1 (A1.unsafe_get a p) k + (3 * flag nulls p)))
  done

let int_flit (a : ints) nulls tbl (f : float) (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let x = Float.of_int (A1.unsafe_get a p) in
    Bytes.unsafe_set out i (byte tbl (fcmp1 x f + (3 * flag nulls p)))
  done

let float_lit (a : floats) nulls tbl (f : float) (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    Bytes.unsafe_set out i
      (byte tbl (fcmp1 (A1.unsafe_get a p) f + (3 * flag nulls p)))
  done

(* False, true, then the unknown bytes of null rows: index
   [bit + 2 * null]. *)
let bool_bytes = "\000\001\002\002"

(* [tbl] is laid out like [bool_bytes]: bool literal comparisons, bare
   bool columns and IN lists over bools *)
let bool_table bs nulls tbl (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    Bytes.unsafe_set out i (byte tbl (flag bs p + (2 * flag nulls p)))
  done

(* [tbl] holds one byte per dictionary code, then unknown bytes: string
   comparisons with a literal, LIKE and IN lists over strings.  A null
   row's index is its code plus [ncodes]; its code is that of a real
   string or, when the dictionary is empty, 0. *)
let code_table (codes : int array) nulls ncodes tbl (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    Bytes.unsafe_set out i
      (byte tbl (Array.unsafe_get codes p + (ncodes * flag nulls p)))
  done

let is_null nulls flip (ps : int array) c out =
  for i = 0 to c - 1 do
    Bytes.unsafe_set out i
      (Char.unsafe_chr (flag nulls (Array.unsafe_get ps i) lxor flip))
  done

let int_int (a : ints) (b : ints) na nb tbl (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let s = icmp1 (A1.unsafe_get a p) (A1.unsafe_get b p) in
    Bytes.unsafe_set out i (byte tbl (s + (3 * (flag na p lor flag nb p))))
  done

let int_float (a : ints) (b : floats) na nb tbl (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let s = fcmp1 (Float.of_int (A1.unsafe_get a p)) (A1.unsafe_get b p) in
    Bytes.unsafe_set out i (byte tbl (s + (3 * (flag na p lor flag nb p))))
  done

let float_float (a : floats) (b : floats) na nb tbl (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let s = fcmp1 (A1.unsafe_get a p) (A1.unsafe_get b p) in
    Bytes.unsafe_set out i (byte tbl (s + (3 * (flag na p lor flag nb p))))
  done

let bool_bool ba bb na nb tbl (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let s = icmp1 (flag ba p) (flag bb p) in
    Bytes.unsafe_set out i (byte tbl (s + (3 * (flag na p lor flag nb p))))
  done

let str_str (ca : int array) (da : string array) (cb : int array)
    (db : string array) na nb tbl (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let x =
      String.compare
        (Array.unsafe_get da (Array.unsafe_get ca p))
        (Array.unsafe_get db (Array.unsafe_get cb p))
    in
    Bytes.unsafe_set out i
      (byte tbl (icmp1 x 0 + (3 * (flag na p lor flag nb p))))
  done

(* IN lists: [ks]/[fs] are the candidates as column values *)

let int_in (a : ints) nulls (ks : int array) (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let x = A1.unsafe_get a p in
    let hit = ref 0 in
    for j = 0 to Array.length ks - 1 do
      hit := !hit lor Bool.to_int (Array.unsafe_get ks j = x)
    done;
    Bytes.unsafe_set out i (byte bool_bytes (!hit + (2 * flag nulls p)))
  done

let float_in (a : floats) nulls (fs : float array) (ps : int array) c out =
  for i = 0 to c - 1 do
    let p = Array.unsafe_get ps i in
    let x = A1.unsafe_get a p in
    let hit = ref 0 in
    for j = 0 to Array.length fs - 1 do
      hit := !hit lor Bool.to_int (fcmp1 x (Array.unsafe_get fs j) = 1)
    done;
    Bytes.unsafe_set out i (byte bool_bytes (!hit + (2 * flag nulls p)))
  done

(* [out.(i) <- tbl.(3 * out.(i) + y.(i))]: SQL three-valued AND / OR *)
let combine_bytes tbl out y c =
  for i = 0 to c - 1 do
    let x = Char.code (Bytes.unsafe_get out i) in
    let y = Char.code (Bytes.unsafe_get y i) in
    Bytes.unsafe_set out i (byte tbl ((3 * x) + y))
  done

let and_table = "\000\000\000\000\001\002\000\002\002"
let or_table = "\000\001\002\001\001\001\002\001\002"
let not_table = "\001\000\002"

(* ---- binding helpers ---- *)

let icol b i =
  match b.Colbatch.cols.(i) with Colbatch.ICol a -> a | _ -> assert false

let fcol b i =
  match b.Colbatch.cols.(i) with
  | Colbatch.FCol { data; _ } -> data
  | _ -> assert false

let bcol b i =
  match b.Colbatch.cols.(i) with Colbatch.BCol bs -> bs | _ -> assert false

let scol b i =
  match b.Colbatch.cols.(i) with
  | Colbatch.SCol { codes; dict; _ } -> (codes, dict)
  | _ -> assert false

let nulls b i = b.Colbatch.nulls.(i)

(* One byte per dictionary code, from a per-string test. *)
let per_code idx test : pred =
 fun b ->
  let codes, dict = scol b idx in
  let ncodes = Array.length dict in
  let tbl =
    String.init
      (ncodes + max 1 ncodes)
      (fun d -> if d < ncodes then b3 (test dict.(d)) else munknown)
  in
  code_table codes (nulls b idx) ncodes tbl

let const byte : pred = fun _ _ c out -> Bytes.fill out 0 c byte

let exact k = k <= Colbatch.max_exact_int && k >= -Colbatch.max_exact_int
let cty schema idx = (Schema.column_at schema idx).cty

let resolve schema name =
  match Schema.find_index schema name with Ok i -> Some i | Error _ -> None

(* Comparison of column [idx] against a non-null literal. *)
let cmp_col_lit schema op idx (v : Value.t) : pred option =
  let tbl = sign_table op in
  match (cty schema idx, v) with
  | Value.TInt, Value.Int k ->
    Some (fun b -> int_lit (icol b idx) (nulls b idx) tbl k)
  | Value.TInt, Value.Float f ->
    Some (fun b -> int_flit (icol b idx) (nulls b idx) tbl f)
  | Value.TFloat, Value.Int k when exact k ->
    (* a real column's Int cells are exact, so [Int.compare] with [k]
       agrees with the float comparison; beyond 2^53 the literal is not
       a float, and the row engine answers *)
    Some (fun b -> float_lit (fcol b idx) (nulls b idx) tbl (Float.of_int k))
  | Value.TFloat, Value.Float f ->
    Some (fun b -> float_lit (fcol b idx) (nulls b idx) tbl f)
  | Value.TBool, Value.Bool bv ->
    let by_value =
      String.init 4 (fun x ->
          if x < 2 then tbl.[icmp1 x (Bool.to_int bv)] else munknown)
    in
    Some (fun b -> bool_table (bcol b idx) (nulls b idx) by_value)
  | Value.TString, Value.String s ->
    Some (per_code idx (fun ds -> tbl.[icmp1 (String.compare ds s) 0] = mtrue))
  | _ -> None (* cross-class comparison: the row engine errors per row *)

(* In the float domain every comparison below is exact: ints are guarded
   to 2^53 at batch build time. *)
let cmp_col_col schema op ia ib : pred option =
  let tbl = sign_table op in
  match (cty schema ia, cty schema ib) with
  | Value.TInt, Value.TInt ->
    Some
      (fun b -> int_int (icol b ia) (icol b ib) (nulls b ia) (nulls b ib) tbl)
  | Value.TInt, Value.TFloat ->
    Some
      (fun b ->
        int_float (icol b ia) (fcol b ib) (nulls b ia) (nulls b ib) tbl)
  | Value.TFloat, Value.TInt ->
    let tbl = sign_table (mirror op) in
    Some
      (fun b ->
        int_float (icol b ib) (fcol b ia) (nulls b ib) (nulls b ia) tbl)
  | Value.TFloat, Value.TFloat ->
    Some
      (fun b ->
        float_float (fcol b ia) (fcol b ib) (nulls b ia) (nulls b ib) tbl)
  | Value.TBool, Value.TBool ->
    Some
      (fun b ->
        bool_bool (bcol b ia) (bcol b ib) (nulls b ia) (nulls b ib) tbl)
  | Value.TString, Value.TString ->
    Some
      (fun b ->
        let ca, da = scol b ia and cb, db = scol b ib in
        (* an empty dictionary: every row of that column is null *)
        if Array.length da = 0 || Array.length db = 0 then const munknown b
        else str_str ca da cb db (nulls b ia) (nulls b ib) tbl)
  | _ -> None

(* IN-list membership per column class, replicating [Value.equal]:
   numeric Int/Float cross-matches, everything else same-constructor. *)
let in_col schema idx (vs : Value.t list) : pred option =
  let ints = List.filter_map (function Value.Int k -> Some k | _ -> None) vs in
  let floats =
    List.filter_map (function Value.Float f -> Some f | _ -> None) vs
  in
  match cty schema idx with
  | Value.TInt ->
    (* an exact int equals a float only if the float is that integer *)
    let integral f =
      let bound = Float.of_int Colbatch.max_exact_int in
      if Float.is_integer f && Float.abs f <= bound then Some (Float.to_int f)
      else None
    in
    let ks = Array.of_list (ints @ List.filter_map integral floats) in
    Some (fun b -> int_in (icol b idx) (nulls b idx) ks)
  | Value.TFloat when List.for_all exact ints ->
    let fs = Array.of_list (floats @ List.map Float.of_int ints) in
    Some (fun b -> float_in (fcol b idx) (nulls b idx) fs)
  | Value.TFloat -> None
  | Value.TBool ->
    let has bv = List.mem (Value.Bool bv) vs in
    let by_value =
      String.init 4 (fun x -> if x < 2 then b3 (has (x = 1)) else munknown)
    in
    Some (fun b -> bool_table (bcol b idx) (nulls b idx) by_value)
  | Value.TString ->
    let strs =
      List.filter_map (function Value.String s -> Some s | _ -> None) vs
    in
    Some (per_code idx (fun ds -> List.exists (String.equal ds) strs))

let combine tbl pa pb : pred =
 fun b ->
  let ka = pa b and kb = pb b in
  let y = Bytes.create Colbatch.vector in
  fun ps c out ->
    ka ps c out;
    kb ps c y;
    combine_bytes tbl out y c

let rec compile schema (e : Expr.t) : pred option =
  match e with
  | Expr.Lit (Value.Bool bv) -> Some (const (b3 bv))
  | Expr.Lit Value.Null -> Some (const munknown)
  | Expr.Lit _ -> None (* non-boolean literal: the row engine errors *)
  | Expr.Col name -> (
    match resolve schema name with
    | Some idx when cty schema idx = Value.TBool ->
      Some (fun b -> bool_table (bcol b idx) (nulls b idx) bool_bytes)
    | _ -> None)
  | Expr.Cmp (_, Expr.Lit Value.Null, _) | Expr.Cmp (_, _, Expr.Lit Value.Null)
    ->
    (* NULL on either side of a comparison is unknown before any type
       check, for every row *)
    Some (const munknown)
  | Expr.Cmp (op, Expr.Col name, Expr.Lit v) ->
    Option.bind (resolve schema name) (fun idx -> cmp_col_lit schema op idx v)
  | Expr.Cmp (op, Expr.Lit v, Expr.Col name) ->
    Option.bind (resolve schema name) (fun idx ->
        cmp_col_lit schema (mirror op) idx v)
  | Expr.Cmp (op, Expr.Col a, Expr.Col b) ->
    Option.bind (resolve schema a) (fun ia ->
        Option.bind (resolve schema b) (fun ib -> cmp_col_col schema op ia ib))
  | Expr.Cmp (op, Expr.Lit va, Expr.Lit vb) ->
    (* both sides constant and non-null here (null caught above); only
       same-class comparisons avoid the row engine's rank error *)
    let cls v =
      match Value.type_of v with
      | Some (Value.TInt | Value.TFloat) -> `Num
      | Some Value.TBool -> `Bool
      | Some Value.TString -> `Str
      | None -> `Null
    in
    if cls va = cls vb && cls va <> `Null then
      Some (const (sign_table op).[icmp1 (Value.compare va vb) 0])
    else None
  | Expr.Cmp _ -> None
  | Expr.And (a, b) ->
    Option.bind (compile schema a) (fun pa ->
        Option.map (combine and_table pa) (compile schema b))
  | Expr.Or (a, b) ->
    Option.bind (compile schema a) (fun pa ->
        Option.map (combine or_table pa) (compile schema b))
  | Expr.Not a ->
    Option.map
      (fun pa b ->
        let ka = pa b in
        fun ps c out ->
          ka ps c out;
          for i = 0 to c - 1 do
            Bytes.unsafe_set out i
              (String.unsafe_get not_table (Char.code (Bytes.unsafe_get out i)))
          done)
      (compile schema a)
  | Expr.Between (a, lo, hi) ->
    (* same expansion as the row engine *)
    compile schema
      (Expr.And (Expr.Cmp (Expr.Geq, a, lo), Expr.Cmp (Expr.Leq, a, hi)))
  | Expr.IsNull (Expr.Col name) ->
    Option.map (fun idx b -> is_null (nulls b idx) 0) (resolve schema name)
  | Expr.IsNotNull (Expr.Col name) ->
    Option.map (fun idx b -> is_null (nulls b idx) 1) (resolve schema name)
  | Expr.IsNull (Expr.Lit v) -> Some (const (b3 (v = Value.Null)))
  | Expr.IsNotNull (Expr.Lit v) -> Some (const (b3 (v <> Value.Null)))
  | Expr.IsNull _ | Expr.IsNotNull _ -> None
  | Expr.Like (Expr.Col name, pattern) -> (
    match resolve schema name with
    | Some idx when cty schema idx = Value.TString ->
      (* one LIKE match per distinct string *)
      Some (per_code idx (fun s -> Expr.like_match ~pattern s))
    | _ -> None)
  | Expr.Like _ -> None
  | Expr.In (Expr.Col name, vs) ->
    Option.bind (resolve schema name) (fun idx -> in_col schema idx vs)
  | Expr.In (Expr.Lit v, vs) ->
    Some
      (const
         (if v = Value.Null then munknown
          else b3 (List.exists (Value.equal v) vs)))
  | Expr.In _ -> None
  | Expr.Arith _ | Expr.Neg _ -> None

(* ------------------------------------------------------------------ *)
(* Conjunct-at-a-time selection                                        *)
(* ------------------------------------------------------------------ *)

(* Top-level conjuncts, in the order the predicate states them. *)
let rec conjuncts (e : Expr.t) =
  match e with
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | Expr.Between (a, lo, hi) ->
    [ Expr.Cmp (Expr.Geq, a, lo); Expr.Cmp (Expr.Leq, a, hi) ]
  | e -> [ e ]

let all_some l =
  List.fold_right
    (fun x acc -> Option.bind x (fun x -> Option.map (List.cons x) acc))
    l (Some [])

(* Each conjunct's kernel reads only the rows every earlier conjunct
   kept, so a row is dropped by the first conjunct that is not true for
   it: the rows the row engine's three-valued AND keeps, which is true
   only when every operand is. *)
let select b (preds : pred list) =
  Colbatch.filter b (List.map (fun pred -> pred b) preds)

(* ------------------------------------------------------------------ *)
(* Scan-batch cache                                                    *)
(* ------------------------------------------------------------------ *)

(* Keyed by (relation name, structural epoch): the epoch moves on every
   row-set change, and stamps are process-globally unique, so a key can
   never alias a different row set.  A batch holds no
   confidences, so confidence writes leave every entry valid.  [None]:
   the relation declined. *)
let cache : (string * int, Colbatch.t option) Hashtbl.t =
  Hashtbl.create 16

let cache_mutex = Mutex.create ()
let cache_capacity = 64

let scan_batch db name =
  match Database.relation db name with
  | None -> None
  | Some r ->
    let key = (Relation.name r, Database.structural_epoch db) in
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt cache key with
        | Some batch -> batch
        | None ->
          if Hashtbl.length cache >= cache_capacity then Hashtbl.reset cache;
          let batch = Colbatch.of_relation r in
          Hashtbl.replace cache key batch;
          batch)

(* ------------------------------------------------------------------ *)
(* Plan compiler and hybrid evaluation                                 *)
(* ------------------------------------------------------------------ *)

let rec compile_plan db (plan : Algebra.t) : (unit -> Colbatch.t) option =
  match plan with
  | Algebra.Scan name -> Option.map (fun b () -> b) (scan_batch db name)
  | Algebra.Select (pred, p) -> (
    match compile_plan db p with
    | None -> None
    | Some child -> (
      match Algebra.output_schema db p with
      | Error _ -> None
      | Ok schema ->
        (* a predicate that compiles whole cannot raise on any row, so
           its conjuncts may run one after another *)
        Option.map
          (fun preds () -> select (child ()) preds)
          (all_some (List.map (compile schema) (conjuncts pred)))))
  | Algebra.Project (names, p) -> (
    match compile_plan db p with
    | None -> None
    | Some child -> (
      match Algebra.output_schema db p with
      | Error _ -> None
      | Ok schema -> (
        match Schema.project schema names with
        | Error _ -> None
        | Ok (schema', idx) ->
          Some
            (fun () ->
              Colbatch.dedup (Colbatch.project (child ()) schema' idx)))))
  | Algebra.Distinct p ->
    Option.map (fun child () -> Colbatch.dedup (child ())) (compile_plan db p)
  | Algebra.Limit (k, Algebra.Order_by (keys, p)) when k >= 0 -> (
    match compile_plan db p with
    | None -> None
    | Some child -> (
      match Algebra.output_schema db p with
      | Error _ -> None
      | Ok schema ->
        (* an unknown key column is the row engine's error to report *)
        Option.map
          (fun keys () -> Colbatch.top_k (child ()) keys k)
          (all_some
             (List.map
                (fun (c, o) ->
                  Option.map
                    (fun i -> (i, o = Algebra.Desc))
                    (resolve schema c))
                keys))))
  | Algebra.Limit (n, p) when n >= 0 ->
    Option.map (fun child () -> Colbatch.limit (child ()) n) (compile_plan db p)
  | Algebra.Rename (_, p) -> (
    match compile_plan db p with
    | None -> None
    | Some child -> (
      match Algebra.output_schema db plan with
      | Error _ | (exception Invalid_argument _) -> None
      | Ok schema -> Some (fun () -> Colbatch.with_schema (child ()) schema)))
  | _ -> None

let vectorizes db plan = Option.is_some (compile_plan db plan)

let run_rows db plan =
  let rec hybrid db plan =
    match compile_plan db plan with
    | Some exec -> Ok (Colbatch.to_rows (exec ()))
    | None -> Eval.run_rows_via hybrid db plan
  in
  hybrid db plan

let run db plan =
  let* schema = Algebra.output_schema db plan in
  let* rows = run_rows db plan in
  Ok { Eval.schema; rows }
