module Formula = Lineage.Formula

type row = { tuple : Tuple.t; lineage : Formula.t }

type annotated = { schema : Schema.t; rows : row list }

module Tuple_tbl = Hashtbl.Make (Tuple)

let ( let* ) = Result.bind

(* Merge rows with equal tuples by OR-ing their lineage, preserving the
   first-occurrence order.  This implements set semantics. *)
(* Each group collects its members' lineages (newest first) and merges
   them with a single [Formula.disj] at the end — identical to folding
   [disj] pairwise per row ([disj] splices nested [Or]s and [dedup]
   keeps first occurrences either way), but linear in the group size
   instead of quadratic.  A single-member group keeps its raw lineage,
   exactly as the fold did. *)
let dedup_rows rows =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = r.tuple in
      match Hashtbl.find_opt table (Tuple.hash key) with
      | None ->
        Hashtbl.add table (Tuple.hash key) [ (key, ref [ r.lineage ]) ];
        order := (key, Tuple.hash key) :: !order
      | Some cells -> (
        match List.find_opt (fun (t, _) -> Tuple.equal t key) cells with
        | Some (_, ls) -> ls := r.lineage :: !ls
        | None ->
          Hashtbl.replace table (Tuple.hash key)
            ((key, ref [ r.lineage ]) :: cells);
          order := (key, Tuple.hash key) :: !order))
    rows;
  List.rev_map
    (fun (key, h) ->
      let cells = Hashtbl.find table h in
      let _, ls = List.find (fun (t, _) -> Tuple.equal t key) cells in
      let lineage =
        match !ls with [ l ] -> l | ls -> Formula.disj (List.rev ls)
      in
      { tuple = key; lineage })
    !order

(* Find the merged lineage of [tup] among [rows], if present. *)
let find_lineage rows tup =
  List.fold_left
    (fun acc r ->
      if Tuple.equal r.tuple tup then
        match acc with
        | None -> Some r.lineage
        | Some l -> Some (Formula.disj [ l; r.lineage ])
      else acc)
    None rows

let numeric_of_value = function
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | _ -> None

let compute_agg db schema (a : Algebra.agg) members =
  (* SQL semantics: NULLs are ignored by aggregates; COUNT star counts rows.
     Expected aggregates weight members by the probability of their
     lineage; a member the ladder cannot price is an error, never a NaN. *)
  let p = Database.confidence_fn db in
  let expected weight =
    List.fold_left
      (fun acc r ->
        let* total = acc in
        match weight r with
        | Error msg -> Error msg
        | Ok None -> Ok total
        | Ok (Some w) -> (
          match Lineage.Approx.confidence p r.lineage with
          | Lineage.Approx.Failed why -> Error ("expected aggregate: " ^ why)
          | est -> Ok (total +. (Lineage.Approx.point est *. w))))
      (Ok 0.0) members
    |> Result.map (fun total -> Value.Float total)
  in
  match a.Algebra.fn with
  | Algebra.CountStar -> Ok (Value.Int (List.length members))
  | Algebra.Expected_count -> expected (fun _ -> Ok (Some 1.0))
  | Algebra.Expected_sum -> (
    let arg = Option.get a.Algebra.arg in
    match Schema.find_index schema arg with
    | Error _ -> Error (Printf.sprintf "aggregate: unknown column %S" arg)
    | Ok i ->
      expected (fun r ->
          match Tuple.get r.tuple i with
          | Value.Null -> Ok None
          | Value.Int n -> Ok (Some (float_of_int n))
          | Value.Float f -> Ok (Some f)
          | v ->
            Error
              (Printf.sprintf "ESUM over non-numeric value %s"
                 (Value.to_string v))))
  | fn -> (
    let arg = Option.get a.Algebra.arg in
    match Schema.find_index schema arg with
    | Error _ -> Error (Printf.sprintf "aggregate: unknown column %S" arg)
    | Ok i ->
      let vals =
        List.filter_map
          (fun r ->
            match Tuple.get r.tuple i with Value.Null -> None | v -> Some v)
          members
      in
      (match fn with
      | Algebra.Count -> Ok (Value.Int (List.length vals))
      | Algebra.Min ->
        Ok
          (match vals with
          | [] -> Value.Null
          | v :: rest ->
            List.fold_left (fun m x -> if Value.compare x m < 0 then x else m) v rest)
      | Algebra.Max ->
        Ok
          (match vals with
          | [] -> Value.Null
          | v :: rest ->
            List.fold_left (fun m x -> if Value.compare x m > 0 then x else m) v rest)
      | Algebra.Sum | Algebra.Avg -> (
        match vals with
        | [] -> Ok Value.Null
        | _ -> (
          let all_int = List.for_all (function Value.Int _ -> true | _ -> false) vals in
          let nums = List.filter_map numeric_of_value vals in
          if List.length nums <> List.length vals then
            Error (Printf.sprintf "%s over non-numeric values" (Algebra.agg_fun_name fn))
          else
            let total = List.fold_left ( +. ) 0.0 nums in
            match fn with
            | Algebra.Sum ->
              if all_int then Ok (Value.Int (int_of_float total))
              else Ok (Value.Float total)
            | Algebra.Avg -> Ok (Value.Float (total /. float_of_int (List.length nums)))
            | _ -> assert false))
      | Algebra.CountStar | Algebra.Expected_count | Algebra.Expected_sum ->
        assert false))

(* The recursion over the plan is parametrized: [run_rows_via recurse]
   evaluates one operator, delegating every child evaluation to
   [recurse].  Tying the knot with [run_rows] itself gives the plain row
   engine; a hybrid evaluator (see {!Col_eval}) ties it with a function
   that intercepts vectorizable subtrees and falls back here for the
   rest, so both engines share one set of operator semantics. *)
let rec run db plan =
  let* schema = Algebra.output_schema db plan in
  let* rows = run_rows db plan in
  Ok { schema; rows }

and run_rows db plan = run_rows_via run_rows db plan

and run_rows_via recurse db plan =
  let run_rows = recurse in
  match plan with
  | Algebra.Scan name ->
    let r = Database.relation_exn db name in
    Ok
      (List.map
         (fun (tid, tup) -> { tuple = tup; lineage = Formula.var tid })
         (Relation.tuples r))
  | Algebra.Select (pred, p) ->
    let* schema = Algebra.output_schema db p in
    let* rows = run_rows db p in
    let test = Expr.bind_pred schema pred in
    List.fold_left
      (fun acc row ->
        let* kept = acc in
        match test row.tuple with
        | Ok b -> Ok (if b then row :: kept else kept)
        | Error msg -> Error ("predicate error: " ^ msg))
      (Ok []) rows
    |> Result.map List.rev
  | Algebra.Select_sub (cond, p) ->
    let* schema = Algebra.output_schema db p in
    let* rows = run_rows db p in
    (* each (uncorrelated) subquery is evaluated once and cached by the
       physical identity of its plan *)
    let cache : (Algebra.t * row list) list ref = ref [] in
    let sub_result sub =
      match List.find_opt (fun (p, _) -> p == sub) !cache with
      | Some (_, res) -> Ok res
      | None ->
        let* res = recurse db sub in
        cache := (sub, res) :: !cache;
        Ok res
    in
    (* membership formula of one outer row under [cond], with [cond]'s
       expressions bound to [schema] once *)
    let rec bind_cond cond : row -> (Formula.t, string) result =
      match cond with
      | Algebra.Pred e ->
        let test = Expr.bind_pred schema e in
        fun row ->
          let* b = test row.tuple in
          Ok (if b then Formula.tru else Formula.fls)
      | Algebra.In_sub (e, sub) -> (
        let value = Expr.bind schema e in
        fun row ->
          let* v =
            match value row.tuple with
            | Ok v -> Ok v
            | Error msg -> Error ("IN expression error: " ^ msg)
          in
          match v with
          | Value.Null -> Ok Formula.fls (* NULL never matches *)
          | v ->
            let* res = sub_result sub in
            let matches =
              List.filter (fun r -> Value.equal (Tuple.get r.tuple 0) v) res
            in
            Ok (Formula.disj (List.map (fun r -> r.lineage) matches)))
      | Algebra.Exists_sub sub ->
        fun _ ->
          let* res = sub_result sub in
          Ok (Formula.disj (List.map (fun r -> r.lineage) res))
      | Algebra.Not_c c ->
        let fc = bind_cond c in
        fun row ->
          let* f = fc row in
          Ok (Formula.neg f)
      | Algebra.And_c (a, b) ->
        let fa = bind_cond a and fb = bind_cond b in
        fun row ->
          let* fa = fa row in
          let* fb = fb row in
          Ok (Formula.conj [ fa; fb ])
      | Algebra.Or_c (a, b) ->
        let fa = bind_cond a and fb = bind_cond b in
        fun row ->
          let* fa = fa row in
          let* fb = fb row in
          Ok (Formula.disj [ fa; fb ])
    in
    let formula_of = bind_cond cond in
    List.fold_left
      (fun acc row ->
        let* kept = acc in
        let* f = formula_of row in
        match Formula.simplify f with
        | Formula.False -> Ok kept
        | f -> Ok ({ row with lineage = Formula.conj [ row.lineage; f ] } :: kept))
      (Ok []) rows
    |> Result.map List.rev
  | Algebra.Project (cols, p) ->
    let* schema = Algebra.output_schema db p in
    let* rows = run_rows db p in
    let* _, idx =
      match Schema.project schema cols with
      | Ok x -> Ok x
      | Error (Schema.Not_found_col n) ->
        Error (Printf.sprintf "unknown column %S in projection" n)
      | Error (Schema.Ambiguous (n, cands)) ->
        Error
          (Printf.sprintf "ambiguous column %S (matches %s)" n
             (String.concat ", " cands))
    in
    Ok
      (dedup_rows
         (List.map
            (fun r -> { r with tuple = Tuple.project r.tuple idx })
            rows))
  | Algebra.Join (pred, a, b) ->
    let* sa = Algebra.output_schema db a in
    let* sb = Algebra.output_schema db b in
    let* s =
      match Schema.concat sa sb with
      | s -> Ok s
      | exception Invalid_argument msg -> Error msg
    in
    let* ra = run_rows db a in
    let* rb = run_rows db b in
    (* hash-join fast path for a single-equality predicate between the two
       sides; everything else falls back to the nested loop.  NULL keys
       never match (SQL equality). *)
    let equi_key =
      match pred with
      | Some (Expr.Cmp (Expr.Eq, Expr.Col x, Expr.Col y)) -> (
        match (Schema.find_index sa x, Schema.find_index sb y) with
        | Ok ia, Ok ib -> Some (ia, ib)
        | _ -> (
          match (Schema.find_index sa y, Schema.find_index sb x) with
          | Ok ia, Ok ib -> Some (ia, ib)
          | _ -> None))
      | _ -> None
    in
    (match equi_key with
    | Some (ia, ib) ->
      (* build on the right side, probe with the left to preserve the
         nested-loop output order (left-major).  The build walks the
         right side backwards and conses, so every bucket ends up in
         right-side order *)
      let table : (int, (Value.t * row) list) Hashtbl.t =
        Hashtbl.create (List.length rb)
      in
      List.iter
        (fun rowb ->
          let key = Tuple.get rowb.tuple ib in
          if not (Value.equal key Value.Null) then begin
            let h = Value.hash key in
            let existing = Option.value ~default:[] (Hashtbl.find_opt table h) in
            Hashtbl.replace table h ((key, rowb) :: existing)
          end)
        (List.rev rb);
      let out = ref [] in
      List.iter
        (fun rowa ->
          let key = Tuple.get rowa.tuple ia in
          if not (Value.equal key Value.Null) then
            List.iter
              (fun (k, rowb) ->
                if Value.equal k key then
                  out :=
                    {
                      tuple = Tuple.append rowa.tuple rowb.tuple;
                      lineage = Formula.conj [ rowa.lineage; rowb.lineage ];
                    }
                    :: !out)
              (Option.value ~default:[] (Hashtbl.find_opt table (Value.hash key))))
        ra;
      Ok (List.rev !out)
    | None ->
      let test = Option.map (Expr.bind_pred s) pred in
      let out = ref [] in
      let err = ref None in
      List.iter
        (fun rowa ->
          List.iter
            (fun rowb ->
              if !err = None then begin
                let tuple = Tuple.append rowa.tuple rowb.tuple in
                let lineage = Formula.conj [ rowa.lineage; rowb.lineage ] in
                match test with
                | None -> out := { tuple; lineage } :: !out
                | Some test -> (
                  match test tuple with
                  | Ok true -> out := { tuple; lineage } :: !out
                  | Ok false -> ()
                  | Error msg -> err := Some ("join predicate error: " ^ msg))
              end)
            rb)
        ra;
      (match !err with Some msg -> Error msg | None -> Ok (List.rev !out)))
  | Algebra.Left_join (pred, a, b) ->
    let* sa = Algebra.output_schema db a in
    let* sb = Algebra.output_schema db b in
    let* s =
      match Schema.concat sa sb with
      | s -> Ok s
      | exception Invalid_argument msg -> Error msg
    in
    let* ra = run_rows db a in
    let* rb = run_rows db b in
    let nulls = Tuple.make (Array.make (Schema.arity sb) Value.Null) in
    let test = Expr.bind_pred s pred in
    let out = ref [] in
    let err = ref None in
    List.iter
      (fun rowa ->
        if !err = None then begin
          (* collect the matching right rows for this left row *)
          let matches = ref [] in
          List.iter
            (fun rowb ->
              if !err = None then begin
                let tuple = Tuple.append rowa.tuple rowb.tuple in
                match test tuple with
                | Ok true -> matches := rowb :: !matches
                | Ok false -> ()
                | Error msg -> err := Some ("join predicate error: " ^ msg)
              end)
            rb;
          if !err = None then
            match List.rev !matches with
            | [] ->
              (* no matching right tuples exist at all: the padded row is
                 present exactly when the left row is *)
              out :=
                { tuple = Tuple.append rowa.tuple nulls; lineage = rowa.lineage }
                :: !out
            | ms ->
              List.iter
                (fun rowb ->
                  out :=
                    {
                      tuple = Tuple.append rowa.tuple rowb.tuple;
                      lineage = Formula.conj [ rowa.lineage; rowb.lineage ];
                    }
                    :: !out)
                ms;
              (* the padded row survives in worlds where the left row is
                 present but every matching right row is absent *)
              let none_match =
                Formula.neg (Formula.disj (List.map (fun r -> r.lineage) ms))
              in
              out :=
                {
                  tuple = Tuple.append rowa.tuple nulls;
                  lineage = Formula.conj [ rowa.lineage; none_match ];
                }
                :: !out
        end)
      ra;
    (match !err with Some msg -> Error msg | None -> Ok (List.rev !out))
  | Algebra.Union (a, b) ->
    let* ra = run_rows db a in
    let* rb = run_rows db b in
    Ok (dedup_rows (ra @ rb))
  | Algebra.Intersect (a, b) ->
    let* ra = run_rows db a in
    let* rb = run_rows db b in
    let ra = dedup_rows ra and rb = dedup_rows rb in
    Ok
      (List.filter_map
         (fun r ->
           match find_lineage rb r.tuple with
           | Some lb ->
             Some { r with lineage = Formula.conj [ r.lineage; lb ] }
           | None -> None)
         ra)
  | Algebra.Diff (a, b) ->
    let* ra = run_rows db a in
    let* rb = run_rows db b in
    let ra = dedup_rows ra and rb = dedup_rows rb in
    Ok
      (List.map
         (fun r ->
           match find_lineage rb r.tuple with
           | Some lb ->
             { r with lineage = Formula.conj [ r.lineage; Formula.neg lb ] }
           | None -> r)
         ra)
  | Algebra.Rename (_, p) -> run_rows db p
  | Algebra.Distinct p ->
    let* rows = run_rows db p in
    Ok (dedup_rows rows)
  | Algebra.Order_by (keys, p) ->
    let* schema = Algebra.output_schema db p in
    let* rows = run_rows db p in
    let* key_idx =
      List.fold_left
        (fun acc (c, o) ->
          let* ks = acc in
          match Schema.find_index schema c with
          | Ok i -> Ok ((i, o) :: ks)
          | Error _ -> Error (Printf.sprintf "ORDER BY: unknown column %S" c))
        (Ok []) keys
      |> Result.map List.rev
    in
    let cmp r1 r2 =
      let rec go = function
        | [] -> 0
        | (i, o) :: rest ->
          let c = Value.compare (Tuple.get r1.tuple i) (Tuple.get r2.tuple i) in
          let c = match o with Algebra.Asc -> c | Algebra.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go key_idx
    in
    Ok (List.stable_sort cmp rows)
  | Algebra.Limit (n, p) ->
    let* rows = run_rows db p in
    Ok (List.filteri (fun i _ -> i < n) rows)
  | Algebra.Group_by (keys, aggs, p) ->
    let* schema = Algebra.output_schema db p in
    let* rows = run_rows db p in
    let* key_idx =
      List.fold_left
        (fun acc c ->
          let* ks = acc in
          match Schema.find_index schema c with
          | Ok i -> Ok (i :: ks)
          | Error _ -> Error (Printf.sprintf "GROUP BY: unknown column %S" c))
        (Ok []) keys
      |> Result.map (fun l -> Array.of_list (List.rev l))
    in
    (* group rows by key tuple: groups in first-appearance order,
       members in row order *)
    let groups = Tuple_tbl.create 64 in
    let order = ref [] in
    List.iter
      (fun r ->
        let key = Tuple.project r.tuple key_idx in
        match Tuple_tbl.find_opt groups key with
        | Some members -> members := r :: !members
        | None ->
          let members = ref [ r ] in
          Tuple_tbl.add groups key members;
          order := (key, members) :: !order)
      rows;
    List.fold_left
      (fun acc (key, members) ->
        let* out = acc in
        let members = List.rev !members in
        let* agg_vals =
          List.fold_left
            (fun acc a ->
              let* vs = acc in
              let* v = compute_agg db schema a members in
              Ok (v :: vs))
            (Ok []) aggs
          |> Result.map List.rev
        in
        let tuple = Tuple.append key (Tuple.of_list agg_vals) in
        let lineage = Formula.disj (List.map (fun r -> r.lineage) members) in
        Ok ({ tuple; lineage } :: out))
      (Ok []) (List.rev !order)
    |> Result.map List.rev

let run_exn db plan =
  match run db plan with Ok r -> r | Error msg -> failwith ("Eval.run: " ^ msg)

let to_string ?max_rows res =
  let headers = Schema.column_names res.schema @ [ "lineage" ] in
  let all = res.rows in
  let shown, elided =
    match max_rows with
    | Some n when List.length all > n ->
      (List.filteri (fun i _ -> i < n) all, List.length all - n)
    | _ -> (all, 0)
  in
  let body =
    List.map
      (fun r ->
        List.map Value.to_string (Array.to_list (Tuple.values r.tuple))
        @ [ Formula.to_string r.lineage ])
      shown
  in
  let rows = headers :: body in
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    rows;
  let line =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let render cells =
    "|"
    ^ String.concat "|"
        (List.mapi (fun i cell -> Printf.sprintf " %-*s " widths.(i) cell) cells)
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line ^ "\n" ^ render headers ^ "\n" ^ line ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render r ^ "\n")) body;
  Buffer.add_string buf line;
  if elided > 0 then
    Buffer.add_string buf (Printf.sprintf "\n... %d more row(s)" elided);
  Buffer.contents buf
