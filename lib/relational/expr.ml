type cmp = Eq | Neq | Lt | Leq | Gt | Geq

type arith = Add | Sub | Mul | Div

type t =
  | Col of string
  | Lit of Value.t
  | Cmp of cmp * t * t
  | Arith of arith * t * t
  | Neg of t
  | And of t * t
  | Or of t * t
  | Not of t
  | IsNull of t
  | IsNotNull of t
  | Like of t * string
  | In of t * Value.t list
  | Between of t * t * t

let col c = Col c
let int i = Lit (Value.Int i)
let float f = Lit (Value.Float f)
let str s = Lit (Value.String s)
let bool b = Lit (Value.Bool b)
let null = Lit Value.Null

let ( =% ) a b = Cmp (Eq, a, b)
let ( <>% ) a b = Cmp (Neq, a, b)
let ( <% ) a b = Cmp (Lt, a, b)
let ( <=% ) a b = Cmp (Leq, a, b)
let ( >% ) a b = Cmp (Gt, a, b)
let ( >=% ) a b = Cmp (Geq, a, b)
let ( &&% ) a b = And (a, b)
let ( ||% ) a b = Or (a, b)

let columns e =
  let acc = ref [] in
  let add c = if not (List.mem c !acc) then acc := c :: !acc in
  let rec go = function
    | Col c -> add c
    | Lit _ -> ()
    | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) ->
      go a;
      go b
    | Neg a | Not a | IsNull a | IsNotNull a | Like (a, _) | In (a, _) -> go a
    | Between (a, lo, hi) ->
      go a;
      go lo;
      go hi
  in
  go e;
  List.rev !acc

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized recursion over (pattern index, string index) *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi = np then si = ns
        else
          match pattern.[pi] with
          | '%' -> (si <= ns && go (pi + 1) si) || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

let ( let* ) = Result.bind

let numeric what v =
  match v with
  | Value.Int i -> Ok (float_of_int i)
  | Value.Float f -> Ok f
  | Value.Null -> Ok nan (* handled by callers via is_null checks *)
  | v -> Error (Printf.sprintf "%s: expected number, got %s" what (Value.to_string v))

let is_null = function Value.Null -> true | _ -> false

(* Keep integer arithmetic exact when both operands are Int (except Div,
   which is SQL-real division here). *)
let eval_arith op a b =
  if is_null a || is_null b then Ok Value.Null
  else
    match (op, a, b) with
    | Add, Value.Int x, Value.Int y -> Ok (Value.Int (x + y))
    | Sub, Value.Int x, Value.Int y -> Ok (Value.Int (x - y))
    | Mul, Value.Int x, Value.Int y -> Ok (Value.Int (x * y))
    | _ ->
      let* x = numeric "arith" a in
      let* y = numeric "arith" b in
      (match op with
      | Add -> Ok (Value.Float (x +. y))
      | Sub -> Ok (Value.Float (x -. y))
      | Mul -> Ok (Value.Float (x *. y))
      | Div -> if y = 0.0 then Ok Value.Null else Ok (Value.Float (x /. y)))

let cmp_to_bool3 op (flag, c) =
  match flag with
  | Value.Unknown3 -> Value.Unknown3
  | _ ->
    let b =
      match op with
      | Eq -> c = 0
      | Neq -> c <> 0
      | Lt -> c < 0
      | Leq -> c <= 0
      | Gt -> c > 0
      | Geq -> c >= 0
    in
    Value.bool3_of_bool b

let value_of_bool3 = function
  | Value.True3 -> Value.Bool true
  | Value.False3 -> Value.Bool false
  | Value.Unknown3 -> Value.Null

let bool3_of_value what = function
  | Value.Bool true -> Ok Value.True3
  | Value.Bool false -> Ok Value.False3
  | Value.Null -> Ok Value.Unknown3
  | v ->
    Error (Printf.sprintf "%s: expected boolean, got %s" what (Value.to_string v))

(* Column names are resolved once, when the expression is bound to a
   schema; a name that does not resolve fails on the first row
   evaluated, with the same message, and never on an empty input. *)
let rec bind schema e : Tuple.t -> (Value.t, string) result =
  match e with
  | Col name -> (
    match Schema.find_index schema name with
    | Ok i -> fun tup -> Ok (Tuple.get tup i)
    | Error err ->
      let err =
        Error
          (match err with
          | Schema.Not_found_col n -> Printf.sprintf "unknown column %S" n
          | Schema.Ambiguous (n, cands) ->
            Printf.sprintf "ambiguous column %S (matches %s)" n
              (String.concat ", " cands))
      in
      fun _ -> err)
  | Lit v ->
    let v = Ok v in
    fun _ -> v
  | Cmp (op, a, b) ->
    let fa = bind schema a and fb = bind schema b in
    fun tup ->
      let* va = fa tup in
      let* vb = fb tup in
      if is_null va || is_null vb then Ok Value.Null
      else (
        try Ok (value_of_bool3 (cmp_to_bool3 op (Value.cmp_sql va vb)))
        with Invalid_argument msg -> Error msg)
  | Arith (op, a, b) ->
    let fa = bind schema a and fb = bind schema b in
    fun tup ->
      let* va = fa tup in
      let* vb = fb tup in
      eval_arith op va vb
  | Neg a -> (
    let fa = bind schema a in
    fun tup ->
      let* va = fa tup in
      match va with
      | Value.Null -> Ok Value.Null
      | Value.Int i -> Ok (Value.Int (-i))
      | Value.Float f -> Ok (Value.Float (-.f))
      | v ->
        Error
          (Printf.sprintf "negation: expected number, got %s" (Value.to_string v)))
  | And (a, b) ->
    let fa = bind_bool3 schema a and fb = bind_bool3 schema b in
    fun tup ->
      let* ba = fa tup in
      let* bb = fb tup in
      Ok (value_of_bool3 (Value.and3 ba bb))
  | Or (a, b) ->
    let fa = bind_bool3 schema a and fb = bind_bool3 schema b in
    fun tup ->
      let* ba = fa tup in
      let* bb = fb tup in
      Ok (value_of_bool3 (Value.or3 ba bb))
  | Not a ->
    let fa = bind_bool3 schema a in
    fun tup ->
      let* ba = fa tup in
      Ok (value_of_bool3 (Value.not3 ba))
  | IsNull a ->
    let fa = bind schema a in
    fun tup ->
      let* va = fa tup in
      Ok (Value.Bool (is_null va))
  | IsNotNull a ->
    let fa = bind schema a in
    fun tup ->
      let* va = fa tup in
      Ok (Value.Bool (not (is_null va)))
  | Like (a, pattern) -> (
    let fa = bind schema a in
    fun tup ->
      let* va = fa tup in
      match va with
      | Value.Null -> Ok Value.Null
      | Value.String s -> Ok (Value.Bool (like_match ~pattern s))
      | v ->
        Error (Printf.sprintf "LIKE: expected string, got %s" (Value.to_string v)))
  | In (a, vs) ->
    let fa = bind schema a in
    fun tup ->
      let* va = fa tup in
      if is_null va then Ok Value.Null
      else Ok (Value.Bool (List.exists (Value.equal va) vs))
  | Between (a, lo, hi) -> bind schema (And (Cmp (Geq, a, lo), Cmp (Leq, a, hi)))

and bind_bool3 schema e =
  let f = bind schema e in
  fun tup ->
    let* v = f tup in
    bool3_of_value "predicate" v

let bind_pred schema e =
  let f = bind_bool3 schema e in
  fun tup ->
    let* b3 = f tup in
    Ok (Value.is_true b3)

let eval schema tup e = bind schema e tup
let eval_pred schema tup e = bind_pred schema e tup

let cmp_str = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="

let arith_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec to_string = function
  | Col c -> c
  | Lit v -> Value.to_sql v
  | Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_string a) (cmp_str op) (to_string b)
  | Arith (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_string a) (arith_str op) (to_string b)
  | Neg a -> Printf.sprintf "(-%s)" (to_string a)
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (to_string a) (to_string b)
  | Not a -> Printf.sprintf "(NOT %s)" (to_string a)
  | IsNull a -> Printf.sprintf "(%s IS NULL)" (to_string a)
  | IsNotNull a -> Printf.sprintf "(%s IS NOT NULL)" (to_string a)
  | Like (a, p) -> Printf.sprintf "(%s LIKE %s)" (to_string a) (Value.to_sql (Value.String p))
  | In (a, vs) ->
    Printf.sprintf "(%s IN (%s))" (to_string a)
      (String.concat ", " (List.map Value.to_sql vs))
  | Between (a, lo, hi) ->
    Printf.sprintf "(%s BETWEEN %s AND %s)" (to_string a) (to_string lo)
      (to_string hi)

let pp ppf e = Format.pp_print_string ppf (to_string e)
