type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type ty = TBool | TInt | TFloat | TString

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | String _ -> Some TString

let ty_name = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "real"
  | TString -> "string"

let ty_of_string s =
  match String.lowercase_ascii s with
  | "bool" | "boolean" -> Some TBool
  | "int" | "integer" -> Some TInt
  | "real" | "float" | "double" -> Some TFloat
  | "string" | "text" | "varchar" -> Some TString
  | _ -> None

let conforms v ty =
  match (v, ty) with
  | Null, _ -> true
  | Bool _, TBool -> true
  | Int _, TInt | Int _, TFloat -> true
  | Float _, TFloat -> true
  | String _, TString -> true
  | _ -> false

let coerce v ty =
  match (v, ty) with
  | Null, _ -> Some Null
  | Bool _, TBool | Int _, TInt | Float _, TFloat | String _, TString ->
    Some v
  | Int i, TFloat -> Some (Float (float_of_int i))
  | _ -> None

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash (Float.of_int i)
  | Float f ->
    (* hash Int and numerically-equal Float identically *)
    if Float.is_integer f && Float.abs f < 1e18 then Hashtbl.hash f
    else Hashtbl.hash f
  | String s -> Hashtbl.hash s

type bool3 = True3 | False3 | Unknown3

let cmp_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> (Unknown3, 0)
  | _ ->
    if type_rank a <> type_rank b then
      invalid_arg
        (Printf.sprintf "Value.cmp_sql: incomparable types (%s vs %s)"
           (match type_of a with Some t -> ty_name t | None -> "null")
           (match type_of b with Some t -> ty_name t | None -> "null"))
    else (True3, compare a b)

let and3 a b =
  match (a, b) with
  | False3, _ | _, False3 -> False3
  | True3, True3 -> True3
  | _ -> Unknown3

let or3 a b =
  match (a, b) with
  | True3, _ | _, True3 -> True3
  | False3, False3 -> False3
  | _ -> Unknown3

let not3 = function True3 -> False3 | False3 -> True3 | Unknown3 -> Unknown3

let bool3_of_bool b = if b then True3 else False3

let is_true = function True3 -> true | _ -> false

(* the C formatter Printf calls for "%.1f" and "%g": the same bytes,
   without interpreting a format string per value *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e16 then format_float "%.1f" f
  else format_float "%.6g" f

let to_string = function
  | Null -> "NULL"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | String s -> s

let to_sql = function
  | String s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_string_as ty s =
  let s' = String.trim s in
  if s' = "" || String.uppercase_ascii s' = "NULL" then Some Null
  else
    match ty with
    | TBool -> (
      match String.lowercase_ascii s' with
      | "true" | "t" | "1" | "yes" -> Some (Bool true)
      | "false" | "f" | "0" | "no" -> Some (Bool false)
      | _ -> None)
    | TInt -> ( match int_of_string_opt s' with Some i -> Some (Int i) | None -> None)
    | TFloat -> (
      match float_of_string_opt s' with Some f -> Some (Float f) | None -> None)
    | TString -> Some (String s)
