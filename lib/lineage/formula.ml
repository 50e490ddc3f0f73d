type t =
  | True
  | False
  | Var of Tid.t
  | Not of t
  | And of t list
  | Or of t list

let tru = True
let fls = False
let var v = Var v

let rec compare a b =
  let rank = function
    | True -> 0
    | False -> 1
    | Var _ -> 2
    | Not _ -> 3
    | And _ -> 4
    | Or _ -> 5
  in
  match (a, b) with
  | True, True | False, False -> 0
  | Var x, Var y -> Tid.compare x y
  | Not x, Not y -> compare x y
  | And xs, And ys | Or xs, Or ys -> List.compare compare xs ys
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Structural hash, consistent with [equal]: equal formulas hash equally.
   Unlike the polymorphic [Hashtbl.hash] it folds over the *whole* tree, so
   deep formulas that differ only far from the root still get distinct
   hashes — the property the hash-consing dedup in [Optimize.Problem]
   relies on to bucket structurally equal lineage together. *)
let hash f =
  let rec go acc = function
    | True -> (acc * 31) + 1
    | False -> (acc * 31) + 2
    | Var v -> (((acc * 31) + 3) * 31) + Tid.hash v
    | Not g -> go ((acc * 31) + 5) g
    | And fs -> List.fold_left go ((acc * 31) + 7) fs
    | Or fs -> List.fold_left go ((acc * 31) + 11) fs
  in
  go 0 f land max_int

(* Deduplicate a sorted-insertion list while preserving first-occurrence
   order.  Short lists (the common constructor case) use a direct scan;
   long ones — wide disjunctions such as a projection group's merged
   lineage — bucket by {!hash} so the pass stays linear instead of
   quadratic in the width. *)
let dedup fs =
  let rec short n = function _ :: rest when n > 0 -> short (n - 1) rest | rest -> rest = [] in
  if short 16 fs then
    let rec go seen = function
      | [] -> List.rev seen
      | f :: rest ->
        if List.exists (equal f) seen then go seen rest
        else go (f :: seen) rest
    in
    go [] fs
  else
    let seen : (int, t list) Hashtbl.t = Hashtbl.create 64 in
    List.filter
      (fun f ->
        let h = hash f in
        let bucket = try Hashtbl.find seen h with Not_found -> [] in
        if List.exists (equal f) bucket then false
        else begin
          Hashtbl.replace seen h (f :: bucket);
          true
        end)
      fs

let conj fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> flatten acc rest
    | False :: _ -> None
    | And gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> False
  | Some fs -> (
    match dedup fs with
    | [] -> True
    | [ f ] -> f
    | fs -> And fs)

let disj fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> flatten acc rest
    | True :: _ -> None
    | Or gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> True
  | Some fs -> (
    match dedup fs with
    | [] -> False
    | [ f ] -> f
    | fs -> Or fs)

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let rec vars = function
  | True | False -> Tid.Set.empty
  | Var v -> Tid.Set.singleton v
  | Not f -> vars f
  | And fs | Or fs ->
    List.fold_left (fun acc f -> Tid.Set.union acc (vars f)) Tid.Set.empty fs

let var_count f = Tid.Set.cardinal (vars f)

let rec size = function
  | True | False | Var _ -> 1
  | Not f -> 1 + size f
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + size f) 1 fs

let rec depth = function
  | True | False | Var _ -> 1
  | Not f -> 1 + depth f
  | And fs | Or fs -> 1 + List.fold_left (fun acc f -> max acc (depth f)) 0 fs

(* A placeholder slot: compared physically, so no real variable is it. *)
let vacant = Tid.make "" 0

(* The ladder asks this of every non-[Var] row it prices, so it is one
   pass with early exit over an open-addressing table sized from the
   occurrence count, instead of building variable sets ([vars]
   allocates a set per subformula).  Slots are found by a Fibonacci hash
   of the row number; relation names are compared only on a row match. *)
let is_read_once f =
  let rec occurrences acc = function
    | True | False -> acc
    | Var _ -> acc + 1
    | Not f -> occurrences acc f
    | And fs | Or fs -> List.fold_left occurrences acc fs
  in
  let n = occurrences 0 f in
  n <= 1
  ||
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let slots = Array.make !cap vacant in
  let rec insert (v : Tid.t) i =
    let s = Array.unsafe_get slots i in
    if s == vacant then begin
      Array.unsafe_set slots i v;
      true
    end
    else (not (Tid.equal s v)) && insert v ((i + 1) land mask)
  in
  let rec go = function
    | True | False -> true
    | Var v -> insert v ((v.row * 0x9E3779B97F4A7C1) lsr 20 land mask)
    | Not f -> go f
    | And fs | Or fs -> List.for_all go fs
  in
  go f

let rec is_monotone = function
  | True | False | Var _ -> true
  | Not _ -> false
  | And fs | Or fs -> List.for_all is_monotone fs

let rec eval assignment = function
  | True -> true
  | False -> false
  | Var v -> assignment v
  | Not f -> not (eval assignment f)
  | And fs -> List.for_all (eval assignment) fs
  | Or fs -> List.exists (eval assignment) fs

let rec restrict v b = function
  | True -> True
  | False -> False
  | Var x -> if Tid.equal x v then (if b then True else False) else Var x
  | Not f -> neg (restrict v b f)
  | And fs -> conj (List.map (restrict v b) fs)
  | Or fs -> disj (List.map (restrict v b) fs)

let rec simplify = function
  | True -> True
  | False -> False
  | Var v -> Var v
  | Not f -> neg (simplify f)
  | And fs ->
    let fs = List.map simplify fs in
    let f = conj fs in
    absorb_and f
  | Or fs ->
    let fs = List.map simplify fs in
    let f = disj fs in
    absorb_or f

(* One-level absorption: x ∧ (x ∨ y) = x. *)
and absorb_and f =
  match f with
  | And fs ->
    let atoms = List.filter (function Or _ -> false | _ -> true) fs in
    let keep = function
      | Or gs -> not (List.exists (fun a -> List.exists (equal a) gs) atoms)
      | _ -> true
    in
    conj (List.filter keep fs)
  | f -> f

(* One-level absorption: x ∨ (x ∧ y) = x. *)
and absorb_or f =
  match f with
  | Or fs ->
    let atoms = List.filter (function And _ -> false | _ -> true) fs in
    let keep = function
      | And gs -> not (List.exists (fun a -> List.exists (equal a) gs) atoms)
      | _ -> true
    in
    disj (List.filter keep fs)
  | f -> f

let rec map_vars g = function
  | True -> True
  | False -> False
  | Var v -> Var (g v)
  | Not f -> neg (map_vars g f)
  | And fs -> conj (List.map (map_vars g) fs)
  | Or fs -> disj (List.map (map_vars g) fs)

let add_to_buffer buf f =
  (* prec: Or = 1, And = 2, Not = 3, atom = 4 *)
  let rec go prec f =
    match f with
    | True -> Buffer.add_char buf 'T'
    | False -> Buffer.add_char buf 'F'
    | Var v -> Tid.add_to_buffer buf v
    | Not g ->
      Buffer.add_char buf '!';
      go 3 g
    | And fs -> paren prec 2 " & " fs
    | Or fs -> paren prec 1 " | " fs
  and paren prec level sep fs =
    let need = prec > level in
    if need then Buffer.add_char buf '(';
    List.iteri
      (fun i g ->
        if i > 0 then Buffer.add_string buf sep;
        go (level + 1) g)
      fs;
    if need then Buffer.add_char buf ')'
  in
  go 0 f

let to_string f =
  let buf = Buffer.create 64 in
  add_to_buffer buf f;
  Buffer.contents buf

let pp ppf f = Format.pp_print_string ppf (to_string f)

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Hashed)
