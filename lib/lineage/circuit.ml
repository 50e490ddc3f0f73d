type node =
  | NTrue
  | NFalse
  | NLeaf of Tid.t
  | NNeg of int
  | NAnd of int array
  | NOr of int array
  | NDecide of Tid.t * int * int (* pivot, v=true child, v=false child *)

type t = { nodes : node array; root : int }

exception Node_cap_exceeded

let default_node_cap = 50_000

(* --- compilation ------------------------------------------------------ *)

let compile ?(node_cap = default_node_cap) f =
  let nodes = ref [] and count = ref 0 in
  let add node =
    if !count >= node_cap then raise Node_cap_exceeded;
    nodes := node :: !nodes;
    let id = !count in
    incr count;
    id
  in
  (* structural memo over And/Or subformulas, exactly like [Prob.exact]'s
     result memo: a repeated subformula becomes one shared node, so its
     value is computed once per eval — same sharing, same floats *)
  let memo : int Formula.Table.t = Formula.Table.create 64 in
  let vars_memo : Tid.Set.t Formula.Table.t = Formula.Table.create 64 in
  let rec vars_of f =
    match f with
    | Formula.True | Formula.False -> Tid.Set.empty
    | Formula.Var v -> Tid.Set.singleton v
    | Formula.Not g -> vars_of g
    | Formula.And fs | Formula.Or fs -> (
      match Formula.Table.find_opt vars_memo f with
      | Some s -> s
      | None ->
        let s =
          List.fold_left
            (fun acc g -> Tid.Set.union acc (vars_of g))
            Tid.Set.empty fs
        in
        Formula.Table.add vars_memo f s;
        s)
  in
  let rec go f =
    match f with
    | Formula.True -> add NTrue
    | Formula.False -> add NFalse
    | Formula.Var v -> add (NLeaf v)
    | Formula.Not g ->
      let c = go g in
      add (NNeg c)
    | Formula.And fs | Formula.Or fs -> (
      match Formula.Table.find_opt memo f with
      | Some id -> id
      | None ->
        let id = go_nary f fs in
        Formula.Table.add memo f id;
        id)
  and go_nary f fs =
    let shared = Prob.shared_vars vars_of fs in
    if Tid.Set.is_empty shared then begin
      (* decomposable: children are variable-disjoint, probabilities
         compose as products (complemented products for Or) *)
      let kids = Array.of_list (List.map go fs) in
      match f with
      | Formula.And _ -> add (NAnd kids)
      | Formula.Or _ -> add (NOr kids)
      | _ -> assert false
    end
    else begin
      (* deterministic decision: the two cofactors are mutually exclusive
         conditioned on the pivot, so the weighted sum is exact *)
      let v = Prob.most_shared vars_of fs shared in
      let f1 = Formula.restrict v true f and f0 = Formula.restrict v false f in
      let c1 = go f1 in
      let c0 = go f0 in
      add (NDecide (v, c1, c0))
    end
  in
  let root = go f in
  { nodes = Array.of_list (List.rev !nodes); root }

let compile_opt ?node_cap f =
  match compile ?node_cap f with
  | c -> Some c
  | exception Node_cap_exceeded -> None

(* --- evaluation ------------------------------------------------------- *)

(* One bottom-up pass; children always precede parents in [nodes] (they
   are appended post-order).  The per-node float expressions are copied
   from [Prob.read_once]/[Prob.exact] so results are bitwise equal. *)
let eval t p =
  let v = Array.make (Array.length t.nodes) 0.0 in
  Array.iteri
    (fun i node ->
      v.(i) <-
        (match node with
        | NTrue -> 1.0
        | NFalse -> 0.0
        | NLeaf x -> p x
        | NNeg c -> 1.0 -. v.(c)
        | NAnd kids -> Array.fold_left (fun acc c -> acc *. v.(c)) 1.0 kids
        | NOr kids ->
          1.0 -. Array.fold_left (fun acc c -> acc *. (1.0 -. v.(c))) 1.0 kids
        | NDecide (x, c1, c0) ->
          let pv = p x in
          (pv *. v.(c1)) +. ((1.0 -. pv) *. v.(c0))))
    t.nodes;
  v.(t.root)

let size t = Array.length t.nodes

let decisions t =
  Array.fold_left
    (fun acc n -> match n with NDecide _ -> acc + 1 | _ -> acc)
    0 t.nodes
