module Tid = Lineage.Tid
module Formula = Lineage.Formula

type base = { tid : Tid.t; p0 : float; cap : float; cost : Cost.Cost_model.t }

type result_tuple = { rid : int; formula : Formula.t }

type t = {
  beta : float;
  required : int;
  delta : float;
  incremental : bool;
  bases : base array;
  results : result_tuple array;
  base_index : int Tid.Table.t;
  results_of_base : int list array;
  bases_of_result : int list array;
  (* Structurally equal formulas (self-joins, grouped outputs) are deduped
     into evaluation *classes*: one compiled evaluator, one confidence
     slot and one affine-coefficient cache per class, shared by all its
     member results.  With [incremental = false] every result is its own
     class and behavior is identical to the pre-dedup code. *)
  class_of_result : int array; (* rid -> cid *)
  class_members : int list array; (* cid -> member rids, ascending *)
  classes_of_base : int list array; (* bid -> cids mentioning it, ascending *)
  bases_of_class : int list array; (* cid -> bids of the class formula *)
  dedup_formulas : int; (* results sharing another result's class *)
  compiled : (float array -> float) array;
      (* per-class confidence evaluator over the bid-indexed level array *)
  kinds : Lineage.Approx.tier option array; (* [None] = unpriceable *)
  circuits : Lineage.Circuit.t Formula.Table.t; (* read-only after [make] *)
}

(* Compile one class into a closure over the level array through the
   ladder's exact rungs; the Var and read-once ones run as a closure tree
   that reads levels directly, with no table lookup per leaf.  An
   unpriceable class evaluates to 0.0, so no solver counts it satisfied. *)
let compile ?deadline ~circuit base_index formula =
  let rec go = function
    | Formula.True -> fun _ -> 1.0
    | Formula.False -> fun _ -> 0.0
    | Formula.Var tid ->
      let bid = Tid.Table.find base_index tid in
      fun levels -> levels.(bid)
    | Formula.Not f ->
      let g = go f in
      fun levels -> 1.0 -. g levels
    | Formula.And fs ->
      let gs = Array.of_list (List.map go fs) in
      fun levels ->
        let acc = ref 1.0 in
        for i = 0 to Array.length gs - 1 do
          acc := !acc *. gs.(i) levels
        done;
        !acc
    | Formula.Or fs ->
      let gs = Array.of_list (List.map go fs) in
      fun levels ->
        let acc = ref 1.0 in
        for i = 0 to Array.length gs - 1 do
          acc := !acc *. (1.0 -. gs.(i) levels)
        done;
        1.0 -. !acc
  in
  let level levels tid = levels.(Tid.Table.find base_index tid) in
  match Lineage.Approx.compile ?deadline ~circuit formula with
  | ((Var | Read_once) as tier), Some _ -> (go formula, Some tier)
  | tier, Some eval -> ((fun levels -> eval (level levels)), Some tier)
  | _, None -> ((fun _ -> 0.0), None)

let ( let* ) = Result.bind

let make ?(delta = 0.1) ?(incremental = true) ?deadline
    ?(circuit = Lineage.Approx.build_circuit) ~beta ~required ~bases ~formulas
    () =
  let* () =
    if not (beta >= 0.0 && beta <= 1.0) then
      Error (Printf.sprintf "beta %g outside [0,1]" beta)
    else Ok ()
  in
  let* () =
    if delta <= 0.0 || delta > 1.0 then
      Error (Printf.sprintf "delta %g outside (0,1]" delta)
    else Ok ()
  in
  let n = List.length formulas in
  let* () =
    if required < 0 || required > n then
      Error (Printf.sprintf "required %d outside [0,%d]" required n)
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc b ->
        let* () = acc in
        if not (b.p0 >= 0.0 && b.p0 <= b.cap && b.cap <= 1.0) then
          Error
            (Printf.sprintf "base %s: need 0 <= p0 (%g) <= cap (%g) <= 1"
               (Tid.to_string b.tid) b.p0 b.cap)
        else Ok ())
      (Ok ()) bases
  in
  let bases = Array.of_list bases in
  let base_index = Tid.Table.create (Array.length bases) in
  let* () =
    try
      Array.iteri
        (fun i b ->
          if Tid.Table.mem base_index b.tid then
            failwith (Printf.sprintf "duplicate base tuple %s" (Tid.to_string b.tid));
          Tid.Table.add base_index b.tid i)
        bases;
      Ok ()
    with Failure msg -> Error msg
  in
  let results =
    Array.of_list (List.mapi (fun rid formula -> { rid; formula }) formulas)
  in
  let results_of_base = Array.make (Array.length bases) [] in
  let bases_of_result = Array.make (Array.length results) [] in
  let* () =
    try
      Array.iter
        (fun r ->
          let vars = Formula.vars r.formula in
          Tid.Set.iter
            (fun v ->
              match Tid.Table.find_opt base_index v with
              | None ->
                failwith
                  (Printf.sprintf "result %d references unknown base %s" r.rid
                     (Tid.to_string v))
              | Some bid ->
                results_of_base.(bid) <- r.rid :: results_of_base.(bid);
                bases_of_result.(r.rid) <- bid :: bases_of_result.(r.rid))
            vars)
        results;
      Ok ()
    with Failure msg -> Error msg
  in
  Array.iteri (fun i l -> results_of_base.(i) <- List.rev l) results_of_base;
  Array.iteri (fun i l -> bases_of_result.(i) <- List.rev l) bases_of_result;
  (* Evaluation classes: hash-cons structurally equal formulas so duplicate
     results share one compiled evaluator (and, in State, one confidence
     slot and one coefficient cache).  [incremental = false] keeps the
     identity mapping — one class per result, exactly the old layout. *)
  let nr = Array.length results in
  let class_of_result = Array.make nr 0 in
  let class_formulas =
    if incremental then begin
      let tbl : int Formula.Table.t = Formula.Table.create (max 16 nr) in
      let rev_formulas = ref [] and count = ref 0 in
      Array.iter
        (fun r ->
          match Formula.Table.find_opt tbl r.formula with
          | Some cid -> class_of_result.(r.rid) <- cid
          | None ->
            let cid = !count in
            incr count;
            Formula.Table.add tbl r.formula cid;
            rev_formulas := r.formula :: !rev_formulas;
            class_of_result.(r.rid) <- cid)
        results;
      Array.of_list (List.rev !rev_formulas)
    end
    else begin
      Array.iteri (fun rid _ -> class_of_result.(rid) <- rid) results;
      Array.map (fun r -> r.formula) results
    end
  in
  let num_classes = Array.length class_formulas in
  let class_members = Array.make num_classes [] in
  for rid = nr - 1 downto 0 do
    let cid = class_of_result.(rid) in
    class_members.(cid) <- rid :: class_members.(cid)
  done;
  let classes_of_base = Array.make (Array.length bases) [] in
  let bases_of_class = Array.make num_classes [] in
  Array.iteri
    (fun cid f ->
      Tid.Set.iter
        (fun v ->
          let bid = Tid.Table.find base_index v in
          classes_of_base.(bid) <- cid :: classes_of_base.(bid);
          bases_of_class.(cid) <- bid :: bases_of_class.(cid))
        (Formula.vars f))
    class_formulas;
  Array.iteri (fun i l -> classes_of_base.(i) <- List.rev l) classes_of_base;
  Array.iteri (fun i l -> bases_of_class.(i) <- List.rev l) bases_of_class;
  let circuits = Formula.Table.create 16 in
  let circuit f =
    let c = circuit f in
    Option.iter (Formula.Table.replace circuits f) c;
    c
  in
  let compiled_kinds =
    Array.map (compile ?deadline ~circuit base_index) class_formulas
  in
  let compiled = Array.map fst compiled_kinds in
  let kinds = Array.map snd compiled_kinds in
  Ok
    {
      beta;
      required;
      delta;
      incremental;
      bases;
      results;
      base_index;
      results_of_base;
      bases_of_result;
      class_of_result;
      class_members;
      classes_of_base;
      bases_of_class;
      dedup_formulas = nr - num_classes;
      compiled;
      kinds;
      circuits;
    }

let make_exn ?delta ?incremental ?deadline ?circuit ~beta ~required ~bases
    ~formulas () =
  match
    make ?delta ?incremental ?deadline ?circuit ~beta ~required ~bases ~formulas
      ()
  with
  | Ok t -> t
  | Error msg -> invalid_arg ("Problem.make: " ^ msg)

let of_query_results ?delta ?deadline ?circuit ~released ~theta ~beta ~cost_of
    ~cap_of db (res : Relational.Eval.annotated) =
  let* () =
    if not (theta >= 0.0 && theta <= 1.0) then
      Error (Printf.sprintf "theta %g outside [0,1]" theta)
    else Ok ()
  in
  let rows = Array.of_list res.Relational.Eval.rows in
  let n = Array.length rows in
  let* () =
    if Array.length released = n then Ok ()
    else
      Error
        (Printf.sprintf "%d release verdicts for %d rows"
           (Array.length released) n)
  in
  let failing = ref [] and satisfied = ref 0 in
  Array.iteri
    (fun i ok -> if ok then incr satisfied else failing := i :: !failing)
    released;
  let failing = List.rev !failing in
  let want = int_of_float (ceil (theta *. float_of_int n)) in
  let required = max 0 (min (List.length failing) (want - !satisfied)) in
  (* collect base tuples of failing results *)
  let formulas =
    List.map (fun i -> rows.(i).Relational.Eval.lineage) failing
  in
  let tid_set =
    List.fold_left
      (fun acc f -> Tid.Set.union acc (Formula.vars f))
      Tid.Set.empty formulas
  in
  let bases =
    List.map
      (fun tid ->
        {
          tid;
          p0 = Relational.Database.confidence db tid;
          cap = cap_of tid;
          cost = cost_of tid;
        })
      (Tid.Set.elements tid_set)
  in
  let* t = make ?delta ?deadline ?circuit ~beta ~required ~bases ~formulas () in
  Ok (t, failing)

let beta t = t.beta
let required t = t.required
let delta t = t.delta
let incremental t = t.incremental
let num_bases t = Array.length t.bases
let num_results t = Array.length t.results
let base t i = t.bases.(i)
let result t i = t.results.(i)
let bases t = t.bases
let results t = t.results
let bid_of_tid t tid = Tid.Table.find_opt t.base_index tid
let results_of_base t i = t.results_of_base.(i)
let bases_of_result t i = t.bases_of_result.(i)
let num_classes t = Array.length t.compiled
let class_of_result t rid = t.class_of_result.(rid)
let class_members t cid = t.class_members.(cid)
let classes_of_base t bid = t.classes_of_base.(bid)
let bases_of_class t cid = t.bases_of_class.(cid)
let dedup_formulas t = t.dedup_formulas
let evaluator_kind t cid = t.kinds.(cid)

let unpriceable t =
  Array.fold_left (fun n k -> if k = None then n + 1 else n) 0 t.kinds

let circuit t f = Formula.Table.find_opt t.circuits f

let eval_class t levels cid = t.compiled.(cid) levels

let eval_result t levels rid = t.compiled.(t.class_of_result.(rid)) levels

let grid_levels t bid =
  let b = t.bases.(bid) in
  let rec go acc level =
    if level >= b.cap -. 1e-12 then List.rev (b.cap :: acc)
    else go (level :: acc) (level +. t.delta)
  in
  go [] b.p0

let to_string t =
  Printf.sprintf
    "instance: %d base tuple(s), %d result(s), beta=%g, required=%d, delta=%g"
    (num_bases t) (num_results t) t.beta t.required t.delta
