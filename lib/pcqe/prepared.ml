module Db = Relational.Database

type t = {
  key : string;
  plan : Relational.Algebra.t;
  base_relations : string list;
  safe : bool;
      (* Safe_plan verdict, decided once at compile time: the plan is
         static, so safety is a property of the prepared entry *)
  structural_vector : int array;
      (* composite per-shard stamp: validity is vector equality, so a
         re-partition (same contents, new shard layout) retires the
         entry *)
  views_epoch : int;
  mutable evaluated : (int array * Relational.Eval.annotated) option;
  mutable confs : (int array * float array) option;
      (* safe-plan confidences, keyed by the confidence vector they were
         computed under (row memoization above is structural-vector-keyed;
         confidences go stale faster) *)
}

let ( let* ) = Result.bind
let key_of_query = Query.to_string
let key t = t.key
let plan t = t.plan
let base_relations t = t.base_relations
let safe t = t.safe
let structural_vector t = t.structural_vector
let views_epoch t = t.views_epoch

let compile ?obs ~db ~views query =
  let* plan = Obs.span obs "parse/plan" (fun () -> Query.to_plan query) in
  let plan =
    Obs.span obs "view-expand" (fun () -> Relational.Views.expand views plan)
  in
  let* plan =
    Obs.span obs "rewrite" (fun () -> Relational.Rewrite.optimize db plan)
  in
  Ok
    {
      key = key_of_query query;
      plan;
      base_relations = Relational.Algebra.base_relations plan;
      safe = Relational.Safe_plan.analyze plan;
      structural_vector = Db.structural_vector db;
      views_epoch = Relational.Views.epoch views;
      evaluated = None;
      confs = None;
    }

let valid t ~db ~views =
  t.structural_vector = Db.structural_vector db
  && t.views_epoch = Relational.Views.epoch views

let eval ?obs t ~db =
  match t.evaluated with
  | Some (vec, res) when vec = Db.structural_vector db ->
    Obs.incr obs "serving.eval_reused";
    Ok res
  | _ ->
    (* the hybrid evaluator: vectorizable fragments run columnar, the
       rest falls back to the row engine (bit-identical results on every
       path) *)
    let* res = Relational.Col_eval.run db t.plan in
    t.evaluated <- Some (Db.structural_vector db, res);
    Ok res

let row_confs db (res : Relational.Eval.annotated) =
  let p = Db.confidence_fn db in
  Array.of_list
    (List.map
       (fun (r : Relational.Eval.row) ->
         Lineage.Prob.read_once p r.Relational.Eval.lineage)
       res.Relational.Eval.rows)

(* [eval] plus safe-plan confidences.  For a safe plan the cold
   evaluation computes confidences during batch evaluation
   ([Col_eval.run_conf]); memo hits whose confidence vector moved refresh
   them with one linear read-once pass over the memoized rows. [None]
   confidences mean the caller runs the ladder. *)
let eval_conf ?obs t ~db =
  if not t.safe then
    let* res = eval ?obs t ~db in
    Ok (res, None)
  else
    let sv = Db.structural_vector db and cv = Db.confidence_vector db in
    match t.evaluated with
    | Some (vec, res) when vec = sv -> (
      Obs.incr obs "serving.eval_reused";
      match t.confs with
      | Some (cvec, confs) when cvec = cv -> Ok (res, Some confs)
      | _ ->
        let confs = row_confs db res in
        t.confs <- Some (cv, confs);
        Ok (res, Some confs))
    | _ -> (
      let* res, confs = Relational.Col_eval.run_conf db t.plan in
      t.evaluated <- Some (sv, res);
      (* [run_conf] analyses the same plan, so it always prices a safe one *)
      let confs =
        match confs with Some confs -> confs | None -> row_confs db res
      in
      t.confs <- Some (cv, confs);
      Ok (res, Some confs))
