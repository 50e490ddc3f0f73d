module Db = Relational.Database

type t = {
  key : string;
  plan : Relational.Algebra.t;
  base_relations : string list;
  structural_vector : int array;
      (* composite per-shard stamp: validity is vector equality, so a
         re-partition (same contents, new shard layout) retires the
         entry *)
  views_epoch : int;
  mutable evaluated : (int array * Relational.Eval.annotated) option;
}

let ( let* ) = Result.bind
let key_of_query = Query.to_string
let key t = t.key
let plan t = t.plan
let base_relations t = t.base_relations
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
      structural_vector = Db.structural_vector db;
      views_epoch = Relational.Views.epoch views;
      evaluated = None;
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
