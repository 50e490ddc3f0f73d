module Db = Relational.Database

type t = {
  key : string;
  plan : Relational.Algebra.t;
  base_relations : string list;
  structural_epoch : int;
  views_epoch : int;
  mutable evaluated : (int * Relational.Eval.annotated) option;
}

let ( let* ) = Result.bind
let key_of_query = Query.to_string
let key t = t.key
let plan t = t.plan
let base_relations t = t.base_relations
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
      structural_epoch = Db.structural_epoch db;
      views_epoch = Relational.Views.epoch views;
      evaluated = None;
    }

let valid t ~db ~views =
  t.structural_epoch = Db.structural_epoch db
  && t.views_epoch = Relational.Views.epoch views

let eval ?obs t ~db =
  match t.evaluated with
  | Some (epoch, res) when epoch = Db.structural_epoch db ->
    Obs.incr obs "serving.eval_reused";
    Ok res
  | _ ->
    (* the hybrid evaluator: vectorizable fragments run columnar, the
       rest falls back to the row engine (bit-identical results on every
       path) *)
    let* res = Relational.Col_eval.run db t.plan in
    t.evaluated <- Some (Db.structural_epoch db, res);
    Ok res
