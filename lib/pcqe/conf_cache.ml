module Db = Relational.Database
module F = Lineage.Formula
module Tid = Lineage.Tid

type t = {
  max_entries : int;
  mutable epoch : int;
      (* the synced confidence epoch; [unsynced] until the first sync *)
  values : Lineage.Approx.estimate F.Table.t;
  circuits : Lineage.Circuit.t F.Table.t;
      (* compiled d-DNNF per class: structure-only, so confidence-epoch
         invalidation drops the cached *values* above but keeps the
         circuit — the next lookup re-evaluates it in one linear pass *)
  by_base : (Tid.t, F.t list ref) Hashtbl.t;
  mutable reused : int;
  mutable recomputed : int;
  mutable invalidated : int;
}

(* stamps are never negative *)
let unsynced = -1

let create ?(max_entries = 65_536) () =
  if max_entries < 1 then
    invalid_arg
      (Printf.sprintf "Conf_cache.create: max_entries %d < 1" max_entries);
  {
    max_entries;
    epoch = unsynced;
    values = F.Table.create 256;
    circuits = F.Table.create 64;
    by_base = Hashtbl.create 256;
    reused = 0;
    recomputed = 0;
    invalidated = 0;
  }

let length t = F.Table.length t.values
let mem t f = F.Table.mem t.values f
let reused t = t.reused
let recomputed t = t.recomputed
let invalidated t = t.invalidated

let clear t =
  F.Table.reset t.values;
  F.Table.reset t.circuits;
  Hashtbl.reset t.by_base

(* drop every cached class whose formula mentions a dirty base tuple;
   formulas are counted once even when several of their variables are
   dirty (the membership test sees them gone after the first drop) *)
let invalidate_bases ?obs t dirty =
  let dropped = ref 0 in
  Tid.Set.iter
    (fun tid ->
      match Hashtbl.find_opt t.by_base tid with
      | None -> ()
      | Some formulas ->
        List.iter
          (fun f ->
            if F.Table.mem t.values f then begin
              F.Table.remove t.values f;
              incr dropped
            end)
          !formulas;
        Hashtbl.remove t.by_base tid)
    dirty;
  if !dropped > 0 then begin
    t.invalidated <- t.invalidated + !dropped;
    Obs.incr obs ~by:!dropped "serving.invalidated_classes"
  end

(* Drop every cached value and the [by_base] index, keeping the compiled
   circuits: they depend on a class's structure only, so the next price
   of a flushed class is one re-evaluation. *)
let flush_values ?obs t =
  let dropped = F.Table.length t.values in
  F.Table.reset t.values;
  Hashtbl.reset t.by_base;
  if dropped > 0 then begin
    t.invalidated <- t.invalidated + dropped;
    Obs.incr obs ~by:dropped "serving.invalidated_classes"
  end

let sync ?obs t ~db =
  let live = Db.confidence_epoch db in
  if t.epoch <> live then begin
    if t.epoch = unsynced then clear t
    else begin
      match Db.changed_since db ~since:t.epoch with
      | Some dirty -> invalidate_bases ?obs t dirty
      | None ->
        (* the change log does not reach back to our epoch (or the
           database diverged from the history we cached against):
           correctness demands a flush *)
        flush_values ?obs t
    end;
    t.epoch <- live
  end

let index t f =
  Tid.Set.iter
    (fun tid ->
      match Hashtbl.find_opt t.by_base tid with
      | Some fs -> fs := f :: !fs
      | None -> Hashtbl.replace t.by_base tid (ref [ f ]))
    (F.vars f)

(* Only answers are cached.  A [Failed] estimate is about the request
   that priced it (its deadline ran out, its sampler was cut off), not
   about the class, so the next request prices the class afresh. *)
let store t f (e : Lineage.Approx.estimate) =
  match e with
  | Failed _ -> ()
  | Exact _ | Interval _ ->
    if length t >= t.max_entries then clear t;
    F.Table.replace t.values f e;
    index t f

(* The ladder's circuit rung, backed by the per-class table: compile a
   class once and re-evaluate it under every later confidence epoch
   (counted as [ladder.circuit_build] / [ladder.circuit_reeval]; a
   node-cap overflow counts [ladder.circuit_fallback] and the ladder
   moves on to its OBDD rung). *)
let circuit ?obs t f =
  match F.Table.find_opt t.circuits f with
  | Some c ->
    Obs.incr obs "ladder.circuit_reeval";
    Some c
  | None -> (
    match Lineage.Circuit.compile_opt f with
    | Some c ->
      if F.Table.length t.circuits >= t.max_entries then
        F.Table.reset t.circuits;
      F.Table.replace t.circuits f c;
      Obs.incr obs "ladder.circuit_build";
      Some c
    | None ->
      Obs.incr obs "ladder.circuit_fallback";
      None)

(* [db] is immutable, so one sync when the pricer is built covers every
   formula it prices afterwards. *)
let confidence ?obs ?deadline
    ?(on_tier = fun (_ : Lineage.Approx.tier) -> ()) t ~db =
  sync ?obs t ~db;
  let p = Db.confidence_fn db in
  fun f ->
    match f with
    | F.Var v ->
      (* single-tuple lineage: the answer is one base-confidence lookup —
         no class bookkeeping *)
      on_tier Lineage.Approx.Var;
      (Lineage.Approx.Exact (p v), "var")
    | _ -> (
      match F.Table.find_opt t.values f with
      | Some e ->
        t.reused <- t.reused + 1;
        Obs.incr obs "serving.reused_classes";
        (e, "cached")
      | None ->
        let name = ref "" in
        let e =
          Lineage.Approx.confidence ?deadline ~circuit:(circuit ?obs t)
            ~on_tier:(fun rung ->
              name := Lineage.Approx.tier_name rung;
              on_tier rung)
            p f
        in
        store t f e;
        t.recomputed <- t.recomputed + 1;
        Obs.incr obs "serving.recomputed_classes";
        (e, !name))

let warm ?obs t ~db entries =
  sync ?obs t ~db;
  List.iter
    (fun (f, e) ->
      if not (F.Table.mem t.values f) then begin
        store t f e;
        t.recomputed <- t.recomputed + 1;
        Obs.incr obs "serving.recomputed_classes"
      end)
    entries
