module Tid = Lineage.Tid
module StrMap = Map.Make (String)
module IntMap = Map.Make (Int)

(* The confidence change log is bounded: a caller that falls behind by
   more than this many mutations gets [None] from [changed_since] and must
   invalidate wholesale. *)
let log_capacity = 256

(* Dense confidence storage.  Each relation's confidences and caps are
   columns indexed by [Tid.row]: an immutable array plus a persistent
   overlay of the writes made since the array was built.  A write that
   takes the overlay past [1/overlay_divisor] of the relation's rows
   (and past [overlay_floor]) flattens it into a fresh array; an array is
   never written once published, so older database values, sibling copies
   and other domains keep reading theirs.  Arrays are only ever sized
   from a relation's [next_row], never from a row id taken from input. *)
let overlay_divisor = 8
let overlay_floor = 8

type column = {
  base : float array; (* rows past its end read the column's default *)
  over : float IntMap.t; (* newer than [base] *)
  over_n : int; (* [IntMap.cardinal over] *)
}

type store = {
  rows : int; (* rows [0, rows) are stored: the relation's [next_row] *)
  conf : column; (* default 0.0 *)
  cap : column; (* default 1.0 *)
}

let column_of base = { base; over = IntMap.empty; over_n = 0 }
let no_column = column_of [||]

(* [row >= 0] is the caller's check: every read is of a stored row *)
let read_base col ~default row =
  if row < Array.length col.base then Array.unsafe_get col.base row
  else default

let read col ~default row =
  if col.over_n = 0 then read_base col ~default row
  else
    match IntMap.find row col.over with
    | p -> p
    | exception Not_found -> read_base col ~default row

let write col ~default ~rows row p =
  let over_n = if IntMap.mem row col.over then col.over_n else col.over_n + 1 in
  let over = IntMap.add row p col.over in
  if over_n <= max overlay_floor (rows / overlay_divisor) then
    { col with over; over_n }
  else begin
    (* the fresh array is filled before anything can see it *)
    let len = Array.length col.base in
    let base =
      Array.init rows (fun i -> if i < len then col.base.(i) else default)
    in
    IntMap.iter (fun i p -> base.(i) <- p) over;
    column_of base
  end

(* The database's one epoch mechanism: a structural/confidence stamp pair
   plus a bounded change log.  Stamps come from the process-global
   {!Epoch} counter, so equality is exact version identity.  The log is a
   persistent map keyed by stamp, so a write adds one binding and, once
   the log is full, drops the oldest one: O(log capacity) instead of a
   copy of the whole log. *)
type t = {
  relations : Relation.t StrMap.t;
  stores : store StrMap.t; (* one per relation, same keys *)
  structural : int;
  confidence : int;
  log : Tid.t list IntMap.t; (* stamp -> tids changed at it *)
  log_n : int; (* [IntMap.cardinal log] *)
  floor : int; (* largest stamp dropped from [log]; 0 = none *)
}

let empty =
  {
    relations = StrMap.empty;
    stores = StrMap.empty;
    structural = 0;
    confidence = 0;
    log = IntMap.empty;
    log_n = 0;
    floor = 0;
  }

let structural_epoch db = db.structural
let confidence_epoch db = db.confidence
let bump_structural db = { db with structural = Epoch.next () }

(* One stamp and one log entry (none when nothing changed); past
   [log_capacity] entries the oldest is dropped and becomes the floor. *)
let bump_confidence db = function
  | [] -> db
  | tids ->
    let stamp = Epoch.next () in
    let log = IntMap.add stamp tids db.log in
    if db.log_n < log_capacity then
      { db with confidence = stamp; log; log_n = db.log_n + 1 }
    else
      let dropped, _ = IntMap.min_binding log in
      {
        db with
        confidence = stamp;
        log = IntMap.remove dropped log;
        floor = max dropped db.floor;
      }

(* [since] must be a stamp the logged history actually passed through:
   the current epoch, a stamp recorded in the log, or the floor (the last
   dropped stamp).  A stamp from a divergent history (a sibling copy
   mutated independently) is not found, and the caller must invalidate
   wholesale. *)
let changed_since db ~since =
  if since = db.confidence then Some Tid.Set.empty
  else if since = db.floor || IntMap.mem since db.log then
    let _, _, newer = IntMap.split since db.log in
    Some
      (IntMap.fold
         (fun _ tids acc -> List.fold_left (Fun.flip Tid.Set.add) acc tids)
         newer Tid.Set.empty)
  else None

(* ------------------------------------------------------------------ *)
(* Relations and mutators                                              *)
(* ------------------------------------------------------------------ *)

(* The store of [tid]'s relation when [tid] names a stored row. *)
let store_of db (tid : Tid.t) =
  match StrMap.find_opt tid.rel db.stores with
  | Some st when tid.row >= 0 && tid.row < st.rows -> Some st
  | _ -> None

(* A fresh store for rows [0, rows). *)
let fresh_store ~rows conf = { rows; conf; cap = no_column }

let add_relation db r =
  let name = Relation.name r in
  let fresh = fresh_store ~rows:(Relation.next_row r) no_column in
  let db' =
    bump_structural
      {
        db with
        relations = StrMap.add name r db.relations;
        stores = StrMap.add name fresh db.stores;
      }
  in
  (* a replaced relation's rows lose their confidences and caps *)
  match StrMap.find_opt name db.stores with
  | Some old when old.rows > 0 ->
    bump_confidence db' (List.init old.rows (Tid.make name))
  | _ -> db'

let relation db name = StrMap.find_opt name db.relations

let relation_exn db name =
  match relation db name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Database: unknown relation %S" name)

let relation_names db = List.map fst (StrMap.bindings db.relations)
let mem_relation db name = StrMap.mem name db.relations

let check_conf what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Database: %s %g outside [0,1]" what p)

let write_conf db (tid : Tid.t) st p =
  let conf = write st.conf ~default:0.0 ~rows:st.rows tid.row p in
  { db with stores = StrMap.add tid.rel { st with conf } db.stores }

let insert db rel_name vs ~conf =
  check_conf "confidence" conf;
  let r = relation_exn db rel_name in
  let r, tid = Relation.insert_values r vs in
  let st = StrMap.find rel_name db.stores in
  let db =
    write_conf
      { db with relations = StrMap.add rel_name r db.relations }
      tid
      { st with rows = Relation.next_row r }
      conf
  in
  (bump_confidence (bump_structural db) [ tid ], tid)

let seed_confidence db tid p =
  check_conf "confidence" p;
  match store_of db tid with
  | None ->
    invalid_arg
      (Printf.sprintf "Database.seed_confidence: tuple %s not stored"
         (Tid.to_string tid))
  | Some st -> bump_confidence (write_conf db tid st p) [ tid ]

let bulk_load db r confs =
  let name = Relation.name r in
  let n = Relation.next_row r in
  if Array.length confs <> n then
    invalid_arg
      (Printf.sprintf "Database.bulk_load(%s): %d confidences for %d tuples"
         name (Array.length confs) n);
  Array.iter (check_conf "confidence") confs;
  (* the relation's whole store is replaced: no confidence or cap of a
     previous relation of that name survives.  One structural and one
     confidence bump for the whole load (the per-tuple [insert] path
     bumps both epochs per row); the change-log entry lists every loaded
     or dropped tuple, so [changed_since] stays truthful when an existing
     relation is replaced *)
  let old_rows =
    match StrMap.find_opt name db.stores with Some st -> st.rows | None -> 0
  in
  let tids = List.init (max n old_rows) (Tid.make name) in
  let store = fresh_store ~rows:n (column_of (Array.copy confs)) in
  bump_confidence
    (bump_structural
       {
         db with
         relations = StrMap.add name r db.relations;
         stores = StrMap.add name store db.stores;
       })
    tids

let confidence db (tid : Tid.t) =
  match store_of db tid with
  | Some st -> read st.conf ~default:0.0 tid.row
  | None -> 0.0

let confidence_cap db (tid : Tid.t) =
  match store_of db tid with
  | Some st -> read st.cap ~default:1.0 tid.row
  | None -> 1.0

let set_confidence db tid p =
  check_conf "confidence" p;
  match store_of db tid with
  | None ->
    invalid_arg
      (Printf.sprintf "Database.set_confidence: unknown tuple %s"
         (Tid.to_string tid))
  | Some st ->
    let cap = read st.cap ~default:1.0 tid.row in
    if p > cap +. 1e-12 then
      invalid_arg
        (Printf.sprintf "Database.set_confidence: %g exceeds cap %g of %s" p
           cap (Tid.to_string tid));
    bump_confidence (write_conf db tid st (Float.min p cap)) [ tid ]

let set_confidence_cap db (tid : Tid.t) cap =
  check_conf "cap" cap;
  match store_of db tid with
  | None ->
    invalid_arg
      (Printf.sprintf "Database.set_confidence_cap: tuple %s not stored"
         (Tid.to_string tid))
  | Some st ->
    let current = read st.conf ~default:0.0 tid.row in
    if cap < current -. 1e-12 then
      invalid_arg
        (Printf.sprintf
           "Database.set_confidence_cap: cap %g below current confidence %g"
           cap current);
    (* caps feed strategy finding, not stored confidences, but bumping the
       confidence epoch (with the touched tuple) keeps every cache layer
       honest at the cost of one targeted invalidation *)
    let cap = write st.cap ~default:1.0 ~rows:st.rows tid.row cap in
    bump_confidence
      { db with stores = StrMap.add tid.rel { st with cap } db.stores }
      [ tid ]

let confidence_fn db tid = confidence db tid

let all_confidences db =
  List.concat_map
    (fun (name, st) ->
      List.init st.rows (fun row ->
          (Tid.make name row, read st.conf ~default:0.0 row)))
    (StrMap.bindings db.stores)

let apply_increments db targets =
  List.fold_left
    (fun db (tid, target) ->
      let current = confidence db tid in
      if target < current -. 1e-9 then
        invalid_arg
          (Printf.sprintf
             "Database.apply_increments: target %g below current %g for %s"
             target current (Tid.to_string tid))
      else
        let cap = confidence_cap db tid in
        set_confidence db tid (Float.min target cap))
    db targets
