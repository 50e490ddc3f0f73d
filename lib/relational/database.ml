module Tid = Lineage.Tid
module StrMap = Map.Make (String)
module IntMap = Map.Make (Int)

(* Each shard's confidence change log is bounded: callers that fall
   behind a shard by more than this many mutations get [None] from
   [shard_changed_since] and must invalidate that shard wholesale.  The
   capacity applies independently to each shard's log, which is why a
   multi-shard database keeps targeted invalidation alive under write
   volumes that overflow a single log. *)
let log_capacity = 256

(* Per-shard epoch state, the database's only epoch mechanism.  Every
   shard owns its own structural/confidence stamp pair plus a bounded
   change log restricted to the tuples it owns; stamps come from the
   process-global {!Epoch} counter, so equality is exact version
   identity.  The log is a persistent map keyed by stamp, so a write
   adds one binding and, once the log is full, drops the oldest one:
   O(log capacity) instead of a copy of the whole log. *)
type shard = {
  sh_structural : int;
  sh_confidence : int;
  sh_log : Tid.t list IntMap.t; (* stamp -> shard-owned tids changed at it *)
  sh_log_n : int; (* [IntMap.cardinal sh_log] *)
  sh_floor : int; (* largest stamp dropped from [sh_log]; 0 = none *)
}

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
  owned : int array; (* stored rows per owning shard, one slot per shard *)
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

type t = {
  relations : Relation.t StrMap.t;
  stores : store StrMap.t; (* one per relation, same keys *)
  shards : shard array; (* length >= 1; length 1 = unsharded *)
}

let empty_shard =
  {
    sh_structural = 0;
    sh_confidence = 0;
    sh_log = IntMap.empty;
    sh_log_n = 0;
    sh_floor = 0;
  }

let empty =
  { relations = StrMap.empty; stores = StrMap.empty; shards = [| empty_shard |] }

let shard_count db = Array.length db.shards

(* Deterministic hash routing: a pure function of the tuple id and the
   shard count, identical across processes and runs (no randomized
   hashing), so a re-opened database routes every tuple to the same
   shard. *)
let route ~shards rel_hash row =
  ((rel_hash lxor (row * 0x9e3779b1)) land max_int) mod shards

let shard_of ~shards (tid : Tid.t) =
  if shards <= 1 then 0 else route ~shards (Hashtbl.hash tid.rel) tid.row

let shard_of_tid db tid = shard_of ~shards:(Array.length db.shards) tid
let structural_vector db = Array.map (fun s -> s.sh_structural) db.shards
let confidence_vector db = Array.map (fun s -> s.sh_confidence) db.shards

(* Rows [0, rows) of relation [name], counted by owning shard. *)
let count_owned ~shards name rows =
  if shards = 1 then [| rows |]
  else begin
    let owned = Array.make shards 0 and h = Hashtbl.hash name in
    for row = 0 to rows - 1 do
      let i = route ~shards h row in
      owned.(i) <- owned.(i) + 1
    done;
    owned
  end

let shard_tuples db =
  let tuples = Array.make (Array.length db.shards) 0 in
  StrMap.iter
    (fun _ st -> Array.iteri (fun i n -> tuples.(i) <- tuples.(i) + n) st.owned)
    db.stores;
  tuples

(* [only = Some i] stamps just the owning shard (a row landed there; the
   other shards' rows are untouched, so their caches stay valid);
   [None] stamps every shard (relation-level mutation). *)
let bump_structural ?only db =
  let shards =
    Array.mapi
      (fun i s ->
        match only with
        | Some j when j <> i -> s
        | _ -> { s with sh_structural = Epoch.next () })
      db.shards
  in
  { db with shards }

(* One stamp and one log entry for the shard; past [log_capacity]
   entries the oldest is dropped and becomes the floor. *)
let push_log s tids =
  let stamp = Epoch.next () in
  let log = IntMap.add stamp tids s.sh_log in
  if s.sh_log_n < log_capacity then
    { s with sh_confidence = stamp; sh_log = log; sh_log_n = s.sh_log_n + 1 }
  else
    let dropped, _ = IntMap.min_binding log in
    {
      s with
      sh_confidence = stamp;
      sh_log = IntMap.remove dropped log;
      sh_floor = max dropped s.sh_floor;
    }

(* Route the dirty tuples to their owning shards: each touched shard gets
   its own stamp and one log entry listing only its tuples, so a
   per-shard cache falling behind on shard [i] never pays for traffic
   that only ever dirtied shard [j]. *)
let bump_confidence db tids =
  let count = Array.length db.shards in
  let by_shard =
    if count = 1 then [| tids |]
    else begin
      let by_shard = Array.make count [] in
      List.iter
        (fun tid ->
          let i = shard_of ~shards:count tid in
          by_shard.(i) <- tid :: by_shard.(i))
        (List.rev tids);
      by_shard
    end
  in
  let shards =
    Array.mapi
      (fun i s -> match by_shard.(i) with [] -> s | tids -> push_log s tids)
      db.shards
  in
  { db with shards }

(* [since] must be a stamp the shard's logged history actually passed
   through: the current epoch, a stamp recorded in the log, or the floor
   (the last dropped stamp, or the shard's starting stamp).  A stamp from
   a divergent history (a sibling copy mutated independently) is not
   found, and the caller must invalidate wholesale. *)
let shard_changed_since db ~shard ~since =
  let s = db.shards.(shard) in
  if since = s.sh_confidence then Some Tid.Set.empty
  else if since = s.sh_floor || IntMap.mem since s.sh_log then
    let _, _, newer = IntMap.split since s.sh_log in
    Some
      (IntMap.fold
         (fun _ tids acc -> List.fold_left (Fun.flip Tid.Set.add) acc tids)
         newer Tid.Set.empty)
  else None

let with_shards db n =
  if n < 1 then
    invalid_arg (Printf.sprintf "Database.with_shards: shard count %d < 1" n);
  if n = Array.length db.shards then db
  else
    let shards =
      Array.init n (fun _ ->
          (* fresh shards carry no per-shard history: the floor equals the
             starting confidence stamp, so any cache synced against the
             old layout flushes wholesale instead of trusting a log that
             never saw the re-partition *)
          let sc = Epoch.next () in
          {
            sh_structural = Epoch.next ();
            sh_confidence = sc;
            sh_log = IntMap.empty;
            sh_log_n = 0;
            sh_floor = sc;
          })
    in
    let stores =
      StrMap.mapi
        (fun name st -> { st with owned = count_owned ~shards:n name st.rows })
        db.stores
    in
    { db with shards; stores }

(* ------------------------------------------------------------------ *)
(* Relations and mutators                                              *)
(* ------------------------------------------------------------------ *)

(* The store of [tid]'s relation when [tid] names a stored row. *)
let store_of db (tid : Tid.t) =
  match StrMap.find_opt tid.rel db.stores with
  | Some st when tid.row >= 0 && tid.row < st.rows -> Some st
  | _ -> None

(* A fresh store for rows [0, rows) of relation [name]. *)
let fresh_store db name ~rows conf =
  {
    rows;
    owned = count_owned ~shards:(Array.length db.shards) name rows;
    conf;
    cap = no_column;
  }

let add_relation db r =
  let name = Relation.name r in
  let fresh = fresh_store db name ~rows:(Relation.next_row r) no_column in
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
  let only = shard_of_tid db tid in
  let st = StrMap.find rel_name db.stores in
  let owned = Array.copy st.owned in
  owned.(only) <- owned.(only) + 1;
  let db =
    write_conf
      { db with relations = StrMap.add rel_name r db.relations }
      tid
      { st with rows = Relation.next_row r; owned }
      conf
  in
  (bump_confidence (bump_structural ~only db) [ tid ], tid)

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
     bumps both epochs per row); the change-log entries list every loaded
     or dropped tuple, one entry per owning shard, so
     [shard_changed_since] stays truthful when an existing relation is
     replaced *)
  let old_rows =
    match StrMap.find_opt name db.stores with Some st -> st.rows | None -> 0
  in
  let tids = List.init (max n old_rows) (Tid.make name) in
  let store = fresh_store db name ~rows:n (column_of (Array.copy confs)) in
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
