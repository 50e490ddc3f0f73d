module Tid = Lineage.Tid
module StrMap = Map.Make (String)
module IntMap = Map.Make (Int)

(* The confidence change log is bounded: callers that fall behind by more
   than this many mutations get [None] from [changed_since] and must
   invalidate wholesale.  The same capacity applies independently to each
   shard's log, which is why a multi-shard database keeps targeted
   invalidation alive under write volumes that overflow a single log. *)
let conf_log_capacity = 256

(* Per-shard epoch state.  Every shard owns its own structural/confidence
   stamp pair plus a bounded change log restricted to the tuples it owns;
   stamps come from the same process-global {!Epoch} counter as the
   database-wide ones, so equality is still exact version identity. *)
type shard = {
  sh_structural : int;
  sh_confidence : int;
  sh_log : (int * Tid.t list) list; (* newest-first, shard-owned tids only *)
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
  structural_epoch : int;
      (* advances on schema/tuple mutation: cached plans and cached
         evaluation results keyed on this stamp *)
  confidence_epoch : int;
      (* advances on confidence/cap mutation: cached per-formula
         confidences keyed on this stamp *)
  conf_log : (int * Tid.t list) list;
      (* newest-first: (stamp, tuples whose confidence changed at that
         stamp); bounded to [conf_log_capacity] entries *)
  conf_log_floor : int;
      (* largest stamp ever dropped from the log (0 = nothing dropped):
         history at or below it is unrecoverable *)
  shards : shard array; (* length >= 1; length 1 = unsharded *)
  partition : Relation.t StrMap.t array option Atomic.t;
      (* memoized per-shard relation maps, recomputed lazily after each
         structural mutation.  Confidence-only copies share the cell —
         their relation maps are physically identical, so the memoized
         value is valid for every copy that can see it. *)
}

let fresh_partition () = Atomic.make None

let empty_shard =
  { sh_structural = 0; sh_confidence = 0; sh_log = []; sh_floor = 0 }

let empty =
  {
    relations = StrMap.empty;
    stores = StrMap.empty;
    structural_epoch = 0;
    confidence_epoch = 0;
    conf_log = [];
    conf_log_floor = 0;
    shards = [| empty_shard |];
    partition = fresh_partition ();
  }

let structural_epoch db = db.structural_epoch
let confidence_epoch db = db.confidence_epoch
let shard_count db = Array.length db.shards

(* Deterministic hash routing: a pure function of the tuple id and the
   shard count, identical across processes and runs (no randomized
   hashing), so a re-opened database routes every tuple to the same
   shard. *)
let shard_of ~shards (tid : Tid.t) =
  if shards <= 1 then 0
  else
    let h = Hashtbl.hash tid.Tid.rel lxor (tid.Tid.row * 0x9e3779b1) in
    (h land max_int) mod shards

let shard_of_tid db tid = shard_of ~shards:(Array.length db.shards) tid
let structural_vector db = Array.map (fun s -> s.sh_structural) db.shards
let confidence_vector db = Array.map (fun s -> s.sh_confidence) db.shards

(* [only = Some i] stamps just the owning shard (a row landed there; the
   other shards' views are untouched, so their caches stay valid);
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
  {
    db with
    structural_epoch = Epoch.next ();
    shards;
    partition = fresh_partition ();
  }

let push_log ~log ~floor stamp tids =
  let log = (stamp, tids) :: log in
  let rec take n = function
    | [] -> ([], None)
    | (stamp, _) :: _ when n = 0 -> ([], Some stamp)
    | entry :: rest ->
      let kept, dropped = take (n - 1) rest in
      (entry :: kept, dropped)
  in
  let log, dropped = take conf_log_capacity log in
  (log, match dropped with Some s -> max s floor | None -> floor)

let bump_confidence db tids =
  let stamp = Epoch.next () in
  let conf_log, conf_log_floor =
    push_log ~log:db.conf_log ~floor:db.conf_log_floor stamp tids
  in
  (* route the dirty tuples to their owning shards: each touched shard
     gets its own stamp and one log entry listing only its tuples, so a
     per-shard cache falling behind on shard [i] never pays for traffic
     that only ever dirtied shard [j] *)
  let count = Array.length db.shards in
  let by_shard = Array.make count [] in
  List.iter
    (fun tid ->
      let i = shard_of ~shards:count tid in
      by_shard.(i) <- tid :: by_shard.(i))
    tids;
  let shards =
    Array.mapi
      (fun i s ->
        match by_shard.(i) with
        | [] -> s
        | rev ->
          let stamp = Epoch.next () in
          let sh_log, sh_floor =
            push_log ~log:s.sh_log ~floor:s.sh_floor stamp (List.rev rev)
          in
          { s with sh_confidence = stamp; sh_log; sh_floor })
      db.shards
  in
  { db with confidence_epoch = stamp; conf_log; conf_log_floor; shards }

(* [since] must be a stamp the logged history actually passed through —
   the current epoch, a stamp recorded in the log, or 0 (the empty
   state, ancestor of every chain) with nothing dropped.  A stamp from
   a divergent history (a sibling copy mutated independently) is not
   found, and the caller must invalidate wholesale. *)
let log_changed_since ~current ~log ~floor ~since =
  if since = current then Some Tid.Set.empty
  else if since < floor then None
  else
    let rec collect acc = function
      | [] -> if (since = 0 && floor = 0) || since = floor then Some acc else None
      | (stamp, _) :: _ when stamp = since -> Some acc
      | (stamp, _) :: _ when stamp < since -> None
      | (_, tids) :: rest ->
        collect
          (List.fold_left (fun acc tid -> Tid.Set.add tid acc) acc tids)
          rest
    in
    collect Tid.Set.empty log

let changed_since db ~since =
  log_changed_since ~current:db.confidence_epoch ~log:db.conf_log
    ~floor:db.conf_log_floor ~since

let shard_changed_since db ~shard ~since =
  let s = db.shards.(shard) in
  log_changed_since ~current:s.sh_confidence ~log:s.sh_log ~floor:s.sh_floor
    ~since

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
            sh_log = [];
            sh_floor = sc;
          })
    in
    { db with shards; partition = fresh_partition () }

(* ------------------------------------------------------------------ *)
(* Shard views                                                         *)
(* ------------------------------------------------------------------ *)

let compute_partition relations ~count =
  let owner tid = shard_of ~shards:count tid in
  let parts = Array.make count StrMap.empty in
  StrMap.iter
    (fun name r ->
      let rs = Relation.partition_rows r ~count ~owner in
      Array.iteri (fun i ri -> parts.(i) <- StrMap.add name ri parts.(i)) rs)
    relations;
  parts

let partition db =
  match Atomic.get db.partition with
  | Some p -> p
  | None ->
    let count = Array.length db.shards in
    let p =
      if count = 1 then [| db.relations |]
      else compute_partition db.relations ~count
    in
    (* idempotent publish: racing writers compute the same value from the
       same immutable relation maps *)
    Atomic.set db.partition (Some p);
    p

let shard_view db i =
  let count = Array.length db.shards in
  if i < 0 || i >= count then
    invalid_arg
      (Printf.sprintf "Database.shard_view: shard %d outside [0,%d)" i count);
  if count = 1 then db
  else
    let p = partition db in
    let s = db.shards.(i) in
    {
      relations = p.(i);
      (* the full confidence/cap stores: entries for foreign tuples are
         unreachable from this view's lineage, and sharing the stores
         keeps view construction O(1) past the memoized partition *)
      stores = db.stores;
      structural_epoch = s.sh_structural;
      confidence_epoch = s.sh_confidence;
      conf_log = s.sh_log;
      conf_log_floor = s.sh_floor;
      shards = [| s |];
      partition = Atomic.make (Some [| p.(i) |]);
    }

let shard_tuples db =
  Array.map
    (fun m -> StrMap.fold (fun _ r acc -> acc + Relation.cardinality r) m 0)
    (partition db)

(* ------------------------------------------------------------------ *)
(* Relations and mutators                                              *)
(* ------------------------------------------------------------------ *)

(* The store of [tid]'s relation when [tid] names a stored row. *)
let store_of db (tid : Tid.t) =
  match StrMap.find_opt tid.rel db.stores with
  | Some st when tid.row >= 0 && tid.row < st.rows -> Some st
  | _ -> None

let add_relation db r =
  let name = Relation.name r in
  let fresh = { rows = Relation.next_row r; conf = no_column; cap = no_column } in
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
  let only = shard_of_tid db tid in
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
     or dropped tuple — one entry per owning shard — so [changed_since]
     and [shard_changed_since] stay truthful when an existing relation is
     replaced *)
  let old_rows =
    match StrMap.find_opt name db.stores with Some st -> st.rows | None -> 0
  in
  let tids = List.init (max n old_rows) (Tid.make name) in
  let store = { rows = n; conf = column_of (Array.copy confs); cap = no_column } in
  let had = Atomic.get db.partition in
  let db' =
    bump_structural
      {
        db with
        relations = StrMap.add name r db.relations;
        stores = StrMap.add name store db.stores;
      }
  in
  let count = Array.length db'.shards in
  if count > 1 then begin
    (* route the loaded rows directly to their owning shards in one pass,
       extending (or building) the partition in place of a later lazy
       re-partitioning scan of the whole database *)
    let parts_r =
      Relation.partition_rows r ~count ~owner:(shard_of ~shards:count)
    in
    let base =
      match had with
      | Some old when Array.length old = count -> old
      | _ -> compute_partition (StrMap.remove name db.relations) ~count
    in
    let seeded = Array.mapi (fun i m -> StrMap.add name parts_r.(i) m) base in
    Atomic.set db'.partition (Some seeded)
  end;
  bump_confidence db' tids

let confidence db (tid : Tid.t) =
  match store_of db tid with
  | Some st -> read st.conf ~default:0.0 tid.row
  | None -> 0.0

let confidence_cap db (tid : Tid.t) =
  match store_of db tid with
  | Some st -> read st.cap ~default:1.0 tid.row
  | None -> 1.0

(* Consecutive tuples of one relation (a scan batch) share one store
   lookup, and the common case — no overlay, row inside the array — is a
   direct float-array copy with no boxing. *)
let fill_confidences db tids out =
  let n = Array.length tids in
  if Array.length out < n then
    invalid_arg "Database.fill_confidences: output shorter than input";
  let rel = ref "" and st = ref (StrMap.find_opt "" db.stores) in
  for i = 0 to n - 1 do
    let tid : Tid.t = Array.unsafe_get tids i in
    if not (String.equal tid.rel !rel) then begin
      rel := tid.rel;
      st := StrMap.find_opt tid.rel db.stores
    end;
    match !st with
    | Some { rows; conf; _ } when tid.row >= 0 && tid.row < rows ->
      if conf.over_n = 0 && tid.row < Array.length conf.base then
        Array.unsafe_set out i (Array.unsafe_get conf.base tid.row)
      else Array.unsafe_set out i (read conf ~default:0.0 tid.row)
    | _ -> Array.unsafe_set out i 0.0
  done

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
