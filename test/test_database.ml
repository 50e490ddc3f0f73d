(* Tests for the database: relation registry and the confidence table. *)

module Db = Relational.Database
module R = Relational.Relation
module V = Relational.Value
module S = Relational.Schema
module Tid = Lineage.Tid

let schema = S.of_list [ ("x", V.TInt) ]

let db_with_r () = Db.add_relation Db.empty (R.create "R" schema)

let test_relation_registry () =
  let db = db_with_r () in
  Alcotest.(check bool) "mem" true (Db.mem_relation db "R");
  Alcotest.(check bool) "not mem" false (Db.mem_relation db "S");
  Alcotest.(check (list string)) "names" [ "R" ] (Db.relation_names db);
  Alcotest.(check bool) "relation_exn raises" true
    (try
       ignore (Db.relation_exn db "S");
       false
     with Invalid_argument _ -> true)

let test_insert_records_confidence () =
  let db = db_with_r () in
  let db, tid = Db.insert db "R" [ V.Int 1 ] ~conf:0.42 in
  Alcotest.(check (float 1e-9)) "stored" 0.42 (Db.confidence db tid);
  Alcotest.(check (float 1e-9)) "unknown tuple is 0" 0.0
    (Db.confidence db (Tid.make "R" 99))

let test_insert_validates () =
  let db = db_with_r () in
  Alcotest.(check bool) "bad confidence" true
    (try
       ignore (Db.insert db "R" [ V.Int 1 ] ~conf:1.5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad relation" true
    (try
       ignore (Db.insert db "S" [ V.Int 1 ] ~conf:0.5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad arity" true
    (try
       ignore (Db.insert db "R" [ V.Int 1; V.Int 2 ] ~conf:0.5);
       false
     with Invalid_argument _ -> true)

let test_set_confidence () =
  let db = db_with_r () in
  let db, tid = Db.insert db "R" [ V.Int 1 ] ~conf:0.2 in
  let db = Db.set_confidence db tid 0.7 in
  Alcotest.(check (float 1e-9)) "updated" 0.7 (Db.confidence db tid);
  Alcotest.(check bool) "unknown tuple rejected" true
    (try
       ignore (Db.set_confidence db (Tid.make "R" 9) 0.5);
       false
     with Invalid_argument _ -> true)

let test_caps () =
  let db = db_with_r () in
  let db, tid = Db.insert db "R" [ V.Int 1 ] ~conf:0.2 in
  Alcotest.(check (float 1e-9)) "default cap" 1.0 (Db.confidence_cap db tid);
  let db = Db.set_confidence_cap db tid 0.8 in
  Alcotest.(check (float 1e-9)) "cap stored" 0.8 (Db.confidence_cap db tid);
  Alcotest.(check bool) "raising beyond cap rejected" true
    (try
       ignore (Db.set_confidence db tid 0.9);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cap below current rejected" true
    (try
       ignore (Db.set_confidence_cap db tid 0.1);
       false
     with Invalid_argument _ -> true)

let test_seed_confidence () =
  let r = R.create "R" schema in
  let r, tid = R.insert r (Relational.Tuple.of_list [ V.Int 5 ]) in
  let db = Db.add_relation Db.empty r in
  let db = Db.seed_confidence db tid 0.33 in
  Alcotest.(check (float 1e-9)) "seeded" 0.33 (Db.confidence db tid);
  Alcotest.(check bool) "seed for unstored tuple rejected" true
    (try
       ignore (Db.seed_confidence db (Tid.make "R" 44) 0.5);
       false
     with Invalid_argument _ -> true)

let test_apply_increments () =
  let db = db_with_r () in
  let db, t0 = Db.insert db "R" [ V.Int 1 ] ~conf:0.2 in
  let db, t1 = Db.insert db "R" [ V.Int 2 ] ~conf:0.3 in
  let db = Db.apply_increments db [ (t0, 0.5); (t1, 0.6) ] in
  Alcotest.(check (float 1e-9)) "t0" 0.5 (Db.confidence db t0);
  Alcotest.(check (float 1e-9)) "t1" 0.6 (Db.confidence db t1);
  Alcotest.(check bool) "decrease rejected" true
    (try
       ignore (Db.apply_increments db [ (t0, 0.1) ]);
       false
     with Invalid_argument _ -> true)

let test_apply_increments_clamps_to_cap () =
  let db = db_with_r () in
  let db, t0 = Db.insert db "R" [ V.Int 1 ] ~conf:0.2 in
  let db = Db.set_confidence_cap db t0 0.6 in
  let db = Db.apply_increments db [ (t0, 0.9) ] in
  Alcotest.(check (float 1e-9)) "clamped to cap" 0.6 (Db.confidence db t0)

let test_all_confidences () =
  let db = db_with_r () in
  let db, _ = Db.insert db "R" [ V.Int 1 ] ~conf:0.2 in
  let db, _ = Db.insert db "R" [ V.Int 2 ] ~conf:0.4 in
  Alcotest.(check int) "two entries" 2 (List.length (Db.all_confidences db))

(* the epoch split that the serving caches key on: structure vs
   confidence advance independently, and apply_increments logs one
   change per raised tuple (so changed_since can answer exactly) *)
let test_epochs_advance_independently () =
  let db = db_with_r () in
  let se0 = Db.structural_epoch db and ce0 = Db.confidence_epoch db in
  let db, t0 = Db.insert db "R" [ V.Int 1 ] ~conf:0.2 in
  let db, t1 = Db.insert db "R" [ V.Int 2 ] ~conf:0.3 in
  Alcotest.(check bool) "insert bumps structural" true
    (Db.structural_epoch db > se0);
  Alcotest.(check bool) "insert bumps confidence" true
    (Db.confidence_epoch db > ce0);
  let se1 = Db.structural_epoch db and ce1 = Db.confidence_epoch db in
  let db = Db.apply_increments db [ (t0, 0.5); (t1, 0.6) ] in
  Alcotest.(check int) "increments leave structure" se1
    (Db.structural_epoch db);
  Alcotest.(check bool) "increments bump confidence" true
    (Db.confidence_epoch db > ce1);
  match Db.changed_since db ~since:ce1 with
  | Some dirty ->
    Alcotest.(check int) "both raised tuples logged" 2
      (Lineage.Tid.Set.cardinal dirty)
  | None -> Alcotest.fail "a 2-increment gap must be answerable"

let load_r db text =
  match Relational.Csv.load_string_bulk db ~name:"R" text with
  | Ok db -> db
  | Error msg -> Alcotest.fail msg

let rejects f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* replacing a relation replaces its whole store: no confidence or cap of
   the old rows survives, and the dropped rows are logged as changed *)
let test_replace_drops_confidences () =
  let db3 = load_r Db.empty "x:int,__confidence:real\n1,0.5\n2,0.6\n3,0.7\n" in
  let db3 = Db.set_confidence_cap db3 (Tid.make "R" 0) 0.9 in
  let db1 = load_r db3 "x:int,__confidence:real\n9,0.2\n" in
  Alcotest.(check (float 0.0)) "new row" 0.2 (Db.confidence db1 (Tid.make "R" 0));
  Alcotest.(check (float 0.0)) "old cap dropped" 1.0
    (Db.confidence_cap db1 (Tid.make "R" 0));
  Alcotest.(check (float 0.0)) "dropped row" 0.0
    (Db.confidence db1 (Tid.make "R" 2));
  Alcotest.(check bool) "dropped row rejects writes" true
    (rejects (fun () -> Db.set_confidence db1 (Tid.make "R" 2) 0.9));
  Alcotest.(check int) "one entry" 1 (List.length (Db.all_confidences db1));
  (match Db.changed_since db1 ~since:(Db.confidence_epoch db3) with
  | Some dirty ->
    Alcotest.(check int) "loaded and dropped rows logged" 3
      (Tid.Set.cardinal dirty)
  | None -> Alcotest.fail "one reload must be answerable");
  Alcotest.(check (float 0.0)) "older value keeps its store" 0.7
    (Db.confidence db3 (Tid.make "R" 2));
  let r = R.create "R" schema in
  let r, _ = R.insert r (Relational.Tuple.of_list [ V.Int 4 ]) in
  let db = Db.add_relation db3 r in
  Alcotest.(check (list (pair string (float 0.0))))
    "add_relation replaces too" [ ("R#0", 0.0) ]
    (List.map (fun (t, c) -> (Tid.to_string t, c)) (Db.all_confidences db));
  Alcotest.(check bool) "replacement bumps confidence" true
    (Db.confidence_epoch db > Db.confidence_epoch db3)

(* row ids from input (a caps.txt line) must never size storage: writes
   far past the stored rows are rejected without allocating in proportion
   to the row id, before and after the overlay has been flattened *)
let test_foreign_row_ids_fail_closed () =
  (* an array sized from the far row id would take 8 GB; the bound leaves
     room for [Gc.allocated_bytes]'s slack of up to a minor heap when a
     minor collection falls inside the measured window *)
  let alloc_bound = 1e7 in
  let db = load_r Db.empty "x:int,__confidence:real\n1,0.5\n2,0.6\n" in
  let far = Tid.make "R" 1_000_000_000 in
  let before = Gc.allocated_bytes () in
  Alcotest.(check bool) "cap rejected" true
    (rejects (fun () -> Db.set_confidence_cap db far 0.8));
  Alcotest.(check bool) "set rejected" true
    (rejects (fun () -> Db.set_confidence db far 0.8));
  Alcotest.(check bool) "seed rejected" true
    (rejects (fun () -> Db.seed_confidence db far 0.8));
  Alcotest.(check bool) "negative row rejected" true
    (rejects (fun () -> Db.set_confidence_cap db (Tid.make "R" (-1)) 0.8));
  Alcotest.(check bool) "unknown relation rejected" true
    (rejects (fun () -> Db.set_confidence_cap db (Tid.make "S" 0) 0.8));
  Alcotest.(check (float 0.0)) "far read" 0.0 (Db.confidence db far);
  Alcotest.(check (float 0.0)) "far cap" 1.0 (Db.confidence_cap db far);
  Alcotest.(check bool) "no allocation in proportion to the row id" true
    (Gc.allocated_bytes () -. before < alloc_bound);
  (* a 64-row relation flattens its overlay once more than 8 distinct rows
     are written, so cycling over all 64 rows flattens it many times; a
     far write after each cycle is still rejected cheaply *)
  let db =
    ref
      (load_r db
         ("x:int,__confidence:real\n"
         ^ String.concat "\n" (List.init 64 (Printf.sprintf "%d,0.5"))
         ^ "\n"))
  in
  for i = 1 to 640 do
    db := Db.set_confidence_cap !db (Tid.make "R" (i mod 64)) (0.6 +. (0.0001 *. float i));
    if i mod 64 = 0 then begin
      let before = Gc.allocated_bytes () in
      let rejected = rejects (fun () -> Db.set_confidence_cap !db far 0.8) in
      let cap = Db.confidence_cap !db far in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "far cap still rejected" true rejected;
      Alcotest.(check (float 0.0)) "far cap still default" 1.0 cap;
      Alcotest.(check bool) "reject after flattens allocates no row-sized array" true
        (allocated < alloc_bound)
    end
  done;
  Alcotest.(check (float 1e-9)) "writes survive the flattens" 0.664
    (Db.confidence_cap !db (Tid.make "R" 0))

(* the change log holds exactly 256 entries: a cache synced 256 writes
   ago still gets its dirty set, one write more and it must flush *)
let test_change_log_boundary () =
  let db = load_r Db.empty "x:int,__confidence:real\n1,0.5\n2,0.6\n" in
  let since = Db.confidence_epoch db in
  let write db i = Db.set_confidence db (Tid.make "R" (i mod 2)) (float i /. 1000.0) in
  let db = List.fold_left write db (List.init 256 succ) in
  Alcotest.(check (option (list string))) "256 writes after since -> Some"
    (Some [ "R#0"; "R#1" ])
    (Option.map
       (fun dirty -> List.map Tid.to_string (Tid.Set.elements dirty))
       (Db.changed_since db ~since));
  let db = write db 257 in
  Alcotest.(check bool) "257th write -> None" true (Db.changed_since db ~since = None);
  let recent = Db.confidence_epoch db in
  Alcotest.(check bool) "a recent stamp still answers" true
    (Db.changed_since (write db 258) ~since:recent = Some (Tid.Set.singleton (Tid.make "R" 0)))

(* a write to a full log adds one entry and drops one: O(log 256) words,
   not a copy of the 256-entry log.  1,000 such writes allocate about
   1.6 MB (a copied log took 25 MB); the 6 MB bound leaves room for
   [Gc.allocated_bytes]'s slack of up to a 2 MB minor heap *)
let test_log_write_allocation () =
  let db =
    load_r Db.empty
      ("x:int,__confidence:real\n"
      ^ String.concat "\n" (List.init 64 (Printf.sprintf "%d,0.5"))
      ^ "\n")
  in
  let write db i = Db.set_confidence db (Tid.make "R" (i mod 64)) (float (i mod 1000) /. 1000.0) in
  let db = List.fold_left write db (List.init 300 Fun.id) in
  let before = Gc.allocated_bytes () in
  let db = ref db in
  for i = 300 to 1299 do
    db := write !db i
  done;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "1000 writes on a full log allocate little" true
    (allocated < 6e6)

(* ------------------------------------------------------------------ *)
(* reference model *)

module StrMap = Map.Make (String)

type model = {
  rows : int StrMap.t;
  conf : float Tid.Map.t;
  cap : float Tid.Map.t;
}

type op =
  | Bulk of string * float list
  | Insert of string * float
  | Seed of Tid.t * float
  | Set of Tid.t * float
  | Cap of Tid.t * float
  | Incr of (Tid.t * float) list

let show_op = function
  | Bulk (r, ps) -> Printf.sprintf "bulk %s %d" r (List.length ps)
  | Insert (r, p) -> Printf.sprintf "insert %s %g" r p
  | Seed (t, p) -> Printf.sprintf "seed %s %g" (Tid.to_string t) p
  | Set (t, p) -> Printf.sprintf "set %s %g" (Tid.to_string t) p
  | Cap (t, p) -> Printf.sprintf "cap %s %g" (Tid.to_string t) p
  | Incr ts ->
    "incr "
    ^ String.concat ","
        (List.map (fun (t, p) -> Printf.sprintf "%s=%g" (Tid.to_string t) p) ts)

let stored m (t : Tid.t) =
  match StrMap.find_opt t.rel m.rows with
  | Some n -> t.row >= 0 && t.row < n
  | None -> false

let m_conf m t = Option.value ~default:0.0 (Tid.Map.find_opt t m.conf)
let m_cap m t = Option.value ~default:1.0 (Tid.Map.find_opt t m.cap)

(* [None]: the operation must be rejected *)
let m_set m t p =
  if stored m t && p <= m_cap m t +. 1e-12 then
    Some { m with conf = Tid.Map.add t (Float.min p (m_cap m t)) m.conf }
  else None

let step m = function
  | Bulk (r, ps) ->
    let drop = Tid.Map.filter (fun (t : Tid.t) _ -> t.rel <> r) in
    Some
      {
        rows = StrMap.add r (List.length ps) m.rows;
        conf =
          List.fold_left
            (fun acc (i, p) -> Tid.Map.add (Tid.make r i) p acc)
            (drop m.conf)
            (List.mapi (fun i p -> (i, p)) ps);
        cap = drop m.cap;
      }
  | Insert (r, p) -> (
    match StrMap.find_opt r m.rows with
    | None -> None
    | Some n ->
      Some
        {
          m with
          rows = StrMap.add r (n + 1) m.rows;
          conf = Tid.Map.add (Tid.make r n) p m.conf;
        })
  | Seed (t, p) ->
    if stored m t then Some { m with conf = Tid.Map.add t p m.conf } else None
  | Set (t, p) -> m_set m t p
  | Cap (t, c) ->
    if stored m t && c >= m_conf m t -. 1e-12 then
      Some { m with cap = Tid.Map.add t c m.cap }
    else None
  | Incr ts ->
    List.fold_left
      (fun acc (t, target) ->
        Option.bind acc (fun m ->
            if target < m_conf m t -. 1e-9 then None
            else m_set m t (Float.min target (m_cap m t))))
      (Some m) ts

let apply db = function
  | Bulk (r, ps) ->
    let rel =
      R.of_tuples r schema
        (List.mapi (fun i _ -> Relational.Tuple.of_list [ V.Int i ]) ps)
    in
    Db.bulk_load db rel (Array.of_list ps)
  | Insert (r, p) -> fst (Db.insert db r [ V.Int 0 ] ~conf:p)
  | Seed (t, p) -> Db.seed_confidence db t p
  | Set (t, p) -> Db.set_confidence db t p
  | Cap (t, c) -> Db.set_confidence_cap db t c
  | Incr ts -> Db.apply_increments db ts

let rels = [ "A"; "B"; "C" ]

let agrees db m =
  let probe =
    List.concat_map
      (fun r ->
        let n = Option.value ~default:0 (StrMap.find_opt r m.rows) in
        List.init (n + 3) (fun i -> Tid.make r (i - 1)))
      ("Z" :: rels)
  in
  List.for_all
    (fun t ->
      Float.equal (Db.confidence db t) (m_conf m t)
      && Float.equal (Db.confidence_cap db t) (m_cap m t))
    probe
  && List.equal
       (fun (t, p) (u, q) -> Tid.equal t u && Float.equal p q)
       (Db.all_confidences db) (Tid.Map.bindings m.conf)

let op_gen =
  let open QCheck.Gen in
  let rel = oneofl rels in
  let p = float_bound_inclusive 1.0 in
  let tid =
    map2 Tid.make rel
      (frequency [ (30, int_bound 30); (1, return 1_000_000_000); (1, return (-1)) ])
  in
  frequency
    [
      (1, map2 (fun r ps -> Bulk (r, ps)) rel (list_size (int_bound 30) p));
      (4, map2 (fun r p -> Insert (r, p)) rel p);
      (4, map2 (fun t p -> Seed (t, p)) tid p);
      (8, map2 (fun t p -> Set (t, p)) tid p);
      (4, map2 (fun t p -> Cap (t, p)) tid p);
      (4, map (fun ts -> Incr ts) (list_size (int_range 1 4) (pair tid p)));
    ]

(* every operation agrees with a plain [Tid.Map] model (rejections
   included), and every earlier database value still reads its own
   confidences after later writes have flattened the overlays *)
let qcheck_matches_model =
  QCheck.Test.make ~name:"dense store matches a Tid.Map model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 50 300) op_gen))
    (fun ops ->
      let init = List.map (fun r -> Bulk (r, [ 0.5; 0.25 ])) rels in
      let history =
        List.fold_left
          (fun history op ->
            let db, m = List.hd history in
            let applied =
              match apply db op with
              | db' -> Ok db'
              | exception Invalid_argument msg -> Error msg
            in
            let next =
              match (step m op, applied) with
              | Some m', Ok db' -> (db', m')
              | None, Error _ -> (db, m)
              | None, Ok _ ->
                QCheck.Test.fail_reportf "accepted: %s" (show_op op)
              | Some _, Error msg ->
                QCheck.Test.fail_reportf "rejected %s: %s" (show_op op) msg
            in
            if not (agrees (fst next) (snd next)) then
              QCheck.Test.fail_reportf "diverged after %s" (show_op op);
            next :: history)
          [ (Db.empty, { rows = StrMap.empty; conf = Tid.Map.empty; cap = Tid.Map.empty }) ]
          (init @ ops)
      in
      List.for_all (fun (db, m) -> agrees db m) history)

let () =
  Alcotest.run "database"
    [
      ( "database",
        [
          Alcotest.test_case "registry" `Quick test_relation_registry;
          Alcotest.test_case "insert" `Quick test_insert_records_confidence;
          Alcotest.test_case "validation" `Quick test_insert_validates;
          Alcotest.test_case "set confidence" `Quick test_set_confidence;
          Alcotest.test_case "caps" `Quick test_caps;
          Alcotest.test_case "seed" `Quick test_seed_confidence;
          Alcotest.test_case "apply increments" `Quick test_apply_increments;
          Alcotest.test_case "cap clamping" `Quick test_apply_increments_clamps_to_cap;
          Alcotest.test_case "all confidences" `Quick test_all_confidences;
          Alcotest.test_case "epochs" `Quick test_epochs_advance_independently;
          Alcotest.test_case "replace drops old rows" `Quick
            test_replace_drops_confidences;
          Alcotest.test_case "foreign row ids" `Quick
            test_foreign_row_ids_fail_closed;
          Alcotest.test_case "change log boundary" `Quick
            test_change_log_boundary;
          Alcotest.test_case "log write allocation" `Quick
            test_log_write_allocation;
          QCheck_alcotest.to_alcotest qcheck_matches_model;
        ] );
    ]
