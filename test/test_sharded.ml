(* Sharding transparency: hash-partitioning the database may change
   which shard owns a tuple, never what comes back.  Answers, lineage,
   solver outcomes and error strings must be bit-identical to the
   unsharded engine at every (shards, jobs) combination, including after
   an accepted proposal; per-shard tuple counts must match the routing;
   and per-shard epochs/change logs must keep one shard's mutations from
   invalidating another shard's cached confidence classes. *)

module V = Relational.Value
module S = Relational.Schema
module R = Relational.Relation
module Db = Relational.Database
module A = Relational.Algebra
module Eval = Relational.Eval
module Col = Relational.Col_eval
module Sm = Prng.Splitmix
module E = Pcqe.Engine
module F = Lineage.Formula
module Tid = Lineage.Tid

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ---------------- evaluation identity ---------------- *)

let row_ident (a : Eval.row) (b : Eval.row) =
  Relational.Tuple.compare a.tuple b.tuple = 0 && F.equal a.lineage b.lineage

let result_ident a b =
  match (a, b) with
  | Ok (ra : Eval.annotated), Ok (rb : Eval.annotated) ->
    S.equal ra.Eval.schema rb.Eval.schema
    && List.length ra.Eval.rows = List.length rb.Eval.rows
    && List.for_all2 row_ident ra.Eval.rows rb.Eval.rows
  | Error ea, Error eb -> String.equal ea eb
  | _ -> false

(* ---------------- engine transparency (all four solvers) ------------ *)

let mk_rbac () =
  let open Rbac.Core_rbac in
  let m = add_user (add_role empty "analyst") "u" in
  let m = ok (assign_user m ~user:"u" ~role:"analyst") in
  ok (grant m ~role:"analyst" { action = "select"; resource = "*" })

let engine_db rng =
  let r = R.create "R" (S.of_list [ ("k", V.TString); ("n", V.TInt) ]) in
  let s = R.create "S" (S.of_list [ ("k", V.TString); ("m", V.TInt) ]) in
  let db = Db.add_relation (Db.add_relation Db.empty r) s in
  let keys = [| "a"; "b"; "c"; "d" |] in
  let fill db rel count =
    let rec go db i =
      if i = 0 then db
      else
        let vs = [ V.String (Sm.choice rng keys); V.Int (Sm.int_in rng 0 9) ] in
        go (fst (Db.insert db rel vs ~conf:(Sm.float_in rng 0.05 0.95))) (i - 1)
    in
    go db count
  in
  let db = fill db "R" (Sm.int_in rng 2 8) in
  fill db "S" (Sm.int_in rng 0 6)

let queries =
  [|
    "SELECT k, n FROM R";
    "SELECT k FROM R WHERE n > 3";
    "SELECT R.k, S.m FROM R JOIN S ON R.k = S.k";
    "SELECT n FROM R WHERE R.k IN (SELECT k FROM S)";
    "SELECT k, COUNT(*) AS c FROM R GROUP BY k";
  |]

let solvers =
  [|
    Optimize.Solver.Heuristic
      { Optimize.Heuristic.default_config with max_nodes = Some 20_000 };
    Optimize.Solver.greedy;
    Optimize.Solver.divide_conquer;
    Optimize.Solver.Annealing
      { Optimize.Annealing.default_config with
        iterations = 20_000;
        restarts = 1;
      };
  |]

(* everything a requester can observe, proposal and solver verdict
   included; NaN-tolerant via [compare] *)
let fingerprint = function
  | Error m -> Error m
  | Ok (r : E.response) ->
    Ok
      ( r.E.schema,
        List.map (fun x -> (x.E.tuple, x.E.lineage, x.E.confidence)) r.E.released,
        r.E.withheld,
        r.E.ambiguous,
        r.E.requested,
        r.E.threshold,
        Option.map
          (fun (p : E.proposal) ->
            ( p.E.increments,
              p.E.cost,
              p.E.projected_release,
              p.E.solver_name,
              p.E.solver_detail ))
          r.E.proposal,
        r.E.infeasible,
        r.E.degraded )

let scenario rng solver =
  let db = engine_db rng in
  let beta = Sm.float_in rng 0.1 0.9 in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta ]
  in
  let ctx =
    E.make_context ~solver ~db ~rbac:(mk_rbac ()) ~policies ()
  in
  let requests =
    List.init
      (Sm.int_in rng 2 5)
      (fun _ ->
        {
          E.query = Pcqe.Query.sql (Sm.choice rng queries);
          user = "u";
          purpose = "task";
          perc = Sm.float_in rng 0.0 1.0;
        })
  in
  (ctx, requests)

let reshard ctx shards jobs =
  { ctx with E.db = Db.with_shards ctx.E.db shards; jobs }

let qcheck_engine_transparent =
  QCheck.Test.make
    ~name:"engine answers sharded == unsharded (all solvers, post-accept)"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      Array.for_all
        (fun solver ->
          let rng = Sm.of_int seed in
          let ctx, requests = scenario rng solver in
          let cold = List.map (fun r -> E.answer ctx r) requests in
          let proposal =
            List.find_map
              (function Ok (r : E.response) -> r.E.proposal | Error _ -> None)
              cold
          in
          List.for_all
            (fun shards ->
              List.for_all
                (fun jobs ->
                  let ctx' = reshard ctx shards jobs in
                  let warm = List.map (fun r -> E.answer ctx' r) requests in
                  List.for_all2
                    (fun c w -> compare (fingerprint c) (fingerprint w) = 0)
                    cold warm
                  &&
                  (* post-accept: apply the same proposal on both sides
                     and re-answer — per-shard invalidation must not
                     change a single released confidence *)
                  match proposal with
                  | None -> true
                  | Some p ->
                    let base = E.accept_proposal ctx p in
                    let resharded = E.accept_proposal ctx' p in
                    let session = E.Session.create resharded in
                    List.for_all2
                      (fun c w -> compare (fingerprint c) (fingerprint w) = 0)
                      (List.map (fun r -> E.answer base r) requests)
                      (List.map (fun r -> E.Session.answer session r) requests))
                [ 1; 2; 4 ])
            [ 1; 2; 4 ])
        solvers)

(* ---------------- directed: partitioning and epochs ---------------- *)

(* a small sharded db whose tuples provably land on >1 shard *)
let two_shard_fixture () =
  let r = R.create "R" (S.of_list [ ("n", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let db = ref db in
  let tids = ref [] in
  for i = 0 to 15 do
    let db', tid = Db.insert !db "R" [ V.Int i ] ~conf:0.5 in
    db := db';
    tids := tid :: !tids
  done;
  let db = Db.with_shards !db 2 in
  let owned shard =
    List.filter (fun tid -> Db.shard_of_tid db tid = shard) !tids
  in
  match (owned 0, owned 1) with
  | t0 :: _, t1 :: _ -> (db, t0, t1)
  | _ -> Alcotest.fail "hash sent 16 tuples to one shard"

let test_shard_tuple_counts () =
  let db, _, _ = two_shard_fixture () in
  let tuples = Db.shard_tuples db in
  Alcotest.(check int) "shard tuple counts partition the db" 16
    (Array.fold_left ( + ) 0 tuples);
  Alcotest.(check bool) "both shards own tuples" true
    (tuples.(0) > 0 && tuples.(1) > 0)

(* [shard_tuples] against a recount of every stored tuple by [shard_of] *)
let counted_by_shard_of db =
  let shards = Db.shard_count db in
  let counts = Array.make shards 0 in
  List.iter
    (fun name ->
      R.iter
        (fun tid _ ->
          let i = Db.shard_of ~shards tid in
          counts.(i) <- counts.(i) + 1)
        (Db.relation_exn db name))
    (Db.relation_names db);
  counts

let qcheck_shard_tuples =
  let schema = S.of_list [ ("n", V.TInt) ] in
  let rows k = List.init k (fun i -> Relational.Tuple.of_list [ V.Int i ]) in
  let step rng db =
    let name = Sm.choice rng [| "R"; "S" |] in
    let k = Sm.int_in rng 0 12 in
    match Sm.int_in rng 0 3 with
    | 0 when Db.mem_relation db name ->
      fst (Db.insert db name [ V.Int k ] ~conf:0.5)
    | 0 | 1 -> Db.add_relation db (R.of_tuples name schema (rows k))
    | 2 ->
      Db.bulk_load db (R.of_tuples name schema (rows k)) (Array.make k 0.25)
    | _ -> Db.with_shards db (Sm.choice rng [| 1; 2; 4 |])
  in
  QCheck.Test.make ~name:"shard_tuples == count by shard_of" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      List.for_all
        (fun shards ->
          let rec go db n =
            n = 0
            ||
            let db = step rng db in
            Db.shard_tuples db = counted_by_shard_of db && go db (n - 1)
          in
          go (Db.with_shards Db.empty shards) 30)
        [ 1; 2; 4 ])

let test_cross_shard_changed_since () =
  let db, t0, t1 = two_shard_fixture () in
  let s0 = Db.shard_of_tid db t0 and s1 = Db.shard_of_tid db t1 in
  let cv = Db.confidence_vector db in
  let db' = Db.set_confidence db t0 0.9 in
  let cv' = Db.confidence_vector db' in
  Alcotest.(check bool) "owner slot moved" true (cv'.(s0) <> cv.(s0));
  Alcotest.(check int) "other slot untouched" cv.(s1) cv'.(s1);
  Alcotest.(check bool) "owner shard reports the dirty tuple" true
    (Db.shard_changed_since db' ~shard:s0 ~since:cv.(s0)
    = Some (Tid.Set.singleton t0));
  Alcotest.(check bool) "other shard reports nothing" true
    (Db.shard_changed_since db' ~shard:s1 ~since:cv.(s1)
    = Some Tid.Set.empty);
  (* a sibling history's stamp must be rejected, per shard *)
  let sibling = Db.set_confidence db t0 0.1 in
  Alcotest.(check bool) "divergent sibling stamp -> None" true
    (Db.shard_changed_since db' ~shard:s0
       ~since:(Db.confidence_vector sibling).(s0)
    = None)

let test_per_shard_log_truncation () =
  let db, t0, t1 = two_shard_fixture () in
  let s0 = Db.shard_of_tid db t0 and s1 = Db.shard_of_tid db t1 in
  let cv = Db.confidence_vector db in
  (* overflow shard s0's bounded log; shard s1's log must be unharmed *)
  let db' = ref db in
  for i = 1 to 400 do
    db' := Db.set_confidence !db' t0 (float_of_int i /. 1000.0)
  done;
  Alcotest.(check bool) "overflowed shard -> None" true
    (Db.shard_changed_since !db' ~shard:s0 ~since:cv.(s0) = None);
  Alcotest.(check int) "sibling shard epoch never moved" cv.(s1)
    (Db.confidence_vector !db').(s1);
  let db'' = Db.set_confidence !db' t1 0.7 in
  Alcotest.(check bool) "sibling shard log still answers exactly" true
    (Db.shard_changed_since db'' ~shard:s1 ~since:cv.(s1)
    = Some (Tid.Set.singleton t1))

let test_bulk_load_per_shard_logs () =
  let text = "n:int,__confidence:real\n" ^
             String.concat "" (List.init 12 (fun i -> Printf.sprintf "%d,0.5\n" i))
  in
  let db0 = Db.with_shards Db.empty 4 in
  let cv0 = Db.confidence_vector db0 in
  let db = ok (Relational.Csv.load_string_bulk db0 ~name:"r" text) in
  (* each shard's log entry lists exactly the tuples routed to it *)
  for shard = 0 to 3 do
    let expected =
      List.filter
        (fun i -> Db.shard_of_tid db (Tid.make "r" i) = shard)
        (List.init 12 Fun.id)
      |> List.map (fun i -> Tid.make "r" i)
      |> Tid.Set.of_list
    in
    match Db.shard_changed_since db ~shard ~since:cv0.(shard) with
    | Some got ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d log lists its own tuples" shard)
        true (Tid.Set.equal got expected)
    | None ->
      (* an untouched shard keeps its stamp, so the gap is empty *)
      Alcotest.failf "shard %d lost its bulk-load entry" shard
  done;
  (* the sharded bulk load answers identically to the unsharded one *)
  let flat = ok (Relational.Csv.load_string_bulk Db.empty ~name:"r" text) in
  Alcotest.(check bool) "sharded bulk load evaluates identically" true
    (result_ident (Eval.run flat (A.Scan "r")) (Col.run db (A.Scan "r")))

(* ---------------- directed: per-shard cache invalidation ------------ *)

let test_conf_cache_per_shard_flush () =
  let db, t0, t1 = two_shard_fixture () in
  let s0 = Db.shard_of_tid db t0 in
  (* self-join-shaped classes, each over two tuples of one shard: a
     single-tuple class would be answered from the base vector without
     touching the cache *)
  let sibling t =
    let shard = Db.shard_of_tid db t in
    match
      List.find_opt
        (fun u -> u <> t && Db.shard_of_tid db u = shard)
        (List.init 16 (Tid.make "R"))
    with
    | Some u -> u
    | None -> Alcotest.fail "a shard owns a single tuple"
  in
  let pair t = F.conj [ F.var t; F.var (sibling t) ] in
  let f0 = pair t0 and f1 = pair t1 in
  let cache = Pcqe.Conf_cache.create () in
  let price db f = fst (Pcqe.Conf_cache.confidence cache ~db f) in
  ignore (price db f0);
  ignore (price db f1);
  Alcotest.(check int) "both classes cached" 2 (Pcqe.Conf_cache.length cache);
  (* overflow shard s0's change log: sync must flush s0's classes
     wholesale but keep every class living on the other shard *)
  let db' = ref db in
  for i = 1 to 400 do
    db' := Db.set_confidence !db' t0 (float_of_int i /. 1000.0)
  done;
  Pcqe.Conf_cache.sync cache ~db:!db';
  Alcotest.(check bool) "dirty shard's class dropped" false
    (Pcqe.Conf_cache.mem cache f0);
  Alcotest.(check bool) "other shard's class survives" true
    (Pcqe.Conf_cache.mem cache f1);
  (* targeted invalidation still works per shard for small gaps *)
  let db2 = Db.set_confidence !db' t0 0.42 in
  Pcqe.Conf_cache.sync cache ~db:db2;
  Alcotest.(check bool) "recomputed from the live vector" true
    (price db2 f0 = Lineage.Approx.Exact (0.42 *. 0.5));
  (* shard_sizes buckets indexed tuples by owner *)
  let sizes = Pcqe.Conf_cache.shard_sizes cache ~shards:(Db.shard_count db2) in
  Alcotest.(check bool) "both shards indexed" true
    (sizes.(s0) >= 1 && Array.fold_left ( + ) 0 sizes >= 2);
  (* a shard-layout change has no per-shard history: wholesale flush *)
  Pcqe.Conf_cache.sync cache ~db:(Db.with_shards db2 3);
  Alcotest.(check int) "re-partition flushes wholesale" 0
    (Pcqe.Conf_cache.length cache)

(* A session warmed over a sharded store takes a flood of accepted
   raises, all on tuples of one shard and more than that shard's change
   log holds, so the session must flush that shard's classes wholesale.
   Its re-answer equals the cold unsharded engine on the flooded data. *)
let test_session_exact_after_flood () =
  let r = R.create "R" (S.of_list [ ("k", V.TInt); ("n", V.TInt) ]) in
  let rows = 48 in
  let db =
    List.fold_left
      (fun db i ->
        fst
          (Db.insert db "R"
             [ V.Int i; V.Int (i * 7 mod rows) ]
             ~conf:(0.35 +. (0.6 *. float (i * 13 mod rows) /. float rows))))
      (Db.add_relation Db.empty r) (List.init rows Fun.id)
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"task" ~beta:0.6 ]
  in
  let ctx = E.make_context ~db ~rbac:(mk_rbac ()) ~policies () in
  (* a self-join: its two-tuple classes are priced through the cache *)
  let req =
    {
      E.query = Pcqe.Query.sql "SELECT X.k FROM R AS X, R AS Y WHERE X.n = Y.k";
      user = "u";
      purpose = "task";
      perc = 0.3;
    }
  in
  let template =
    match E.answer ctx { req with E.perc = 1.0 } with
    | Ok { E.proposal = Some p; _ } -> p
    | _ -> Alcotest.fail "expected a proposal to carry the flood"
  in
  (* shard 0 of 4 is shard 0 of 2 and of 1 as well *)
  let flood =
    List.filter
      (fun tid -> Db.shard_of ~shards:4 tid = 0)
      (List.init rows (Tid.make "R"))
  in
  let rounds = 1 + (300 / List.length flood) in
  let target k = 0.96 +. (0.0001 *. float k) in
  let flooded =
    Db.apply_increments db
      (List.map (fun tid -> (tid, target (rounds - 1))) flood)
  in
  let cold = fingerprint (E.answer { ctx with E.db = flooded } req) in
  List.iter
    (fun shards ->
      let session =
        E.Session.create { ctx with E.db = Db.with_shards db shards }
      in
      Alcotest.(check bool)
        (Printf.sprintf "warm == cold at %d shards" shards)
        true
        (compare
           (fingerprint (E.answer ctx req))
           (fingerprint (E.Session.answer session req))
        = 0);
      let cv = Db.confidence_vector (E.Session.context session).E.db in
      for k = 0 to rounds - 1 do
        E.Session.accept_proposal session
          {
            template with
            E.increments = List.map (fun tid -> (tid, target k)) flood;
          }
      done;
      Alcotest.(check bool)
        (Printf.sprintf "flood overflowed shard 0's log at %d shards" shards)
        true
        (Db.shard_changed_since (E.Session.context session).E.db ~shard:0
           ~since:cv.(0)
        = None);
      Alcotest.(check bool)
        (Printf.sprintf "post-flood answer == cold at %d shards" shards)
        true
        (compare cold (fingerprint (E.Session.answer session req)) = 0))
    [ 1; 2; 4 ]

let test_prepared_vector_pinning () =
  let db, t0, _ = two_shard_fixture () in
  let views = Relational.Views.empty in
  let p = ok (Pcqe.Prepared.compile ~db ~views (Pcqe.Query.sql "SELECT n FROM R")) in
  Alcotest.(check int) "vector length = shard count" 2
    (Array.length (Pcqe.Prepared.structural_vector p));
  Alcotest.(check bool) "valid against the compiling db" true
    (Pcqe.Prepared.valid p ~db ~views);
  (* confidence-only mutation: still valid *)
  let db_conf = Db.set_confidence db t0 0.9 in
  Alcotest.(check bool) "confidence bump keeps it valid" true
    (Pcqe.Prepared.valid p ~db:db_conf ~views);
  (* insert moves one shard's slot: retired *)
  let db_ins = fst (Db.insert db "R" [ V.Int 99 ] ~conf:0.5) in
  Alcotest.(check bool) "insert retires it" false
    (Pcqe.Prepared.valid p ~db:db_ins ~views);
  (* re-partition changes the vector shape: retired, contents unchanged *)
  Alcotest.(check bool) "re-partition retires it" false
    (Pcqe.Prepared.valid p ~db:(Db.with_shards db 4) ~views)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "sharded"
    [
      ( "identity",
        [
          qcheck qcheck_engine_transparent;
        ] );
      ( "partition",
        [
          Alcotest.test_case "shard tuple counts" `Quick
            test_shard_tuple_counts;
          qcheck qcheck_shard_tuples;
          Alcotest.test_case "bulk load routes per shard" `Quick
            test_bulk_load_per_shard_logs;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "cross-shard changed_since" `Quick
            test_cross_shard_changed_since;
          Alcotest.test_case "per-shard log truncation" `Quick
            test_per_shard_log_truncation;
          Alcotest.test_case "prepared pins the vector" `Quick
            test_prepared_vector_pinning;
        ] );
      ( "conf-cache",
        [
          Alcotest.test_case "per-shard flush" `Quick
            test_conf_cache_per_shard_flush;
          Alcotest.test_case "session exact after a flood" `Quick
            test_session_exact_after_flood;
        ] );
    ]
