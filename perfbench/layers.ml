(* Per-layer numbers for the traced run.

   Times come from calls the benchmark makes into each layer's public
   functions (ingest, answer, accept, the wire codec) and from the
   per-stage split of the engine's public [response.profile].  Next to
   every time sits an exact work counter: rows out, classes priced,
   solver evaluations and groups, cache hits and misses, wire bytes and
   accepts applied. *)

open Common

(* tiers named by [released.conf_tier]; anything else lands in "other" *)
let tiers = [ "var"; "read_once"; "shannon"; "circuit"; "cached"; "safe_plan"; "obdd"; "monte_carlo" ]

type t = {
  eval_ms : Samples.t;
  prepare_us : Samples.t;
  confidence_ms : Samples.t;
  policy_us : Samples.t;
  solve_ms : Samples.t;
  codec_us : Samples.t;
  tier_counts : (string, int) Hashtbl.t;
  mutable answers : int;
  mutable alloc_bytes : float;
  mutable rows_in : int;
  mutable rows_out : int;
  mutable released : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable conf_hits : int;
  mutable conf_misses : int;
  mutable eval_reused : int;
  mutable reanswer_reused : int;
  mutable reanswer_recomputed : int;
  mutable solves : int;
  mutable groups : int;
  mutable full_evals : int;
  mutable incremental_evals : int;
  mutable wire_bytes : int;
  mutable encoded : int;
  mutable accepts : int;
  mutable ingest_mb_per_s : float;
}

let create () =
  {
    eval_ms = Samples.create ();
    prepare_us = Samples.create ();
    confidence_ms = Samples.create ();
    policy_us = Samples.create ();
    solve_ms = Samples.create ();
    codec_us = Samples.create ();
    tier_counts = Hashtbl.create 8;
    answers = 0;
    alloc_bytes = 0.0;
    rows_in = 0;
    rows_out = 0;
    released = 0;
    plan_hits = 0;
    plan_misses = 0;
    conf_hits = 0;
    conf_misses = 0;
    eval_reused = 0;
    reanswer_reused = 0;
    reanswer_recomputed = 0;
    solves = 0;
    groups = 0;
    full_evals = 0;
    incremental_evals = 0;
    wire_bytes = 0;
    encoded = 0;
    accepts = 0;
    ingest_mb_per_s = 0.0;
  }

(* ---- reading the engine's public profile ---------------------------- *)

(* summed wall time of the stages whose own name is in [names] *)
let stage_ms (p : Obs.Profile.t) names =
  List.fold_left
    (fun acc (s : Obs.Profile.stage) ->
      match List.rev s.path with
      | last :: _ when List.mem last names -> acc +. (s.elapsed *. 1e3)
      | _ -> acc)
    0.0 p.stages

let has_stage (p : Obs.Profile.t) name =
  List.exists (fun (s : Obs.Profile.stage) -> match List.rev s.path with last :: _ -> last = name | [] -> false) p.stages

let counter (p : Obs.Profile.t) name = Option.value (List.assoc_opt name p.counters) ~default:0

let stat_field (pr : Pcqe.Engine.proposal) name =
  Option.value (List.assoc_opt name (Optimize.Solver.stats_fields pr.solver_stats)) ~default:0.0

(* The wire path of one served answer: build the answer message, encode
   it, frame it, and decode it back — what the server and client do per
   response.  Returns the frame length. *)
let codec t (resp : Pcqe.Engine.response) =
  let t0 = now () in
  let typ, payload = Net.Wire.encode_response (Net.Wire.Answer (Net.Wire.answer_of_response resp)) in
  let frame = Net.Frame.encode ~typ payload in
  let decoded =
    match Net.Frame.decode frame with
    | Ok (typ, payload) -> Net.Wire.decode_response ~typ payload
    | Error e -> Error (Net.Frame.error_to_string e)
  in
  Samples.add t.codec_us ((now () -. t0) *. 1e6);
  (match decoded with
  | Ok (Net.Wire.Answer a) ->
    Tally.check
      (String.equal a.Net.Wire.body (Net.Wire.body_of_response resp))
      (lazy "wire codec: decoded body differs from the encoded response")
  | Ok _ -> Tally.fail "wire codec: decoded a non-answer"
  | Error e -> Tally.fail ("wire codec: " ^ e));
  t.wire_bytes <- t.wire_bytes + String.length frame;
  t.encoded <- t.encoded + 1

(* Record one traced answer and put it through the codec.  [rows_in] is
   the benchmark's own count of base rows the plan reads; [reanswer]
   marks the answer that follows an accepted proposal. *)
let record ?(reanswer = false) t ~rows_in ~alloc (resp : Pcqe.Engine.response) =
  codec t resp;
  t.answers <- t.answers + 1;
  if reanswer then t.accepts <- t.accepts + 1;
  t.alloc_bytes <- t.alloc_bytes +. alloc;
  t.rows_in <- t.rows_in + rows_in;
  let rows = List.length resp.Pcqe.Engine.released + resp.withheld in
  t.rows_out <- t.rows_out + rows;
  t.released <- t.released + List.length resp.released;
  List.iter
    (fun r ->
      let tier = if List.mem r.Pcqe.Engine.conf_tier tiers then r.conf_tier else "other" in
      Hashtbl.replace t.tier_counts tier (1 + Option.value (Hashtbl.find_opt t.tier_counts tier) ~default:0))
    resp.released;
  (match resp.profile with
  | None -> ()
  | Some p ->
    Samples.add t.eval_ms (stage_ms p [ "eval" ]);
    if has_stage p "parse/plan" then
      Samples.add t.prepare_us (1e3 *. stage_ms p [ "parse/plan"; "view-expand"; "rewrite" ]);
    Samples.add t.confidence_ms (stage_ms p [ "confidence" ]);
    Samples.add t.policy_us (1e3 *. stage_ms p [ "policy-filter" ]);
    t.plan_hits <- t.plan_hits + counter p "prepared.hit";
    t.plan_misses <- t.plan_misses + counter p "prepared.miss";
    let reused = counter p "serving.reused_classes" in
    let recomputed = counter p "serving.recomputed_classes" in
    t.conf_hits <- t.conf_hits + reused;
    t.conf_misses <- t.conf_misses + recomputed;
    t.eval_reused <- t.eval_reused + counter p "serving.eval_reused";
    if reanswer then begin
      t.reanswer_reused <- t.reanswer_reused + reused;
      t.reanswer_recomputed <- t.reanswer_recomputed + recomputed
    end);
  match resp.proposal with
  | None -> ()
  | Some pr ->
    t.solves <- t.solves + 1;
    Samples.add t.solve_ms (pr.Pcqe.Engine.elapsed_s *. 1e3);
    t.groups <- t.groups + truncate (stat_field pr "groups");
    t.full_evals <- t.full_evals + truncate (stat_field pr "full_evals");
    t.incremental_evals <- t.incremental_evals + truncate (stat_field pr "incremental_evals")

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The per-layer metric set, identical on every workload; a layer the
   workload does not exercise reports 0.  The labelled arguments are the
   numbers only the workload itself knows. *)
let metrics ?(net_shed = 0) ?(net_retries = 0) ?(conn_scaling = 0.0) ?(head_share = 0.0)
    ?(comma_share = 0.0) t ~nproc_speedup ~overhead_pct =
  (* with serving caches a class is priced on a cache miss; the cold
     path prices every result row *)
  let classes_priced = if t.conf_hits + t.conf_misses > 0 then t.conf_misses else t.rows_out in
  let tier_total = t.released in
  [
    metric "relational.ingest_mb_per_s" "MB/s" t.ingest_mb_per_s;
    metric "relational.eval_ms_p50" "ms" (Samples.quantile t.eval_ms 0.5);
    metric "relational.eval_ms_p99" "ms" (Samples.quantile t.eval_ms 0.99);
    metric "relational.rows_in_per_row_out" "ratio" (ratio t.rows_in t.rows_out);
    metric "relational.rows_out" "count" (float_of_int t.rows_out);
    metric "relational.comma_join_time_share" "ratio" comma_share;
    metric "pcqe.prepare_us_p50" "us" (Samples.quantile t.prepare_us 0.5);
    metric "pcqe.plan_hit_ratio" "ratio" (ratio t.plan_hits (t.plan_hits + t.plan_misses));
    metric "pcqe.plan_hits" "count" (float_of_int t.plan_hits);
    metric "pcqe.plan_misses" "count" (float_of_int t.plan_misses);
    metric "pcqe.zipf_head_share" "ratio" head_share;
    metric "pcqe.conf_hit_ratio" "ratio" (ratio t.conf_hits (t.conf_hits + t.conf_misses));
    metric "pcqe.conf_hits" "count" (float_of_int t.conf_hits);
    metric "pcqe.conf_misses" "count" (float_of_int t.conf_misses);
    metric "pcqe.eval_reuse_ratio" "ratio" (ratio t.eval_reused t.answers);
    metric "pcqe.reused_classes_ratio" "ratio"
      (ratio t.reanswer_reused (t.reanswer_reused + t.reanswer_recomputed));
    metric "pcqe.alloc_kb_per_answer" "kB"
      (if t.answers = 0 then 0.0 else t.alloc_bytes /. 1024.0 /. float_of_int t.answers);
    metric "pcqe.answers" "count" (float_of_int t.answers);
    metric "pcqe.accepts_applied" "count" (float_of_int t.accepts);
    metric "lineage.confidence_ms_p50" "ms" (Samples.quantile t.confidence_ms 0.5);
    metric "lineage.classes_priced" "count" (float_of_int classes_priced);
  ]
  @ List.map
      (fun tier ->
        metric ("lineage.tier_share." ^ tier) "ratio"
          (ratio (Option.value (Hashtbl.find_opt t.tier_counts tier) ~default:0) tier_total))
      (tiers @ [ "other" ])
  @ [
      metric "rbac.policy_filter_us_p50" "us" (Samples.quantile t.policy_us 0.5);
      metric "optimize.solve_ms_p50" "ms" (Samples.quantile t.solve_ms 0.5);
      metric "optimize.solve_ms_p90" "ms" (Samples.quantile t.solve_ms 0.9);
      metric "optimize.solves" "count" (float_of_int t.solves);
      metric "optimize.groups_per_solve" "count" (ratio t.groups t.solves);
      metric "optimize.full_evals" "count" (float_of_int t.full_evals);
      metric "optimize.incremental_evals" "count" (float_of_int t.incremental_evals);
      metric "net.codec_us_p50" "us" (Samples.quantile t.codec_us 0.5);
      metric "net.bytes_per_answer" "B" (ratio t.wire_bytes t.encoded);
      metric "net.wire_bytes" "count" (float_of_int t.wire_bytes);
      metric "net.shed" "count" (float_of_int net_shed);
      metric "net.retries" "count" (float_of_int net_retries);
      metric "net.conn_scaling" "ratio" conn_scaling;
      metric "exec.nproc_speedup" "ratio" nproc_speedup;
      metric "trace.overhead_pct" "%" overhead_pct;
    ]
