(* serve-zipf: warm wire serving.  An in-process Net.Server is driven by
   Net.Client in a closed loop over TCP on the loopback interface.  Each
   connection owns a share of the principals and draws query texts —
   parameterised filters, DISTINCT projections and JOIN … ON — from a
   zipf-skewed universe whose head fits the 128-entry plan cache and
   whose tail does not.  Every 50th operation is a repair: a high-perc
   request on a fresh slice, Client.accept of its parked proposal token
   (a write that bumps the confidence epoch), and the request again. *)

open Common

let sales_rows = 20_000
let region_count = 32
let sales_groups = 50
let slices = 2000
let users = 24
let accept_every = 50
let zipf_s = 1.0
let plan_head = 128
let query_perc = 0.3
let traced_ops = 1500
let warmup_ops = 1500
let identity_samples = 40

(* Client connections of the measured run.  All connections' requests
   execute on the server's threads, which share one OCaml domain; at two
   connections on a two-core host throughput fell by about a third and
   accept latency varied across seeds by up to 0.8 of its median, so the
   end-to-end figures come from one closed-loop connection and the traced
   run reports the nproc-connection throughput as net.conn_scaling. *)
let wire_conns = 1

(* ---- the query universe --------------------------------------------- *)

(* Every text, rank 0 the most popular.  The shapes are interleaved by
   rank — a DISTINCT at every 17th rank, filters and joins alternating
   otherwise — so every seed puts the same shapes at the same
   popularity, and texts of one shape select about as many rows; the
   seed only picks which constants sit at each rank. *)
let universe r =
  let n = sales_rows in
  let shuffled l =
    let a = Array.of_list l in
    Gen.shuffle r a;
    a
  in
  let filters =
    shuffled
      (List.concat_map
         (fun region ->
           List.init 8 (fun b ->
               Printf.sprintf "SELECT Id, Amount FROM Sales WHERE Region = %d AND Amount > %d" region
                 ((n / 2) + b)))
         (List.init region_count Fun.id))
  in
  let distincts =
    shuffled
      (List.init region_count (fun region ->
           Printf.sprintf "SELECT DISTINCT Grp FROM Sales WHERE Region = %d" region))
  in
  let joins =
    shuffled
      (List.init 256 (fun b ->
           let lo = b * n / 256 in
           Printf.sprintf
             "SELECT Sales.Id, Region.Zone FROM Sales JOIN Region ON Sales.Region = Region.Region \
              WHERE Sales.Amount > %d AND Sales.Amount < %d"
             lo (lo + (n / 200))))
  in
  let total = Array.length filters + Array.length distincts + Array.length joins in
  let taken = [| 0; 0; 0 |] in
  Array.init total (fun rank ->
      let shape = if rank mod 17 = 16 then 2 else (taken.(0) + taken.(1)) mod 2 in
      let pool = [| filters; joins; distincts |].(shape) in
      let text = pool.(taken.(shape)) in
      taken.(shape) <- taken.(shape) + 1;
      text)

(* cumulative zipf weights over ranks *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type env = {
  texts : string array;
  cdf : float array;
  sl : Gen.slices;
  p : Gen.principals;
  inputs : inputs;
  seed : int;
}

let generate seed =
  let r = Gen.rng seed in
  let p = Gen.principals ~count:users in
  let sales = Gen.sales (Gen.split r) ~rows:sales_rows ~regions:region_count ~groups:sales_groups in
  let regions = Gen.regions (Gen.split r) ~count:region_count in
  let sl = Gen.slices (Gen.split r) ~count:slices in
  let texts = universe (Gen.split r) in
  let inputs =
    {
      csv =
        [
          ("Sales", Gen.sales_csv sales);
          ("Region", Gen.regions_csv regions);
          ("Item", Gen.items_csv sl);
          ("Link", Gen.links_csv sl);
          ("Source", Gen.sources_csv sl);
        ];
      rbac = Gen.rbac_text p;
      policies = Gen.policy_text ();
      costs = Gen.costs_text sl;
    }
  in
  { texts; cdf = zipf_cdf (Array.length texts); sl; p; inputs; seed }

(* ---- per-connection operation streams ------------------------------- *)

type op =
  | Query of { rank : int; user : int }
  | Repair of { visit : int; accept_no : int; user : int }

(* Connection [c]'s stream (of [conns]) is fixed by the seed.  Its
   [j]-th repair goes to visit [j * conns + c] under role [j mod 4]; over
   its first 20 repairs the (template, role) pairs are all distinct. *)
let stream env ~conns ~conn =
  let r = Gen.rng (env.seed lxor (0x57AE * (conn + 1))) in
  let mine = Array.of_list (Gen.users_of env.p ~conns ~conn) in
  let k = ref 0 in
  fun () ->
    let i = !k in
    incr k;
    if i mod accept_every = accept_every - 1 then begin
      let j = i / accept_every in
      let visit = (j * conns) + conn in
      let ur = Gen.rng (env.seed + (7919 * (visit + 1))) in
      let user = Gen.pick_user ur env.p ~conns ~conn ~role:(j mod Array.length Gen.roles) in
      Repair { visit; accept_no = j; user }
    end
    else
      let rank = zipf_pick env.cdf (Gen.float r) in
      Query { rank; user = mine.(Gen.int r (Array.length mine)) }

(* ---- the wire run ----------------------------------------------------- *)

type accepted = { visit : int; user : int; cost : float }

type tallies = {
  latency : Samples.t;
  accept : Samples.t;
  mutable zipf : int;
  mutable head : int;
  mutable accepts : accepted list;
  mutable conn0_costs : float list;  (** connection 0's accepts, newest first *)
  m : Mutex.t;
}

let tallies () =
  {
    latency = Samples.create ();
    accept = Samples.create ();
    zipf = 0;
    head = 0;
    accepts = [];
    conn0_costs = [];
    m = Mutex.create ();
  }

let locked tl f =
  Mutex.lock tl.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock tl.m) f

(* One closed-loop connection: [warmup] operations into a throwaway
   tally (plans and confidence classes fill the sessions' caches), then
   [seconds] of measured operations.  Returns the measured requests, the
   throughput (median over time slices) and the client's retries. *)
let client_loop env tl ~addr ~conns ~conn ~warmup ~seconds =
  let client = Net.Client.create ~seed:(env.seed + conn) addr in
  let next = stream env ~conns ~conn in
  let slot = conn + 1 in
  let requests = ref 0 in
  let call label f =
    Tally.attempt ();
    let t0 = now () in
    let o = Watchdog.guard slot label f in
    incr requests;
    (o, now () -. t0)
  in
  let answered label = function
    | Net.Client.Answer a -> Some a
    | o ->
      Tally.fail (Printf.sprintf "%s: %s" label (Net.Client.outcome_label o));
      None
  in
  let repair tl ~slot ~visit ~accept_no ~user =
    let s = env.sl.slice_of_visit.(visit) in
    let uname = env.p.users.(user) in
    let sql = Gen.repair_join_sql s in
    let label = Printf.sprintf "serve-zipf conn %d repair %d (slice %d, %s)" conn accept_no s uname in
    let query () = Net.Client.query client ~user:uname ~purpose:Gen.purpose ~perc:Gen.repair_perc sql in
    let o, dt = call label query in
    Samples.add ~slot tl.latency dt;
    match answered label o with
    | None -> ()
    | Some { Net.Wire.proposal_token = None; released; requested; _ } ->
      Tally.check (released >= requested) (lazy (label ^ ": too few rows released and no proposal"))
    | Some { proposal_token = Some token; _ } -> (
      let t0 = now () in
      let o, _ = call (label ^ " accept") (fun () -> Net.Client.accept client ~user:uname ~token) in
      match o with
      | Net.Client.Accepted { cost; _ } -> (
        let o, _ = call (label ^ " re-answer") query in
        Samples.add ~slot tl.accept (now () -. t0);
        locked tl (fun () ->
            tl.accepts <- { visit; user; cost } :: tl.accepts;
            if conn = 0 then tl.conn0_costs <- cost :: tl.conn0_costs);
        match answered (label ^ " re-answer") o with
        | Some a ->
          Tally.check
            (a.Net.Wire.released >= a.requested)
            (lazy
              (Printf.sprintf "%s re-answer: released %d < %d requested" label a.released a.requested))
        | None -> ())
      | o -> Tally.fail (Printf.sprintf "%s accept: %s" label (Net.Client.outcome_label o)))
  in
  let step tl ~slot =
    match next () with
    | Query { rank; user } ->
      let label = Printf.sprintf "serve-zipf conn %d query rank %d" conn rank in
      let o, dt =
        call label (fun () ->
            Net.Client.query client ~user:env.p.users.(user) ~purpose:Gen.purpose ~perc:query_perc
              env.texts.(rank))
      in
      Samples.add ~slot tl.latency dt;
      locked tl (fun () ->
          tl.zipf <- tl.zipf + 1;
          if rank < plan_head then tl.head <- tl.head + 1);
      ignore (answered label o)
    | Repair { visit; accept_no; user } -> repair tl ~slot ~visit ~accept_no ~user
  in
  Fun.protect
    ~finally:(fun () -> Net.Client.close client)
    (fun () ->
      let scratch = tallies () in
      for _ = 1 to warmup do
        step scratch ~slot:0
      done;
      (* accepts made while warming up are part of the served state *)
      locked tl (fun () -> tl.accepts <- scratch.accepts @ tl.accepts);
      requests := 0;
      let win = Windows.create ~seconds in
      let t0 = now () in
      (* connection 0 also runs until the accepts proposal_cost sums *)
      while now () -. t0 < seconds || (conn = 0 && List.length tl.conn0_costs < Gen.prefix_accepts) do
        let r0 = !requests and s0 = now () in
        step tl ~slot:(Windows.slot win ~at:(s0 -. t0));
        Windows.add win ~at:(s0 -. t0) ~requests:(!requests - r0) ~dt:(now () -. s0)
      done;
      (!requests, Windows.qps win, Net.Client.retries_used client))

(* [conns] connections in parallel; qps sums the connections' rates *)
let wire_run env server ~conns ~seconds =
  let tl = tallies () in
  let addr = Net.Server.address server in
  let results = Array.make conns (0, 0.0, 0) in
  let threads =
    List.init conns (fun conn ->
        Thread.create
          (fun () -> results.(conn) <- client_loop env tl ~addr ~conns ~conn ~warmup:warmup_ops ~seconds)
          ())
  in
  List.iter Thread.join threads;
  let qps = Array.fold_left (fun acc (_, q, _) -> acc +. q) 0.0 results in
  let requests = Array.fold_left (fun acc (n, _, _) -> acc + n) 0 results in
  let retries = Array.fold_left (fun acc (_, _, r) -> acc + r) 0 results in
  (tl, requests, qps, retries)

(* ---- in-process replay: what the server does, without the wire ------- *)

(* Per-principal sessions over one published database, as in
   Net.Server: a query answers against the latest published database; an
   accept applies the proposal to it and publishes the result. *)
type replica = { sessions : (string, Pcqe.Engine.Session.t) Hashtbl.t; mutable published : Pcqe.Engine.context }

let replica ctx = { sessions = Hashtbl.create 32; published = ctx }

let replica_answer rp ~traced_run ~user ~perc sql =
  let sess =
    match Hashtbl.find_opt rp.sessions user with
    | Some s -> s
    | None ->
      let s = Pcqe.Engine.Session.create rp.published in
      Hashtbl.replace rp.sessions user s;
      s
  in
  let ctx = { (Pcqe.Engine.Session.context sess) with Pcqe.Engine.db = rp.published.Pcqe.Engine.db } in
  Pcqe.Engine.Session.set_context sess (if traced_run then traced ctx else ctx);
  ( sess,
    Pcqe.Engine.Session.answer sess
      { Pcqe.Engine.query = Pcqe.Query.sql sql; user; purpose = Gen.purpose; perc } )

let replica_accept rp sess pr =
  Pcqe.Engine.Session.accept_proposal sess pr;
  rp.published <- { rp.published with db = (Pcqe.Engine.Session.context sess).Pcqe.Engine.db }

(* Replay [ops] operations of the measured connection's stream through a
   replica.  Returns the run and the share of zipf requests in the
   plan-cache head. *)
let replay env ctx ~layers ~ops =
  let rp = replica ctx in
  let next = stream env ~conns:wire_conns ~conn:0 in
  let run = Run.create ~seconds:infinity in
  let zipf = ref 0 and head = ref 0 in
  let traced_run = Option.is_some layers in
  let answer ?reanswer ?(before = ignore) ~label ~requests ~rows_in ~user ~perc sql =
    match
      Run.timed run ~label ~requests (fun () ->
          before ();
          replica_answer rp ~traced_run ~user ~perc sql)
    with
    | (_, Error e), _, _ ->
      Tally.fail (label ^ ": " ^ e);
      None
    | (sess, Ok resp), alloc, _ ->
      Option.iter (fun l -> Layers.record ?reanswer l ~rows_in ~alloc resp) layers;
      Some (sess, resp)
  in
  let repair_rows = slices * (Gen.items_per_slice + Gen.links_per_slice + Gen.sources_per_slice) in
  for k = 0 to ops - 1 do
    match next () with
    | Query { rank; user } ->
      incr zipf;
      if rank < plan_head then incr head;
      ignore
        (answer
           ~label:(Printf.sprintf "serve-zipf replay op %d" k)
           ~requests:1 ~rows_in:sales_rows ~user:env.p.users.(user) ~perc:query_perc env.texts.(rank))
    | Repair { visit; user; _ } -> (
      let sql = Gen.repair_join_sql env.sl.slice_of_visit.(visit) in
      let user = env.p.users.(user) in
      let label = Printf.sprintf "serve-zipf replay op %d (repair)" k in
      match answer ~label ~requests:1 ~rows_in:repair_rows ~user ~perc:Gen.repair_perc sql with
      | Some (sess, { Pcqe.Engine.proposal = Some pr; _ }) ->
        ignore
          (answer ~reanswer:true
             ~before:(fun () -> replica_accept rp sess pr)
             ~label:(label ^ " re-answer") ~requests:2 ~rows_in:repair_rows ~user ~perc:Gen.repair_perc
             sql)
      | _ -> ())
  done;
  (run, float_of_int !head /. float_of_int !zipf)

(* ---- checks after the timed phase ------------------------------------ *)

(* Rebuild the served database in process: every accepted repair is
   re-answered on a cold context and its proposal applied.  The slices
   are disjoint, so the order does not matter, and each proposal must
   cost exactly what the server reported. *)
let rebuild env ctx accepts =
  List.fold_left
    (fun ctx (a : accepted) ->
      let s = env.sl.slice_of_visit.(a.visit) in
      let label = Printf.sprintf "serve-zipf shadow of slice %d" s in
      match answer_exn ctx ~user:env.p.users.(a.user) ~perc:Gen.repair_perc (Gen.repair_join_sql s) with
      | Ok { Pcqe.Engine.proposal = Some pr; _ } ->
        Tally.check (Float.equal pr.cost a.cost)
          (lazy (Printf.sprintf "%s: proposal costs %.17g in process, %.17g over the wire" label pr.cost a.cost));
        Pcqe.Engine.accept_proposal ctx pr
      | Ok _ ->
        Tally.fail (label ^ ": no proposal in process");
        ctx
      | Error e ->
        Tally.fail (label ^ ": " ^ e);
        ctx)
    ctx (List.rev accepts)

(* On a sample of requests, the wire body must equal the canonical
   encoding of an in-process answer on the same snapshot.  The body names
   the tier that priced each tuple ("cached" once a class is in a
   session's cache), so both sides answer twice and the warm second
   answers are compared. *)
let identity env server shadow_ctx accepts =
  let client = Net.Client.create ~seed:env.seed (Net.Server.address server) in
  Fun.protect
    ~finally:(fun () -> Net.Client.close client)
    (fun () ->
      let r = Gen.rng (env.seed lxor 0x1DE7) in
      let repairs = Array.of_list accepts in
      List.iter
        (fun i ->
          let user, perc, sql =
            if i mod 4 = 3 && Array.length repairs > 0 then
              let a = repairs.(Gen.int r (Array.length repairs)) in
              (a.user, Gen.repair_perc, Gen.repair_join_sql env.sl.slice_of_visit.(a.visit))
            else
              (Gen.int r users, query_perc, env.texts.(zipf_pick env.cdf (Gen.float r)))
          in
          let uname = env.p.users.(user) in
          let label = Printf.sprintf "serve-zipf identity sample %d (%s, %s)" i uname sql in
          let wire () = Net.Client.query client ~user:uname ~purpose:Gen.purpose ~perc sql in
          let sess = Pcqe.Engine.Session.create shadow_ctx in
          let local () =
            Pcqe.Engine.Session.answer sess
              { Pcqe.Engine.query = Pcqe.Query.sql sql; user = uname; purpose = Gen.purpose; perc }
          in
          ignore (wire ());
          ignore (local ());
          match (wire (), local ()) with
          | Net.Client.Answer a, Ok resp ->
            check_release ~label ~beta:(Gen.beta_of env.p user) resp;
            Tally.check
              (String.equal a.Net.Wire.body (Net.Wire.body_of_response resp))
              (lazy (label ^ ": wire body differs from the in-process answer"))
          | o, Ok _ -> Tally.fail (label ^ ": " ^ Net.Client.outcome_label o)
          | _, Error e -> Tally.fail (label ^ ": " ^ e))
        (List.init identity_samples Fun.id))

(* ---- set-up and entry point ------------------------------------------- *)

let listen = Net.Server.Tcp ("127.0.0.1", 0)

let with_server server f = Fun.protect ~finally:(fun () -> Net.Server.stop server) f

let run ~seed ~seconds ~trace =
  let env = generate seed in
  let setup_s, ingest_s, (ctx, server) =
    setup ~jobs:nproc env.inputs
      ~release:(fun (_, server) -> Net.Server.stop server)
      (fun ctx -> (ctx, Net.Server.start ~ctx listen))
  in
  if not trace then begin
    let tl, requests, qps, retries =
      with_server server (fun () ->
          let ((tl, _, _, _) as r) = wire_run env server ~conns:wire_conns ~seconds in
          let shadow_ctx = rebuild env ctx tl.accepts in
          identity env server shadow_ctx tl.accepts;
          r)
    in
    let n_accepts = List.length tl.conn0_costs in
    Printf.printf
      "serve-zipf: %d requests over %d connection(s) in %.2f s after %d warm-up operations; %d \
       latency samples, %d accepts; plan-cache head %.1f%% / tail %.1f%% of %d zipf requests; %d \
       retries\n"
      requests wire_conns seconds warmup_ops (Samples.count tl.latency) (List.length tl.conn0_costs)
      (100.0 *. float_of_int tl.head /. float_of_int tl.zipf)
      (100.0 *. float_of_int (tl.zipf - tl.head) /. float_of_int tl.zipf)
      tl.zipf retries;
    Tally.check (n_accepts >= Gen.prefix_accepts)
      (lazy (Printf.sprintf "serve-zipf: connection 0 accepted %d proposals, %d needed" n_accepts Gen.prefix_accepts));
    let prefix_cost =
      List.rev tl.conn0_costs |> List.filteri (fun i _ -> i < Gen.prefix_accepts) |> List.fold_left ( +. ) 0.0
    in
    end_to_end ~setup_s ~qps ~latency:tl.latency ~accept:tl.accept ~proposal_cost:prefix_cost
  end
  else begin
    (* the wire at one connection and at nproc connections, each on a
       fresh server over the same data *)
    let wire server conns =
      with_server server (fun () ->
          let _, _, qps, retries = wire_run env server ~conns ~seconds:(seconds /. 4.0) in
          let shed = Option.value (List.assoc_opt "net.shed" (Net.Server.stats server)) ~default:0 in
          (qps, shed, retries))
    in
    let qps_one, shed_one, retries_one = wire server wire_conns in
    let qps_n, shed_n, retries_n = wire (Net.Server.start ~ctx listen) nproc in
    Printf.printf "serve-zipf traced: %.1f qps at %d connection(s), %.1f at %d\n" qps_one wire_conns qps_n
      nproc;
    let plain ctx = Run.qps (fst (replay env ctx ~layers:None ~ops:traced_ops)) in
    let parallel = plain ctx in
    let serial = plain { ctx with Pcqe.Engine.jobs = 1 } in
    let layers = Layers.create () in
    layers.ingest_mb_per_s <- float_of_int (input_bytes env.inputs) /. 1048576.0 /. ingest_s;
    let traced_run, head_share = replay env ctx ~layers:(Some layers) ~ops:traced_ops in
    Layers.metrics layers ~net_shed:(shed_one + shed_n) ~net_retries:(retries_one + retries_n)
      ~conn_scaling:(qps_n /. qps_one) ~head_share ~nproc_speedup:(parallel /. serial)
      ~overhead_pct:(100.0 *. (parallel -. Run.qps traced_run) /. parallel)
  end
