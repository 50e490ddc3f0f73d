(* scan-cold: one-shot analytics through the cold path.  A fact relation
   and its dimensions are bulk-ingested, then distinct requests go
   through Engine.answer with no serving caches: selective filters,
   DISTINCT projections (large read-once disjunctions), top-K, and the
   paper's comma-join form, which the rewriter leaves as a selection over
   a cross product.  Every tenth request is a cold repair round —
   Engine.answer, Engine.accept_proposal, answer again — on a slice of
   the Item relation, the one-shot counterpart of repair-loop. *)

open Common

let sales_rows = 100_000
let region_count = 32
let sales_groups = 50
let store_count = 64
let slices = 1000
let users = 24
let traced_requests = 400
let scan_perc = 0.2

type shape = Filter | Distinct | Top_k | Comma_join | Repair

(* the request mix, by request index mod 10 *)
let shape_of i =
  match i mod 10 with
  | 0 | 3 | 6 -> Filter
  | 1 | 4 | 7 -> Distinct
  | 2 | 5 -> Top_k
  | 8 -> Comma_join
  | _ -> Repair

type env = {
  sales : Gen.sale array;
  regions : Gen.region array;
  stores : Gen.store array;
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
  let stores = Gen.stores (Gen.split r) ~count:store_count ~regions:region_count in
  let sl = Gen.slices (Gen.split r) ~count:slices in
  let inputs =
    {
      csv =
        [
          ("Sales", Gen.sales_csv sales);
          ("Region", Gen.regions_csv regions);
          ("Store", Gen.stores_csv stores);
          ("Item", Gen.items_csv sl);
        ];
      rbac = Gen.rbac_text p;
      policies = Gen.policy_text ();
      costs = Gen.costs_text sl;
    }
  in
  { sales; regions; stores; sl; p; inputs; seed }

(* ---- one request: SQL, the rows its plan reads, and the answer the
   benchmark expects from its own data ------------------------------- *)

type request = {
  shape : shape;
  sql : string;
  rows_in : int;
  expected : (int * float) list Lazy.t;  (** key → confidence, every result row *)
}

let filter_rows env pred = Array.fold_right (fun s acc -> if pred s then s :: acc else acc) env.sales []

let request env r i =
  let n = sales_rows in
  match shape_of i with
  | Filter ->
    let lo = Gen.int r (n - (n / 200)) in
    let hi = lo + (n / 200) in
    {
      shape = Filter;
      sql = Printf.sprintf "SELECT Id, Amount FROM Sales WHERE Amount > %d AND Amount < %d" lo hi;
      rows_in = n;
      expected =
        lazy
          (filter_rows env (fun s -> s.amount > lo && s.amount < hi)
          |> List.map (fun (s : Gen.sale) -> (s.id, s.sconf)));
    }
  | Distinct ->
    let region = Gen.int r region_count and a = Gen.int r (n / 2) in
    {
      shape = Distinct;
      sql = Printf.sprintf "SELECT DISTINCT Grp FROM Sales WHERE Region = %d AND Amount > %d" region a;
      rows_in = n;
      expected =
        lazy
          (let miss = Hashtbl.create 64 in
           List.iter
             (fun (s : Gen.sale) ->
               let m = Option.value (Hashtbl.find_opt miss s.grp) ~default:1.0 in
               Hashtbl.replace miss s.grp (m *. (1.0 -. s.sconf)))
             (filter_rows env (fun s -> s.region = region && s.amount > a));
           Hashtbl.fold (fun g m acc -> (g, 1.0 -. m) :: acc) miss []);
    }
  | Top_k ->
    let region = Gen.int r region_count and a = (n / 2) + Gen.int r (n / 2) in
    {
      shape = Top_k;
      sql =
        Printf.sprintf
          "SELECT Id, Amount FROM Sales WHERE Region = %d AND Amount < %d ORDER BY Amount DESC LIMIT 20"
          region a;
      rows_in = n;
      expected =
        lazy
          (filter_rows env (fun s -> s.region = region && s.amount < a)
          |> List.sort (fun (x : Gen.sale) y -> compare y.amount x.amount)
          |> List.filteri (fun k _ -> k < 20)
          |> List.map (fun (s : Gen.sale) -> (s.id, s.sconf)));
    }
  | Comma_join ->
    let size = Gen.int r 500 in
    {
      shape = Comma_join;
      sql =
        Printf.sprintf
          "SELECT Store.Sid, Region.Zone FROM Store, Region WHERE Store.Region = Region.Region AND \
           Store.Size > %d"
          size;
      rows_in = store_count + region_count;
      expected =
        lazy
          (Array.to_list env.stores
          |> List.filter (fun (s : Gen.store) -> s.size > size)
          |> List.map (fun (s : Gen.store) -> (s.sid, s.stconf *. env.regions.(s.sregion).rconf)));
    }
  | Repair -> assert false

(* ---- the run loop --------------------------------------------------- *)

(* [ctx] is threaded through: a repair round's accept returns the next
   context.  [prepare] wraps the context for one answer (the traced phase
   turns profiling on).  Returns the run and the busy time spent in
   comma joins. *)
let phase env ctx0 ~layers ~seconds ~max_requests =
  let run = Run.create ~seconds in
  let comma_busy = ref 0.0 in
  let ctx = ref ctx0 in
  let prepare c = if Option.is_some layers then traced c else c in
  let r = Gen.rng (env.seed lxor 0x5CA1) in
  let users_rng = Gen.rng (env.seed lxor 0x05E5) in
  let visit = ref 0 in
  let record ?reanswer ~rows_in ~alloc resp =
    Option.iter (fun l -> Layers.record ?reanswer l ~rows_in ~alloc resp) layers
  in
  let scan i =
    let q = request env r i in
    let ui = Gen.int users_rng users in
    let user = env.p.users.(ui) and beta = Gen.beta_of env.p ui in
    let label = Printf.sprintf "scan-cold request %d (%s)" i q.sql in
    match Run.timed run ~label ~requests:1 (fun () -> answer_exn (prepare !ctx) ~user ~perc:scan_perc q.sql) with
    | Error e, _, _ -> Tally.fail (label ^ ": " ^ e)
    | Ok resp, alloc, dt ->
      Run.sample run run.latency dt;
      if q.shape = Comma_join then comma_busy := !comma_busy +. dt;
      record ~rows_in:q.rows_in ~alloc resp;
      check_release ~label ~beta resp;
      check_expected ~label ~beta ~key:(fun t -> int_col t 0) resp (Lazy.force q.expected)
  in
  let repair i =
    let v = !visit in
    incr visit;
    let s = env.sl.slice_of_visit.(v) in
    let ui = Gen.pick_user users_rng env.p ~conns:1 ~conn:0 ~role:(v mod Array.length Gen.roles) in
    let user = env.p.users.(ui) in
    let sql = Gen.repair_items_sql s in
    let confs = Array.copy Gen.template_set.(env.sl.template_of_slice.(s)).item_conf in
    let rows_in = slices * Gen.items_per_slice in
    repair_round run
      ~label:(Printf.sprintf "scan-cold request %d (repair slice %d, %s)" i s user)
      ~beta:(Gen.beta_of env.p ui)
      ~record:(fun ~reanswer ~alloc resp -> record ~reanswer ~rows_in ~alloc resp)
      ~answer:(fun () -> answer_exn (prepare !ctx) ~user ~perc:Gen.repair_perc sql)
      ~accept:(fun pr -> ctx := Pcqe.Engine.accept_proposal !ctx pr)
      ~expected:(fun () -> List.mapi (fun k c -> (Gen.item_row s k, c)) (Array.to_list confs))
      ~raise_to:
        (List.for_all (fun ((tid : Lineage.Tid.t), target) ->
             let k = tid.row - Gen.item_row s 0 in
             tid.rel = "Item" && k >= 0 && k < Gen.items_per_slice
             && begin
                  confs.(k) <- Float.max confs.(k) target;
                  true
                end))
  in
  let i = ref 0 in
  while (run.busy < seconds || run.accepted < Gen.prefix_accepts) && !i < max_requests && !visit < slices do
    if shape_of !i = Repair then repair !i else scan !i;
    incr i
  done;
  (run, !comma_busy)

let run ~seed ~seconds ~trace =
  let env = generate seed in
  let setup_s, ingest_s, ctx = setup ~jobs:nproc env.inputs Fun.id in
  if not trace then begin
    let run, comma_busy = phase env ctx ~layers:None ~seconds ~max_requests:max_int in
    Printf.printf
      "scan-cold: %d requests (%d latency samples), %d accepted, %.2f s busy, comma join %.1f%% of \
       it; jobs %d; sales %d rows\n"
      run.requests (Samples.count run.latency) run.accepted run.busy
      (100.0 *. comma_busy /. run.busy)
      nproc sales_rows;
    Run.check_prefix run ~workload:"scan-cold";
    end_to_end ~setup_s ~qps:(Windows.qps run.win) ~latency:run.latency ~accept:run.accept
      ~proposal_cost:run.prefix_cost
  end
  else begin
    let plain ctx = Run.qps (fst (phase env ctx ~layers:None ~seconds:infinity ~max_requests:traced_requests)) in
    let parallel = plain ctx in
    let serial = plain { ctx with Pcqe.Engine.jobs = 1 } in
    let layers = Layers.create () in
    layers.ingest_mb_per_s <- float_of_int (input_bytes env.inputs) /. 1048576.0 /. ingest_s;
    let traced_run, comma_busy =
      phase env ctx ~layers:(Some layers) ~seconds:infinity ~max_requests:traced_requests
    in
    Layers.metrics layers ~nproc_speedup:(parallel /. serial)
      ~overhead_pct:(100.0 *. (parallel -. Run.qps traced_run) /. parallel)
      ~comma_share:(comma_busy /. traced_run.busy)
  end
