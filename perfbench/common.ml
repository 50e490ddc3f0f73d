(* Shared plumbing for the workloads: clocks and samples, the watchdog,
   failure accounting, engine set-up from generated text, profile readers
   and the result line. *)

let now = Unix.gettimeofday
let nproc = max 1 (Domain.recommended_domain_count ())

(* ---- samples --------------------------------------------------------- *)

(* Samples carry the time slot they were taken in (see [Windows]). *)
module Samples = struct
  type t = { mutable a : float array; mutable slot : int array; mutable n : int; m : Mutex.t }

  let create () = { a = Array.make 1024 0.0; slot = Array.make 1024 0; n = 0; m = Mutex.create () }

  let add ?(slot = 0) t x =
    Mutex.lock t.m;
    if t.n = Array.length t.a then begin
      t.a <- Array.append t.a (Array.make t.n 0.0);
      t.slot <- Array.append t.slot (Array.make t.n 0)
    end;
    t.a.(t.n) <- x;
    t.slot.(t.n) <- slot;
    t.n <- t.n + 1;
    Mutex.unlock t.m

  let count t = t.n

  let quantile_of s q =
    let n = Array.length s in
    if n = 0 then 0.0
    else begin
      Array.sort Float.compare s;
      let pos = q *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
    end

  (* linear interpolation between closest ranks, over every sample; 0
     when empty *)
  let quantile t q = quantile_of (Array.sub t.a 0 t.n) q

  (* the median over time slots of each slot's median *)
  let slot_median t =
    let slots = Array.fold_left max 0 (Array.sub t.slot 0 t.n) + 1 in
    let per = Array.make slots [] in
    for i = t.n - 1 downto 0 do
      per.(t.slot.(i)) <- t.a.(i) :: per.(t.slot.(i))
    done;
    let medians =
      Array.to_list per |> List.filter (( <> ) []) |> List.map (fun l -> quantile_of (Array.of_list l) 0.5)
    in
    quantile_of (Array.of_list medians) 0.5
end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The measured time is cut into [count] equal slots.  Throughput and
   the p50 latencies are medians over slots, so a burst of contention
   from outside the process moves one slot rather than the whole figure;
   the tail percentiles pool every sample. *)
module Windows = struct
  let count = 10

  type t = { span : float; reqs : int array; time : float array }

  let create ~seconds = { span = seconds /. float_of_int count; reqs = Array.make count 0; time = Array.make count 0.0 }
  let slot t ~at = min (count - 1) (truncate (at /. t.span))

  (* [requests] finished in [dt] seconds, starting [at] seconds in *)
  let add t ~at ~requests ~dt =
    let i = slot t ~at in
    t.reqs.(i) <- t.reqs.(i) + requests;
    t.time.(i) <- t.time.(i) +. dt

  let qps t =
    median
      (List.filter_map
         (fun i -> if t.time.(i) > 0.0 then Some (float_of_int t.reqs.(i) /. t.time.(i)) else None)
         (List.init count Fun.id))
end

(* ---- failures -------------------------------------------------------- *)

(* Every request attempted and every failed check is counted here; the
   first few failure messages are kept for the report. *)
module Tally = struct
  let m = Mutex.create ()
  let attempted = ref 0
  let failed = ref 0
  let messages = ref []

  let attempt () =
    Mutex.lock m;
    incr attempted;
    Mutex.unlock m

  let fail msg =
    Mutex.lock m;
    incr failed;
    if List.length !messages < 20 then messages := msg :: !messages;
    Mutex.unlock m

  let check cond msg = if not cond then fail (Lazy.force msg)
end

(* ---- result line ----------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line metrics =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!Tally.failed = 0) (max 1 !Tally.attempted) !Tally.failed (String.concat ", " fields)

let report_failures () =
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev !Tally.messages)

(* ---- watchdog -------------------------------------------------------- *)

(* One slot per client thread holds the label and start time of the
   request in flight.  A request past [request_limit_s], or a run past
   [run_limit_s], ends the process as failed with a message naming the
   request — the exact confidence path has no bound, so a stall must not
   hang the benchmark. *)
module Watchdog = struct
  let slots : (string * float) option array = Array.make 64 None
  let m = Mutex.create ()
  let request_limit_s = 20.0
  let run_limit_s = 150.0
  let started = now ()

  let trip msg =
    Printf.printf "watchdog: %s\n" msg;
    Tally.fail ("watchdog: " ^ msg);
    report_failures ();
    print_endline (result_line []);
    flush_all ();
    Unix._exit 3

  let guard slot label f =
    Mutex.lock m;
    slots.(slot) <- Some (label, now ());
    Mutex.unlock m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock m;
        slots.(slot) <- None;
        Mutex.unlock m)
      f

  let rec loop () =
    Thread.delay 0.05;
    let t = now () in
    if t -. started > run_limit_s then trip (Printf.sprintf "run exceeded %.0f s" run_limit_s);
    Mutex.lock m;
    let late =
      Array.fold_left
        (fun acc s ->
          match (acc, s) with
          | None, Some (label, t0) when t -. t0 > request_limit_s -> Some label
          | _ -> acc)
        None slots
    in
    Mutex.unlock m;
    (match late with
    | Some label -> trip (Printf.sprintf "request %s exceeded %.0f s" label request_limit_s)
    | None -> ());
    loop ()

  let start () = ignore (Thread.create loop ())
end

(* ---- engine set-up from generated text ------------------------------- *)

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* the cost file format: "default <spec>" plus "<tid> <spec>" lines *)
let parse_costs text =
  let table = Lineage.Tid.Table.create 4096 in
  let default = ref (Cost.Cost_model.linear ~rate:100.0) in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then
        match String.index_opt line ' ' with
        | None -> failwith ("costs: " ^ line)
        | Some i -> (
          let head = String.sub line 0 i in
          let spec = ok "costs" (Cost.Cost_model.parse (String.sub line (i + 1) (String.length line - i - 1))) in
          if head = "default" then default := spec
          else
            match Lineage.Tid.of_string head with
            | Some tid -> Lineage.Tid.Table.replace table tid spec
            | None -> failwith ("costs: bad tuple id " ^ head)))
    (String.split_on_char '\n' text);
  let default = !default in
  fun tid -> Option.value (Lineage.Tid.Table.find_opt table tid) ~default

type inputs = {
  csv : (string * string) list;  (** relation name, CSV document *)
  rbac : string;
  policies : string;
  costs : string;
}

let input_bytes i = List.fold_left (fun acc (_, t) -> acc + String.length t) 0 i.csv

(* bulk ingest plus context construction; returns the ingest time alone
   too, for relational.ingest_mb_per_s *)
let build_context ~jobs i =
  let t0 = now () in
  let db =
    List.fold_left
      (fun db (name, text) -> ok name (Relational.Csv.load_string_bulk db ~name ~jobs:nproc text))
      Relational.Database.empty i.csv
  in
  let ingest_s = now () -. t0 in
  let rbac = ok "rbac" (Rbac.Config.parse i.rbac) in
  let policies = ok "policies" (Rbac.Policy.parse_store i.policies) in
  let cost_of = parse_costs i.costs in
  (Pcqe.Engine.make_context ~jobs ~cost_of ~db ~rbac ~policies (), ingest_s)

let answer_exn ctx ~user ~perc sql =
  Pcqe.Engine.answer ctx
    { Pcqe.Engine.query = Pcqe.Query.sql sql; user; purpose = Gen.purpose; perc }

(* wall-clock profiling for one answer: a fresh handle per request keeps
   the span forest from growing across the run *)
let traced ctx = { ctx with Pcqe.Engine.obs = Some (Obs.wall ()); profile = true }

(* ---- checks that do not trust the engine ----------------------------- *)

(* the threshold in force must be the β of the user's role, and every
   released tuple must clear it *)
let check_release ~label ~beta (resp : Pcqe.Engine.response) =
  Tally.check
    (resp.Pcqe.Engine.threshold = Some beta)
    (lazy (Printf.sprintf "%s: threshold is not the role's beta %.2f" label beta));
  List.iter
    (fun r ->
      Tally.check
        (r.Pcqe.Engine.confidence > beta)
        (lazy (Printf.sprintf "%s: released a tuple at confidence %.6f <= beta %.2f" label r.confidence beta)))
    resp.released

let check_requested ~label (resp : Pcqe.Engine.response) =
  Tally.check
    (List.length resp.Pcqe.Engine.released >= resp.requested)
    (lazy
      (Printf.sprintf "%s: re-answer after accept released %d < %d requested" label
         (List.length resp.released) resp.requested))

let int_col (t : Relational.Tuple.t) i =
  match Relational.Tuple.get t i with Relational.Value.Int n -> n | _ -> min_int

let close a b = Float.abs (a -. b) <= 1e-9

(* Compare a response against the expected (key, confidence) list the
   benchmark derived from its own data.  Rows within 1e-9 of β are
   skipped (float summation order may put them either side). *)
let check_expected ~label ~beta ~key (resp : Pcqe.Engine.response) expected =
  let got = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace got (key r.Pcqe.Engine.tuple) r.confidence) resp.released;
  let want_released = ref 0 and borderline = ref 0 in
  List.iter
    (fun (k, c) ->
      if close c beta then incr borderline
      else if c > beta then begin
        incr want_released;
        match Hashtbl.find_opt got k with
        | Some g ->
          Tally.check (close g c)
            (lazy (Printf.sprintf "%s: key %d has confidence %.12f, expected %.12f" label k g c))
        | None -> Tally.fail (Printf.sprintf "%s: key %d (confidence %.6f) not released" label k c)
      end
      else
        Tally.check (not (Hashtbl.mem got k))
          (lazy (Printf.sprintf "%s: key %d released at expected confidence %.6f" label k c)))
    expected;
  let n_got = List.length resp.released in
  Tally.check
    (n_got >= !want_released && n_got <= !want_released + !borderline)
    (lazy (Printf.sprintf "%s: released %d rows, expected %d" label n_got !want_released));
  Tally.check
    (n_got + resp.withheld = List.length expected)
    (lazy
      (Printf.sprintf "%s: %d result rows, expected %d" label (n_got + resp.withheld)
         (List.length expected)))

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- set-up and the in-process run loop -------------------------------- *)

let setups = 3

(* Set up [setups] times — bulk ingest, context, then [start ctx] — and
   keep the last result.  An earlier one is [release]d and collected
   before the next is built, so only one copy lives at a time.  Returns
   the median set-up time, the median ingest time and the last result. *)
let setup ?(release = ignore) ~jobs inputs start =
  let last = ref None and times = ref [] and ingests = ref [] in
  for _ = 1 to setups do
    Option.iter release !last;
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let ctx, ingest_s = build_context ~jobs inputs in
    let x = start ctx in
    times := (now () -. t0) :: !times;
    ingests := ingest_s :: !ingests;
    last := Some x
  done;
  (median !times, median !ingests, Option.get !last)

(* run [f] and report the bytes it allocated *)
let allocating f =
  let a0 = Gc.allocated_bytes () in
  let x = f () in
  (x, Gc.allocated_bytes () -. a0)

(* What an in-process run measures.  Busy time — the sum of timed calls —
   is the run's clock, so the checks between calls stay outside it. *)
module Run = struct
  type t = {
    latency : Samples.t;  (** answer requests, except re-answers after an accept *)
    accept : Samples.t;  (** accept plus the re-answer that shows its effect *)
    win : Windows.t;
    mutable requests : int;
    mutable busy : float;
    mutable accepted : int;
    mutable prefix_cost : float;  (** the first [Gen.prefix_accepts] accepted proposals *)
  }

  let create ~seconds =
    {
      latency = Samples.create ();
      accept = Samples.create ();
      win = Windows.create ~seconds;
      requests = 0;
      busy = 0.0;
      accepted = 0;
      prefix_cost = 0.0;
    }

  (* time [f], counted as [requests] requests and watched as [label];
     returns its result, the bytes it allocated and its duration *)
  let timed t ~label ~requests f =
    for _ = 1 to requests do
      Tally.attempt ()
    done;
    let t0 = now () in
    let x, alloc = Watchdog.guard 0 label (fun () -> allocating f) in
    let dt = now () -. t0 in
    Windows.add t.win ~at:t.busy ~requests ~dt;
    t.busy <- t.busy +. dt;
    t.requests <- t.requests + requests;
    (x, alloc, dt)

  (* a sample of the timed call that just took [dt] *)
  let sample t s dt = Samples.add ~slot:(Windows.slot t.win ~at:(t.busy -. dt)) s dt

  let accepted t (pr : Pcqe.Engine.proposal) dt =
    sample t t.accept dt;
    if t.accepted < Gen.prefix_accepts then t.prefix_cost <- t.prefix_cost +. pr.cost;
    t.accepted <- t.accepted + 1

  let qps t = float_of_int t.requests /. t.busy

  let check_prefix t ~workload =
    Tally.check (t.accepted >= Gen.prefix_accepts)
      (lazy (Printf.sprintf "%s: only %d proposals accepted, %d needed" workload t.accepted Gen.prefix_accepts))
end

(* One in-process repair round: the high-perc request and, when it comes
   back with a proposal, [accept] plus the same request again, timed as
   one accept.  Both answers are checked against the benchmark's own
   model: [expected ()] is the (key, confidence) list of the result rows,
   and [raise_to increments] applies a proposal to the model, false when
   it names a tuple outside the slice. *)
let repair_round (run : Run.t) ~label ~beta ~record ~answer ~accept ~expected ~raise_to =
  let key t = int_col t 0 in
  match Run.timed run ~label ~requests:1 answer with
  | Error e, _, _ -> Tally.fail (label ^ ": " ^ e)
  | Ok resp, alloc, dt -> (
    Run.sample run run.latency dt;
    record ~reanswer:false ~alloc resp;
    check_release ~label ~beta resp;
    check_expected ~label ~beta ~key resp (expected ());
    match resp.Pcqe.Engine.proposal with
    | None ->
      Tally.check
        (List.length resp.released >= resp.requested)
        (lazy (label ^ ": too few rows released and no proposal"))
    | Some pr -> (
      let label = label ^ " re-answer" in
      match
        Run.timed run ~label ~requests:2 (fun () ->
            accept pr;
            answer ())
      with
      | Error e, _, _ -> Tally.fail (label ^ ": " ^ e)
      | Ok resp2, alloc, dt ->
        Run.accepted run pr dt;
        record ~reanswer:true ~alloc resp2;
        check_requested ~label resp2;
        check_release ~label ~beta resp2;
        Tally.check (raise_to pr.increments) (lazy (label ^ ": a proposal raised a tuple outside the slice"));
        check_expected ~label ~beta ~key resp2 (expected ())))

let end_to_end ~setup_s ~qps ~latency ~accept ~proposal_cost =
  [
    metric "setup_s" "s" setup_s;
    metric "qps" "1/s" qps;
    metric "latency_p50_ms" "ms" (1e3 *. Samples.slot_median latency);
    metric "latency_p99_ms" "ms" (1e3 *. Samples.quantile latency 0.99);
    metric "accept_p50_ms" "ms" (1e3 *. Samples.slot_median accept);
    metric "accept_p90_ms" "ms" (1e3 *. Samples.quantile accept 0.9);
    metric "proposal_cost" "cost" proposal_cost;
    metric "heap_peak_mb" "MB" (heap_peak_mb ());
  ]
