(* repair-loop: the paper's confidence-increment cycle on one warm
   Engine.Session.  Each round takes a slice no earlier round raised and
   asks, as a principal whose β the slice mostly fails, for three of its
   four groups over non-read-once join lineage; D&C strategy finding
   proposes increments, the session accepts them, and the same request is
   answered again. *)

open Common

let slices = 8000
let users = 24
let traced_rounds = 300

(* Strategy finding runs single-threaded here.  At jobs = nproc = 2 the
   D&C pool made rounds about 20% slower and p99 two to four times
   higher and much noisier across seeds (see perfbench/NOTES.md); the
   traced run reports the jobs = nproc throughput as exec.nproc_speedup. *)
let jobs = 1

type env = {
  sl : Gen.slices;
  p : Gen.principals;
  user_of_visit : int array;
  inputs : inputs;
  rows_in : int;  (** base rows the repair plan reads: all of Item and Source *)
}

let generate seed =
  let r = Gen.rng seed in
  let p = Gen.principals ~count:users in
  let sl = Gen.slices (Gen.split r) ~count:slices in
  let ur = Gen.split r in
  let user_of_visit =
    Array.init slices (fun v -> Gen.pick_user ur p ~conns:1 ~conn:0 ~role:(v mod Array.length Gen.roles))
  in
  let inputs =
    {
      csv = [ ("Item", Gen.items_csv sl); ("Link", Gen.links_csv sl); ("Source", Gen.sources_csv sl) ];
      rbac = Gen.rbac_text p;
      policies = Gen.policy_text ();
      costs = Gen.costs_text sl;
    }
  in
  {
    sl;
    p;
    user_of_visit;
    inputs;
    rows_in = slices * (Gen.items_per_slice + Gen.links_per_slice + Gen.sources_per_slice);
  }

(* The benchmark's own model of one slice's confidences: the template's
   values, raised by the increments of accepted proposals. *)
module Model = struct
  type t = { items : float array; links : float array; sources : float array }

  let fresh (sl : Gen.slices) s =
    let t = Gen.template_set.(sl.template_of_slice.(s)) in
    { items = Array.copy t.item_conf; links = Array.copy t.link_conf; sources = Array.copy t.source_conf }

  (* apply increments; false if one names a tuple outside the slice *)
  let raise_to s m increments =
    List.for_all
      (fun ((tid : Lineage.Tid.t), target) ->
        let bump a row0 =
          let i = tid.row - row0 in
          if i >= 0 && i < Array.length a then begin
            a.(i) <- Float.max a.(i) target;
            true
          end
          else false
        in
        match tid.rel with
        | "Item" -> bump m.items (Gen.item_row s 0)
        | "Link" -> bump m.links (Gen.link_row s 0)
        | "Source" -> bump m.sources (Gen.source_row s 0)
        | _ -> false)
      increments

  let expected m =
    List.init Gen.groups_per_slice (fun g ->
        ( g,
          Gen.group_conf ~item:(Array.get m.items) ~link:(Array.get m.links) ~source:(Array.get m.sources)
            g ))
end

(* One round.  [answer] and [accept] go to the session; [record] sees
   every answer (the traced phase feeds it to the layer accumulator). *)
let round env ~answer ~accept ~record run v =
  let s = env.sl.slice_of_visit.(v) in
  let ui = env.user_of_visit.(v) in
  let user = env.p.users.(ui) in
  let sql = Gen.repair_join_sql s in
  let model = Model.fresh env.sl s in
  repair_round run
    ~label:(Printf.sprintf "repair-loop round %d (slice %d, %s)" v s user)
    ~beta:(Gen.beta_of env.p ui) ~record
    ~answer:(fun () -> answer ~user sql)
    ~accept
    ~expected:(fun () -> Model.expected model)
    ~raise_to:(Model.raise_to s model)

(* Rounds on a fresh session over [ctx] until [seconds] of busy time (and
   at least the accepts [proposal_cost] sums) or [max_rounds] rounds,
   whichever comes first. *)
let phase env ctx ~layers ~seconds ~max_rounds =
  let sess = Pcqe.Engine.Session.create ctx in
  let answer ~user sql =
    if Option.is_some layers then
      Pcqe.Engine.Session.set_context sess (traced (Pcqe.Engine.Session.context sess));
    Pcqe.Engine.Session.answer sess
      { Pcqe.Engine.query = Pcqe.Query.sql sql; user; purpose = Gen.purpose; perc = Gen.repair_perc }
  in
  let accept pr = Pcqe.Engine.Session.accept_proposal sess pr in
  let record ~reanswer ~alloc resp =
    Option.iter (fun l -> Layers.record ~reanswer l ~rows_in:env.rows_in ~alloc resp) layers
  in
  let run = Run.create ~seconds in
  let v = ref 0 in
  while (run.busy < seconds || run.accepted < Gen.prefix_accepts) && !v < max_rounds do
    round env ~answer ~accept ~record run !v;
    incr v
  done;
  (run, !v)

let run ~seed ~seconds ~trace =
  let env = generate seed in
  let setup_s, ingest_s, ctx =
    setup ~jobs env.inputs (fun ctx ->
        ignore (Pcqe.Engine.Session.create ctx);
        ctx)
  in
  if not trace then begin
    let run, rounds = phase env ctx ~layers:None ~seconds ~max_rounds:slices in
    Printf.printf "repair-loop: %d rounds, %d accepted, %d requests in %.2f s busy; jobs %d; slices %d\n"
      rounds run.accepted run.requests run.busy jobs slices;
    Run.check_prefix run ~workload:"repair-loop";
    end_to_end ~setup_s ~qps:(Windows.qps run.win) ~latency:run.latency ~accept:run.accept
      ~proposal_cost:run.prefix_cost
  end
  else begin
    let plain ctx = Run.qps (fst (phase env ctx ~layers:None ~seconds:infinity ~max_rounds:traced_rounds)) in
    let serial = plain ctx in
    let parallel = plain { ctx with Pcqe.Engine.jobs = nproc } in
    let layers = Layers.create () in
    layers.ingest_mb_per_s <- float_of_int (input_bytes env.inputs) /. 1048576.0 /. ingest_s;
    let traced_run, _ = phase env ctx ~layers:(Some layers) ~seconds:infinity ~max_rounds:traced_rounds in
    Layers.metrics layers ~nproc_speedup:(parallel /. serial)
      ~overhead_pct:(100.0 *. (serial -. Run.qps traced_run) /. serial)
  end
