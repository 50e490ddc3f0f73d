exception Injected of string

let site_pool_chunk = "pool.chunk"
let site_state_eval = "state.eval"
let site_prob_mc = "prob.mc"
let site_net_accept = "net.accept"
let site_net_read = "net.read"
let site_net_write = "net.write"
let site_net_delay = "net.delay"

let all_sites =
  [
    site_pool_chunk;
    site_state_eval;
    site_prob_mc;
    site_net_accept;
    site_net_read;
    site_net_write;
    site_net_delay;
  ]

(* Registry of known sites.  Plans are validated against it so a typo in
   a chaos plan fails loudly instead of silently never firing. *)
let registry : string list Atomic.t = Atomic.make all_sites

let rec register_site s =
  let cur = Atomic.get registry in
  if not (List.mem s cur) then
    if not (Atomic.compare_and_set registry cur (s :: cur)) then register_site s

let registered_sites () = List.sort compare (Atomic.get registry)

let validate_sites sites =
  let known = Atomic.get registry in
  match List.filter (fun s -> not (List.mem s known)) sites with
  | [] -> ()
  | unknown ->
    invalid_arg
      (Printf.sprintf "Fault: unknown site%s %s (registered: %s)"
         (if List.length unknown > 1 then "s" else "")
         (String.concat ", " unknown)
         (String.concat ", " (registered_sites ())))

type plan = {
  seed : int;
  rate : float;
  max_injections : int;
  counters : (string * int Atomic.t) list;
      (* fixed at creation: the hot path is read-only *)
  injected : int Atomic.t;
}

let plan ?(rate = 0.05) ?max_injections ?sites ~seed () =
  let rate = Float.min 1.0 (Float.max 0.0 rate) in
  let sites =
    match sites with
    | None -> registered_sites ()
    | Some ss ->
      validate_sites ss;
      List.sort_uniq compare ss
  in
  {
    seed;
    rate;
    max_injections = (match max_injections with None -> max_int | Some m -> m);
    counters = List.map (fun s -> (s, Atomic.make 0)) sites;
    injected = Atomic.make 0;
  }

let current : plan option Atomic.t = Atomic.make None

let arm p =
  validate_sites (List.map fst p.counters);
  Atomic.set current (Some p)

let disarm () = Atomic.set current None
let armed () = Atomic.get current <> None

let with_plan p f =
  arm p;
  Fun.protect ~finally:disarm f

(* Per-domain suppression depth: recovery code must not be injectable. *)
let suppress_key = Domain.DLS.new_key (fun () -> ref 0)

let protect f =
  let d = Domain.DLS.get suppress_key in
  incr d;
  Fun.protect ~finally:(fun () -> decr d) f

(* Whether the [i]-th hit of [site] injects is a pure function of
   (seed, site, i): a SplitMix64 generator keyed by mixing the three. *)
let decides p site i =
  let key =
    Int64.add
      (Int64.mul (Int64.of_int p.seed) 0x9E3779B97F4A7C15L)
      (Int64.add
         (Int64.mul (Int64.of_int (Hashtbl.hash site)) 0xBF58476D1CE4E5B9L)
         (Int64.of_int i))
  in
  Prng.Splitmix.coin (Prng.Splitmix.create key) p.rate

let inject p site i =
  if Atomic.get p.injected < p.max_injections && decides p site i then begin
    Atomic.incr p.injected;
    raise (Injected (Printf.sprintf "%s#%d" site i))
  end

(* the armed plan and this site's counter, unless injection is off here *)
let armed_counter site =
  match Atomic.get current with
  | None -> None
  | Some p ->
    if !(Domain.DLS.get suppress_key) > 0 then None
    else Option.map (fun c -> (p, c)) (List.assoc_opt site p.counters)

let hit site =
  match armed_counter site with
  | None -> ()
  | Some (p, c) -> inject p site (Atomic.fetch_and_add c 1)

let reserve site n =
  match armed_counter site with
  | None -> fun _ -> ()
  | Some (p, c) ->
    let base = Atomic.fetch_and_add c n in
    fun i -> inject p site (base + i)

let injected p = Atomic.get p.injected

let hits p =
  List.map (fun (s, c) -> (s, Atomic.get c)) p.counters
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sites p = List.map fst p.counters |> List.sort compare
let seed p = p.seed
let rate p = p.rate

let max_injections p =
  if p.max_injections = max_int then None else Some p.max_injections
