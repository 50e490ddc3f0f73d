let rec read_once p = function
  | Formula.True -> 1.0
  | Formula.False -> 0.0
  | Formula.Var v -> p v
  | Formula.Not f -> 1.0 -. read_once p f
  | Formula.And fs ->
    List.fold_left (fun acc f -> acc *. read_once p f) 1.0 fs
  | Formula.Or fs ->
    1.0 -. List.fold_left (fun acc f -> acc *. (1.0 -. read_once p f)) 1.0 fs

(* Variables occurring in more than one sibling subformula.  When there are
   none, siblings are independent and probabilities compose directly.
   [vars_of] is the caller's (memoized) variable-set function. *)
let shared_vars vars_of fs =
  let seen = ref Tid.Set.empty and shared = ref Tid.Set.empty in
  List.iter
    (fun f ->
      let vs = vars_of f in
      shared := Tid.Set.union !shared (Tid.Set.inter !seen vs);
      seen := Tid.Set.union !seen vs)
    fs;
  !shared

(* Pick the variable occurring in the largest number of sibling subformulas:
   expanding on it maximally decouples the rest. *)
let most_shared vars_of fs shared =
  let best = ref None and best_count = ref 0 in
  Tid.Set.iter
    (fun v ->
      let count =
        List.fold_left
          (fun acc f -> if Tid.Set.mem v (vars_of f) then acc + 1 else acc)
          0 fs
      in
      if count > !best_count then begin
        best := Some v;
        best_count := count
      end)
    shared;
  match !best with Some v -> v | None -> assert false

let exact p f =
  let memo : (Formula.t, float) Hashtbl.t = Hashtbl.create 64 in
  (* Variable sets are needed at every decomposition step for every sibling;
     recomputing them bottom-up each time is quadratic in the tree.  One
     memo table per [exact] call caches them per subformula — restriction
     rebuilds syntactically equal subtrees, so structural keying shares the
     sets across Shannon branches too. *)
  let vars_memo : (Formula.t, Tid.Set.t) Hashtbl.t = Hashtbl.create 64 in
  let rec vars_of f =
    match f with
    | Formula.True | Formula.False -> Tid.Set.empty
    | Formula.Var v -> Tid.Set.singleton v
    | Formula.Not g -> vars_of g
    | Formula.And fs | Formula.Or fs -> (
      match Hashtbl.find_opt vars_memo f with
      | Some s -> s
      | None ->
        let s =
          List.fold_left
            (fun acc g -> Tid.Set.union acc (vars_of g))
            Tid.Set.empty fs
        in
        Hashtbl.add vars_memo f s;
        s)
  in
  let rec go f =
    match f with
    | Formula.True -> 1.0
    | Formula.False -> 0.0
    | Formula.Var v -> p v
    | Formula.Not g -> 1.0 -. go g
    | Formula.And fs | Formula.Or fs -> (
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let r = go_nary f fs in
        Hashtbl.add memo f r;
        r)
  and go_nary f fs =
    let shared = shared_vars vars_of fs in
    if Tid.Set.is_empty shared then
      match f with
      | Formula.And _ -> List.fold_left (fun acc g -> acc *. go g) 1.0 fs
      | Formula.Or _ ->
        1.0 -. List.fold_left (fun acc g -> acc *. (1.0 -. go g)) 1.0 fs
      | _ -> assert false
    else begin
      let v = most_shared vars_of fs shared in
      let pv = p v in
      let f1 = Formula.restrict v true f and f0 = Formula.restrict v false f in
      (pv *. go f1) +. ((1.0 -. pv) *. go f0)
    end
  in
  go f

let shannon_cost_estimate f =
  let occ = Tid.Table.create 16 in
  let rec count = function
    | Formula.True | Formula.False -> ()
    | Formula.Var v ->
      Tid.Table.replace occ v
        (1 + Option.value ~default:0 (Tid.Table.find_opt occ v))
    | Formula.Not g -> count g
    | Formula.And fs | Formula.Or fs -> List.iter count fs
  in
  count f;
  let repeated = Tid.Table.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) occ 0 in
  if repeated >= 60 then max_int / 2 else 1 lsl repeated

exception Deadline_expired

(* Sampling is chunked: the caller's generator is split into one child
   stream per fixed-size chunk up front, so the estimate is a pure
   function of (seed, samples, chunk), and the deadline is checked
   between chunks. *)
let monte_carlo ?(deadline = Resilience.Deadline.never) ?(chunk = 4096) rng
    ~samples p f =
  if samples <= 0 then invalid_arg "Prob.monte_carlo: samples must be positive";
  if chunk <= 0 then invalid_arg "Prob.monte_carlo: chunk must be positive";
  let vars = Tid.Set.elements (Formula.vars f) in
  let num_chunks = (samples + chunk - 1) / chunk in
  let rngs = Prng.Splitmix.split_n rng num_chunks in
  (* chaos-testable injection point, modelling the sampler being cut
     off: chunk [ci] is hit [base + ci] *)
  let chunk_fault =
    Resilience.Fault.reserve Resilience.Fault.site_prob_mc num_chunks
  in
  let run_chunk ci =
    if Resilience.Deadline.expired deadline then raise Deadline_expired;
    chunk_fault ci;
    let rng = rngs.(ci) in
    let n = min chunk (samples - (ci * chunk)) in
    let world = Tid.Table.create (List.length vars) in
    let hits = ref 0 in
    for _ = 1 to n do
      List.iter
        (fun v -> Tid.Table.replace world v (Prng.Splitmix.coin rng (p v)))
        vars;
      if Formula.eval (fun v -> Tid.Table.find world v) f then incr hits
    done;
    !hits
  in
  let hits = ref 0 in
  for ci = 0 to num_chunks - 1 do
    hits := !hits + run_chunk ci
  done;
  float_of_int !hits /. float_of_int samples
