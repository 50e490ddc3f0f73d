type estimate =
  | Exact of float
  | Interval of { lo : float; hi : float; estimate : float; samples : int }
  | Failed of string

type mc = { eps : float; delta : float; seed : int; samples_cap : int }

let default_mc = { eps = 0.02; delta = 1e-4; seed = 0; samples_cap = 2_000_000 }

let samples_for mc =
  if not (mc.eps > 0.0 && mc.eps < 1.0) then
    invalid_arg (Printf.sprintf "Approx.samples_for: eps %g outside (0,1)" mc.eps);
  if not (mc.delta > 0.0 && mc.delta < 1.0) then
    invalid_arg
      (Printf.sprintf "Approx.samples_for: delta %g outside (0,1)" mc.delta);
  let n = ceil (log (2.0 /. mc.delta) /. (2.0 *. mc.eps *. mc.eps)) in
  max 1 (min mc.samples_cap (int_of_float n))

let exact_threshold = 4096

type tier = Var | Read_once | Circuit | Obdd | Monte_carlo

let tier_name = function
  | Var -> "var"
  | Read_once -> "read_once"
  | Circuit -> "circuit"
  | Obdd -> "obdd"
  | Monte_carlo -> "monte_carlo"

let build_circuit f = Circuit.compile_opt f

let compile ?(deadline = Resilience.Deadline.never) ?(circuit = build_circuit)
    ?(exact_node_cap = 20_000) f =
  match f with
  | Formula.Var v -> (Var, Some (fun p -> p v))
  | _ when Formula.is_read_once f ->
    (Read_once, Some (fun p -> Prob.read_once p f))
  | _ -> (
    match
      if Prob.shannon_cost_estimate f <= exact_threshold then circuit f
      else None
    with
    | Some c -> (Circuit, Some (Circuit.eval c))
    | None -> (
      (* an expired deadline stops the ladder at its first bounded rung *)
      if Resilience.Deadline.expired deadline then (Obdd, None)
      else
        let m = Bdd.manager () in
        match Bdd.of_formula ~size_cap:exact_node_cap m f with
        | b -> (Obdd, Some (fun p -> Bdd.prob m p b))
        | exception Bdd.Size_cap_exceeded -> (Monte_carlo, None)))

let confidence ?(deadline = Resilience.Deadline.never)
    ?(on_tier = fun (_ : tier) -> ()) ?circuit ?exact_node_cap
    ?(mc = default_mc) p f =
  let tier, eval = compile ~deadline ?circuit ?exact_node_cap f in
  on_tier tier;
  match eval with
  | Some eval -> Exact (eval p)
  | None when Resilience.Deadline.expired deadline -> Failed "deadline"
  | None -> (
    let samples = samples_for mc in
    (* per-formula stream: reproducible and order-independent *)
    let rng = Prng.Splitmix.of_int (mc.seed lxor Formula.hash f) in
    match Prob.monte_carlo ~deadline rng ~samples p f with
    | est ->
      Interval
        {
          lo = Float.max 0.0 (est -. mc.eps);
          hi = Float.min 1.0 (est +. mc.eps);
          estimate = est;
          samples;
        }
    | exception Prob.Deadline_expired -> Failed "deadline"
    | exception e ->
      (* fail closed: an unanswerable confidence is a withheld tuple,
         never a released one *)
      Failed (Printexc.to_string e))

let point = function
  | Exact c -> c
  | Interval { estimate; _ } -> estimate
  | Failed _ -> Float.nan

let releasable ~beta = function
  | Exact c -> if c > beta then `Release else `Withhold
  | Interval { lo; hi; _ } ->
    if lo > beta then `Release
    else if hi > beta then `Ambiguous
    else `Withhold
  | Failed _ -> `Withhold
