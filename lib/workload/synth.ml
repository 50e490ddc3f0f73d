module Sm = Prng.Splitmix
module Tid = Lineage.Tid

type params = {
  data_size : int;
  bases_per_result : int;
  delta : float;
  theta : float;
  beta : float;
  coverage : float;
  p0_lo : float;
  p0_hi : float;
}

let default_params =
  {
    data_size = 10_000;
    bases_per_result = 5;
    delta = 0.1;
    theta = 0.5;
    beta = 0.6;
    coverage = 2.0;
    p0_lo = 0.05;
    p0_hi = 0.15;
  }

let table4 p =
  [
    ("Data size", string_of_int p.data_size);
    ("No. of base tuples per result", string_of_int p.bases_per_result);
    ("Confidence increment step (delta)", Printf.sprintf "%g" p.delta);
    ("Percentage of required results (theta)", Printf.sprintf "%g%%" (100.0 *. p.theta));
    ("Confidence level (beta)", Printf.sprintf "%g" p.beta);
  ]

let make_bases rng ~count ~p0_lo ~p0_hi =
  List.init count (fun i ->
      {
        Optimize.Problem.tid = Tid.make "synth" i;
        p0 = Sm.float_in rng p0_lo p0_hi;
        cap = 1.0;
        cost = Cost.Cost_model.random rng;
      })

(* Formulas are generated in fixed-size chunks, each from its own stream
   split off [rng] before any work starts.  The chunk size is a constant
   (not a function of the pool size) so the generated instance is a pure
   function of the seed — identical with no pool, or a pool of any size. *)
let formula_chunk = 256

let make_formulas ?pool rng ~bases ~num_results ~bases_per_result =
  let tids = Array.of_list (List.map (fun b -> b.Optimize.Problem.tid) bases) in
  let k = Array.length tids in
  if num_results <= 0 then []
  else begin
    let num_chunks = (num_results + formula_chunk - 1) / formula_chunk in
    let rngs = Sm.split_n rng num_chunks in
    let run_chunk ci =
      let rng = rngs.(ci) in
      let n = min formula_chunk (num_results - (ci * formula_chunk)) in
      let out = Array.make n Lineage.Formula.True in
      for j = 0 to n - 1 do
        let chosen =
          Sm.sample_without_replacement rng (min bases_per_result k) k
        in
        let leaves = Array.to_list (Array.map (fun i -> tids.(i)) chosen) in
        out.(j) <- Dag_query.random_monotone_tree rng leaves
      done;
      out
    in
    let chunks =
      match pool with
      | Some pool when Exec.Pool.jobs pool > 1 ->
        Exec.Pool.map_array ~chunk:1 pool run_chunk
          (Array.init num_chunks Fun.id)
      | _ ->
        (* explicit loop: each chunk has a pre-forked stream, but keep the
           evaluation order obvious anyway *)
        let arr = Array.make num_chunks [||] in
        for ci = 0 to num_chunks - 1 do
          arr.(ci) <- run_chunk ci
        done;
        arr
    in
    List.concat_map Array.to_list (Array.to_list chunks)
  end

let required_of ~theta ~beta bases formulas =
  (* theta' = fraction initially above beta; required = (theta - theta')*n *)
  let conf_table = Tid.Table.create (List.length bases) in
  List.iter
    (fun b -> Tid.Table.add conf_table b.Optimize.Problem.tid b.Optimize.Problem.p0)
    bases;
  let lookup tid = Option.value ~default:0.0 (Tid.Table.find_opt conf_table tid) in
  let n = List.length formulas in
  let satisfied =
    List.fold_left
      (fun acc f ->
        if Lineage.Approx.(releasable ~beta (confidence lookup f)) = `Release
        then acc + 1 else acc)
      0 formulas
  in
  let want = int_of_float (ceil (theta *. float_of_int n)) in
  max 0 (min (n - satisfied) (want - satisfied))

let instance ?pool ?(params = default_params) ?incremental ~seed () =
  let rng = Sm.of_int seed in
  let num_results =
    max 4
      (int_of_float
         (Float.round
            (params.coverage *. float_of_int params.data_size
            /. float_of_int params.bases_per_result)))
  in
  let bases =
    make_bases rng ~count:params.data_size ~p0_lo:params.p0_lo
      ~p0_hi:params.p0_hi
  in
  let formulas =
    make_formulas ?pool rng ~bases ~num_results
      ~bases_per_result:params.bases_per_result
  in
  let required = required_of ~theta:params.theta ~beta:params.beta bases formulas in
  Optimize.Problem.make_exn ~delta:params.delta ?incremental ~beta:params.beta
    ~required ~bases ~formulas ()

let small_instance ?(num_bases = 10) ?(num_results = 8) ?(required = 3)
    ?(beta = 0.6) ?(bases_per_result = 5) ?incremental ~seed () =
  let rng = Sm.of_int seed in
  let bases = make_bases rng ~count:num_bases ~p0_lo:0.05 ~p0_hi:0.15 in
  let formulas =
    make_formulas rng ~bases ~num_results ~bases_per_result
  in
  Optimize.Problem.make_exn ~delta:0.1 ?incremental ~beta ~required ~bases
    ~formulas ()
