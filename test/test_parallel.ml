(* Determinism contract of the parallel hot paths: divide-and-conquer
   group solving and synthetic-workload generation must be bit-identical
   at every jobs level. *)

module D = Optimize.Divide_conquer
module Problem = Optimize.Problem
module Synth = Workload.Synth
module Sm = Prng.Splitmix

(* pools are created once; spawning domains per qcheck case is the
   expensive part, not the solves *)
let with_pools f =
  Exec.Pool.with_pool ~jobs:2 (fun p2 ->
      Exec.Pool.with_pool ~jobs:4 (fun p4 ->
          Exec.Pool.with_pool ~jobs:8 (fun p8 -> f [ p2; p4; p8 ])))

let problem_of_seed seed =
  Synth.instance
    ~params:{ Synth.default_params with data_size = 300 }
    ~seed ()

let merged_metrics_fingerprint m =
  ( Obs.Metrics.counters m,
    List.map
      (fun (name, (h : Obs.Metrics.histogram)) ->
        (name, h.Obs.Metrics.count, h.sum))
      (Obs.Metrics.histograms m) )

let qcheck_dnc_jobs_invariant pools =
  QCheck.Test.make
    ~name:"D&C outcome and metrics identical at jobs 1,2,4,8" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let problem = problem_of_seed seed in
      let solve pool =
        let metrics = Obs.Metrics.create () in
        let out = D.solve ~metrics ?pool problem in
        ( out.D.solution,
          out.D.cost,
          out.D.satisfied,
          out.D.stats,
          merged_metrics_fingerprint metrics )
      in
      let reference = solve None in
      List.for_all (fun p -> solve (Some p) = reference) pools)

let qcheck_synth_jobs_invariant pools =
  QCheck.Test.make ~name:"Synth.instance identical at any jobs" ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let make pool =
        let p =
          Synth.instance ?pool
            ~params:{ Synth.default_params with data_size = 400 }
            ~seed ()
        in
        (* full structural fingerprint: every base confidence and every
           lineage formula, not just the instance summary line *)
        ( Array.map (fun b -> (b.Problem.tid, b.Problem.p0)) (Problem.bases p),
          Array.map
            (fun r -> Lineage.Formula.to_string r.Problem.formula)
            (Problem.results p) )
      in
      let reference = make None in
      List.for_all (fun pl -> make (Some pl) = reference) pools)

let () =
  with_pools (fun pools ->
      Alcotest.run "parallel"
        [
          ( "determinism",
            [
              QCheck_alcotest.to_alcotest (qcheck_dnc_jobs_invariant pools);
              QCheck_alcotest.to_alcotest (qcheck_synth_jobs_invariant pools);
            ] );
        ])
