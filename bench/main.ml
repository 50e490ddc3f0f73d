(* Benchmark harness reproducing the paper's evaluation (Section 5).

   Every panel of Figure 11 has a subcommand, plus the Table 4 parameter
   dump, five ablations documented in DESIGN.md and micro-benchmarks:

     table4        parameter defaults (Table 4)
     fig11a        heuristic variants, no greedy bound (response time)
     fig11d        heuristic variants seeded with the greedy bound
     fig11b        one-phase vs two-phase greedy (response time)
     fig11e        one-phase vs two-phase greedy (minimum cost)
     fig11c        heuristic/greedy/D&C scalability (response time)
     fig11f        heuristic/greedy/D&C minimum cost
     sweep-bpr     A1: base-tuples-per-result sweep (Table 4 row 2)
     sweep-gamma   A2: partition gamma / tau sensitivity
     sweep-edge    A3: intersection vs union edge weights
     sweep-solvers A4: all four solvers incl. the annealing baseline
     sweep-rewrite A5: evaluation time, naive plan vs rewritten plan
     micro         Bechamel micro-benchmarks of the hot paths
     smoke         every panel at tiny sizes (run by `dune runtest`)

   `dune exec bench/main.exe` runs everything except the slowest points;
   pass `--full` to also run the full-rescan greedy at 50K/100K (several
   minutes each, reproducing the paper's "greedy takes hours" regime).
   Absolute times are hardware-specific; the shapes are what the paper
   reports (see EXPERIMENTS.md).  The end-to-end system benchmark is
   perfbench/ (see BENCHMARK.json). *)

module Problem = Optimize.Problem
module Greedy = Optimize.Greedy
module H = Optimize.Heuristic
module D = Optimize.Divide_conquer
module Synth = Workload.Synth

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Table 4 *)

let table4 () =
  header "Table 4: parameters and their settings";
  List.iter
    (fun (name, value) -> row "  %-40s %s\n" name value)
    (Synth.table4 Synth.default_params);
  row "  %-40s %s\n" "Data size sweep" "10, 1K, 5K, 10K, 50K, 100K";
  row "  %-40s %s\n" "Base tuples per result sweep" "5, 10, 25, 50, 100"

(* ------------------------------------------------------------------ *)
(* Figure 11 (a) and (d): heuristic variants on the small instance
   (10 base tuples, >= 3 results above beta = 0.6, 5 base tuples/result) *)

let heuristic_variants =
  [
    ("Naive", H.naive);
    ("H1", H.only `H1);
    ("H2", H.only `H2);
    ("H3", H.only `H3);
    ("H4", H.only `H4);
    ("All", H.all_heuristics);
  ]

let fig11_ad ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(max_nodes = None) ~seeded () =
  header
    (if seeded then
       "Figure 11(d): heuristic variants, greedy cost as initial bound"
     else "Figure 11(a): heuristic variants, no initial bound");
  row "  small instance: 10 base tuples, 8 results, >=3 above beta=0.6\n";
  row "  %-8s %14s %14s %14s\n" "variant" "time (ms)" "nodes" "cost";
  List.iter
    (fun (name, heuristics) ->
      let times = ref [] and nodes = ref [] and costs = ref [] in
      List.iter
        (fun seed ->
          let p = Synth.small_instance ~seed () in
          let bound =
            if seeded then begin
              let g = Greedy.solve p in
              if g.Greedy.feasible then Some g.Greedy.cost else None
            end
            else None
          in
          let out, dt =
            time (fun () ->
                H.solve
                  ~config:{ H.heuristics; initial_bound = bound; max_nodes }
                  p)
          in
          times := dt :: !times;
          nodes := float_of_int out.H.nodes :: !nodes;
          costs :=
            (match out.H.solution with
            | Some _ -> out.H.cost
            | None -> ( match bound with Some b -> b | None -> nan))
            :: !costs)
        seeds;
      row "  %-8s %14.2f %14.0f %14.2f\n" name
        (1000.0 *. mean !times)
        (mean !nodes) (mean !costs))
    heuristic_variants;
  row "  expected shape: every Hi beats Naive; All beats each single Hi;\n";
  row "  seeding (11d) reduces nodes for every variant.\n"

(* ------------------------------------------------------------------ *)
(* Figure 11 (b) and (e): one-phase vs two-phase greedy *)

let fig11_be ?(sizes = [ 1000; 3000; 5000; 7000; 9000 ]) () =
  header "Figure 11(b)+(e): one-phase vs two-phase greedy";
  row "  %-8s %14s %14s %14s %14s %10s\n" "size" "1p time(s)" "2p time(s)"
    "1p cost" "2p cost" "saving";
  List.iter
    (fun size ->
      let params = { Synth.default_params with data_size = size } in
      let p = Synth.instance ~params ~seed:(size + 1) () in
      let one, t1 =
        time (fun () ->
            Greedy.solve
              ~config:{ Greedy.default_config with two_phase = false }
              p)
      in
      let two, t2 = time (fun () -> Greedy.solve p) in
      row "  %-8d %14.3f %14.3f %14.1f %14.1f %9.1f%%\n" size t1 t2
        one.Greedy.cost two.Greedy.cost
        (100.0
        *. (one.Greedy.cost -. two.Greedy.cost)
        /. Float.max one.Greedy.cost 1e-9))
    sizes;
  row "  expected shape: similar response time (phase 2 is cheap), two-phase\n";
  row "  cost clearly below one-phase (the paper reports >30%% savings).\n"

(* ------------------------------------------------------------------ *)
(* Figure 11 (c) and (f): scalability of the three algorithms *)

let bpr_for_size size = if size < 10_000 then 5 else size / 1000

let fig11_cf ?(sizes = [ 10; 1000; 5000; 10_000; 50_000; 100_000 ]) ~full () =
  header "Figure 11(c)+(f): heuristic vs greedy vs divide-and-conquer";
  row "  (heuristic only runs at tiny sizes; '-' = not run%s)\n"
    (if full then "" else "; pass --full for greedy at 50K/100K");
  row "  %-8s %12s %12s %12s %14s %14s %14s\n" "size" "heur t(s)"
    "greedy t(s)" "dnc t(s)" "heur cost" "greedy cost" "dnc cost";
  List.iter
    (fun size ->
      let params =
        {
          Synth.default_params with
          data_size = size;
          bases_per_result = bpr_for_size size;
        }
      in
      let p =
        if size = 10 then
          Synth.small_instance ~num_bases:10 ~num_results:4 ~required:2 ~seed:7
            ()
        else Synth.instance ~params ~seed:7 ()
      in
      let heur =
        if size <= 10 then begin
          let out, dt = time (fun () -> H.solve p) in
          Some (dt, out.H.cost)
        end
        else None
      in
      let greedy =
        if size <= 10_000 || full then begin
          let out, dt = time (fun () -> Greedy.solve p) in
          Some (dt, if out.Greedy.feasible then out.Greedy.cost else nan)
        end
        else None
      in
      let dnc, dnc_t = time (fun () -> D.solve p) in
      let fmt_t = function
        | Some (t, _) -> Printf.sprintf "%.3f" t
        | None -> "-"
      in
      let fmt_c = function
        | Some (_, c) -> Printf.sprintf "%.1f" c
        | None -> "-"
      in
      row "  %-8d %12s %12s %12.3f %14s %14s %14.1f\n" size (fmt_t heur)
        (fmt_t greedy) dnc_t (fmt_c heur) (fmt_c greedy) dnc.D.cost)
    sizes;
  row "  expected shape: heuristic explodes beyond tiny sizes; greedy is\n";
  row "  fastest on small inputs, D&C overtakes it as size grows and the\n";
  row "  gap widens; heuristic cost is optimal, the other two land close.\n"

(* ------------------------------------------------------------------ *)
(* A1: base-tuples-per-result sweep at 10K (Table 4 row 2) *)

let sweep_bpr ?(size = 10_000) ?(bprs = [ 5; 10; 25; 50; 100 ]) () =
  header (Printf.sprintf "A1: base tuples per result sweep (%d base tuples)" size);
  row "  %-8s %14s %14s %14s %14s\n" "bpr" "greedy t(s)" "dnc t(s)"
    "greedy cost" "dnc cost";
  List.iter
    (fun bpr ->
      let params =
        { Synth.default_params with data_size = size; bases_per_result = bpr }
      in
      let p = Synth.instance ~params ~seed:11 () in
      let g, tg = time (fun () -> Greedy.solve p) in
      let d, td = time (fun () -> D.solve p) in
      row "  %-8d %14.3f %14.3f %14.1f %14.1f\n" bpr tg td g.Greedy.cost
        d.D.cost)
    bprs

(* ------------------------------------------------------------------ *)
(* A2: partition gamma / tau sensitivity for D&C *)

let sweep_gamma ?(size = 10_000) () =
  header "A2: D&C sensitivity to gamma (merge threshold) and tau";
  let p =
    Synth.instance
      ~params:{ Synth.default_params with data_size = size }
      ~seed:13 ()
  in
  row "  %d-base-tuple instance; default gamma=2, tau=12\n" size;
  row "  %-10s %-6s %12s %12s %10s\n" "gamma" "tau" "time (s)" "cost" "groups";
  List.iter
    (fun gamma ->
      List.iter
        (fun tau ->
          let config =
            {
              D.default_config with
              partition = { Optimize.Partition.default_config with gamma };
              tau;
            }
          in
          let out, dt = time (fun () -> D.solve ~config p) in
          row "  %-10.1f %-6d %12.3f %12.1f %10d\n" gamma tau dt out.D.cost
            out.D.num_groups)
        [ 0; 12 ])
    [ 1.0; 2.0; 3.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* A3: edge-weight semantics ablation *)

let sweep_edge ?(size = 10_000) () =
  header
    "A3: partition edge weights, shared-count (prose) vs union (pseudocode)";
  let p =
    Synth.instance
      ~params:{ Synth.default_params with data_size = size }
      ~seed:17 ()
  in
  row "  %-14s %12s %12s %10s\n" "semantics" "time (s)" "cost" "groups";
  List.iter
    (fun (name, semantics) ->
      let config =
        {
          D.default_config with
          partition = { Optimize.Partition.default_config with semantics };
        }
      in
      let out, dt = time (fun () -> D.solve ~config p) in
      row "  %-14s %12.3f %12.1f %10d\n" name dt out.D.cost out.D.num_groups)
    [
      ("shared-count", Optimize.Partition.Shared_count);
      ("union-size", Optimize.Partition.Union_size);
    ]

(* ------------------------------------------------------------------ *)
(* A4: all four solvers head to head (annealing is our extra baseline) *)

let sweep_solvers ?(size = 1000) ?(annealing_iters = 2_000_000) () =
  header
    (Printf.sprintf
       "A4: solver comparison including the annealing baseline (%d)" size);
  let p =
    Synth.instance ~params:{ Synth.default_params with data_size = size }
      ~seed:23 ()
  in
  row "  %-22s %12s %14s %10s\n" "solver" "time (s)" "cost" "feasible";
  List.iter
    (fun algorithm ->
      let out = Optimize.Solver.solve ~algorithm p in
      row "  %-22s %12.3f %14s %10b\n"
        (Optimize.Solver.algorithm_name algorithm)
        out.Optimize.Solver.elapsed_s
        (match out.Optimize.Solver.solution with
        | Some _ -> Printf.sprintf "%.1f" out.Optimize.Solver.cost
        | None -> "-")
        (out.Optimize.Solver.solution <> None))
    [
      Optimize.Solver.greedy;
      Optimize.Solver.Greedy
        { Optimize.Greedy.default_config with
          selection = Optimize.Greedy.Incremental };
      Optimize.Solver.divide_conquer;
      Optimize.Solver.Annealing
        { Optimize.Annealing.default_config with
          iterations = annealing_iters; restarts = 1 };
    ];
  row "  expected shape: the domain-specific algorithms beat the generic\n";
  row "  randomized baseline on cost at comparable or better time.\n"

(* ------------------------------------------------------------------ *)
(* A5: effect of the plan rewriter (selection pushdown) *)

let sweep_rewrite ?(rows = 400) () =
  header "A5: plan rewriter, naive vs optimized evaluation";
  let open Relational in
  let rng = Prng.Splitmix.of_int 99 in
  let r = Relation.create "R" (Schema.of_list [ ("k", Value.TInt); ("n", Value.TInt) ]) in
  let s = Relation.create "S" (Schema.of_list [ ("k", Value.TInt); ("m", Value.TInt) ]) in
  let db = Database.add_relation (Database.add_relation Database.empty r) s in
  let fill db rel count =
    let rec go db i =
      if i = 0 then db
      else
        let vs = [ Value.Int (Prng.Splitmix.int rng 1000); Value.Int i ] in
        go (fst (Database.insert db rel vs ~conf:0.5)) (i - 1)
    in
    go db count
  in
  let db = fill db "R" rows in
  let db = fill db "S" rows in
  (* naive plan: selective predicates above a band join (non-equality, so
     the nested loop is unavoidable and join input size is what matters) *)
  let plan =
    Algebra.Select
      ( Expr.(col "R.n" <% int 10),
        Algebra.Select
          ( Expr.(col "S.m" <% int 10),
            Algebra.Join
              ( Some Expr.(col "R.k" <% col "S.k"),
                Algebra.scan "R", Algebra.scan "S" ) ) )
  in
  let optimized =
    match Rewrite.optimize db plan with Ok p -> p | Error m -> failwith m
  in
  let _, t_naive = time (fun () -> Eval.run_exn db plan) in
  let _, t_opt = time (fun () -> Eval.run_exn db optimized) in
  row "  %-24s %12.4f s\n" "naive (select above join)" t_naive;
  row "  %-24s %12.4f s\n" "after pushdown" t_opt;
  row "  speedup: %.1fx (the pushed plan band-joins ~9x9 rows, not 400x400;\n"
    (t_naive /. Float.max t_opt 1e-9);
  row "  equality joins are served by the built-in hash join either way)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot paths *)

let micro ?(quota = 0.5) ?(size = 1000) () =
  header "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let p =
    Synth.instance
      ~params:{ Synth.default_params with data_size = size }
      ~seed:3 ()
  in
  let st = Optimize.State.create p in
  let formula = (Problem.result p 0).Problem.formula in
  let db_p tid =
    match Problem.bid_of_tid p tid with
    | Some bid -> (Problem.base p bid).Problem.p0
    | None -> 0.0
  in
  let manager = Lineage.Bdd.manager () in
  let bdd = Lineage.Bdd.of_formula manager formula in
  let levels = Array.map (fun b -> b.Problem.p0) (Problem.bases p) in
  let tests =
    [
      Test.make ~name:"confidence/compiled-read-once"
        (Staged.stage (fun () -> Problem.eval_result p levels 0));
      Test.make ~name:"confidence/formula-shannon"
        (Staged.stage (fun () -> Lineage.Prob.exact db_p formula));
      Test.make ~name:"confidence/bdd"
        (Staged.stage (fun () -> Lineage.Bdd.prob manager db_p bdd));
      Test.make ~name:"state/gain"
        (Staged.stage (fun () -> Optimize.State.gain st 0 0.1));
      Test.make ~name:"partition/1K"
        (Staged.stage (fun () -> Optimize.Partition.partition p));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> row "  %-34s %12.1f ns/run\n" name ns
          | _ -> row "  %-34s (no estimate)\n" name)
        results)
    tests


(* ------------------------------------------------------------------ *)

(* smoke: every panel at tiny sizes, cheap enough to run under `dune
   runtest` — keeps the harness compiling and running *)
let smoke () =
  table4 ();
  fig11_ad ~seeds:[ 1 ] ~max_nodes:(Some 5_000) ~seeded:false ();
  fig11_ad ~seeds:[ 1 ] ~max_nodes:(Some 5_000) ~seeded:true ();
  fig11_be ~sizes:[ 200 ] ();
  fig11_cf ~sizes:[ 10; 200 ] ~full:false ();
  sweep_bpr ~size:200 ~bprs:[ 5 ] ();
  sweep_gamma ~size:200 ();
  sweep_edge ~size:200 ();
  sweep_solvers ~size:200 ~annealing_iters:20_000 ();
  sweep_rewrite ~rows:40 ();
  micro ~quota:0.05 ~size:200 ()

let all_panels ~full () =
  table4 ();
  fig11_ad ~seeded:false ();
  fig11_ad ~seeded:true ();
  fig11_be ();
  fig11_cf ~full ();
  sweep_bpr ();
  sweep_gamma ();
  sweep_edge ();
  sweep_solvers ();
  sweep_rewrite ();
  micro ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let panels = List.filter (fun a -> a <> "--full") args in
  Printf.printf
    "PCQE benchmark harness - reproduces Dai et al., SDM@VLDB 2009, Section 5\n";
  if panels = [] then all_panels ~full ()
  else
    List.iter
      (function
        | "table4" -> table4 ()
        | "fig11a" -> fig11_ad ~seeded:false ()
        | "fig11d" -> fig11_ad ~seeded:true ()
        | "fig11b" | "fig11e" -> fig11_be ()
        | "fig11c" | "fig11f" -> fig11_cf ~full ()
        | "sweep-bpr" -> sweep_bpr ()
        | "sweep-gamma" -> sweep_gamma ()
        | "sweep-edge" -> sweep_edge ()
        | "sweep-solvers" -> sweep_solvers ()
        | "sweep-rewrite" -> sweep_rewrite ()
        | "smoke" -> smoke ()
        | "micro" -> micro ()
        | other -> Printf.eprintf "unknown panel %S\n" other)
      panels
