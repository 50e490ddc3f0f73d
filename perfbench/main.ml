(* PCQE end-to-end benchmark.

     main.exe --workload <serve-zipf|scan-cold|repair-loop> --seed N
              --seconds S --trace <0|1>

   Generates the workload's inputs from the seed, runs the real stack,
   checks the outputs and prints one JSON result line last: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  Exits 1 when a check failed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve-zipf | scan-cold | repair-loop");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "repair-loop" -> Repair_loop.run
    | "scan-cold" -> Scan_cold.run
    | "serve-zipf" -> Serve_zipf.run
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  Common.Watchdog.start ();
  let metrics =
    try run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with e ->
      Common.Tally.fail ("uncaught exception: " ^ Printexc.to_string e);
      []
  in
  Common.report_failures ();
  List.iter (fun (m : Common.metric) -> Printf.printf "%-36s %14.6g %s\n" m.name m.value m.unit_) metrics;
  (* fail_rate is carried by the result line's failed / attempted *)
  Printf.printf "%-36s %14.6g %s\n" "fail_rate"
    (float_of_int !Common.Tally.failed /. float_of_int (max 1 !Common.Tally.attempted))
    "ratio";
  print_endline (Common.result_line metrics);
  exit (if !Common.Tally.failed = 0 then 0 else 1)
