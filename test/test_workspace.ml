(* Tests for on-disk workspaces: load, query, improve, save, reload. *)

module W = Pcqe.Workspace
module E = Pcqe.Engine
module Db = Relational.Database
module Tid = Lineage.Tid

let write path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let fresh_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pcqe_ws_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "relations") 0o755;
  dir

let populate dir =
  write
    (Filename.concat dir "relations/Proposal.csv")
    "Company:string,Funding:real,__confidence:real\nStartX,800000,0.3\nStartX,500000,0.4\nBeta,1500000,0.6\n";
  write
    (Filename.concat dir "relations/Info.csv")
    "Company:string,Income:real,__confidence:real\nStartX,1000000,0.1\n";
  write (Filename.concat dir "rbac.txt")
    "role Manager\nuser alice\nassign alice Manager\ngrant Manager select *\n";
  write (Filename.concat dir "policies.txt") "Manager, investment, 0.06\n";
  write (Filename.concat dir "costs.txt")
    "# paper costs\ndefault linear 2000\nProposal#0 linear 1000\nProposal#1 linear 100\n";
  write (Filename.concat dir "caps.txt") "Info#0 0.8\n";
  write (Filename.concat dir "views.sql")
    "Cheap: SELECT Company, Funding FROM Proposal WHERE Funding < 1000000\n"

let load dir =
  match W.load dir with
  | Ok w -> w
  | Error msg -> Alcotest.failf "load failed: %s" msg

let request =
  {
    E.query =
      Pcqe.Query.sql
        "SELECT Info.Company, Info.Income FROM Cheap JOIN Info ON \
         Cheap.Company = Info.Company";
    user = "alice";
    purpose = "investment";
    perc = 1.0;
  }

let test_load_and_answer () =
  let dir = fresh_dir () in
  populate dir;
  let w = load dir in
  Alcotest.(check (list string)) "relations" [ "Info"; "Proposal" ]
    (Db.relation_names w.W.context.E.db);
  Alcotest.(check (float 1e-9)) "cap loaded" 0.8
    (Db.confidence_cap w.W.context.E.db (Tid.make "Info" 0));
  match E.answer w.W.context request with
  | Error msg -> Alcotest.fail msg
  | Ok resp -> (
    Alcotest.(check int) "filtered" 1 resp.E.withheld;
    match resp.E.proposal with
    | Some p ->
      (* the cheap fix from the paper: raise the second proposal tuple *)
      Alcotest.(check (float 1e-6)) "cost 10" 10.0 p.E.cost
    | None -> Alcotest.fail "expected proposal")

let test_missing_required_files () =
  let dir = fresh_dir () in
  (* relations dir exists but empty *)
  (match W.load dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty workspace must fail");
  populate dir;
  Sys.remove (Filename.concat dir "rbac.txt");
  match W.load dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing rbac.txt must fail"

let test_optional_files_default () =
  let dir = fresh_dir () in
  populate dir;
  Sys.remove (Filename.concat dir "costs.txt");
  Sys.remove (Filename.concat dir "caps.txt");
  Sys.remove (Filename.concat dir "views.sql");
  let w = load dir in
  Alcotest.(check int) "no cost specs" 0 (List.length w.W.cost_specs);
  Alcotest.(check int) "no caps" 0 (List.length w.W.caps)

let test_error_messages_carry_location () =
  let dir = fresh_dir () in
  populate dir;
  write (Filename.concat dir "costs.txt") "Proposal#0 cubic 9\n";
  (match W.load dir with
  | Error msg ->
    Alcotest.(check bool) "mentions costs.txt" true
      (String.length msg >= 9 && String.sub msg 0 9 = "costs.txt")
  | Ok _ -> Alcotest.fail "bad cost spec must fail");
  populate dir;
  write (Filename.concat dir "caps.txt") "Info#0 7\n";
  (match W.load dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad cap must fail");
  (* a cap for a tuple that is not stored fails closed *)
  write (Filename.concat dir "caps.txt") "Info#1000000000 0.8\n";
  match W.load dir with
  | Error msg ->
    Alcotest.(check bool) "mentions caps.txt" true
      (String.length msg >= 8 && String.sub msg 0 8 = "caps.txt")
  | Ok _ -> Alcotest.fail "cap for an unstored tuple must fail"

let test_improve_save_reload () =
  let dir = fresh_dir () in
  populate dir;
  let w = load dir in
  let resp =
    match E.answer w.W.context request with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let proposal = Option.get resp.E.proposal in
  let ctx' = E.accept_proposal w.W.context proposal in
  (* save the improved workspace into a new directory *)
  let out = fresh_dir () in
  (match W.save out { w with W.context = ctx' } with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  (* views don't round-trip; re-create views.sql by hand as documented *)
  write (Filename.concat out "views.sql")
    "Cheap: SELECT Company, Funding FROM Proposal WHERE Funding < 1000000\n";
  let w2 = load out in
  (* the improvement persisted: tuple Proposal#1 is now at 0.5 *)
  Alcotest.(check (float 1e-6)) "confidence persisted" 0.5
    (Db.confidence w2.W.context.E.db (Tid.make "Proposal" 1));
  (* and the query now passes without a proposal *)
  match E.answer w2.W.context request with
  | Ok resp' ->
    Alcotest.(check int) "released after reload" 1 (List.length resp'.E.released);
    Alcotest.(check bool) "no more proposal" true (resp'.E.proposal = None)
  | Error msg -> Alcotest.fail msg

let test_save_preserves_costs_and_caps () =
  let dir = fresh_dir () in
  populate dir;
  let w = load dir in
  let out = fresh_dir () in
  (match W.save out w with Ok () -> () | Error msg -> Alcotest.fail msg);
  write (Filename.concat out "views.sql")
    "Cheap: SELECT Company, Funding FROM Proposal WHERE Funding < 1000000\n";
  let w2 = load out in
  Alcotest.(check int) "cost specs survive" 2 (List.length w2.W.cost_specs);
  Alcotest.(check (list (pair string (float 1e-9)))) "caps survive"
    [ ("Info#0", 0.8) ]
    (List.map (fun (tid, c) -> (Tid.to_string tid, c)) w2.W.caps)

let () =
  Random.self_init ();
  Alcotest.run "workspace"
    [
      ( "workspace",
        [
          Alcotest.test_case "load and answer" `Quick test_load_and_answer;
          Alcotest.test_case "missing files" `Quick test_missing_required_files;
          Alcotest.test_case "optional defaults" `Quick test_optional_files_default;
          Alcotest.test_case "error locations" `Quick test_error_messages_carry_location;
          Alcotest.test_case "improve/save/reload" `Quick test_improve_save_reload;
          Alcotest.test_case "costs/caps roundtrip" `Quick test_save_preserves_costs_and_caps;
        ] );
    ]
