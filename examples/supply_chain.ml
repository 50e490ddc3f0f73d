(* Supply-chain risk review: a tour of the engine's query surface over
   confidence-annotated data.

   - a named *quality view* (RiskySuppliers) encapsulating the risk
     criterion (the quality-view idea of Missier et al., which the paper
     cites as closest related work);
   - an IN subquery whose probabilistic membership flows into lineage;
   - a LEFT JOIN whose padded rows carry negated lineage ("supplier with
     no certification on file");
   - expected-value aggregates (ECOUNT/ESUM) - probabilistic roll-ups;
   - the PCQE policy loop on top: procurement decisions need confidence
     above 0.5, and the engine proposes the cheapest audit plan when too
     little survives. *)

module Db = Relational.Database
module V = Relational.Value
module S = Relational.Schema
module Tid = Lineage.Tid

let ok = function Ok x -> x | Error m -> failwith m

let build () =
  let suppliers =
    Relational.Relation.create "Suppliers"
      (S.of_list [ ("name", V.TString); ("region", V.TString); ("rating", V.TInt) ])
  in
  let shipments =
    Relational.Relation.create "Shipments"
      (S.of_list [ ("supplier", V.TString); ("units", V.TInt) ])
  in
  let certs =
    Relational.Relation.create "Certs"
      (S.of_list [ ("supplier", V.TString); ("standard", V.TString) ])
  in
  let db =
    Db.add_relation (Db.add_relation (Db.add_relation Db.empty suppliers) shipments) certs
  in
  let ins db rel vs conf = fst (Db.insert db rel vs ~conf) in
  (* supplier master data of mixed quality *)
  let db = ins db "Suppliers" [ V.String "acme"; V.String "EU"; V.Int 2 ] 0.9 in
  let db = ins db "Suppliers" [ V.String "blur"; V.String "EU"; V.Int 5 ] 0.4 in
  let db = ins db "Suppliers" [ V.String "csky"; V.String "US"; V.Int 4 ] 0.7 in
  (* shipment ledger *)
  let db = ins db "Shipments" [ V.String "acme"; V.Int 100 ] 0.95 in
  let db = ins db "Shipments" [ V.String "acme"; V.Int 50 ] 0.8 in
  let db = ins db "Shipments" [ V.String "blur"; V.Int 200 ] 0.5 in
  let db = ins db "Shipments" [ V.String "csky"; V.Int 80 ] 0.6 in
  (* certification registry (incomplete) *)
  let db = ins db "Certs" [ V.String "acme"; V.String "ISO9001" ] 0.85 in
  db

let print_result db title sql views =
  Printf.printf "\n=== %s ===\n%s\n" title sql;
  match Relational.Sql_planner.compile sql with
  | Error msg -> failwith msg
  | Ok plan -> (
    let plan = Relational.Views.expand views plan in
    match Relational.Eval.run db plan with
    | Error msg -> failwith msg
    | Ok res ->
      print_endline (Relational.Eval.to_string res);
      let p = Relational.Database.confidence_fn db in
      List.iter
        (fun (row : Relational.Eval.row) ->
          Printf.printf "  confidence %.4f : %s\n"
            (Lineage.Approx.point (Lineage.Approx.confidence p row.lineage))
            (Relational.Tuple.to_string row.tuple))
        res.Relational.Eval.rows)

let () =
  let db = build () in
  (* a quality view: suppliers whose master data says "risky" *)
  let views =
    ok
      (Relational.Views.of_sql Relational.Views.empty ~name:"RiskySuppliers"
         "SELECT name FROM Suppliers WHERE rating >= 4")
  in
  print_result db "Quality view: risky suppliers" "SELECT * FROM RiskySuppliers"
    views;
  (* IN subquery: shipments from risky suppliers; the membership event is
     part of the lineage, so the confidence reflects both the shipment and
     the supplier's riskiness being real *)
  print_result db "Shipments from risky suppliers (IN subquery)"
    "SELECT supplier, units FROM Shipments WHERE supplier IN (SELECT name \
     FROM RiskySuppliers)"
    views;
  (* LEFT JOIN: which suppliers lack certification?  The padded rows carry
     negated lineage: present exactly when no cert record is real *)
  print_result db "Certification gaps (LEFT JOIN ... IS NULL)"
    "SELECT Suppliers.name, Certs.standard FROM Suppliers LEFT JOIN Certs ON \
     Suppliers.name = Certs.supplier WHERE Certs.standard IS NULL"
    views;
  (* expected-value roll-up *)
  print_result db "Expected shipment volume per supplier (ESUM/ECOUNT)"
    "SELECT supplier, ECOUNT(*) AS expected_shipments, ESUM(units) AS \
     expected_units FROM Shipments GROUP BY supplier"
    views;
  (* the policy loop on top *)
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_user (add_role empty "buyer") "dana" in
    let m = ok (assign_user m ~user:"dana" ~role:"buyer") in
    ok (grant m ~role:"buyer" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"buyer" ~purpose:"procurement" ~beta:0.5 ]
  in
  (* auditing the shipment ledger is cheap; auditing supplier master data
     needs an on-site visit *)
  let cost_of tid =
    if tid.Tid.rel = "Shipments" then Cost.Cost_model.linear ~rate:50.0
    else Cost.Cost_model.logarithmic ~scale:40.0
  in
  let ctx = Pcqe.Engine.make_context ~views ~cost_of ~db ~rbac ~policies () in
  let request =
    {
      Pcqe.Engine.query =
        Pcqe.Query.sql
          "SELECT supplier, units FROM Shipments WHERE supplier IN (SELECT \
           name FROM RiskySuppliers)";
      user = "dana";
      purpose = "procurement";
      perc = 1.0;
    }
  in
  print_endline "\n=== Buyer, purpose 'procurement' (beta = 0.5) ===";
  match Pcqe.Engine.answer ctx request with
  | Error msg -> failwith msg
  | Ok resp -> (
    print_string (Pcqe.Report.response_to_string resp);
    match resp.Pcqe.Engine.proposal with
    | None -> ()
    | Some proposal ->
      let ctx' = Pcqe.Engine.accept_proposal ctx proposal in
      print_endline "\n=== After the audit plan is executed ===";
      (match Pcqe.Engine.answer ctx' request with
      | Ok resp' -> print_string (Pcqe.Report.response_to_string resp')
      | Error msg -> failwith msg))
