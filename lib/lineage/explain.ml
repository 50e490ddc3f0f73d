(* DNF with absorption over monotone formulas: terms are sets of tids. *)

let rec dnf = function
  | Formula.True -> Some [ Tid.Set.empty ]
  | Formula.False -> Some []
  | Formula.Var v -> Some [ Tid.Set.singleton v ]
  | Formula.Not _ -> None
  | Formula.Or fs ->
    List.fold_left
      (fun acc f ->
        match (acc, dnf f) with
        | Some terms, Some more -> Some (terms @ more)
        | _ -> None)
      (Some []) fs
  | Formula.And fs ->
    List.fold_left
      (fun acc f ->
        match (acc, dnf f) with
        | Some terms, Some more ->
          (* cross product of the term sets *)
          Some
            (List.concat_map
               (fun t -> List.map (fun m -> Tid.Set.union t m) more)
               terms)
        | _ -> None)
      (Some [ Tid.Set.empty ]) fs

(* keep only minimal terms (absorption) *)
let minimize terms =
  let minimal t =
    not
      (List.exists
         (fun other -> (not (Tid.Set.equal other t)) && Tid.Set.subset other t)
         terms)
  in
  List.filter minimal terms
  |> List.sort_uniq (fun a b ->
         let c = Int.compare (Tid.Set.cardinal a) (Tid.Set.cardinal b) in
         if c <> 0 then c else Tid.Set.compare a b)

let witnesses f =
  if not (Formula.is_monotone f) then
    Error "witnesses are only defined for negation-free lineage"
  else
    match dnf f with
    | Some terms -> Ok (minimize terms)
    | None -> Error "witnesses are only defined for negation-free lineage"

let top_witnesses ?(k = 5) p f =
  match witnesses f with
  | Error _ -> []
  | Ok terms ->
    let scored =
      List.map
        (fun t -> (t, Tid.Set.fold (fun tid acc -> acc *. p tid) t 1.0))
        terms
    in
    (* bounded-heap selection: same output as a stable descending sort
       followed by take-k, without sorting every term *)
    Topk.by_score ~k snd scored

(* P(f|v=1) - P(f|v=0): one compile, each cofactor one re-evaluation *)
let influence ?deadline p f =
  snd (Approx.compile ?deadline f)
  |> Option.map (fun eval ->
         let pinned v b tid = if Tid.equal tid v then b else p tid in
         Tid.Set.elements (Formula.vars f)
         |> List.map (fun v -> (v, eval (pinned v 1.0) -. eval (pinned v 0.0)))
         |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a))

let to_string ?tier ?deadline p f =
  let buf = Buffer.create 256 in
  (match tier with
  | Some t -> Buffer.add_string buf (Printf.sprintf "  confidence tier: %s\n" t)
  | None -> ());
  (match top_witnesses p f with
  | [] ->
    Buffer.add_string buf
      "  witnesses: (not available: lineage contains negation)\n"
  | ws ->
    Buffer.add_string buf "  witnesses (minimal sufficient tuple sets):\n";
    List.iter
      (fun (t, prob) ->
        Buffer.add_string buf
          (Printf.sprintf "    {%s}  p=%.4f\n"
             (String.concat ", " (List.map Tid.to_string (Tid.Set.elements t)))
             prob))
      ws);
  (match influence ?deadline p f with
  | None -> Buffer.add_string buf "  influence: not available\n"
  | Some ranked ->
    Buffer.add_string buf "  influence (dP/dp per base tuple):\n";
    List.iter
      (fun (tid, d) ->
        Buffer.add_string buf
          (Printf.sprintf "    %-16s %+.4f\n" (Tid.to_string tid) d))
      ranked);
  Buffer.contents buf
