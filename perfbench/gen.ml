(* Seeded input generator.  Everything the engine sees is produced here
   as text — CSV documents, RBAC directives, confidence policies, cost
   specs and SQL strings — from one integer seed, with a PRNG that lives
   in the benchmark so a change to the library cannot move the inputs.

   The generator also keeps the rows it wrote (as OCaml records) so the
   checks can compute expected answers from the data itself instead of
   trusting the engine. *)

(* ---- splitmix64 ---------------------------------------------------- *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53
let split r = rng (Int64.to_int (next r))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* confidences travel as 4-decimal text; the float kept here is parsed
   back from that text, so it is bit-identical to what the loader reads *)
let conf_text c = Printf.sprintf "%.4f" c
let quantize c = float_of_string (conf_text c)

(* three rows in four are likely (0.55–0.99), the rest doubtful
   (0.05–0.45): a policy at β ≤ 0.55 releases most rows *)
let mixed_conf r =
  if int r 4 = 0 then quantize (0.05 +. (0.40 *. float r))
  else quantize (0.55 +. (0.44 *. float r))

(* ---- principals and policies ----------------------------------------- *)

let purpose = "bench"

(* β per role; every slice template is priced under each level *)
let roles = [| ("Analyst", 0.40); ("Auditor", 0.45); ("Manager", 0.50); ("Director", 0.55) |]

type principals = { users : string array; role_of : int array  (** index into [roles] *) }

let principals ~count =
  {
    users = Array.init count (fun i -> Printf.sprintf "p%02d" i);
    role_of = Array.init count (fun i -> i mod Array.length roles);
  }

let beta_of p user_idx = snd roles.(p.role_of.(user_idx))

(* With [conns] connections, user [i] belongs to connection
   [(i / 4) mod conns]: every connection's share holds every role. *)
let conn_of ~conns i = i / Array.length roles mod conns

let users_of p ~conns ~conn =
  List.filter (fun i -> conn_of ~conns i = conn) (List.init (Array.length p.users) Fun.id)

(* a user of [conn]'s share with role [role] *)
let pick_user r p ~conns ~conn ~role =
  let cands = List.filter (fun i -> p.role_of.(i) = role) (users_of p ~conns ~conn) in
  List.nth cands (int r (List.length cands))

let rbac_text p =
  let b = Buffer.create 1024 in
  Array.iter (fun (name, _) -> Printf.bprintf b "role %s\ngrant %s select *\n" name name) roles;
  Array.iteri
    (fun i u -> Printf.bprintf b "user %s\nassign %s %s\n" u u (fst roles.(p.role_of.(i))))
    p.users;
  Buffer.contents b

let policy_text () =
  String.concat ""
    (Array.to_list
       (Array.map (fun (name, beta) -> Printf.sprintf "%s, %s, %.2f\n" name purpose beta) roles))

(* ---- fact and dimension relations ------------------------------------ *)

type sale = { id : int; region : int; amount : int; grp : int; sconf : float }
type region = { rid : int; zone : int; rconf : float }
type store = { sid : int; sregion : int; size : int; stconf : float }

let sales r ~rows ~regions ~groups =
  let amounts = Array.init rows (fun i -> i + 1) in
  shuffle r amounts;
  Array.init rows (fun i ->
      { id = i; region = int r regions; amount = amounts.(i); grp = int r groups; sconf = mixed_conf r })

let regions r ~count =
  Array.init count (fun i -> { rid = i; zone = i mod 8; rconf = quantize (0.85 +. (0.15 *. float r)) })

let stores r ~count ~regions =
  Array.init count (fun i ->
      { sid = i; sregion = int r regions; size = 1 + int r 1000; stconf = mixed_conf r })

let sales_csv rows =
  let b = Buffer.create (Array.length rows * 32) in
  Buffer.add_string b "Id:int,Region:int,Amount:int,Grp:int,__confidence:real\n";
  Array.iter
    (fun s -> Printf.bprintf b "%d,%d,%d,%d,%s\n" s.id s.region s.amount s.grp (conf_text s.sconf))
    rows;
  Buffer.contents b

let regions_csv rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Region:int,Zone:int,__confidence:real\n";
  Array.iter (fun g -> Printf.bprintf b "%d,%d,%s\n" g.rid g.zone (conf_text g.rconf)) rows;
  Buffer.contents b

let stores_csv rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Sid:int,Region:int,Size:int,__confidence:real\n";
  Array.iter
    (fun s -> Printf.bprintf b "%d,%d,%d,%s\n" s.sid s.sregion s.size (conf_text s.stconf))
    rows;
  Buffer.contents b

(* ---- repair slices --------------------------------------------------- *)

(* A slice is a small self-contained instance of the confidence-increment
   problem over the chain Item(A) ⋈ Link(A, B) ⋈ Source(B).  Group [g]
   owns items [2g] and [2g+1]; item [2g+j] links to sources [g+j] and
   [g+j+1].  The lineage of group [g] is therefore

     i0 l0 s(g) ∨ i0 l1 s(g+1) ∨ i1 l2 s(g+1) ∨ i1 l3 s(g+2)

   which is not read-once (s(g) – i0 – s(g+1) – i1 is an induced path),
   so the engine prices it with circuits; neighbouring groups share
   sources, so a slice is one solver component.

   Slices are instances of [templates] fixed templates (confidences and
   cost specs drawn once from a constant seed).  Visit [v] goes to a
   slice of template [v mod templates], priced under role [v mod 4]; with
   5 templates and 4 policy levels the first 20 visits cover every
   (template, β) pair once, so the total cost of the first 20 accepted
   proposals does not depend on the run's seed.  The run's seed picks the
   visit order (which slice number, hence which tuple ids, a visit gets)
   and the principals. *)

let groups_per_slice = 4
let items_per_slice = 2 * groups_per_slice
let links_per_slice = 2 * items_per_slice
let sources_per_slice = groups_per_slice + 2
let templates = 5
let prefix_accepts = 20

(* link [2i+j] joins item [i] to source [i/2 + i mod 2 + j] *)
let link_source i j = (i / 2) + (i mod 2) + j

type template = {
  item_conf : float array;
  link_conf : float array;
  source_conf : float array;
  item_cost : string array;
  link_cost : string array;
  source_cost : string array;
}

let cost_spec r =
  match int r 3 with
  | 0 -> Printf.sprintf "linear %d" (50 + (10 * int r 36))
  | 1 -> Printf.sprintf "binomial %d" (50 + (10 * int r 26))
  | _ -> Printf.sprintf "exponential %d 2" (20 + (5 * int r 17))

let template_set =
  let r = rng 0x5EED in
  let confs n lo w = Array.init n (fun _ -> quantize (lo +. (w *. float r))) in
  Array.init templates (fun _ ->
      let item_conf = confs items_per_slice 0.20 0.30 in
      let link_conf = confs links_per_slice 0.55 0.30 in
      let source_conf = confs sources_per_slice 0.30 0.30 in
      {
        item_conf;
        link_conf;
        source_conf;
        item_cost = Array.init items_per_slice (fun _ -> cost_spec r);
        link_cost = Array.init links_per_slice (fun _ -> cost_spec r);
        source_cost = Array.init sources_per_slice (fun _ -> cost_spec r);
      })

type slices = {
  count : int;
  slice_of_visit : int array;  (** visit index → slice number *)
  template_of_slice : int array;
}

let slices r ~count =
  let slice_of_visit = Array.init count Fun.id in
  shuffle r slice_of_visit;
  let template_of_slice = Array.make count 0 in
  Array.iteri (fun v s -> template_of_slice.(s) <- v mod templates) slice_of_visit;
  { count; slice_of_visit; template_of_slice }

(* tuple ids follow file order: slice [s] owns a fixed block per relation *)
let item_row s i = (s * items_per_slice) + i
let link_row s k = (s * links_per_slice) + k
let source_row s b = (s * sources_per_slice) + b

let items_csv sl =
  let b = Buffer.create (sl.count * items_per_slice * 24) in
  Buffer.add_string b "Iid:int,Slice:int,Grp:int,A:int,__confidence:real\n";
  for s = 0 to sl.count - 1 do
    let t = template_set.(sl.template_of_slice.(s)) in
    for i = 0 to items_per_slice - 1 do
      Printf.bprintf b "%d,%d,%d,%d,%s\n" (item_row s i) s (i / 2) (item_row s i) (conf_text t.item_conf.(i))
    done
  done;
  Buffer.contents b

let links_csv sl =
  let b = Buffer.create (sl.count * links_per_slice * 24) in
  Buffer.add_string b "Lid:int,Slice:int,A:int,B:int,__confidence:real\n";
  for s = 0 to sl.count - 1 do
    let t = template_set.(sl.template_of_slice.(s)) in
    for k = 0 to links_per_slice - 1 do
      let i = k / 2 in
      Printf.bprintf b "%d,%d,%d,%d,%s\n" (link_row s k) s (item_row s i)
        (source_row s (link_source i (k mod 2)))
        (conf_text t.link_conf.(k))
    done
  done;
  Buffer.contents b

let sources_csv sl =
  let b = Buffer.create (sl.count * sources_per_slice * 20) in
  Buffer.add_string b "Sid:int,Slice:int,B:int,__confidence:real\n";
  for s = 0 to sl.count - 1 do
    let t = template_set.(sl.template_of_slice.(s)) in
    for k = 0 to sources_per_slice - 1 do
      Printf.bprintf b "%d,%d,%d,%s\n" (source_row s k) s (source_row s k) (conf_text t.source_conf.(k))
    done
  done;
  Buffer.contents b

(* the cost file: a default plus one line per slice tuple *)
let costs_text sl =
  let b = Buffer.create (sl.count * 700) in
  Buffer.add_string b "default linear 100\n";
  for s = 0 to sl.count - 1 do
    let t = template_set.(sl.template_of_slice.(s)) in
    Array.iteri (fun i c -> Printf.bprintf b "Item#%d %s\n" (item_row s i) c) t.item_cost;
    Array.iteri (fun k c -> Printf.bprintf b "Link#%d %s\n" (link_row s k) c) t.link_cost;
    Array.iteri (fun k c -> Printf.bprintf b "Source#%d %s\n" (source_row s k) c) t.source_cost
  done;
  Buffer.contents b

(* Exact confidence of group [g] by enumerating the possible worlds of
   its nine tuples — the paper's semantics, computed without the
   engine. *)
let group_conf ~item ~link ~source g =
  let vars =
    Array.concat
      [
        [| item (2 * g); item ((2 * g) + 1) |];
        Array.init 4 (fun k -> link ((4 * g) + k));
        Array.init 3 (fun k -> source (g + k));
      ]
  in
  (* term k: item k/2, link k, source k/2 + k mod 2 (indices into vars) *)
  let terms = Array.init 4 (fun k -> (k / 2, 2 + k, 6 + (k / 2) + (k mod 2))) in
  let n = Array.length vars in
  let total = ref 0.0 in
  for w = 0 to (1 lsl n) - 1 do
    let on i = w land (1 lsl i) <> 0 in
    if Array.exists (fun (a, b, c) -> on a && on b && on c) terms then begin
      let p = ref 1.0 in
      for i = 0 to n - 1 do
        p := !p *. if on i then vars.(i) else 1.0 -. vars.(i)
      done;
      total := !total +. !p
    end
  done;
  !total

(* ---- SQL ------------------------------------------------------------- *)

(* The slice is selected inside derived tables: written as one WHERE
   conjunction over the join, the selection is not pushed below the join
   and evaluation joins the full relations, which would make eval, not
   strategy finding, the bulk of a round. *)
let repair_join_sql s =
  Printf.sprintf
    "SELECT DISTINCT I.Grp FROM (SELECT Grp, A FROM Item WHERE Slice = %d) AS I JOIN (SELECT A, \
     B FROM Link WHERE Slice = %d) AS L ON I.A = L.A JOIN (SELECT B FROM Source WHERE Slice = %d) \
     AS S ON L.B = S.B"
    s s s

let repair_items_sql s = Printf.sprintf "SELECT Iid FROM Item WHERE Slice = %d" s

(* perc of every repair request: three of a slice's four groups (six of
   its eight items) must be released *)
let repair_perc = 0.75
