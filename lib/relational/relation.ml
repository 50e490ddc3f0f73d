module Tid = Lineage.Tid

type t = {
  name : string;
  schema : Schema.t;
  next_row : int;
  rows : Tuple.t Tid.Map.t;
  order : Tid.t list; (* reverse insertion order *)
}

let create name schema =
  { name; schema; next_row = 0; rows = Tid.Map.empty; order = [] }

let name r = r.name
let schema r = r.schema
let cardinality r = Tid.Map.cardinal r.rows
let next_row r = r.next_row

let insert r tup =
  if not (Tuple.conforms tup r.schema) then
    invalid_arg
      (Printf.sprintf "Relation.insert(%s): tuple %s does not conform to (%s)"
         r.name (Tuple.to_string tup)
         (Schema.to_string r.schema));
  let tid = Tid.make r.name r.next_row in
  ( {
      r with
      next_row = r.next_row + 1;
      rows = Tid.Map.add tid tup r.rows;
      order = tid :: r.order;
    },
    tid )

let insert_values r vs = insert r (Tuple.of_list vs)

let of_tuples name schema tups =
  let rows, order, n =
    List.fold_left
      (fun (rows, order, i) tup ->
        if not (Tuple.conforms tup schema) then
          invalid_arg
            (Printf.sprintf
               "Relation.of_tuples(%s): tuple %s does not conform to (%s)" name
               (Tuple.to_string tup) (Schema.to_string schema));
        let tid = Tid.make name i in
        (Tid.Map.add tid tup rows, tid :: order, i + 1))
      (Tid.Map.empty, [], 0) tups
  in
  { name; schema; next_row = n; rows; order }

let find r tid = Tid.Map.find_opt tid r.rows

let tuples r =
  List.rev_map (fun tid -> (tid, Tid.Map.find tid r.rows)) r.order

let iter f r = List.iter (fun (tid, tup) -> f tid tup) (tuples r)

let fold f init r =
  List.fold_left (fun acc (tid, tup) -> f acc tid tup) init (tuples r)

let to_string r =
  let headers = "tid" :: Schema.column_names r.schema in
  let body =
    List.map
      (fun (tid, tup) ->
        Tid.to_string tid
        :: List.map Value.to_string (Array.to_list (Tuple.values tup)))
      (tuples r)
  in
  let rows = headers :: body in
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    rows;
  let line =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let render_row cells =
    "|"
    ^ String.concat "|"
        (List.mapi
           (fun i cell ->
             Printf.sprintf " %-*s " widths.(i) cell)
           cells)
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (r.name ^ "\n");
  Buffer.add_string buf (line ^ "\n");
  Buffer.add_string buf (render_row headers ^ "\n");
  Buffer.add_string buf (line ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) body;
  Buffer.add_string buf line;
  Buffer.contents buf

let pp ppf r = Format.pp_print_string ppf (to_string r)
