let ( let* ) = Result.bind

(* Fast path: a record without quotes splits on commas directly (one pass,
   one substring per field).  The quoted slow path is RFC-4180 style. *)
let parse_line_quoted line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = line.[!i] in
    if !in_quotes then
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          i := !i + 2
        end
        else begin
          in_quotes := false;
          incr i
        end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    else if c = '"' then begin
      in_quotes := true;
      incr i
    end
    else if c = ',' then begin
      flush_field ();
      incr i
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  flush_field ();
  List.rev !fields

let parse_line line =
  if String.contains line '"' then parse_line_quoted line
  else String.split_on_char ',' line

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

(* Single output buffer for the whole record: no per-field intermediate
   strings, no String.concat. *)
let render_line fields =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      if needs_quoting s then begin
        Buffer.add_char buf '"';
        String.iter
          (fun c ->
            if c = '"' then Buffer.add_string buf "\"\""
            else Buffer.add_char buf c)
          s;
        Buffer.add_char buf '"'
      end
      else Buffer.add_string buf s)
    fields;
  Buffer.contents buf

let confidence_col = "__confidence"

let strip_cr l =
  if String.length l > 0 && l.[String.length l - 1] = '\r' then
    String.sub l 0 (String.length l - 1)
  else l

let is_blank l = String.trim l = ""

let split_lines text =
  (* naive split on newlines is fine: quoted embedded newlines are not
     produced by our exporter and are rejected on import *)
  String.split_on_char '\n' text
  |> List.map strip_cr
  |> List.filter (fun l -> not (is_blank l))

let parse_header line =
  let fields = parse_line line in
  let rec go acc conf_idx i = function
    | [] -> Ok (List.rev acc, conf_idx)
    | f :: rest -> (
      match String.index_opt f ':' with
      | None -> Error (Printf.sprintf "header field %S lacks a :type suffix" f)
      | Some j -> (
        let name = String.sub f 0 j in
        let tyname = String.sub f (j + 1) (String.length f - j - 1) in
        match Value.ty_of_string tyname with
        | None -> Error (Printf.sprintf "unknown type %S in header" tyname)
        | Some ty ->
          if name = confidence_col then
            if ty <> Value.TFloat then
              Error (Printf.sprintf "%s column must be real" confidence_col)
            else go acc (Some i) (i + 1) rest
          else go ((name, ty, i) :: acc) conf_idx (i + 1) rest))
  in
  go [] None 0 fields

(* Parse one record.  Errors mention the 1-based line number, which bulk
   chunked parsing only knows after joining — so the error side is a
   function of the line number, applied once the global position of the
   record is known. *)
let parse_row ~cols ~conf_idx ~expected ~default_conf line :
    (Value.t list * float, int -> string) result =
  let fields = Array.of_list (parse_line line) in
  if Array.length fields <> expected then
    Error
      (fun lineno ->
        Printf.sprintf "line %d: expected %d fields, found %d" lineno expected
          (Array.length fields))
  else begin
    let* values =
      List.fold_left
        (fun acc (cname, ty, i) ->
          let* vs = acc in
          match Value.of_string_as ty fields.(i) with
          | Some v -> Ok (v :: vs)
          | None ->
            Error
              (fun lineno ->
                Printf.sprintf "line %d: cannot parse %S as %s for %s" lineno
                  fields.(i) (Value.ty_name ty) cname))
        (Ok []) cols
      |> Result.map List.rev
    in
    let* conf =
      match conf_idx with
      | None -> Ok default_conf
      | Some i -> (
        match float_of_string_opt (String.trim fields.(i)) with
        | Some c when c >= 0.0 && c <= 1.0 -> Ok c
        | _ ->
          Error
            (fun lineno ->
              Printf.sprintf "line %d: bad confidence %S" lineno fields.(i)))
    in
    Ok (values, conf)
  end

let expected_fields cols conf_idx =
  List.length cols + match conf_idx with Some _ -> 1 | None -> 0

(* The one assembly path: parsed rows (in file order) become the relation
   — tuple ids positional, exactly as per-row insertion would assign them
   — and its confidence array, for one [Database.bulk_load]. *)
let assemble ~name ~schema rows =
  let tuples = List.map (fun (vs, _) -> Tuple.of_list vs) rows in
  (Relation.of_tuples name schema tuples, Array.of_list (List.map snd rows))

(* The sequential parser: split into lines, then one record at a time.
   It shares no line or chunk bookkeeping with [load_string_bulk], so
   the chunked parser is checked against it. *)
let parse_lines ~name ~default_conf text =
  match split_lines text with
  | [] -> Error "empty CSV document"
  | header :: body ->
    let* cols, conf_idx = parse_header header in
    let schema = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) cols) in
    let expected = expected_fields cols conf_idx in
    let rec rows acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        match parse_row ~cols ~conf_idx ~expected ~default_conf line with
        | Error err -> Error (err lineno)
        | Ok row -> rows (row :: acc) (lineno + 1) rest)
    in
    let* parsed = rows [] 2 body in
    Ok (assemble ~name ~schema parsed)

let relation_of_string ~name ?(default_conf = 1.0) text =
  let* rel, confs = parse_lines ~name ~default_conf text in
  Ok (rel, Array.to_list (Array.mapi (fun i c -> (Lineage.Tid.make name i, c)) confs))

let load_into db ~name ?(default_conf = 1.0) text =
  let* rel, confs = parse_lines ~name ~default_conf text in
  Ok (Database.bulk_load db rel confs)

(* Streaming file load: one pass over the channel, no whole-file string.
   Line accounting matches [split_lines]: blank lines are skipped without
   consuming a number, the first kept line is the header, body numbering
   starts at 2. *)
let load_file db ~name ?(default_conf = 1.0) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let next_kept () =
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | l ->
            let l = strip_cr l in
            if is_blank l then go () else Some l
        in
        go ()
      in
      match next_kept () with
      | None -> Error "empty CSV document"
      | Some header ->
        let* cols, conf_idx = parse_header header in
        let schema =
          Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) cols)
        in
        let expected = expected_fields cols conf_idx in
        let rec rows acc lineno =
          match next_kept () with
          | None -> Ok (List.rev acc)
          | Some line -> (
            match parse_row ~cols ~conf_idx ~expected ~default_conf line with
            | Error err -> Error (err lineno)
            | Ok row -> rows (row :: acc) (lineno + 1))
        in
        let* parsed = rows [] 2 in
        let rel, confs = assemble ~name ~schema parsed in
        Ok (Database.bulk_load db rel confs))

(* ------------------------------------------------------------------ *)
(* Parallel bulk ingest                                                *)
(* ------------------------------------------------------------------ *)

(* One chunk of the body, parsed independently: the number of kept (non
   blank) lines, the rows parsed before the first error, and the first
   error with its kept-line index local to the chunk. *)
type chunk_result = {
  kept : int;
  rows : (Value.t list * float) list; (* reverse order *)
  err : (int * (int -> string)) option;
}

let parse_chunk ~cols ~conf_idx ~expected ~default_conf text lo hi =
  let kept = ref 0 in
  let rows = ref [] in
  let err = ref None in
  let pos = ref lo in
  while !pos < hi && !err = None do
    let nl =
      match String.index_from_opt text !pos '\n' with
      | Some i when i < hi -> i
      | _ -> hi
    in
    let line = strip_cr (String.sub text !pos (nl - !pos)) in
    if not (is_blank line) then begin
      (match parse_row ~cols ~conf_idx ~expected ~default_conf line with
      | Ok row -> rows := row :: !rows
      | Error e -> err := Some (!kept, e));
      incr kept
    end;
    pos := nl + 1
  done;
  { kept = !kept; rows = !rows; err = !err }

(* Chunk boundaries aligned to record (line) starts: the nominal split
   points move forward to just past the next newline, so every record is
   parsed by exactly one chunk. *)
let chunk_ranges text lo n =
  let len = String.length text in
  let nominal = Array.init (n + 1) (fun i -> lo + (len - lo) * i / n) in
  let starts = Array.make (n + 1) len in
  starts.(0) <- lo;
  for i = 1 to n - 1 do
    let s =
      match String.index_from_opt text (min nominal.(i) (len - 1)) '\n' with
      | Some j -> j + 1
      | None -> len
    in
    (* never before the previous start: empty chunks are fine *)
    starts.(i) <- max s starts.(i - 1)
  done;
  starts.(n) <- len;
  Array.init n (fun i -> (starts.(i), starts.(i + 1)))

let load_string_bulk db ~name ?(default_conf = 1.0) ?jobs text =
  (* header: everything up to the first kept line *)
  let len = String.length text in
  let rec header_at pos =
    if pos >= len then None
    else
      let nl =
        match String.index_from_opt text pos '\n' with
        | Some i -> i
        | None -> len
      in
      let line = strip_cr (String.sub text pos (nl - pos)) in
      if is_blank line then header_at (nl + 1) else Some (line, nl + 1)
  in
  match header_at 0 with
  | None -> Error "empty CSV document"
  | Some (header, body_start) ->
    let* cols, conf_idx = parse_header header in
    let schema = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) cols) in
    let expected = expected_fields cols conf_idx in
    let jobs = Exec.resolve_jobs ?jobs () in
    let chunks =
      if jobs <= 1 || len - body_start < 1 lsl 16 then 1 else jobs * 2
    in
    let ranges = chunk_ranges text body_start chunks in
    let results =
      Exec.with_pool_opt ~jobs (fun pool ->
          match pool with
          | Some p when chunks > 1 ->
            Exec.Pool.map_array ~chunk:1 p
              (fun (lo, hi) ->
                parse_chunk ~cols ~conf_idx ~expected ~default_conf text lo hi)
              ranges
          | _ ->
            Array.map
              (fun (lo, hi) ->
                parse_chunk ~cols ~conf_idx ~expected ~default_conf text lo hi)
              ranges)
    in
    (* first error in file order wins: chunks are in file order, and kept
       counts give each error its global line number *)
    let rec check i preceding =
      if i >= Array.length results then Ok ()
      else
        match results.(i).err with
        | Some (local, err) -> Error (err (2 + preceding + local))
        | None -> check (i + 1) (preceding + results.(i).kept)
    in
    let* () = check 0 0 in
    (* each chunk's rows are accumulated in reverse; walking the chunks
       last-to-first with rev_append restores global file order *)
    let rows = ref [] in
    for i = Array.length results - 1 downto 0 do
      rows := List.rev_append results.(i).rows !rows
    done;
    let rel, confs = assemble ~name ~schema !rows in
    Ok (Database.bulk_load db rel confs)

let load_file_bulk db ~name ?default_conf ?jobs path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  load_string_bulk db ~name ?default_conf ?jobs text

let to_string db rel =
  let schema = Relation.schema rel in
  let header =
    render_line
      (List.map
         (fun c ->
           Printf.sprintf "%s:%s" c.Schema.cname (Value.ty_name c.Schema.cty))
         (Schema.columns schema)
      @ [ confidence_col ^ ":real" ])
  in
  let body =
    List.map
      (fun (tid, tup) ->
        render_line
          (List.map Value.to_string (Array.to_list (Tuple.values tup))
          @ [ Printf.sprintf "%g" (Database.confidence db tid) ]))
      (Relation.tuples rel)
  in
  String.concat "\n" (header :: body) ^ "\n"
