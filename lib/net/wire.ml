type request =
  | Query of {
      user : string;
      purpose : string;
      perc : float;
      sql : string;
      deadline_ms : float option;
    }
  | Accept of { user : string; token : int }
  | Ping

type answer = {
  released : int;
  withheld : int;
  requested : int;
  degraded : string option;
  proposal_token : int option;
  body : string;
}

type response =
  | Answer of answer
  | Accepted of { applied : int; cost : float }
  | Pong
  | Overloaded of { retry_after_ms : float }
  | Timeout of { reason : string }
  | Err of string

(* Frame type bytes: requests 1-9, responses 10-19. *)
let t_query = 1
let t_accept = 2
let t_ping = 3
let t_answer = 10
let t_accepted = 11
let t_pong = 12
let t_overloaded = 13
let t_timeout = 14
let t_err = 15

(* --- encoding primitives: straight into a Frame.buf --------------- *)

let put_u8 b v = Frame.add_char b (Char.unsafe_chr (v land 0xff))
let put_u32 = Frame.add_u32
let put_i64 = Frame.add_i64
let put_float b f = Frame.add_i64 b (Int64.bits_of_float f)

let put_str b s =
  put_u32 b (String.length s);
  Frame.add_string b s

let put_opt put b = function
  | None -> put_u8 b 0
  | Some v ->
    put_u8 b 1;
    put b v

(* A length-prefixed field written in place: reserve the u32, write the
   field, backpatch its length. *)
let put_sized b write =
  put_u32 b 0;
  let at = Frame.length b in
  write b;
  Frame.set_u32 b (at - 4) (Frame.length b - at)

(* A length-prefixed text field formatted by a [Buffer] writer; [text] is
   scratch space reused for every field of one message. *)
let put_text b text add x =
  Buffer.clear text;
  add text x;
  put_u32 b (Buffer.length text);
  Frame.add_buffer b text

exception Malformed of string

(* decoding reads [s] from [pos] up to [stop] *)
type cursor = { s : string; mutable pos : int; stop : int }

let need c n what =
  if n > c.stop - c.pos then
    raise (Malformed (Printf.sprintf "truncated payload reading %s" what))

let get_u8 c what =
  need c 1 what;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_be c.s c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let get_i64 c what =
  need c 8 what;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_float c what = Int64.float_of_bits (get_i64 c what)

let get_str c what =
  let n = get_u32 c what in
  need c n what;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt get c what =
  match get_u8 c what with
  | 0 -> None
  | 1 -> Some (get c what)
  | n -> raise (Malformed (Printf.sprintf "bad option tag %d for %s" n what))

let finish c v =
  if c.pos <> c.stop then raise (Malformed "trailing bytes after message") else v

let decoding s f =
  try Ok (f { s; pos = 0; stop = String.length s }) with
  | Malformed m -> Error m

(* Decode the payload of the frame in [b] where it lies.  The view is
   safe because decoders copy out every string they keep ([get_str]) and
   the buffer is not written while they run. *)
let decoding_frame b f =
  let s = Bytes.unsafe_to_string (Frame.bytes b) in
  try Ok (f { s; pos = Frame.header_len; stop = Frame.length b }) with
  | Malformed m -> Error m

(* --- requests ------------------------------------------------------ *)

(* Each [add_*] writes one message payload at the end of [b] and returns
   its frame type; [write_*] frames it, [encode_*] returns it as a
   string. *)

let add_request b = function
  | Query { user; purpose; perc; sql; deadline_ms } ->
    put_str b user;
    put_str b purpose;
    put_float b perc;
    put_str b sql;
    put_opt put_float b deadline_ms;
    t_query
  | Accept { user; token } ->
    put_str b user;
    put_i64 b (Int64.of_int token);
    t_accept
  | Ping -> t_ping

let framed add b x =
  Frame.start b;
  Frame.finish b ~typ:(add b x)

let unframed add x =
  let b = Frame.create ~capacity:64 () in
  let typ = add b x in
  (typ, Frame.contents b)

let write_request = framed add_request
let encode_request = unframed add_request

let request_of typ c =
  if typ = t_query then begin
    let user = get_str c "user" in
    let purpose = get_str c "purpose" in
    let perc = get_float c "perc" in
    let sql = get_str c "sql" in
    let deadline_ms = get_opt get_float c "deadline" in
    finish c (Query { user; purpose; perc; sql; deadline_ms })
  end
  else if typ = t_accept then begin
    let user = get_str c "user" in
    let token = Int64.to_int (get_i64 c "token") in
    finish c (Accept { user; token })
  end
  else if typ = t_ping then finish c Ping
  else raise (Malformed (Printf.sprintf "unknown request type %d" typ))

let decode_request ~typ payload = decoding payload (request_of typ)
let request_of_frame ~typ b = decoding_frame b (request_of typ)

(* --- engine response body ------------------------------------------ *)

let add_body b (r : Pcqe.Engine.response) =
  let text = Buffer.create 128 in
  put_str b (Relational.Schema.to_string r.schema);
  put_opt put_float b r.threshold;
  put_u32 b (List.length r.released);
  List.iter
    (fun (rel : Pcqe.Engine.released) ->
      put_text b text Relational.Tuple.add_to_buffer rel.tuple;
      put_text b text Lineage.Formula.add_to_buffer rel.lineage;
      put_float b rel.confidence;
      put_str b rel.conf_tier)
    r.released;
  put_u32 b r.withheld;
  put_u32 b r.ambiguous;
  put_u32 b r.requested;
  put_u32 b (List.length r.applied_policies);
  List.iter (fun p -> put_str b (Rbac.Policy.to_string p)) r.applied_policies;
  put_u8 b (if r.infeasible then 1 else 0);
  put_opt put_str b r.degraded;
  (* elapsed_s and solver stats are wall-time telemetry and excluded:
     the same logical answer must always encode to the same bytes *)
  put_opt
    (fun b (p : Pcqe.Engine.proposal) ->
      put_str b p.solver_name;
      put_float b p.cost;
      put_u32 b p.projected_release;
      (match p.resolution with
      | Optimize.Solver.Complete -> put_str b "complete"
      | Optimize.Solver.Partial { reason } -> put_str b ("partial:" ^ reason));
      put_u32 b (List.length p.increments);
      List.iter
        (fun (tid, target) ->
          put_text b text Lineage.Tid.add_to_buffer tid;
          put_float b target)
        p.increments)
    b r.proposal

let body_of_response r =
  let b = Frame.create () in
  add_body b r;
  Frame.contents b

(* --- responses ----------------------------------------------------- *)

(* The answer message; [body] writes the body bytes, so the served path
   builds them in place and [encode_response] copies a given string. *)
let add_answer b ~released ~withheld ~requested ~degraded ~proposal_token body =
  put_u32 b released;
  put_u32 b withheld;
  put_u32 b requested;
  put_opt put_str b degraded;
  put_opt (fun b t -> put_i64 b (Int64.of_int t)) b proposal_token;
  put_sized b body;
  t_answer

let add_response b = function
  | Answer a ->
    add_answer b ~released:a.released ~withheld:a.withheld ~requested:a.requested
      ~degraded:a.degraded ~proposal_token:a.proposal_token (fun b ->
        Frame.add_string b a.body)
  | Accepted { applied; cost } ->
    put_u32 b applied;
    put_float b cost;
    t_accepted
  | Pong -> t_pong
  | Overloaded { retry_after_ms } ->
    put_float b retry_after_ms;
    t_overloaded
  | Timeout { reason } ->
    put_str b reason;
    t_timeout
  | Err msg ->
    put_str b msg;
    t_err

let write_response = framed add_response
let encode_response = unframed add_response

let write_answer b ?proposal_token (r : Pcqe.Engine.response) =
  Frame.start b;
  let typ =
    add_answer b ~released:(List.length r.released) ~withheld:r.withheld
      ~requested:r.requested ~degraded:r.degraded ~proposal_token (fun b ->
        add_body b r)
  in
  Frame.finish b ~typ

let response_of typ c =
  if typ = t_answer then begin
    let released = get_u32 c "released" in
    let withheld = get_u32 c "withheld" in
    let requested = get_u32 c "requested" in
    let degraded = get_opt get_str c "degraded" in
    let proposal_token = get_opt (fun c w -> Int64.to_int (get_i64 c w)) c "token" in
    let body = get_str c "body" in
    finish c (Answer { released; withheld; requested; degraded; proposal_token; body })
  end
  else if typ = t_accepted then begin
    let applied = get_u32 c "applied" in
    let cost = get_float c "cost" in
    finish c (Accepted { applied; cost })
  end
  else if typ = t_pong then finish c Pong
  else if typ = t_overloaded then
    let retry_after_ms = get_float c "retry_after" in
    finish c (Overloaded { retry_after_ms })
  else if typ = t_timeout then finish c (Timeout { reason = get_str c "reason" })
  else if typ = t_err then finish c (Err (get_str c "err"))
  else raise (Malformed (Printf.sprintf "unknown response type %d" typ))

let decode_response ~typ payload = decoding payload (response_of typ)
let response_of_frame ~typ b = decoding_frame b (response_of typ)

let answer_of_response ?proposal_token (r : Pcqe.Engine.response) =
  {
    released = List.length r.released;
    withheld = r.withheld;
    requested = r.requested;
    degraded = r.degraded;
    proposal_token;
    body = body_of_response r;
  }
