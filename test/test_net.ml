(* The serving tier over a loopback socket.

   The wire-level robustness contract:

   1. framing — torn, truncated and corrupted frames are detected and
      rejected; they kill at most their own connection, never the server;
   2. identity — answers over the wire are bit-identical (body bytes) to
      one in-process session answering the same stream in wire order,
      and every principal shares that one session's caches;
   3. admission — overload produces explicit [Overloaded] sheds and
      queue-expired [Timeout]s, never unbounded queueing or silence;
   4. chaos — with [net.*] faults armed, every request still reaches a
      terminal outcome and the server survives to answer correctly
      afterwards. *)

module Fault = Resilience.Fault
module E = Pcqe.Engine
module Db = Relational.Database
module V = Relational.Value

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ------------------------------------------------------------------ *)
(* framing *)

let test_frame_roundtrip () =
  List.iter
    (fun (typ, payload) ->
      let s = Net.Frame.encode ~typ payload in
      match Net.Frame.decode s with
      | Ok (t, p) ->
        Alcotest.(check int) "type" typ t;
        Alcotest.(check string) "payload" payload p
      | Error e -> Alcotest.failf "decode failed: %s" (Net.Frame.error_to_string e))
    [ (0, ""); (1, "x"); (255, String.init 1000 (fun i -> Char.chr (i mod 256))) ]

let test_frame_crc32_vector () =
  (* the standard IEEE check value *)
  Alcotest.(check int32)
    "crc32(123456789)" 0xCBF43926l
    (Net.Frame.crc32 "123456789")

let test_frame_rejects_malformed () =
  let whole = Net.Frame.encode ~typ:7 "hello world" in
  let expect name want got =
    match got with
    | Ok _ -> Alcotest.failf "%s: accepted a malformed frame" name
    | Error e -> Alcotest.(check string) name want (Net.Frame.error_to_string e)
  in
  expect "empty" "connection closed" (Net.Frame.decode "");
  expect "torn header" "torn frame: short read in header"
    (Net.Frame.decode (String.sub whole 0 5));
  expect "torn payload" "torn frame: short read in payload"
    (Net.Frame.decode (String.sub whole 0 (String.length whole - 3)));
  expect "bad magic" "bad magic"
    (Net.Frame.decode ("XX" ^ String.sub whole 2 (String.length whole - 2)));
  let bad_version = Bytes.of_string whole in
  Bytes.set bad_version 2 '\x63';
  expect "bad version" "unsupported protocol version 99"
    (Net.Frame.decode (Bytes.to_string bad_version));
  let flipped = Bytes.of_string whole in
  Bytes.set flipped (String.length whole - 1) '!';
  expect "corrupt payload" "payload checksum mismatch"
    (Net.Frame.decode (Bytes.to_string flipped));
  let huge = Bytes.of_string whole in
  (* declared length 0x7fffffff, way past max_payload *)
  Bytes.set huge 4 '\x7f';
  Bytes.set huge 5 '\xff';
  Bytes.set huge 6 '\xff';
  Bytes.set huge 7 '\xff';
  match Net.Frame.decode (Bytes.to_string huge) with
  | Error (Net.Frame.Too_large _) -> ()
  | _ -> Alcotest.fail "oversized length not rejected"

(* the table-free definition of CRC-32: one polynomial step per bit *)
let crc32_bitwise s off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_frame_crc32_sliced () =
  let rng = Random.State.make [| 2009 |] in
  let check_range s off len =
    Alcotest.(check int)
      (Printf.sprintf "crc32 over %d bytes at offset %d" len off)
      (crc32_bitwise s off len)
      (Net.Frame.crc32_range s off len)
  in
  let random_string n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  (* every tail length next to a slice boundary, at every alignment *)
  let s = random_string 64 in
  for off = 0 to 7 do
    for len = 0 to 24 do
      check_range s off len
    done
  done;
  for _ = 1 to 200 do
    let len = Random.State.int rng 4100 in
    let off = Random.State.int rng 16 in
    let s = random_string (off + len + Random.State.int rng 16) in
    check_range s off len
  done;
  Alcotest.(check int32)
    "crc32 agrees with crc32_range" 0xCBF43926l
    (Int32.of_int (Net.Frame.crc32_range "0123456789" 1 9))

let test_frame_any_flip_is_caught () =
  let rng = Random.State.make [| 12 |] in
  let payload = String.init 300 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let whole = Net.Frame.encode ~typ:10 payload in
  for i = Net.Frame.header_len to String.length whole - 1 do
    let flipped = Bytes.of_string whole in
    let delta = 1 + Random.State.int rng 255 in
    Bytes.set flipped i (Char.chr (Char.code whole.[i] lxor delta));
    match Net.Frame.decode (Bytes.to_string flipped) with
    | Error Net.Frame.Bad_checksum -> ()
    | _ -> Alcotest.failf "flipped payload byte %d not caught" i
  done

(* a recv that hands over at most one byte per call *)
let dribble s =
  let pos = ref 0 in
  fun buf off len ->
    if len = 0 || !pos >= String.length s then 0
    else begin
      Bytes.set buf off s.[!pos];
      incr pos;
      1
    end

let test_frame_one_byte_reads () =
  let payload = String.init 5000 (fun i -> Char.chr ((i * 7) mod 256)) in
  (match Net.Frame.read (dribble (Net.Frame.encode ~typ:11 payload)) with
  | Ok (typ, p) ->
    Alcotest.(check int) "type" 11 typ;
    Alcotest.(check bool) "payload intact" true (String.equal payload p)
  | Error e -> Alcotest.failf "one-byte reads: %s" (Net.Frame.error_to_string e));
  (* the same through a reused buffer, decoded where it lies *)
  let b = Net.Frame.create ~capacity:16 () in
  let resp = Net.Wire.Err "x" in
  let typ, p = Net.Wire.encode_response resp in
  match Net.Frame.read_into b (dribble (Net.Frame.encode ~typ p)) with
  | Ok typ ->
    if Net.Wire.response_of_frame ~typ b <> Ok resp then
      Alcotest.fail "response decoded from the buffer differs"
  | Error e -> Alcotest.failf "one-byte reads: %s" (Net.Frame.error_to_string e)

let test_frame_buffer_shrinks () =
  let b = Net.Frame.create () in
  let small = Net.Frame.capacity b in
  Net.Frame.start b;
  Net.Frame.add_string b (String.make 20_000 'x');
  Net.Frame.finish b ~typ:1;
  let grown = Net.Frame.capacity b in
  Net.Frame.shrink b;
  Alcotest.(check int) "a usual frame keeps its storage" grown (Net.Frame.capacity b);
  Net.Frame.start b;
  Net.Frame.add_string b (String.make (2 * 1024 * 1024) 'x');
  Net.Frame.finish b ~typ:1;
  Net.Frame.shrink b;
  Alcotest.(check int) "an outsized frame's storage is dropped" small (Net.Frame.capacity b)

let eintr () = raise (Unix.Unix_error (Unix.EINTR, "read", ""))

let test_io_retries_eintr () =
  let calls = ref 0 in
  let v =
    Net.Io.retry_eintr (fun () ->
        incr calls;
        if !calls = 1 then eintr () else 42)
  in
  Alcotest.(check int) "value after one EINTR" 42 v;
  Alcotest.(check int) "called again once" 2 !calls;
  (match Net.Io.retry_eintr (fun () -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))) with
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
  | _ -> Alcotest.fail "EPIPE was swallowed");
  (* a signal during a read is not end of stream *)
  let rest = dribble (Net.Frame.encode ~typ:12 "pong") in
  let interrupted = ref false in
  let recv buf off len =
    if not !interrupted then begin
      interrupted := true;
      eintr ()
    end
    else rest buf off len
  in
  match Net.Frame.read (fun buf off len -> Net.Io.retry_eintr (fun () -> recv buf off len)) with
  | Ok (12, "pong") -> ()
  | Ok _ -> Alcotest.fail "wrong frame after EINTR"
  | Error e -> Alcotest.failf "EINTR surfaced as %s" (Net.Frame.error_to_string e)

(* ------------------------------------------------------------------ *)
(* message codec *)

let test_wire_request_roundtrip () =
  List.iter
    (fun req ->
      let typ, payload = Net.Wire.encode_request req in
      match Net.Wire.decode_request ~typ payload with
      | Ok req' -> if req <> req' then Alcotest.fail "request changed on the wire"
      | Error m -> Alcotest.failf "decode_request: %s" m)
    [
      Net.Wire.Query
        {
          user = "u00";
          purpose = "serve";
          perc = 0.1 +. 0.2 (* not representable exactly: bits must survive *);
          sql = "SELECT k FROM R WHERE n < 70";
          deadline_ms = Some 12.5;
        };
      Net.Wire.Query
        { user = ""; purpose = ""; perc = 0.0; sql = ""; deadline_ms = None };
      Net.Wire.Accept { user = "u01"; token = 424242 };
      Net.Wire.Ping;
    ]

let test_wire_response_roundtrip () =
  List.iter
    (fun resp ->
      let typ, payload = Net.Wire.encode_response resp in
      match Net.Wire.decode_response ~typ payload with
      | Ok resp' -> if resp <> resp' then Alcotest.fail "response changed on the wire"
      | Error m -> Alcotest.failf "decode_response: %s" m)
    [
      Net.Wire.Answer
        {
          released = 3;
          withheld = 2;
          requested = 4;
          degraded = Some "deadline";
          proposal_token = Some 7;
          body = "\x00\x01binary\xffbody";
        };
      Net.Wire.Accepted { applied = 2; cost = 13.25 };
      Net.Wire.Pong;
      Net.Wire.Overloaded { retry_after_ms = 50.0 };
      Net.Wire.Timeout { reason = "deadline expired in admission queue" };
      Net.Wire.Err "no such user";
    ]

let test_wire_rejects_truncated () =
  let typ, payload =
    Net.Wire.encode_request
      (Net.Wire.Query
         { user = "u"; purpose = "p"; perc = 1.0; sql = "SELECT"; deadline_ms = None })
  in
  (match Net.Wire.decode_request ~typ (String.sub payload 0 5) with
  | Ok _ -> Alcotest.fail "truncated request accepted"
  | Error _ -> ());
  match Net.Wire.decode_request ~typ (payload ^ "junk") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* golden frames: the exact bytes of a fixed set of messages.  The
   digests were recorded from the encoder before the one-copy wire path
   landed; any change to the wire format or the canonical body shows up
   here as a digest mismatch.  Run this after every change to lib/net. *)

let golden_response ~proposal ~degraded ~released : E.response =
  let open Relational in
  let tid rel row = Lineage.Tid.make rel row in
  let v rel row = Lineage.Formula.Var (tid rel row) in
  let row tuple lineage confidence conf_tier =
    { E.tuple = Tuple.of_list tuple; lineage; confidence; conf_tier }
  in
  {
    E.schema =
      Schema.of_list
        [
          ("R.k", V.TInt);
          ("R.name", V.TString);
          ("R.flag", V.TBool);
          ("R.score", V.TFloat);
          ("S.note", V.TString);
        ];
    released =
      (if not released then []
       else
         [
           row
             [ V.Int (-42); V.String "caf\xc3\xa9, \"x\""; V.Bool true; V.Float 2.0; V.Null ]
             (Lineage.Formula.Or
                [
                  Lineage.Formula.And [ v "R" 1; Lineage.Formula.Not (v "S" 2) ];
                  Lineage.Formula.Not
                    (Lineage.Formula.Or [ v "R" 3; Lineage.Formula.And [ v "S" 4; v "T" 5 ] ]);
                ])
             (0.1 +. 0.2) "circuit";
           row
             [ V.Int 0; V.String ""; V.Bool false; V.Float 0.1; V.String "note" ]
             (v "R" 123456789) 0.75 "var";
           row
             [ V.Null; V.String "x"; V.Null; V.Float (-1.5e300); V.Null ]
             (Lineage.Formula.And
                [ v "R" 7; Lineage.Formula.Or [ v "S" 8; Lineage.Formula.Not (v "S" 9) ] ])
             1.0 "shannon";
           row
             [ V.Float (-0.0); V.Float 1e16; V.Float 123456789.0; V.Float Float.nan; V.Int max_int ]
             (Lineage.Formula.Not (v "T" 0)) 0.5000000000000001 "obdd";
         ]);
    withheld = 4;
    ambiguous = 1;
    requested = 6;
    threshold = (if released then Some 0.55 else None);
    applied_policies =
      (if released then
         [
           Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta:0.55;
           Rbac.Policy.make ~role:"auditor" ~purpose:"p" ~beta:0.4;
         ]
       else []);
    proposal =
      Option.map
        (fun resolution ->
          {
            E.increments = [ (tid "R" 3, 0.625); (tid "S" 9, 0.1 +. 0.7) ];
            cost = 13.25;
            projected_release = 5;
            solver_name = "dnc";
            solver_stats =
              Optimize.Solver.Divide_conquer_stats Optimize.Divide_conquer.empty_stats;
            solver_detail = "";
            elapsed_s = 0.5;
            resolution;
          })
        proposal;
    infeasible = not released;
    degraded;
    profile = None;
  }

type golden =
  | Req of Net.Wire.request
  | Resp of Net.Wire.response
  | Engine of int option * E.response  (** an answer with its proposal token *)

let golden_messages =
  let answer ?proposal_token ?degraded ~proposal ~released () =
    Engine (proposal_token, golden_response ~proposal ~degraded ~released)
  in
  [
    ( "query",
      Req
        (Net.Wire.Query
           {
             user = "u00";
             purpose = "serve";
             perc = 0.1 +. 0.2;
             sql = "SELECT k FROM R WHERE n < 70";
             deadline_ms = Some 12.5;
           }) );
    ( "query no deadline",
      Req (Net.Wire.Query { user = "u"; purpose = "p"; perc = 1.0; sql = "SELECT"; deadline_ms = None })
    );
    ("accept", Req (Net.Wire.Accept { user = "u01"; token = 424242 }));
    ("ping", Req Net.Wire.Ping);
    ( "answer partial proposal",
      answer ~proposal_token:7 ~degraded:"deadline"
        ~proposal:(Some (Optimize.Solver.Partial { reason = "deadline" }))
        ~released:true () );
    ( "answer complete proposal",
      answer ~proposal_token:8 ~proposal:(Some Optimize.Solver.Complete) ~released:true () );
    ("answer degraded no proposal", answer ~degraded:"budget" ~proposal:None ~released:true ());
    ("answer empty", answer ~proposal:None ~released:false ());
    ("accepted", Resp (Net.Wire.Accepted { applied = 2; cost = 13.25 }));
    ("pong", Resp Net.Wire.Pong);
    ("overloaded", Resp (Net.Wire.Overloaded { retry_after_ms = 50.0 }));
    ("timeout", Resp (Net.Wire.Timeout { reason = "deadline expired in admission queue" }));
    ("err", Resp (Net.Wire.Err "no such user"));
  ]

(* (name, frame length, MD5 of the frame) *)
let golden_digests =
  [
    ("query", (77, "8c97d911401fd5a2dc570a7906443684"));
    ("query no deadline", (41, "f12e3bc099b3c242207f24fe74678ffd"));
    ("accept", (27, "c30da19ddb53345cf0678c9c63d1fc3b"));
    ("ping", (12, "577c2e69053b91bdb26e2f9824ad4692"));
    ("answer partial proposal", (584, "cd7b67aeb1b1d3ad767329332dc51d57"));
    ("answer complete proposal", (552, "d492e071a51b85e8af8a2e93c1077617"));
    ("answer degraded no proposal", (499, "9af50cb385cfc8b1cb18460f8fb3d28a"));
    ("answer empty", (122, "78e273365e54417951873927b2dabb45"));
    ("accepted", (24, "9b85fcc842714f7fba23b3bf6ff76ead"));
    ("pong", (12, "4a5d44e51b2d79f2aee7b601aa762cf0"));
    ("overloaded", (20, "c4bc4520c0b8fab48d86b1321db8d694"));
    ("timeout", (51, "d28b51c9ebb975230ace6902a2d7671e"));
    ("err", (28, "87dd1697c4a2c917b420985bbd5fd412"));
  ]

let check_golden_frames frame_of =
  let bad =
    List.filter_map
      (fun (name, msg) ->
        let frame = frame_of msg in
        let got = (String.length frame, Digest.to_hex (Digest.string frame)) in
        match List.assoc_opt name golden_digests with
        | Some want when want = got -> None
        | _ -> Some (Printf.sprintf "(%S, (%d, %S));" name (fst got) (snd got)))
      golden_messages
  in
  if bad <> [] then
    Alcotest.failf "frames differ from the golden bytes:\n%s" (String.concat "\n" bad)

(* the string wrappers: message payload, then Frame.encode *)
let test_wire_golden_frames () =
  check_golden_frames (fun msg ->
      let typ, payload =
        match msg with
        | Req r -> Net.Wire.encode_request r
        | Resp r -> Net.Wire.encode_response r
        | Engine (proposal_token, r) ->
          Net.Wire.encode_response
            (Net.Wire.Answer (Net.Wire.answer_of_response ?proposal_token r))
      in
      Net.Frame.encode ~typ payload)

(* the serving path: whole frames built in place, in one reused buffer
   that starts too small and must grow *)
let test_wire_golden_frames_in_place () =
  let b = Net.Frame.create ~capacity:16 () in
  check_golden_frames (fun msg ->
      (match msg with
      | Req r -> Net.Wire.write_request b r
      | Resp r -> Net.Wire.write_response b r
      | Engine (proposal_token, r) -> Net.Wire.write_answer b ?proposal_token r);
      Net.Frame.contents b)

(* ------------------------------------------------------------------ *)
(* server fixtures *)

let build_ctx () =
  let open Relational in
  let r = Relation.create "T" (Schema.of_list [ ("x", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let db =
    List.fold_left
      (fun db (x, conf) -> fst (Db.insert db "T" [ V.Int x ] ~conf))
      db
      [ (1, 0.9); (2, 0.7); (3, 0.45); (4, 0.3); (5, 0.2); (6, 0.55) ]
  in
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_role empty "analyst" in
    let m =
      List.fold_left
        (fun m u -> ok (assign_user ~user:u ~role:"analyst" (add_user m u)))
        m [ "u0"; "u1"; "u2"; "u3" ]
    in
    ok (grant m ~role:"analyst" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta:0.5 ]
  in
  E.make_context ~db ~rbac ~policies ()

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pcqe_net_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?obs ?config ctx f =
  let server =
    Net.Server.start ?obs ?config ~ctx (Net.Server.Unix_path (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Net.Server.stop server) (fun () -> f server)

let queries =
  [|
    "SELECT x FROM T";
    "SELECT x FROM T WHERE x < 4";
    "SELECT x FROM T WHERE x > 2";
  |]

(* ------------------------------------------------------------------ *)
(* identity: wire answers == in-process Session.batch, bit for bit *)

let test_server_identity_with_batch () =
  let ctx = build_ctx () in
  let users = [ "u0"; "u1" ] in
  (* per-principal streams: each user asks every query at two percs *)
  let stream u =
    List.concat_map
      (fun sql -> [ (sql, 0.3); (sql, 1.0) ])
      (Array.to_list queries)
    |> List.map (fun (sql, perc) -> (u, sql, perc))
  in
  let wire_bodies =
    with_server ctx (fun server ->
        let client = Net.Client.create ~seed:1 (Net.Server.address server) in
        Fun.protect
          ~finally:(fun () -> Net.Client.close client)
          (fun () ->
            List.map
              (fun u ->
                List.map
                  (fun (user, sql, perc) ->
                    match Net.Client.query client ~user ~purpose:"p" ~perc sql with
                    | Net.Client.Answer a -> a.Net.Wire.body
                    | o ->
                      Alcotest.failf "wire query not answered: %s"
                        (Net.Client.outcome_label o))
                  (stream u))
              users))
  in
  (* the in-process reference: one Session over the same base context —
     the server's one serving state — batching the whole stream in wire
     order *)
  let local_bodies =
    E.Session.batch (E.Session.create ctx)
      (List.map
         (fun (user, sql, perc) ->
           { E.query = Pcqe.Query.sql sql; user; purpose = "p"; perc })
         (List.concat_map stream users))
    |> List.map (fun r -> Net.Wire.body_of_response (ok r))
  in
  List.iteri
    (fun i (w, l) ->
      if not (String.equal w l) then
        Alcotest.failf "response %d differs between wire and Session.batch" i)
    (List.combine (List.concat wire_bodies) local_bodies)

(* One connection: an answer with a body over 1 MiB (the buffers on
   both ends grow, then drop the outsized storage), then small answers in
   the same buffers, interleaved; every body matches the in-process one. *)
let test_server_large_then_small () =
  let ctx = build_ctx () in
  let db =
    let open Relational in
    let db =
      Db.add_relation ctx.E.db
        (Relation.create "Big" (Schema.of_list [ ("id", V.TInt); ("text", V.TString) ]))
    in
    List.fold_left
      (fun db i ->
        fst (Db.insert db "Big" [ V.Int i; V.String (String.make 480 (Char.chr (97 + (i mod 26)))) ] ~conf:0.9))
      db
      (List.init 2400 Fun.id)
  in
  let ctx = { ctx with E.db } in
  let stream =
    [ "SELECT id, text FROM Big"; "SELECT x FROM T"; "SELECT x FROM T WHERE x < 4";
      "SELECT id, text FROM Big"; "SELECT x FROM T WHERE x > 2" ]
  in
  let wire =
    with_server ctx (fun server ->
        let client = Net.Client.create ~seed:5 (Net.Server.address server) in
        Fun.protect
          ~finally:(fun () -> Net.Client.close client)
          (fun () ->
            List.map
              (fun sql ->
                match Net.Client.query client ~user:"u0" ~purpose:"p" ~perc:0.3 sql with
                | Net.Client.Answer a -> a.Net.Wire.body
                | o -> Alcotest.failf "%s: %s" sql (Net.Client.outcome_label o))
              stream))
  in
  let local =
    E.Session.batch (E.Session.create ctx)
      (List.map
         (fun sql -> { E.query = Pcqe.Query.sql sql; user = "u0"; purpose = "p"; perc = 0.3 })
         stream)
    |> List.map (fun r -> Net.Wire.body_of_response (ok r))
  in
  Alcotest.(check bool) "large body over 1 MiB" true
    (String.length (List.hd wire) > 1024 * 1024);
  List.iteri
    (fun i (w, l) ->
      if not (String.equal w l) then Alcotest.failf "answer %d differs from in-process" i)
    (List.combine wire local)

let test_server_accept_token () =
  let ctx = build_ctx () in
  with_server ctx (fun server ->
      let client = Net.Client.create ~seed:2 (Net.Server.address server) in
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () ->
          (* perc=1.0 needs all 6 results; only 3 clear β=0.5, so the
             solver proposes increments and parks them under a token *)
          let a =
            match
              Net.Client.query client ~user:"u0" ~purpose:"p" ~perc:1.0
                "SELECT x FROM T"
            with
            | Net.Client.Answer a -> a
            | o -> Alcotest.failf "expected answer, got %s" (Net.Client.outcome_label o)
          in
          let token =
            match a.Net.Wire.proposal_token with
            | Some t -> t
            | None -> Alcotest.fail "expected a proposal token"
          in
          (match Net.Client.accept client ~user:"u0" ~token with
          | Net.Client.Accepted { applied; _ } ->
            Alcotest.(check bool) "applied some increments" true (applied > 0)
          | o -> Alcotest.failf "accept failed: %s" (Net.Client.outcome_label o));
          (* tokens are single-use: a replay must not re-apply *)
          (match Net.Client.accept client ~user:"u0" ~token with
          | Net.Client.Failed _ -> ()
          | o -> Alcotest.failf "replayed token not rejected: %s" (Net.Client.outcome_label o));
          (* the follow-up answer reflects the applied increments *)
          match
            Net.Client.query client ~user:"u0" ~purpose:"p" ~perc:1.0
              "SELECT x FROM T"
          with
          | Net.Client.Answer a' ->
            Alcotest.(check bool) "more released after accept" true
              (a'.Net.Wire.released > a.Net.Wire.released)
          | o -> Alcotest.failf "re-query failed: %s" (Net.Client.outcome_label o)))

(* ------------------------------------------------------------------ *)
(* cross-principal serving: one plan cache and one confidence cache *)

(* R ⋈ S ⋈ U over a complete bipartite S is not hierarchical, so
   [entangled_sql]'s rows carry non-read-once lineage: it is priced by
   the ladder and lands in the confidence cache, where a reuse shows up
   as tier "cached" (the T queries above only produce var lineage, which
   is never cached).  Analysts u0/u1 have β 0.5, auditor v0 β 0.9, and
   x0 is a user with no role at all. *)
let entangled_sql = "SELECT DISTINCT R.tag FROM R, S, U WHERE R.a = S.a AND S.b = U.b"
let entangled_sql2 = "SELECT DISTINCT U.b FROM R, S, U WHERE R.a = S.a AND S.b = U.b"

let build_entangled_ctx () =
  let open Relational in
  let rel name cols = Relation.create name (Schema.of_list (List.map (fun c -> (c, V.TInt)) cols)) in
  let db =
    List.fold_left Db.add_relation Db.empty
      [ rel "R" [ "a"; "tag" ]; rel "S" [ "a"; "b" ]; rel "U" [ "b" ] ]
  in
  let db =
    List.fold_left
      (fun db (name, vs, conf) -> fst (Db.insert db name (List.map (fun v -> V.Int v) vs) ~conf))
      db
      [
        ("R", [ 1; 1 ], 0.9); ("R", [ 2; 1 ], 0.8); ("R", [ 3; 2 ], 0.6); ("R", [ 4; 2 ], 0.7);
        ("S", [ 1; 1 ], 0.9); ("S", [ 1; 2 ], 0.7); ("S", [ 2; 1 ], 0.8); ("S", [ 2; 2 ], 0.9);
        ("S", [ 3; 1 ], 0.5); ("S", [ 3; 2 ], 0.6); ("S", [ 4; 1 ], 0.4); ("S", [ 4; 2 ], 0.5);
        ("U", [ 1 ], 0.9); ("U", [ 2 ], 0.85);
      ]
  in
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_role (add_role empty "analyst") "auditor" in
    let m =
      List.fold_left
        (fun m (u, role) -> ok (assign_user ~user:u ~role (add_user m u)))
        m
        [ ("u0", "analyst"); ("u1", "analyst"); ("v0", "auditor") ]
    in
    let m = add_user m "x0" in
    let m = ok (grant m ~role:"analyst" { action = "select"; resource = "*" }) in
    ok (grant m ~role:"auditor" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list
      [
        Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta:0.5;
        Rbac.Policy.make ~role:"auditor" ~purpose:"p" ~beta:0.9;
      ]
  in
  E.make_context ~db ~rbac ~policies ()

let wire_answer client ~user ~perc sql =
  match Net.Client.query client ~user ~purpose:"p" ~perc sql with
  | Net.Client.Answer a -> a
  | o -> Alcotest.failf "%s %s: %s" user sql (Net.Client.outcome_label o)

let cache_stat server name = List.assoc name (Pcqe.Caches.stats (Net.Server.caches server))

(* (a) u1's first answer of a text u0 already asked is served from the
   shared caches, and the wire bodies equal one in-process Session
   answering the same interleaved stream in wire order *)
let test_server_shares_caches_across_principals () =
  let ctx = build_entangled_ctx () in
  let stream =
    [
      ("u0", entangled_sql, 0.3); ("u1", entangled_sql, 0.3); ("u1", entangled_sql2, 0.3);
      ("u0", entangled_sql2, 1.0); ("v0", entangled_sql, 1.0); ("u0", entangled_sql, 1.0);
      ("u1", entangled_sql2, 0.3);
    ]
  in
  let wire, plans =
    with_server ctx (fun server ->
        let client = Net.Client.create ~seed:21 (Net.Server.address server) in
        Fun.protect
          ~finally:(fun () -> Net.Client.close client)
          (fun () ->
            let bodies =
              List.map (fun (user, sql, perc) -> (wire_answer client ~user ~perc sql).Net.Wire.body) stream
            in
            (bodies, cache_stat server "plans.entries")))
  in
  Alcotest.(check int) "one plan per text, not per principal" 2 plans;
  let session = E.Session.create ctx in
  let local =
    List.map
      (fun (user, sql, perc) ->
        ok (E.Session.answer session { E.query = Pcqe.Query.sql sql; user; purpose = "p"; perc }))
      stream
  in
  let u1_first = List.nth local 1 in
  Alcotest.(check bool) "u1's first answer releases rows" true (u1_first.E.released <> []);
  List.iter
    (fun (r : E.released) -> Alcotest.(check string) "u1's first answer is cached" "cached" r.E.conf_tier)
    u1_first.E.released;
  List.iteri
    (fun i (w, l) ->
      if not (String.equal w (Net.Wire.body_of_response l)) then
        Alcotest.failf "response %d differs between wire and one in-process session" i)
    (List.combine wire local)

(* (b) principals with different β price the same classes once, and
   each releases nothing at or below its own β *)
let test_server_shares_classes_across_betas () =
  let ctx = build_entangled_ctx () in
  with_server ctx (fun server ->
      let client = Net.Client.create ~seed:22 (Net.Server.address server) in
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () ->
          let a = wire_answer client ~user:"u0" ~perc:0.3 entangled_sql in
          let classes = cache_stat server "conf.entries" in
          let priced = cache_stat server "serving.recomputed_classes" in
          Alcotest.(check bool) "u0's answer priced its classes" true (classes > 0 && priced > 0);
          let b = wire_answer client ~user:"v0" ~perc:0.3 entangled_sql in
          Alcotest.(check int) "v0 adds no class" classes (cache_stat server "conf.entries");
          Alcotest.(check int) "v0 prices nothing anew" priced
            (cache_stat server "serving.recomputed_classes");
          Alcotest.(check bool) "v0 reuses u0's classes" true
            (cache_stat server "serving.reused_classes" >= classes);
          Alcotest.(check bool) "the higher β releases less" true
            (b.Net.Wire.released < a.Net.Wire.released);
          (* the wire bytes equal the in-process answers, whose released
             confidences are each above the asking principal's β *)
          let session = E.Session.create ctx in
          List.iter
            (fun (user, beta, (w : Net.Wire.answer)) ->
              let resp =
                ok
                  (E.Session.answer session
                     { E.query = Pcqe.Query.sql entangled_sql; user; purpose = "p"; perc = 0.3 })
              in
              Alcotest.(check bool) (user ^ ": wire = in-process") true
                (String.equal w.Net.Wire.body (Net.Wire.body_of_response resp));
              List.iter
                (fun (r : E.released) ->
                  Alcotest.(check bool) (user ^ ": released above its β") true (r.E.confidence > beta))
                resp.E.released)
            [ ("u0", 0.5, a); ("v0", 0.9, b) ]))

(* (c) a cached plan is no grant: x0 gets the RBAC error *)
let test_server_rbac_on_cached_plan () =
  let ctx = build_entangled_ctx () in
  let denial =
    match E.answer ctx { E.query = Pcqe.Query.sql entangled_sql; user = "x0"; purpose = "p"; perc = 0.3 } with
    | Error m -> m
    | Ok _ -> Alcotest.fail "x0 must not be answered in process"
  in
  with_server ctx (fun server ->
      let client = Net.Client.create ~seed:23 (Net.Server.address server) in
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () ->
          ignore (wire_answer client ~user:"u0" ~perc:0.3 entangled_sql);
          let hits = cache_stat server "prepared.hit" in
          (match Net.Client.query client ~user:"x0" ~purpose:"p" ~perc:0.3 entangled_sql with
          | Net.Client.Failed m -> Alcotest.(check string) "the RBAC error" denial m
          | o -> Alcotest.failf "x0 was not refused: %s" (Net.Client.outcome_label o));
          Alcotest.(check int) "x0's request found the cached plan" (hits + 1)
            (cache_stat server "prepared.hit")))

(* (d) tokens are per principal: one issued to u0 is rejected when
   quoted by u1, and stays valid for u0 *)
let test_server_token_is_per_principal () =
  let ctx = build_ctx () in
  with_server ctx (fun server ->
      let client = Net.Client.create ~seed:24 (Net.Server.address server) in
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () ->
          let token user =
            match (wire_answer client ~user ~perc:1.0 "SELECT x FROM T").Net.Wire.proposal_token with
            | Some t -> t
            | None -> Alcotest.failf "%s: expected a proposal token" user
          in
          let t0 = token "u0" in
          let t1 = token "u1" in
          Alcotest.(check bool) "distinct tokens" true (t0 <> t1);
          let accept user tok =
            match Net.Client.accept client ~user ~token:tok with
            | Net.Client.Accepted _ -> true
            | Net.Client.Failed _ -> false
            | o -> Alcotest.failf "accept: %s" (Net.Client.outcome_label o)
          in
          Alcotest.(check bool) "u1 quoting u0's token is rejected" false (accept "u1" t0);
          Alcotest.(check bool) "u0 quoting u1's token is rejected" false (accept "u0" t1);
          Alcotest.(check bool) "u0's token still works for u0" true (accept "u0" t0);
          Alcotest.(check bool) "u1's token still works for u1" true (accept "u1" t1);
          Alcotest.(check bool) "single use" false (accept "u0" t0)))

(* the cache gauges read the server's one confidence cache *)
let test_server_gauges_read_one_cache () =
  let ctx = build_entangled_ctx () in
  let obs = Obs.create () in
  with_server ~obs ctx (fun server ->
      let client = Net.Client.create ~seed:25 (Net.Server.address server) in
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () ->
          List.iter
            (fun (user, sql) -> ignore (wire_answer client ~user ~perc:0.3 sql))
            [ ("u0", entangled_sql); ("u1", entangled_sql2); ("v0", entangled_sql) ]);
      Net.Server.refresh_gauges server;
      let want = Pcqe.Conf_cache.length (Pcqe.Caches.conf (Net.Server.caches server)) in
      Alcotest.(check bool) "the cache holds classes" true (want > 0);
      Alcotest.(check (option (float 0.0))) "cache.conf.entries"
        (Some (float_of_int want))
        (Obs.Metrics.gauge obs.Obs.metrics "cache.conf.entries"))

(* ------------------------------------------------------------------ *)
(* admission: shedding and queue-expired timeouts *)

let overload_config =
  {
    Net.Server.default_config with
    admit = 1;
    queue = 0;
    retry_after_ms = 5.0;
    fault_stall_s = 0.25;
  }

(* Arm net.delay at rate 1.0: every admitted request stalls 250 ms
   holding the only execution slot, so concurrent requests shed
   deterministically (queue = 0). *)
let test_server_sheds_under_overload () =
  let ctx = build_ctx () in
  with_server ~config:overload_config ctx (fun server ->
      let addr = Net.Server.address server in
      let plan =
        Fault.plan ~rate:1.0 ~sites:[ Fault.site_net_delay ] ~seed:5 ()
      in
      Fault.with_plan plan (fun () ->
          let outcomes = Array.make 4 None in
          let clients =
            Array.init 4 (fun i ->
                Net.Client.create
                  ~config:{ Net.Client.default_config with retries = 0 }
                  ~seed:i addr)
          in
          (* connect everyone first so the sends land near-simultaneously *)
          let threads =
            Array.init 4 (fun i ->
                Thread.create
                  (fun () ->
                    outcomes.(i) <-
                      Some
                        (Net.Client.query clients.(i) ~user:"u0" ~purpose:"p"
                           ~perc:0.3 "SELECT x FROM T"))
                  ())
          in
          Array.iter Thread.join threads;
          Array.iter (fun c -> Net.Client.close c) clients;
          let answers = ref 0 and sheds = ref 0 and other = ref 0 in
          Array.iter
            (fun o ->
              match o with
              | Some (Net.Client.Answer _) -> incr answers
              | Some (Net.Client.Shed _) -> incr sheds
              | Some _ -> incr other
              | None -> Alcotest.fail "a request never terminated")
            outcomes;
          Alcotest.(check int) "all terminal" 4 (!answers + !sheds + !other);
          Alcotest.(check bool) "at least one answered" true (!answers >= 1);
          Alcotest.(check bool) "overload shed explicitly" true (!sheds >= 1));
      (* the server survives the storm *)
      let c = Net.Client.create ~seed:9 addr in
      (match Net.Client.ping c with
      | Net.Client.Answer _ -> ()
      | o -> Alcotest.failf "server dead after overload: %s" (Net.Client.outcome_label o));
      Net.Client.close c)

let test_server_queue_deadline_timeout () =
  let ctx = build_ctx () in
  let config = { overload_config with queue = 4 } in
  with_server ~config ctx (fun server ->
      let addr = Net.Server.address server in
      let plan =
        Fault.plan ~rate:1.0 ~sites:[ Fault.site_net_delay ] ~seed:6 ()
      in
      Fault.with_plan plan (fun () ->
          (* the first request stalls 250 ms holding the slot; the
             follow-up carries a 20 ms budget and must time out in the
             queue (terminal!), not wait the full stall *)
          let holder =
            Thread.create
              (fun () ->
                let c = Net.Client.create ~seed:11 addr in
                ignore
                  (Net.Client.query c ~user:"u0" ~purpose:"p" ~perc:0.3
                     "SELECT x FROM T");
                Net.Client.close c)
              ()
          in
          Thread.delay 0.05 (* let the holder grab the slot *);
          let c =
            Net.Client.create
              ~config:{ Net.Client.default_config with retries = 0 }
              ~seed:12 addr
          in
          (match
             Net.Client.query c ~user:"u1" ~purpose:"p" ~perc:0.3
               ~deadline_ms:20.0 "SELECT x FROM T"
           with
          | Net.Client.Timed_out _ -> ()
          | o ->
            Alcotest.failf "expected queue-expired timeout, got %s"
              (Net.Client.outcome_label o));
          Net.Client.close c;
          Thread.join holder))

(* ------------------------------------------------------------------ *)
(* malformed input never kills the server *)

let raw_connect addr =
  match addr with
  | Net.Server.Unix_path p ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX p);
    fd
  | Net.Server.Tcp _ -> Alcotest.fail "test uses unix sockets"

let test_server_survives_malformed_frames () =
  let ctx = build_ctx () in
  with_server ctx (fun server ->
      let addr = Net.Server.address server in
      (* garbage bytes: bad magic *)
      let fd = raw_connect addr in
      ignore (Unix.write fd (Bytes.of_string "GARBAGE-NOT-A-FRAME") 0 19);
      (* the server replies with an Err frame (best effort) and drops
         only this connection *)
      Unix.close fd;
      (* a torn frame: valid header promising more payload than sent *)
      let fd = raw_connect addr in
      let frame = Net.Frame.encode ~typ:1 "this payload will be cut short" in
      let cut = String.length frame - 10 in
      ignore (Unix.write fd (Bytes.of_string (String.sub frame 0 cut)) 0 cut);
      Unix.close fd;
      (* a valid frame with an undecodable body *)
      let fd = raw_connect addr in
      let frame = Net.Frame.encode ~typ:1 "not a query payload" in
      ignore (Unix.write fd (Bytes.of_string frame) 0 (String.length frame));
      Thread.delay 0.05;
      Unix.close fd;
      (* after all that, a well-formed request still answers *)
      let c = Net.Client.create ~seed:3 addr in
      (match Net.Client.query c ~user:"u0" ~purpose:"p" ~perc:0.3 "SELECT x FROM T" with
      | Net.Client.Answer _ -> ()
      | o -> Alcotest.failf "server dead after malformed input: %s" (Net.Client.outcome_label o));
      Net.Client.close c;
      let stats = Net.Server.stats server in
      let malformed = try List.assoc "net.malformed" stats with Not_found -> 0 in
      Alcotest.(check bool) "malformed frames counted" true (malformed >= 2))

(* ------------------------------------------------------------------ *)
(* chaos: armed net.* faults, every request terminal, server correct after *)

(* Without faults, a closed loop of concurrent principals (one client
   each) gets every request answered: nothing shed, timed out or failed. *)
let test_server_unfaulted_load_all_answered () =
  let ctx = build_ctx () in
  with_server ctx (fun server ->
      let clients =
        Array.init 2 (fun i ->
            Net.Client.create ~seed:(30 + i) (Net.Server.address server))
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Net.Client.close clients)
        (fun () ->
          let report =
            Workload.Load_gen.run
              {
                Workload.Load_gen.principals = 2;
                requests_per_principal = 6;
                think_ms = 0.0;
                zipf_s = 1.1;
                seed = 47;
              }
              ~queries
              ~user_of:(fun i -> Printf.sprintf "u%d" i)
              ~exec:(fun ~principal ~user ~sql ->
                match
                  Net.Client.query clients.(principal) ~user ~purpose:"p"
                    ~perc:0.6 sql
                with
                | Net.Client.Answer a ->
                  Workload.Load_gen.Answered
                    { degraded = a.Net.Wire.degraded <> None }
                | Net.Client.Shed _ -> Workload.Load_gen.Shed
                | Net.Client.Timed_out _ -> Workload.Load_gen.Timed_out
                | Net.Client.Accepted _ -> Workload.Load_gen.Failed "accepted?"
                | Net.Client.Failed m -> Workload.Load_gen.Failed m)
          in
          Alcotest.(check int) "every request reached the report" 12
            report.Workload.Load_gen.total;
          Alcotest.(check int) "every request answered" 12
            report.Workload.Load_gen.answered))

let test_server_chaos_all_terminal () =
  let ctx = build_ctx () in
  let config = { Net.Server.default_config with admit = 2; queue = 2 } in
  with_server ~config ctx (fun server ->
      let addr = Net.Server.address server in
      let beta = 0.5 in
      List.iter
        (fun seed ->
          let plan =
            Fault.plan ~rate:0.2
              ~sites:
                [
                  Fault.site_net_accept;
                  Fault.site_net_read;
                  Fault.site_net_write;
                  Fault.site_net_delay;
                ]
              ~seed ()
          in
          Fault.with_plan plan (fun () ->
              let report =
                Workload.Load_gen.run
                  {
                    Workload.Load_gen.principals = 4;
                    requests_per_principal = 8;
                    think_ms = 0.0;
                    zipf_s = 1.1;
                    seed;
                  }
                  ~queries
                  ~user_of:(fun i -> Printf.sprintf "u%d" i)
                  ~exec:(fun ~principal ~user ~sql ->
                    let client =
                      Net.Client.create
                        ~config:
                          { Net.Client.default_config with retries = 2 }
                        ~seed:(principal * 1000) addr
                    in
                    Fun.protect
                      ~finally:(fun () -> Net.Client.close client)
                      (fun () ->
                        match
                          Net.Client.query client ~user ~purpose:"p" ~perc:0.3 sql
                        with
                        | Net.Client.Answer a ->
                          (* fail-closed across the wire: the answer body
                             matches the in-process answer, which never
                             releases at or below β *)
                          Workload.Load_gen.Answered
                            { degraded = a.Net.Wire.degraded <> None }
                        | Net.Client.Shed _ -> Workload.Load_gen.Shed
                        | Net.Client.Timed_out _ -> Workload.Load_gen.Timed_out
                        | Net.Client.Accepted _ -> Workload.Load_gen.Failed "accepted?"
                        | Net.Client.Failed m -> Workload.Load_gen.Failed m))
              in
              (* the terminal-outcome property: nothing hangs, nothing is
                 silently dropped *)
              Alcotest.(check int)
                "every request reached a terminal outcome" (4 * 8)
                report.Workload.Load_gen.total))
        [ 1; 2; 3 ];
      Fault.disarm ();
      (* after the chaos: the server still answers, and bit-identically
         to an in-process session.  The server's one session has served
         every principal's chaos traffic, and a body names the tier that
         priced each tuple ("cached" once a class is cached), so both
         sides answer twice and the warm second answers are compared *)
      let c = Net.Client.create ~seed:4 addr in
      let wire () =
        match Net.Client.query c ~user:"u3" ~purpose:"p" ~perc:0.3 "SELECT x FROM T" with
        | Net.Client.Answer a -> a.Net.Wire.body
        | o -> Alcotest.failf "server dead after chaos: %s" (Net.Client.outcome_label o)
      in
      ignore (wire ());
      let wire_body = wire () in
      Net.Client.close c;
      let session = E.Session.create ctx in
      let local () =
        E.Session.batch session
          [
            {
              E.query = Pcqe.Query.sql "SELECT x FROM T";
              user = "u3";
              purpose = "p";
              perc = 0.3;
            };
          ]
        |> List.map (fun r -> Net.Wire.body_of_response (ok r))
      in
      ignore (local ());
      let local = local () in
      Alcotest.(check bool)
        "post-chaos answer identical to in-process" true
        (String.equal wire_body (List.hd local));
      (* no released tuple at or below β in the reference answer the wire
         bytes were just proven identical to *)
      let resp = ok (E.Session.answer session
        { E.query = Pcqe.Query.sql "SELECT x FROM T"; user = "u3"; purpose = "p"; perc = 0.3 })
      in
      List.iter
        (fun (row : E.released) ->
          Alcotest.(check bool) "released above beta" true (row.E.confidence > beta))
        resp.E.released)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "crc32 vector" `Quick test_frame_crc32_vector;
          Alcotest.test_case "rejects malformed" `Quick test_frame_rejects_malformed;
          Alcotest.test_case "sliced crc32 = bitwise" `Quick test_frame_crc32_sliced;
          Alcotest.test_case "any payload flip caught" `Quick test_frame_any_flip_is_caught;
          Alcotest.test_case "one-byte reads" `Quick test_frame_one_byte_reads;
          Alcotest.test_case "buffer shrinks after outsized" `Quick test_frame_buffer_shrinks;
          Alcotest.test_case "io retries EINTR" `Quick test_io_retries_eintr;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_wire_response_roundtrip;
          Alcotest.test_case "rejects truncated" `Quick test_wire_rejects_truncated;
          Alcotest.test_case "golden frames" `Quick test_wire_golden_frames;
          Alcotest.test_case "golden frames in place" `Quick test_wire_golden_frames_in_place;
        ] );
      ( "server",
        [
          Alcotest.test_case "identity with Session.batch" `Quick
            test_server_identity_with_batch;
          Alcotest.test_case "large then small answers" `Quick
            test_server_large_then_small;
          Alcotest.test_case "accept via single-use token" `Quick
            test_server_accept_token;
          Alcotest.test_case "caches shared across principals" `Quick
            test_server_shares_caches_across_principals;
          Alcotest.test_case "classes shared across betas" `Quick
            test_server_shares_classes_across_betas;
          Alcotest.test_case "RBAC on a cached plan" `Quick
            test_server_rbac_on_cached_plan;
          Alcotest.test_case "token is per principal" `Quick
            test_server_token_is_per_principal;
          Alcotest.test_case "gauges read the server's one cache" `Quick
            test_server_gauges_read_one_cache;
          Alcotest.test_case "sheds under overload" `Quick
            test_server_sheds_under_overload;
          Alcotest.test_case "queue deadline timeout" `Quick
            test_server_queue_deadline_timeout;
          Alcotest.test_case "survives malformed frames" `Quick
            test_server_survives_malformed_frames;
          Alcotest.test_case "unfaulted load: all answered" `Quick
            test_server_unfaulted_load_all_answered;
          Alcotest.test_case "chaos: all requests terminal" `Quick
            test_server_chaos_all_terminal;
        ] );
    ]
