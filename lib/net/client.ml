type config = {
  request_timeout_ms : float;
  retries : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  breaker_threshold : int;
  breaker_cooldown_ms : float;
}

let default_config =
  {
    request_timeout_ms = 2000.0;
    retries = 3;
    backoff_base_ms = 5.0;
    backoff_cap_ms = 100.0;
    breaker_threshold = 5;
    breaker_cooldown_ms = 250.0;
  }

type t = {
  addr : Server.listen;
  config : config;
  rng : Prng.Splitmix.t;
  mutable sock : Unix.file_descr option;
  buf : Frame.buf;  (* each request is built, and its response read, here *)
  mutable consecutive_failures : int;
  mutable open_until_ms : float;  (* breaker: fail fast before this time *)
  mutable retries_used : int;
  mutable breaker_opens : int;
}

type outcome =
  | Answer of Wire.answer
  | Accepted of { applied : int; cost : float }
  | Shed of { retry_after_ms : float }
  | Timed_out of string
  | Failed of string

let outcome_label = function
  | Answer _ -> "answer"
  | Accepted _ -> "accepted"
  | Shed _ -> "shed"
  | Timed_out _ -> "timeout"
  | Failed _ -> "failed"

let create ?(config = default_config) ?(seed = 0) addr =
  (* a severed server mid-write must surface as EPIPE (a Transport
     failure, retriable), not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    addr;
    config;
    rng = Prng.Splitmix.of_int seed;
    sock = None;
    buf = Frame.create ();
    consecutive_failures = 0;
    open_until_ms = neg_infinity;
    retries_used = 0;
    breaker_opens = 0;
  }

let now_ms () = Unix.gettimeofday () *. 1000.0

let close t =
  match t.sock with
  | None -> ()
  | Some fd ->
    t.sock <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

exception Transport of string

let connect t =
  match t.sock with
  | Some fd -> fd
  | None -> (
    let domain, sockaddr =
      match t.addr with
      | Server.Tcp (host, port) ->
        let inet =
          match Unix.inet_addr_of_string host with
          | a -> a
          | exception _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> raise (Transport ("unknown host " ^ host)))
        in
        (Unix.PF_INET, Unix.ADDR_INET (inet, port))
      | Server.Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
    in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO (t.config.request_timeout_ms /. 1000.0);
      (match t.addr with
      | Server.Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
      | Server.Unix_path _ -> ());
      Unix.connect fd sockaddr
    with
    | () ->
      t.sock <- Some fd;
      fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Transport ("connect: " ^ Unix.error_message e)))

exception Response_timeout

let send fd buf =
  try Io.send fd (Frame.bytes buf) (Frame.length buf)
  with Unix.Unix_error (e, _, _) -> raise (Transport ("write: " ^ Unix.error_message e))

let recv fd buf off len =
  try Io.recv fd buf off len with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> raise Response_timeout
  | Unix.Unix_error (e, _, _) -> raise (Transport ("read: " ^ Unix.error_message e))

(* One attempt: send the frame, wait for the single response frame.  Both
   live in [t.buf]; the decoded response copies out what it keeps. *)
let attempt t req =
  let fd = connect t in
  Fun.protect
    ~finally:(fun () -> Frame.shrink t.buf)
    (fun () ->
      Wire.write_request t.buf req;
      send fd t.buf;
      match Frame.read_into t.buf (recv fd) with
      | Error Frame.Closed | Error (Frame.Torn _) ->
        raise (Transport "connection severed awaiting response")
      | Error e -> raise (Transport (Frame.error_to_string e))
      | Ok typ -> (
        match Wire.response_of_frame ~typ t.buf with
        | Error msg -> raise (Transport ("bad response: " ^ msg))
        | Ok resp -> resp))

let record_failure t =
  close t;
  t.consecutive_failures <- t.consecutive_failures + 1;
  if t.consecutive_failures >= t.config.breaker_threshold then begin
    t.open_until_ms <- now_ms () +. t.config.breaker_cooldown_ms;
    t.breaker_opens <- t.breaker_opens + 1;
    (* half-open after the cooldown: the next call is the probe *)
    t.consecutive_failures <- 0
  end

let record_success t = t.consecutive_failures <- 0

let backoff_ms t ~k ~hint =
  let exp = t.config.backoff_base_ms *. (2.0 ** float_of_int k) in
  let capped = Float.min t.config.backoff_cap_ms (Float.max exp hint) in
  capped *. Prng.Splitmix.float_in t.rng 0.5 1.5

(* Idempotent call: retry transport failures and sheds with capped
   exponential backoff + seeded jitter. *)
let call_idempotent t req =
  if now_ms () < t.open_until_ms then Failed "circuit breaker open"
  else begin
    let attempts = t.config.retries + 1 in
    let rec go k last =
      if k >= attempts then last
      else begin
        if k > 0 then t.retries_used <- t.retries_used + 1;
        match attempt t req with
        | Wire.Answer a ->
          record_success t;
          Answer a
        | Wire.Accepted { applied; cost } ->
          record_success t;
          Accepted { applied; cost }
        | Wire.Pong ->
          record_success t;
          Answer { released = 0; withheld = 0; requested = 0; degraded = None; proposal_token = None; body = "pong" }
        | Wire.Overloaded { retry_after_ms } ->
          (* the server is alive: not a breaker event *)
          record_success t;
          let shed = Shed { retry_after_ms } in
          if k + 1 >= attempts then shed
          else begin
            Unix.sleepf (backoff_ms t ~k ~hint:retry_after_ms /. 1000.0);
            go (k + 1) shed
          end
        | Wire.Timeout { reason } ->
          (* the deadline is spent; retrying cannot beat it *)
          record_success t;
          Timed_out reason
        | Wire.Err msg ->
          record_success t;
          Failed msg
        | exception Transport what ->
          record_failure t;
          if now_ms () < t.open_until_ms then Failed ("circuit breaker open: " ^ what)
          else if k + 1 >= attempts then Failed what
          else begin
            Unix.sleepf (backoff_ms t ~k ~hint:0.0 /. 1000.0);
            go (k + 1) (Failed what)
          end
        | exception Response_timeout ->
          record_failure t;
          let to_ = Timed_out "no response within request timeout" in
          if now_ms () < t.open_until_ms then to_
          else if k + 1 >= attempts then to_
          else begin
            Unix.sleepf (backoff_ms t ~k ~hint:0.0 /. 1000.0);
            go (k + 1) to_
          end
      end
    in
    go 0 (Failed "no attempt made")
  end

let query t ~user ~purpose ~perc ?deadline_ms sql =
  call_idempotent t (Wire.Query { user; purpose; perc; sql; deadline_ms })

let ping t =
  match call_idempotent t Wire.Ping with
  | Answer _ -> Answer { released = 0; withheld = 0; requested = 0; degraded = None; proposal_token = None; body = "pong" }
  | o -> o

(* accept_proposal mutates the shared database: one attempt, never
   retried — a lost ack is indistinguishable from a lost request, and
   guessing would risk double-application (the server's single-use
   token makes a replay harmless, but the client still refuses). *)
let accept t ~user ~token =
  if now_ms () < t.open_until_ms then Failed "circuit breaker open"
  else
    match attempt t (Wire.Accept { user; token }) with
    | Wire.Accepted { applied; cost } ->
      record_success t;
      Accepted { applied; cost }
    | Wire.Overloaded { retry_after_ms } ->
      record_success t;
      Shed { retry_after_ms }
    | Wire.Timeout { reason } ->
      record_success t;
      Timed_out reason
    | Wire.Err msg ->
      record_success t;
      Failed msg
    | Wire.Answer _ | Wire.Pong ->
      record_success t;
      Failed "unexpected response to accept"
    | exception Transport what ->
      record_failure t;
      Failed ("accept not retried after transport failure: " ^ what)
    | exception Response_timeout ->
      record_failure t;
      Timed_out "accept: no response within request timeout (not retried)"

let retries_used t = t.retries_used
let breaker_opens t = t.breaker_opens
