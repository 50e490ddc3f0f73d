(** The serving tier: one [Engine.Session] per published database,
    shared by every principal, behind a socket.

    One acceptor thread plus one thread per connection.  Every request
    on a connection is answered in order with exactly one terminal
    response frame: an answer, an explicit [Overloaded] shed, an
    explicit queue-expired [Timeout], or an [Err] — never silence.

    {b Admission.}  At most [config.admit] requests execute at once;
    up to [config.queue] more wait in a bounded queue; beyond that the
    request is shed immediately with [Overloaded {retry_after_ms}] —
    overload produces fast explicit refusals, not unbounded queueing.
    Queue wait — for an admission slot and then for the serving state —
    is charged against the request's deadline, counted from frame
    decode: a request whose deadline expires while it waits gets
    [Timeout] without touching the engine.

    {b Deadline propagation.}  A [Query]'s [deadline_ms] (minus time
    already spent queued) becomes [Resilience.Deadline.Wall_ms] on the
    session context, so strategy finding degrades to [Partial] instead
    of hanging; the degradation marker travels back in the answer.

    {b One serving state.}  Confidence policies are enforced after
    evaluation, so a compiled plan and a lineage class's confidence
    depend only on the database, never on who asked; only the RBAC
    check, the β filter and strategy finding depend on the principal.
    The server therefore keeps a single [Engine.Session] — one plan
    cache, one confidence cache — whose context database {e is} the
    published database, guarded by a serving mutex: a query answers
    under it, and [Accept] applies its increments under it, so accepts
    form one linear history and each is visible to every principal's
    next query.  The confidence cache revalidates through the
    database's confidence epoch and change log, so an accept invalidates
    only the cached classes whose lineage mentions a raised tuple.
    Per principal the server keeps only the latest proposal, parked
    under a single-use token that only that principal may quote, which
    makes replayed/retried accepts harmless.

    {b Chaos.}  The [net.accept]/[net.read]/[net.write]/[net.delay]
    fault sites fire here, so an armed {!Resilience.Fault} plan severs
    connections and stalls requests mid-flight.  Malformed or torn
    frames kill at most their own connection, never the server. *)

type listen =
  | Tcp of string * int  (** host, port (0 = ephemeral) *)
  | Unix_path of string  (** unix-domain socket path *)

val listen_to_string : listen -> string

val listen_of_string : string -> (listen, string) result
(** Parses ["tcp:HOST:PORT"] or ["unix:PATH"]. *)

type config = {
  admit : int;  (** max concurrently executing requests *)
  queue : int;  (** max requests waiting for an execution slot *)
  retry_after_ms : float;  (** hint carried in [Overloaded] responses *)
  default_deadline_ms : float option;
      (** applied to [Query] requests that carry no deadline *)
  poll_interval_s : float;
      (** how often idle connection readers re-check the stop flag *)
  fault_stall_s : float;
      (** how long an injected [net.delay] fault stalls a request while
          it holds its admission slot — the chaos knob for overload *)
}

val default_config : config
(** admit 4, queue 16, retry after 50 ms, no default deadline. *)

type t

val start :
  ?obs:Obs.t -> ?config:config -> ctx:Pcqe.Engine.context -> listen -> t
(** Bind, listen and start the acceptor thread.  [ctx] seeds the one
    serving session with fresh caches; its [obs]/[profile]/[caches]
    fields are ignored (the engine registry is single-writer, so
    connection threads must not share it) and its [deadline] applies to
    queries that carry none and have no [default_deadline_ms] — pass
    [?obs] for the server's own [net.*] counters and gauges, updated
    under the server lock.  @raise Unix.Unix_error on bind failure. *)

val address : t -> listen
(** The bound address — with the real port when [Tcp (_, 0)] was
    requested. *)

val stop : ?drain_deadline_s:float -> t -> unit
(** Stop accepting, sever live connections, join every thread.
    Idempotent.  With [drain_deadline_s > 0] (default [0.]), requests
    already admitted when the flag flips are allowed up to that many
    seconds to reach their terminal response before connections are
    severed — the graceful path [pcqe serve] takes on SIGINT/SIGTERM;
    queued and new requests are refused immediately either way. *)

val requests_served : t -> int
(** Terminal responses produced so far (answers, sheds, timeouts,
    errors, pongs). *)

val stats : t -> (string * int) list
(** Counter snapshot, sorted by name: [net.answers], [net.shed],
    [net.timeouts], [net.errors], [net.malformed], [net.pings],
    [net.accepted], [net.connections], [net.fault.*]. *)

val refresh_gauges : t -> unit
(** Publish the one serving cache's {!Pcqe.Caches.export_gauges} series
    ([cache.conf.entries], [cache.prepared.hit], ...) into the server's
    metrics registry, read under the serving mutex.  [pcqe serve] calls
    it before flushing metrics.  No-op without an observer. *)

val caches : t -> Pcqe.Caches.t
(** The server's one plan cache and confidence cache.  Not locked:
    inspect it only while no request is executing. *)
