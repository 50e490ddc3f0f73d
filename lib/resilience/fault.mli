(** Seeded, deterministic fault injection.

    Production code is instrumented with named {e injection sites} —
    bare [Fault.hit "site"] calls at the places where real deployments
    fail (an evaluator raising, a pool worker dying, a sampler being cut
    off).  With no plan armed a hit is a few-nanosecond no-op, so the
    hooks are always compiled in.  The chaos test suite arms a {!plan}
    and the same sites then raise {!Injected} at deterministically
    chosen hit indices.

    {b Determinism.}  Whether the [i]-th hit of site [s] injects is a
    pure function of [(seed, s, i)] — a SplitMix64 coin keyed by the
    three — and each site keeps its own atomic hit counter.  Under a
    deterministic workload the set of injected (site, index) pairs is
    therefore reproducible from the seed alone; it does not depend on
    how domains interleave.

    {b Suppression.}  Recovery code (rollback paths, state repair) runs
    under {!protect}, which disables injection for the current domain —
    faults model the world failing, not the cleanup handler, and a
    recovery path that could itself be injected would make the
    consistency invariants untestable. *)

exception Injected of string
(** Raised by {!hit} when the armed plan selects this hit.  The payload
    is ["<site>#<hit-index>"]. *)

(** {1 Sites}

    The instrumented sites, for [?sites] filters. *)

val site_pool_chunk : string
(** ["pool.chunk"] — before each chunk body claimed in
    [Exec.Pool.run_chunks] (models a worker task blowing up). *)

val site_state_eval : string
(** ["state.eval"] — before each full lineage evaluation inside
    [Optimize.State] (models the evaluator raising mid-commit). *)

val site_prob_mc : string
(** ["prob.mc"] — before each Monte-Carlo sampling chunk in
    [Lineage.Prob.monte_carlo] (models the sampler being cut off). *)

val site_net_accept : string
(** ["net.accept"] — after each accepted server connection (models the
    peer vanishing before its first byte). *)

val site_net_read : string
(** ["net.read"] — before each request frame read in [Net.Server]
    (models a connection severed mid-request). *)

val site_net_write : string
(** ["net.write"] — before each response frame write (models a
    connection severed before the response lands). *)

val site_net_delay : string
(** ["net.delay"] — before request execution (models a stalled peer or
    network; injection stalls rather than raises at the call site). *)

val all_sites : string list
(** The built-in sites above. *)

val register_site : string -> unit
(** Add a site name to the registered-site list so plans naming it
    validate.  Idempotent; built-in sites are pre-registered. *)

val registered_sites : unit -> string list
(** All currently registered sites, sorted. *)

(** {1 Plans} *)

type plan

val plan :
  ?rate:float -> ?max_injections:int -> ?sites:string list -> seed:int -> unit -> plan
(** [plan ~seed ()] is a fresh plan injecting each hit independently
    with probability [rate] (default [0.05], clamped to [0,1]), at most
    [max_injections] times in total (default unlimited), restricted to
    [sites] (default: every registered site).

    @raise Invalid_argument if any of [sites] is not registered — a
    typo'd site would otherwise silently never fire. *)

val arm : plan -> unit
(** Make [p] the active plan (global, visible to every domain).
    Re-validates the plan's sites against {!registered_sites}.
    @raise Invalid_argument on an unknown site. *)

val disarm : unit -> unit
(** Deactivate injection; hits become no-ops again. *)

val armed : unit -> bool

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] arms [p], runs [f], and always disarms — including
    on exception. *)

(** {1 Instrumentation} *)

val hit : string -> unit
(** Mark one hit of the named site.  No-op unless a plan is armed, the
    site is selected, and the current domain is not inside {!protect};
    otherwise counts the hit and raises {!Injected} if the seeded coin
    chooses this index. *)

val reserve : string -> int -> int -> unit
(** [reserve site n] claims the next [n] hit indices of [site] in one
    step and returns [at]: [at i] (for [0 <= i < n]) is the hit with
    index [base + i], injecting exactly as that {!hit} would.  A fan-out
    numbers its hits by task index this way instead of by the order in
    which domains arrive, so the injected set does not depend on
    scheduling.  Plan and suppression are read once, here, on the
    calling domain; with neither armed [at] is a no-op. *)

val protect : (unit -> 'a) -> 'a
(** Run [f] with injection suppressed for the current domain.
    Re-entrant; always restores on exit. *)

(** {1 Accounting} *)

val injected : plan -> int
(** Total faults this plan has injected. *)

val hits : plan -> (string * int) list
(** Per-site hit counts (injected or not), sorted by site name. *)

val sites : plan -> string list
(** The sites this plan covers, sorted. *)

val seed : plan -> int
val rate : plan -> float

val max_injections : plan -> int option
(** [None] when unlimited. *)
