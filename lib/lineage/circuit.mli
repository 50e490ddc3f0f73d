(** Deterministic decomposable circuits for lineage confidence.

    A lineage formula is compiled {e once} into a DAG whose internal nodes
    are either independent products ([And]/[Or] over variable-disjoint
    children) or deterministic Shannon decisions on a shared variable —
    the d-DNNF shape of Monet–Olteanu / Koch–Olteanu.  Evaluation is a
    single bottom-up pass, linear in circuit size, and can be repeated
    under new base confidences without touching the formula again.

    The compiler mirrors {!Prob.exact}'s recursion step for step: the same
    independence test and most-shared pivot choice (it calls
    {!Prob.shared_vars} and {!Prob.most_shared}), the same
    {!Formula.restrict} cofactors, and the same structural memoization of
    repeated subformulas.  Because {!eval}
    performs the identical float operations in the identical order,
    [eval (compile f) p] is {e bitwise equal} to [Prob.exact p f].  That
    equality is what lets the circuit stand as
    the exact rung of {!Approx.confidence}'s ladder.  A read-once formula
    compiles to pure products ({!decisions} [= 0]).

    Compilation explores the same expansion tree {!Prob.exact} would, so
    it is not cheaper than one exact evaluation — the win is amortized:
    every re-evaluation after the first (confidence epochs, solver
    probes) costs one linear pass instead of a fresh exponential-in-
    the-worst-case expansion. *)

type t

exception Node_cap_exceeded
(** Raised by {!compile} when the circuit would exceed the node cap —
    the ladder then moves on to its OBDD rung. *)

val default_node_cap : int
(** Default bound on circuit nodes (50_000). *)

val compile : ?node_cap:int -> Formula.t -> t
(** [compile f] builds the circuit for [f].
    @raise Node_cap_exceeded if more than [node_cap] nodes are needed. *)

val compile_opt : ?node_cap:int -> Formula.t -> t option
(** Like {!compile} but [None] instead of raising on cap overflow. *)

val eval : t -> (Tid.t -> float) -> float
(** [eval c p] evaluates [c] bottom-up under base confidences [p].
    Linear in {!size}; allocates its scratch per call, so concurrent
    evaluations of the same circuit (solver probes under a pool) are
    safe. *)

val size : t -> int
(** Number of nodes in the circuit. *)

val decisions : t -> int
(** Number of Shannon decision nodes — 0 means the formula decomposed
    into pure independent products (it was effectively read-once). *)
