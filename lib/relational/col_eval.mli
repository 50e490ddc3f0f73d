(** Vectorized (batch-at-a-time) plan evaluation over {!Colbatch}.

    The hybrid evaluator: plan subtrees made of vectorizable operators —
    [Scan], [Select] with a compilable predicate, [Project], [Distinct],
    [Limit], [Rename], and [Limit] over [Order_by] as a top-K — run as
    column kernels over cached scan batches; everything else (joins, set
    operations, aggregation, subqueries, ordering without a limit) falls
    back to the row engine through {!Eval.run_rows_via},
    which evaluates one operator and delegates children back here.  Both
    engines therefore share one set of operator semantics, and results
    are bit-identical by construction plus the compiler's conservatism:

    - a predicate is compiled only when {e no} row could make the row
      engine fail (comparisons are same-class with columns resolved,
      LIKE is over a string column, …) — anything that could raise a
      type error is declined so the fallback reproduces the exact error;
    - integer values beyond 2{^53} make {!Colbatch.of_relation} decline
      the whole relation, keeping exact [Int.compare] semantics in the
      float comparison domain;
    - three-valued logic uses byte masks (0 false / 1 true / 2 unknown),
      and selection keeps definitely-true rows only, as in SQL WHERE.

    A [Select] runs its top-level conjuncts one after another over
    vectors of rows, each conjunct's kernel reading only the rows the
    earlier ones kept.  Nothing it allocates is sized by its input: a
    few vector-sized buffers, and a selection vector of exactly the
    surviving rows.

    Scan batches are cached per relation name, keyed by the database's
    structural vector, in a small process-global table.  A batch holds
    tuple ids and values but no confidences, so confidence updates leave
    every cached batch valid; result rows are priced from their lineage
    afterwards. *)

val vectorizes : Database.t -> Algebra.t -> bool
(** [vectorizes db plan] is [true] when the {e whole} plan compiles to
    column kernels (no row-engine fallback at the root). *)

val run : Database.t -> Algebra.t -> (Eval.annotated, string) result
(** Drop-in replacement for {!Eval.run}: same results, same errors. *)

val run_rows : Database.t -> Algebra.t -> (Eval.row list, string) result
(** {!run} without the output schema. *)

val scan_batch : Database.t -> string -> Colbatch.t option
(** The cached columnar image of a base relation, built on the first
    request under the database's structural vector, or [None] for
    unknown or declined relations.  Every vectorized scan reads it. *)
