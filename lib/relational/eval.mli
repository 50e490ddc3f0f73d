(** Lineage-carrying query evaluation (the paper's second element).

    Evaluating a plan yields an {!annotated} relation: each result tuple is
    paired with a boolean lineage formula over base-tuple identifiers.  The
    confidence of a result is the probability that its lineage holds when
    every base tuple [t] is independently present with probability equal to
    its stored confidence — see {!confidence} and {!Lineage.Prob}.

    Duplicate elimination (projection, union, DISTINCT, grouping) merges
    lineage with disjunction; joins conjoin lineage; difference conjoins the
    negation of the matching right-side lineage. *)

type row = { tuple : Tuple.t; lineage : Lineage.Formula.t }

type annotated = { schema : Schema.t; rows : row list }

val run : Database.t -> Algebra.t -> (annotated, string) result
(** [run db plan] evaluates [plan].  Errors carry a human-readable message
    (unknown relation/column, type error in an expression, …). *)

val run_rows : Database.t -> Algebra.t -> (row list, string) result
(** [run db plan] without the output schema. *)

val run_rows_via :
  (Database.t -> Algebra.t -> (row list, string) result) ->
  Database.t ->
  Algebra.t ->
  (row list, string) result
(** [run_rows_via recurse db plan] evaluates the top operator of [plan]
    with the row engine, delegating every child (and subquery)
    evaluation to [recurse].  [run_rows] is [run_rows_via] tied with
    itself; a hybrid evaluator ties it with a function that intercepts
    the subtrees it can run vectorized (see {!Col_eval}) — both engines
    then share one set of operator semantics by construction. *)

val run_exn : Database.t -> Algebra.t -> annotated
(** @raise Failure on evaluation error. *)

val to_string : ?max_rows:int -> annotated -> string
(** ASCII rendering including a lineage column; [max_rows] truncates long
    results (default: unlimited). *)
