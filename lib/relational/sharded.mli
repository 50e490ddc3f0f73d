(** Scatter/gather plan evaluation over a sharded {!Database}.

    Scan/filter fragments of a plan — a base-relation scan under any
    chain of predicate selections — are evaluated independently against
    each shard's view ({!Database.shard_view}), in parallel over an
    {!Exec.Pool} when one is supplied, and gathered back in global row
    order (shard views preserve insertion order and row ids are
    monotone, so a k-way merge by row id reconstructs it exactly).
    Every operator above the gather — duplicate-eliminating projection,
    joins, set operations, grouping — runs on the global row stream
    through {!Eval.run_rows_via}, unchanged.

    {b Transparency contract}: answers, lineage, and error messages are
    bit-identical to the unsharded evaluator at any (shards, jobs)
    combination.  Fragments whose per-shard evaluation fails are re-run
    unsharded so even error strings (first failing row in global order)
    match.  With [shard_count db <= 1] every entry point delegates
    straight to {!Col_eval} — the sharded engine costs nothing unless
    sharding was requested. *)

val run :
  ?pool:Exec.Pool.t ->
  Database.t ->
  Algebra.t ->
  (Eval.annotated, string) result
(** Drop-in replacement for {!Col_eval.run} (and {!Eval.run}): same
    results, same errors, scatter/gather underneath when the database
    has more than one shard. *)

val run_rows :
  ?pool:Exec.Pool.t ->
  Database.t ->
  Algebra.t ->
  (Eval.row list, string) result
(** {!run} without the output schema. *)

val run_conf :
  ?pool:Exec.Pool.t ->
  Database.t ->
  Algebra.t ->
  (Eval.annotated * float array option, string) result
(** Sharded counterpart of {!Col_eval.run_conf}: evaluation as {!run},
    plus per-row confidences when the static {!Safe_plan} analysis
    proves the plan safe — bitwise the
    ladder's read-once values.  [None] means the caller must price the
    ladder as before. *)
