(** Explanations of derived results: why-provenance and influence.

    Two complementary views of a result's lineage:

    - {!witnesses}: the {e minimal witnesses} (prime implicants of a
      monotone lineage formula) — the minimal sets of base tuples whose
      joint presence suffices for the result to exist.  This is classic
      why-provenance; a user asking "why is this row here?" gets one line
      per witness.
    - {!influence}: the Birnbaum importance of each base tuple
      ([∂P/∂p(t)]) — how much one unit of confidence on that tuple
      moves the result's confidence.  This ranks where quality-improvement
      money is best spent and is exactly the quantity the greedy gain
      normalizes by cost. *)

val witnesses : Formula.t -> (Tid.Set.t list, string) result
(** [witnesses f] enumerates the minimal witnesses of a {e monotone} [f],
    sorted by size then lexicographically.  Errors on non-monotone
    formulas (negation has no witness semantics) with a descriptive
    message.  Worst case exponential in the formula size — lineage of a
    single result row is small in practice. *)

val top_witnesses :
  ?k:int -> (Tid.t -> float) -> Formula.t -> (Tid.Set.t * float) list
(** [top_witnesses ~k p f] ranks witnesses by the probability that the
    whole witness is present ([Π p(t)]) and keeps the best [k]
    (default 5).  Empty on non-monotone formulas. *)

val influence :
  ?deadline:Resilience.Deadline.t -> (Tid.t -> float) -> Formula.t ->
  (Tid.t * float) list option
(** [influence p f] is every variable [t] of [f] with its Birnbaum
    importance [∂P(f)/∂p(t)] (in [\[-1, 1\]], non-negative for monotone
    [f]), sorted by decreasing importance; [None] when no exact rung of
    {!Approx.compile} prices [f] within [deadline]. *)

val to_string :
  ?tier:string -> ?deadline:Resilience.Deadline.t -> (Tid.t -> float) ->
  Formula.t -> string
(** Multi-line rendering: the witnesses (when monotone) and the top
    influences ([influence: not available] beyond the exact rungs) —
    what a CLI "explain" command prints per row.  [?tier] (e.g. ["var"],
    ["circuit"]) prepends a [confidence tier:] line naming the rung that
    priced the row. *)
