(** Boolean lineage formulas over base tuples.

    A query result's lineage records which base tuples it was derived from
    and how: a join contributes a conjunction, duplicate elimination and
    union contribute disjunctions, and set difference contributes a negated
    disjunction (Trio-style lineage, cf. Sarma–Theobald–Widom).

    Under the tuple-independence model used by the paper, the confidence of
    a result equals the probability that its lineage formula is true when
    each base tuple [t] is independently present with probability equal to
    its confidence [p_t].  See {!Prob} for evaluation. *)

type t =
  | True
  | False
  | Var of Tid.t
  | Not of t
  | And of t list
  | Or of t list

val tru : t
val fls : t
val var : Tid.t -> t

val conj : t list -> t
(** [conj fs] builds a conjunction with local simplification: flattens
    nested [And]s, drops [True], short-circuits on [False], deduplicates
    syntactically equal conjuncts, and collapses singleton lists. *)

val disj : t list -> t
(** [disj fs] is the dual of {!conj}. *)

val neg : t -> t
(** [neg f] with double-negation elimination and constant folding. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash consistent with {!equal} ([equal a b] implies
    [hash a = hash b]).  Folds over the whole tree — linear in {!size} —
    unlike the depth-bounded polymorphic [Hashtbl.hash]. *)

val vars : t -> Tid.Set.t
(** [vars f] is the set of base tuples mentioned by [f]. *)

val var_count : t -> int
(** [var_count f] is [Tid.Set.cardinal (vars f)]. *)

val size : t -> int
(** Number of nodes in the syntax tree. *)

val depth : t -> int
(** Height of the syntax tree; [True]/[False]/[Var _] have depth 1. *)

val is_read_once : t -> bool
(** [is_read_once f] is [true] when no variable occurs twice in the syntax
    tree.  Read-once formulas over independent variables admit linear-time
    exact probability computation. *)

val is_monotone : t -> bool
(** [true] when [f] contains no negation. *)

val eval : (Tid.t -> bool) -> t -> bool
(** [eval assignment f] evaluates [f] under a truth assignment. *)

val restrict : Tid.t -> bool -> t -> t
(** [restrict v b f] substitutes the constant [b] for variable [v] and
    simplifies (Shannon cofactor). *)

val simplify : t -> t
(** [simplify f] re-applies the smart constructors bottom-up: flattening,
    constant folding, deduplication, absorption of [x] in [x ∨ (x ∧ y)]
    patterns at one level.  Semantics-preserving. *)

val map_vars : (Tid.t -> Tid.t) -> t -> t
(** [map_vars g f] renames every variable through [g]. *)

val to_string : t -> string
(** Human-readable infix form, e.g. ["(Proposal#2 | Proposal#3) & Info#1"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the {!to_string} form. *)

val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by formula {e structure} ({!equal} + {!hash}) — the
    building block for hash-consing structurally equal lineage (self-joins
    and grouped outputs produce many duplicates). *)
