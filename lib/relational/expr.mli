(** Scalar and predicate expressions over tuple fields.

    Expressions appear in selection predicates, theta-join conditions and
    projection lists.  Evaluation uses SQL three-valued logic: comparisons
    against NULL yield unknown, and WHERE keeps only rows whose predicate is
    definitely true. *)

type cmp = Eq | Neq | Lt | Leq | Gt | Geq

type arith = Add | Sub | Mul | Div

type t =
  | Col of string  (** column reference, possibly qualified *)
  | Lit of Value.t
  | Cmp of cmp * t * t
  | Arith of arith * t * t
  | Neg of t  (** numeric negation *)
  | And of t * t
  | Or of t * t
  | Not of t
  | IsNull of t
  | IsNotNull of t
  | Like of t * string  (** SQL LIKE with [%] and [_] wildcards *)
  | In of t * Value.t list
  | Between of t * t * t  (** [Between (e, lo, hi)] *)

val col : string -> t
val int : int -> t
val float : float -> t
val str : string -> t
val bool : bool -> t
val null : t

val ( =% ) : t -> t -> t
(** Equality comparison (the [%] avoids clashing with Stdlib). *)

val ( <>% ) : t -> t -> t
val ( <% ) : t -> t -> t
val ( <=% ) : t -> t -> t
val ( >% ) : t -> t -> t
val ( >=% ) : t -> t -> t
val ( &&% ) : t -> t -> t
val ( ||% ) : t -> t -> t

val columns : t -> string list
(** Column names referenced, in first-occurrence order, without duplicates. *)

val eval : Schema.t -> Tuple.t -> t -> (Value.t, string) result
(** [eval schema tup e] evaluates [e] against one row.  Errors are
    descriptive strings (unknown column, type mismatch, division by zero
    yields [Null] rather than an error, as in SQL). *)

val eval_pred : Schema.t -> Tuple.t -> t -> (bool, string) result
(** [eval_pred schema tup e] evaluates [e] as a predicate under
    three-valued logic; unknown collapses to [false] (WHERE semantics). *)

val bind : Schema.t -> t -> Tuple.t -> (Value.t, string) result
(** [bind schema e] resolves [e]'s column names once and returns its
    evaluator: [bind schema e tup = eval schema tup e] for every row,
    errors included. *)

val bind_pred : Schema.t -> t -> Tuple.t -> (bool, string) result
(** [bind_pred schema e] resolves [e]'s column names once and returns
    its predicate: [bind_pred schema e tup = eval_pred schema tup e] for
    every row, errors included — a column that does not resolve fails on
    each row evaluated, never at binding. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE matching ([%] = any run, [_] = any single char), exposed for
    tests. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
