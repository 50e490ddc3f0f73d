(** Tuples: immutable rows of {!Value.t}.

    A tuple by itself carries no schema; the relation (or the evaluator)
    supplies one.  Functions that combine tuples with schemas trust the
    caller to pass matching arities and assert it. *)

type t

val make : Value.t array -> t
(** [make vs] takes ownership of [vs]; do not mutate it afterwards. *)

val of_list : Value.t list -> t
val arity : t -> int
val get : t -> int -> Value.t
val values : t -> Value.t array
(** Returns a fresh copy; safe to mutate. *)

val append : t -> t -> t
(** [append a b] concatenates the fields of [a] and [b] (join output). *)

val project : t -> int array -> t
(** [project t idx] keeps the fields at positions [idx], in that order. *)

val conforms : t -> Schema.t -> bool
(** [conforms t s] checks arity and per-column type conformance. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** Comma-separated display values in parentheses. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the {!to_string} form. *)

val pp : Format.formatter -> t -> unit
