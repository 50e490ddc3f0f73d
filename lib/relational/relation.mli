(** Base relations: a named schema plus stored tuples with stable ids.

    Tuples keep the identifier assigned at insertion time for their whole
    life; identifiers are never reused or renumbered.  Identifiers are the
    variables of lineage formulas, so stability is essential. *)

type t

val create : string -> Schema.t -> t
(** [create name schema] is an empty relation. *)

val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int

val next_row : t -> int
(** The id the next inserted tuple will get: the stored rows of a
    relation built by {!create}, {!insert} and {!of_tuples} are exactly
    rows [\[0, next_row)]. *)

val insert : t -> Tuple.t -> t * Lineage.Tid.t
(** [insert r tup] appends [tup], returning the new relation and the fresh
    tuple id.
    @raise Invalid_argument if [tup] does not conform to the schema. *)

val insert_values : t -> Value.t list -> t * Lineage.Tid.t
(** [insert_values r vs] is [insert r (Tuple.of_list vs)]. *)

val of_tuples : string -> Schema.t -> Tuple.t list -> t
(** [of_tuples name schema tups] builds a relation containing [tups] in
    order, with tuple ids [0 .. n-1] — exactly the relation that
    [create] followed by [n] {!insert}s would produce, in one pass
    (bulk loaders).
    @raise Invalid_argument if a tuple does not conform to the schema. *)

val find : t -> Lineage.Tid.t -> Tuple.t option

val tuples : t -> (Lineage.Tid.t * Tuple.t) list
(** In insertion order. *)

val iter : (Lineage.Tid.t -> Tuple.t -> unit) -> t -> unit
val fold : ('a -> Lineage.Tid.t -> Tuple.t -> 'a) -> 'a -> t -> 'a

val to_string : t -> string
(** A small ASCII table, for examples and the CLI. *)

val pp : Format.formatter -> t -> unit
