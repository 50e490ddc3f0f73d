(** Bounded-heap top-K selection.

    [by_score ~k score xs] is observably identical to sorting [xs] by
    score descending with a stable sort and keeping the first [k]
    elements — equal scores preserve input order — but runs in
    O(n log k) time instead of sorting all [n] (its scores take O(n)
    space, its heap O(k)).  The
    engine uses it wherever result rows are ranked by confidence
    (lineage witnesses, the CLI's [--top]), and the columnar engine for
    [LIMIT] over [ORDER BY] ({!indices}). *)

val indices : k:int -> int -> (int -> int -> int) -> int array
(** [indices ~k n cmp] is the first [k] of [0 .. n - 1] stably sorted by
    [cmp] (ties keep the lower index first), in sorted order: at most [k]
    indices, in O(n log k) time and O(k) space. *)

val by_score : k:int -> ('a -> float) -> 'a list -> 'a list
(** [by_score ~k score xs] is the [k] highest-scoring elements of [xs]
    in score-descending order, ties broken by input position
    (earlier first).  [k <= 0] is the empty list; [k >= length xs]
    is a full descending stable sort.  NaN scores rank lowest, the
    ordering [Float.compare] gives them. *)

val by_score_arr : k:int -> ('a -> float) -> 'a array -> 'a list
(** Array input variant of {!by_score}. *)
