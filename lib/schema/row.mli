(** Rows are flat arrays of values; the interpretation of positions is given
    by a {!Schema.t}. *)

type t = Eager_value.Value.t array

val concat : t -> t -> t
val project : int array -> t -> t

val null_eq_on : int array -> t -> t -> bool
(** Row equivalence with respect to a column subset (paper Definition 1):
    pointwise [=ⁿ], i.e. NULL equals NULL. *)

val non_null_on : int array -> t -> bool
(** No column of the subset is NULL: the rows an inner equi-join can
    match on those columns. *)

val compare_on : int array -> t -> t -> int
(** Lexicographic total order on a column subset; consistent with
    [null_eq_on] (equal iff [null_eq_on]). *)

val key_on : int array -> t -> Eager_value.Value.t list
(** Grouping key: the projected values as a list, suitable for hashing.
    Two rows have equal keys iff they are [null_eq_on]-equivalent (Float
    values that are [null_eq] to Int values are normalised). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
