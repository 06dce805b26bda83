(** SQL values, including NULL.

    The comparison operators implement the two equality notions the paper
    distinguishes (Section 4.2):

    - search-condition comparison ([cmp_eq], [cmp_lt], ...) returns a
      three-valued result and yields [Unknown] as soon as either operand is
      NULL;
    - duplicate comparison [null_eq] (the paper's [=ⁿ]) is two-valued and
      treats NULL as equal to NULL — the semantics of GROUP BY, DISTINCT,
      UNION, EXCEPT and INTERSECT. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val is_null : t -> bool

val null_eq : t -> t -> bool
(** [=ⁿ]: both NULL, or both non-NULL and equal (with numeric coercion). *)

val cmp_eq : t -> t -> Tbool.t
val cmp_ne : t -> t -> Tbool.t
val cmp_lt : t -> t -> Tbool.t
val cmp_le : t -> t -> Tbool.t
val cmp_gt : t -> t -> Tbool.t
val cmp_ge : t -> t -> Tbool.t

val compare_total : t -> t -> int
(** Total order used for sorting (sort-merge join, sort-based grouping).
    NULLs sort first and compare equal to each other, matching [null_eq]
    classes.  Cross-type comparisons order by type tag. *)

val max_exact_int_float : float
(** [2^53], the largest magnitude below which int<->float conversion is
    exact — the range where [compare_total]'s numeric coercion is a
    genuine equivalence. *)

val canonical_num : t -> t
(** Canonical representative of a value's [compare_total] equality
    class: integral [Float]s with magnitude at most
    {!max_exact_int_float} become the equal [Int]; everything else is
    unchanged.  Structural keys (grouping, DISTINCT, hash joins) hash
    the canonical form so bucketing agrees with [compare_total]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Arithmetic: NULL-propagating; [Int]/[Float] coerce to [Float] when mixed.
    [div] of two [Int]s is integer division; division by zero yields NULL
    (we model it as missing information rather than a runtime error). *)

val neg : t -> t

val equal : t -> t -> bool
(** Structural equality — same as [null_eq] except that [Int 1] and
    [Float 1.] are distinct.  Used by tests. *)

val hash : t -> int
(** Hash of a value's {!canonical_num} class: an integral [Float] within
    {!max_exact_int_float} hashes as the equal [Int], every NaN alike,
    [-0.] as [0].  Constant on {!key_equal} classes; allocation-free. *)

val key_equal : t -> t -> bool
(** Grouping-key equality: [canonical_num a] and [canonical_num b] are
    structurally equal ([compare] = 0).  So [Int 2] equals [Float 2.]
    (up to 2^53), NaN equals NaN, [-0.] equals [0], NULL equals NULL,
    and values of different types are distinct.  The equality of
    {!Eager_schema.Row.key_on} keys, decided without building them. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
