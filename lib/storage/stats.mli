(** Per-column statistics used by the optimizer's cardinality estimator. *)

open Eager_schema

type histogram = {
  lo : float;
  hi : float;
  counts : int array;  (** equi-width buckets over [lo, hi] *)
  total : int;  (** non-NULL numeric values summarised *)
}

type col_stats = {
  ndv : int;  (** number of distinct non-NULL values *)
  nulls : int;
  min_v : Eager_value.Value.t;  (** Null when the column is all NULL/empty *)
  max_v : Eager_value.Value.t;
  hist : histogram option;  (** present for numeric columns with data *)
}

val fraction_below : histogram -> float -> float
(** Estimated fraction of summarised values strictly below [v], with linear
    interpolation inside the straddled bucket.  Clamped to [0, 1]. *)

type t

val collect : Heap.t -> t
(** Statistics over every row of the heap: [extend] from no rows. *)

val extend : t -> Heap.t -> t
(** [extend prev heap], where [prev] are the statistics of the heap's
    first [row_count prev] rows, is exactly [collect heap].  It scans the
    appended rows, then the prefix rows once to drop values the
    prefix already holds and to rebuild histograms whose range moved.
    Raises [Invalid_argument] if [prev] counts more rows than [heap]. *)

val row_count : t -> int
val col : t -> int -> col_stats
val col_by_ref : t -> Schema.t -> Colref.t -> col_stats
val ndv_of_cols : t -> int array -> int
(** Estimated number of distinct combinations over a column set:
    min(row count, product of per-column ndv, capped to avoid overflow). *)

val pp : Format.formatter -> t -> unit
