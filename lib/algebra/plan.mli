(** Logical query plans — the paper's algebra (Section 4.1).

    [G[GA]] is {!constructor:Group} (with the aggregation [F[AA]] fused in,
    as every execution engine does — the paper's [F[AA] πA[GA AA] G[GA]]
    pipeline), [σ[C]] is {!constructor:Select}, [πA/πD[B]] is
    {!constructor:Project} with [dedup] false/true, [×] is
    {!constructor:Product}, and [Join] abbreviates [σ[C](L × R)]. *)

open Eager_schema
open Eager_expr

type t =
  | Scan of { table : string; rel : string; schema : Schema.t }
  | Select of { pred : Expr.t; input : t }
  | Project of { dedup : bool; cols : Colref.t list; input : t }
  | Product of t * t
  | Join of { pred : Expr.t; left : t; right : t }
  | Group of {
      by : Colref.t list;
      aggs : Agg.t list;
      scalar : bool;
          (** Distinguishes two semantics that coincide except on empty
              input.  [scalar = false] is the paper's [F[AA] G[GA]]: an
              empty input has no groups and yields no rows — {i even when
              [by] is empty} (this arises in E2 when [GA1+] is empty,
              paper Theorem 1 Case 1).  [scalar = true] is SQL aggregation
              without GROUP BY: always exactly one row; requires
              [by = []]. *)
      input : t;
    }
  | Partial_group of {
      by : Colref.t list;
      aggs : Agg.t list;
      cap : int;
          (** Flush threshold: the executor's group table never holds more
              than about [cap] live groups — when it fills, the current
              (group, partial-accumulator) rows are emitted and the table
              is cleared, so the same group may appear several times in
              the output stream. *)
      input : t;
    }
      (** Partial pre-aggregation (the eager-aggregation generalization
          and the memory-efficient multi-way aggregation technique): like
          {!constructor:Group} with [scalar = false], except the operator
          is free to emit {i several} partial rows per group.  Only sound
          under a finalizing [Group] whose aggregates re-combine the
          partials (see [Eager_algebra.Agg.decompose]); the planner never
          emits it bare. *)
  | Sort of { by : (Colref.t * bool) list; input : t }
      (** ORDER BY; the flag is [true] for DESC.  NULLs sort first on
          ascending columns (the [Value.compare_total] order). *)
  | Map of { items : (Colref.t * Expr.t) list; input : t }
      (** Generalised projection: each output column is a named scalar
          expression over the input row (SELECT a, price * qty AS total).
          Never eliminates duplicates. *)

val scan : table:string -> rel:string -> Schema.t -> t
(** [Schema.t] here is the base-table schema qualified by [rel]. *)

val select : Expr.t -> t -> t
(** Identity when the predicate is trivially true. *)

val sort : (Colref.t * bool) list -> t -> t
(** Identity when the column list is empty. *)

val map_items : (Colref.t * Expr.t) list -> t -> t

val project : ?dedup:bool -> Colref.t list -> t -> t
val join : Expr.t -> t -> t -> t
val group :
  ?scalar:bool ->
  by:Colref.t list ->
  aggs:Agg.t list ->
  t ->
  t
(** [scalar] defaults to [false]; raises
    [Invalid_argument] if [scalar] is set with non-empty [by]. *)

val partial_group : by:Colref.t list -> aggs:Agg.t list -> cap:int -> t -> t
(** Raises [Invalid_argument] when [cap < 1]. *)

val schema_of : t -> Schema.t
(** Raises [Failure] on ill-formed plans (unknown columns etc.). *)

val relations : t -> string list
(** Range variables introduced by scans, left to right. *)

val label : t -> string
(** One-line description of the root operator (no children). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val pp_annotated : note:(t -> string option) -> Format.formatter -> t -> unit
(** Tree printer with a per-node annotation — used to render the
    cardinality-labelled plans of Figures 1 and 8. *)
