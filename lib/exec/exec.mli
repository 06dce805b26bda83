(** Plan interpreter: a batched, pull-based operator pipeline.

    Evaluates a logical plan against a database instance by compiling it
    to a tree of cursors that stream fixed-size {!Batch} slices upward on
    demand.  Scans, selections, projections, maps and the probe side of
    hash joins are fully pipelined; only true pipeline breakers
    materialize rows (hash-join build side, nested-loop inner, sort
    buffers, merge-join inputs, aggregation tables).  Per-operator row
    and batch counts are recorded into an {!Optree.t}, and the peak
    number of simultaneously live intermediate rows is tracked — the
    memory axis on which the paper's eager transformation pays off.
    Join and group-by algorithms are selectable; [`Auto] uses a hash
    join whenever the predicate contains an equi-join conjunct and falls
    back to nested loops otherwise.  Hash joins build on the {i left}
    input and stream the right (Volcano convention), so E2's join builds
    over the already-aggregated side.

    Semantics notes:
    - selections and join predicates keep a row only when the condition
      {i holds} (3VL, unknown = false), so NULL join keys never match;
    - DISTINCT projection and grouping use [=ⁿ] (NULL equals NULL);
    - a [Group] marked [scalar] produces exactly one row even for empty
      input (SQL aggregation without GROUP BY); a non-scalar [Group] over
      an empty input yields zero rows even when [by] is empty — the
      paper's [F[AA] G[GA]] semantics, which E2 relies on when [GA1+] is
      empty. *)

open Eager_schema
open Eager_expr
open Eager_storage
open Eager_algebra
open Eager_robust

type join_algo = Nested_loop | Hash_join | Merge_join | Auto
type group_algo = Hash_group | Sort_group

type options = {
  join_algo : join_algo;
  group_algo : group_algo;
  params : Expr.env;
  use_indexes : bool;
      (** when a selection over a base-table scan contains a [col = const]
          conjunct and a single-column index is declared on [col], fetch
          the candidates through the index instead of scanning (the
          statistics tree shows an [IndexScan] leaf) *)
  governor : Governor.t;
      (** per-query resource budgets, charged per batch at every cursor
          boundary and inside hash aggregation; defaults to
          {!Eager_robust.Governor.unlimited} *)
  batch_rows : int;
      (** rows per batch in the pull pipeline (default
          {!Batch.default_rows}); values below 1 are rejected and values
          above {!Batch.max_capacity} are clamped, so [batch_rows =
          max_int] emulates operator-at-a-time materialization *)
  spill : Spill.config option;
      (** the statement's breaker budget.  The sort, the hash join's
          build side, hash aggregation and DISTINCT each have one
          implementation that spills when its budget is reached: the
          sort writes sorted runs and merges them, hash aggregation and
          DISTINCT send non-resident keys to hash partitions, and the
          hash join degrades to grace partitioning; sort grouping sorts
          through the same sort, and [Partial_group] caps its table at
          the same budget.  In-budget state is reserved against the
          buffer pool (visible in the pinned-page telemetry); overflow
          goes to runs on the scratch pager.  [None] (the default, the
          RAM engine) is the unbounded budget: nothing spills and every
          one of these breakers runs in memory.  Merge join inputs, the
          nested-loop inner side and index candidate lists are held in
          memory under any budget.  Under a config, the hash breakers
          promise no output order (the sorts still do) *)
}

val default_options : options

type profile = {
  peak_live_rows : int;
      (** high-water mark of simultaneously live intermediate rows held
          by pipeline breakers (hash builds, sort buffers, group tables,
          index candidate lists); the final output heap is excluded *)
  batch_rows : int;  (** the clamped batch size actually used *)
}

val run_profiled :
  ?options:options ->
  Database.t ->
  Plan.t ->
  Heap.t * Optree.t * Colref.t list * profile
(** [run_ordered] plus the execution profile; the bench sweep uses the
    profile to show that E2's peak intermediate footprint sits strictly
    below E1's on group-reducing workloads. *)

val run : ?options:options -> Database.t -> Plan.t -> Heap.t * Optree.t
(** May raise [Err.Error_exn] (budget breach, missing table, arity
    mismatch); use {!run_checked} for the value-level error channel. *)

val run_rows : ?options:options -> Database.t -> Plan.t -> Row.t list
(** [run] then [Heap.to_list], discarding statistics. *)

val run_checked :
  ?options:options -> Database.t -> Plan.t -> (Heap.t * Optree.t, Err.t) result
(** The fault-tolerant entry point: every failure mode of evaluation —
    resource-budget breaches, injected faults, unknown tables, arity
    mismatches, legacy [Failure]/[Invalid_argument] raises — comes back
    as a typed [Error].  Evaluation writes only to fresh output heaps, so
    an aborted query leaves no observable mutation. *)

val run_rows_checked :
  ?options:options -> Database.t -> Plan.t -> (Row.t list, Err.t) result

val run_ordered :
  ?options:options -> Database.t -> Plan.t -> Heap.t * Optree.t * Colref.t list
(** Like [run], also returning the column list the output is {i known} to
    be sorted on (ascending, [Value.compare_total] order; [[]] when
    unknown).  This implements the paper's Section 7 observation: sort-based
    grouping leaves its output sorted on the grouping columns, selections
    and joins preserve their outer input's order, and a merge join skips
    re-sorting an input whose known order covers the join keys (the
    [sorted_inputs] count in the join's statistics label records this). *)

val split_equijoin :
  Schema.t -> Schema.t -> Expr.t -> (Colref.t * Colref.t) list * Expr.t list
(** Partition a join predicate's conjuncts into equi-join column pairs
    (left column, right column) and residual conjuncts. *)

val multiset_equal : Row.t list -> Row.t list -> bool
(** Multiset equality under [=ⁿ] — the equivalence the Main Theorem is
    stated in.  Exposed for tests and the theorem checker. *)
