(** A database instance: a catalog plus one heap per base table.

    [insert] enforces the SQL2 constraints of the catalog — types, NOT NULL,
    CHECK and domain checks, key uniqueness (primary keys reject NULL; UNIQUE
    keys use SQL2's "NULL not equal to NULL" rule and thus never conflict on
    NULL), and referential integrity. *)

open Eager_value
open Eager_catalog

type t

type storage_config = {
  pool_pages : int option;
      (** buffer-pool capacity in pages; [None] = unbounded *)
  page_size : int;
  spill_dir : string option;
      (** directory for pager files; [None] keeps pages in memory (still
          checksummed, still evicted — the full paged semantics without
          filesystem traffic) *)
}

val default_storage : storage_config
(** Unbounded pool, 4096-byte pages, in-memory pagers. *)

val create : ?storage:storage_config -> unit -> t
(** Without [storage], heaps are RAM-backed (the original engine).  With
    it, every table lives on fixed-size checksummed pages behind one
    shared buffer pool, plus a scratch pager for executor spill runs.
    Pager files are run-scoped caches: durability stays with the WAL and
    snapshots. *)

val catalog : t -> Catalog.t

val storage_config : t -> storage_config option
val is_paged : t -> bool

val buffer_pool : t -> Buffer_pool.t option

val scratch : t -> (Buffer_pool.t * Pager.t) option
(** The pool and scratch pager the executor uses for spill runs. *)

val pool_stats : t -> Buffer_pool.stats option

val flush : t -> unit
(** Flush-before-checkpoint barrier: write every dirty page back and
    fsync the pagers.  No-op on a RAM database. *)

val page_rows : t -> int
(** Estimated rows per page at a nominal encoded row width — how the IO
    cost model translates cardinalities into page counts. *)

val close_storage : t -> unit
(** Close and remove the pager files (call at process exit; snapshots
    share the pagers, so never close a database that still has live
    readers). *)

val snapshot : t -> t
(** A frozen, independent copy: heaps are duplicated (rows shared —
    they are immutable engine-wide), the catalog value is captured, the
    statistics cache is shared with [t] (see {!stats}), and the key and
    secondary-index caches start empty.  Mutations of either instance
    never show through the other.  This is the MVCC-lite version a
    server stamps with the commit LSN and hands to readers. *)

(** [reader_view t] is a view sharing [t]'s heaps and statistics cache
    but owning fresh key and secondary-index caches.  Intended for
    concurrent readers over one frozen {!snapshot}: row storage is
    safely shared because snapshots are never mutated, the statistics
    cache takes its own lock, and the index caches stay per reader so
    threads cannot race on them.  O(#tables). *)
val reader_view : t -> t
val create_table : t -> Table_def.t -> unit
(** Registers the table and its empty heap.  Any cached index or
    statistics state left over from a previously dropped table of the
    same name is evicted first. *)

val drop_table : t -> string -> (unit, Eager_robust.Err.t) result
(** Remove the table, its heap, its catalog indexes, and every cached
    derived structure (key indexes, secondary indexes, statistics).
    [Error] with kind [Catalog] for an unknown table. *)

val create_domain : t -> Catalog.domain_def -> unit
val create_view : t -> Catalog.view_def -> unit
val heap : t -> string -> Heap.t
(** Raises [Err.Error_exn] (kind [Storage]) for an unknown table. *)

val heap_opt : t -> string -> Heap.t option

val insert : t -> string -> Value.t list -> (unit, Eager_robust.Err.t) result
(** Typed-error insert: constraint violations are [Storage] errors;
    injected faults and internal raises are captured, never leaked as
    exceptions.  The heap is mutated only after every check has passed. *)

val insert_result :
  t -> string -> Value.t list -> (unit, Eager_robust.Err.t) result
(** Alias of {!insert}, kept for callers written against the older split
    string/typed pair. *)

val insert_exn : t -> string -> Value.t list -> unit
(** Raises [Err.Error_exn] on refusal. *)

val load_result :
  t -> string -> Value.t list list -> (unit, Eager_robust.Err.t) result
(** Statement-atomic bulk insert: either every row lands or the table is
    rolled back to its prior contents (and every incremental index over
    it is invalidated).  Rows within the batch are inserted in order, so
    later rows may reference earlier ones. *)

val load : t -> string -> Value.t list list -> unit
(** {!load_result}, raising [Err.Error_exn] on refusal. *)

val delete :
  t ->
  string ->
  ?params:Eager_expr.Expr.env ->
  where:Eager_expr.Expr.t ->
  unit ->
  (int, Eager_robust.Err.t) result
(** Delete the rows on which [where] {i holds} (3VL; rows where it is
    unknown stay).  Referential integrity is NO ACTION: the delete is
    refused if any foreign key elsewhere (or in the table itself) would be
    left dangling.  Returns the number of rows removed. *)

val update :
  t ->
  string ->
  ?params:Eager_expr.Expr.env ->
  set:(string * Eager_expr.Expr.t) list ->
  where:Eager_expr.Expr.t ->
  unit ->
  (int, Eager_robust.Err.t) result
(** Update the rows on which [where] holds; assignment expressions are
    evaluated against the {i old} row.  The prospective table state is
    validated wholesale — types, NOT NULL, CHECK/domain constraints, key
    uniqueness, outgoing foreign keys, and incoming foreign keys (NO
    ACTION) — before any row is changed.  Returns the number of rows
    updated. *)

val create_index :
  t -> name:string -> table:string -> cols:string list -> (unit, string) result
(** Declare a secondary equality-lookup index.  Maintained incrementally on
    insert and rebuilt after DELETE/UPDATE compactions. *)

val find_equality_index :
  t -> table:string -> col:string -> Catalog.index_def option
(** A declared single-column index usable for a [col = const] lookup. *)

val index_lookup :
  t -> Catalog.index_def -> Eager_value.Value.t list -> Eager_schema.Row.t list
(** All rows of the index's table whose key columns equal the given values
    (search-condition equality: NULL keys never match, and looking up a
    NULL returns nothing). *)

val stats : t -> string -> Stats.t
(** Exact statistics of the table's rows in this database value, from
    the cache shared with the live database, its snapshots and their
    reader views.  An entry keyed by the heap's {!Heap.lineage} is
    reused when the heap has as many rows,
    extended ({!Stats.extend}) when it has more, and left alone when it
    has fewer (an older snapshot collects for itself).  DROP/CREATE, a
    DELETE/UPDATE compaction or a rolled-back bulk insert starts a new
    lineage, which collects and replaces the entry.  Thread-safe. *)

type stats_counters = { collects : int; extends : int; hits : int }

val stats_counters : t -> stats_counters
(** How the shared cache answered {!stats} so far: full collections,
    extensions of a cached prefix, and hits. *)

val row_count : t -> string -> int
