(** Spill-to-disk machinery for the pipeline breakers.

    A {!config} gives one statement's breakers (sort buffers,
    aggregation tables, hash-join builds) a shared memory budget
    measured in buffer-pool pages.  In-memory breaker state is
    {i reserved} against the pool — it competes with cached heap pages
    and shows up in the pinned-page telemetry — while overflow goes to
    {i runs} of checksummed pages on the scratch pager, written and read
    back uncached (each run page is written once and read once).  The
    statement's total reservation is clamped to [budget_pages], so even
    with several breakers live at once (a grace join feeding a spilling
    aggregation) the other half of the pool stays free for pinned scan
    frames — a 4-page pool still runs a join-plus-group plan.

    All three algorithms take and return plain row streams; the
    executor adapts its batched cursors at the boundary.  None of them
    promises any output order. *)

open Eager_schema
open Eager_storage
open Eager_robust

type row_stream = unit -> Row.t option

type config

val make :
  pool:Buffer_pool.t ->
  scratch:Pager.t ->
  budget_pages:int ->
  page_rows:int ->
  config
(** A per-statement spill context.  [budget_pages] must be at least 2.
    Not safe to share between concurrently executing statements. *)

val for_db : ?budget_pages:int -> Database.t -> config option
(** [None] on a RAM database.  The default budget is half the pool
    capacity (at least 2), or 64 pages when the pool is unbounded. *)

val rows_budget : config -> int
(** The per-operator budget translated to rows. *)

val budget_pages : config -> int

val run_pages : config -> int
(** Spill-run pages written so far under this config (telemetry). *)

val cleanup : config -> unit
(** Return every pool page this config still holds.  The executor runs
    this on its unwind path so a mid-spill abort (governor trip, fault)
    cannot leak pool reservations across statements. *)

val sort :
  config ->
  ?gov:Governor.t ->
  ?acquire:(int -> unit) ->
  ?release:(int -> unit) ->
  cmp:(Row.t -> Row.t -> int) ->
  row_stream ->
  row_stream
(** External merge sort: sorted runs of [rows_budget] rows, k-way merged
    at fan-in [budget_pages - 1].  Fully in-memory (and stable) when the
    input fits the budget.  [acquire]/[release] report live in-memory
    rows to the executor's profiler. *)

val hash_agg :
  config ->
  ?gov:Governor.t ->
  ?acquire:(int -> unit) ->
  ?release:(int -> unit) ->
  ?on_groups:(int -> unit) ->
  key:int array ->
  fresh:(unit -> 'st) ->
  absorb:('st -> Row.t -> unit) ->
  emit:(Row.t -> 'st -> Row.t) ->
  row_stream ->
  row_stream
(** Adaptive spilling hash aggregation.  Groups are absorbed into an
    in-memory table until it reaches the budget; rows of non-resident
    keys spill to hash partitions which recurse with a re-salted hash
    (bounded depth, unbounded in-memory fallback at the bottom).  A
    key's rows are either all absorbed or all in one partition, so any
    aggregate — decomposable or not — is computed over its full row
    set.  [emit repr st] maps a group's first-seen row and final state
    to an output row; [on_groups] reports the resident-table size after
    each insertion (how the governor's group budget is charged).  Groups
    are keyed on the columns [key] in a {!Rowtbl}, whose hash also picks
    the partitions; resident groups come out first-seen. *)

val grace_join :
  config ->
  ?gov:Governor.t ->
  ?acquire:(int -> unit) ->
  ?release:(int -> unit) ->
  lkey:int array ->
  rkey:int array ->
  combine:(Row.t -> Row.t -> Row.t option) ->
  left:row_stream ->
  right:row_stream ->
  unit ->
  row_stream
(** Grace hash join (build = left, probe = right).  The build side
    absorbs in memory until the budget, then degrades to hash
    partitioning (dumping the resident rows first); the probe side is
    partitioned the same way and each pair recurses like {!hash_agg}.
    [lkey]/[rkey] are the join-key columns of each side, paired
    positionally; a row with a NULL key column is dropped (inner-join
    semantics).  A probe row meets its in-memory matches newest-first.
    [combine l r] concatenates and applies the residual predicate,
    returning [None] to filter the pair out. *)
