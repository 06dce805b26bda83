(** Spill-to-disk machinery for the pipeline breakers.

    A {!config} gives one statement's breakers (sort buffers,
    aggregation tables, DISTINCT seen-sets, hash-join builds) a shared
    memory budget measured in buffer-pool pages.  In-memory breaker state
    is {i reserved} against the pool — it competes with cached heap pages
    and shows up in the pinned-page telemetry — while overflow goes to
    {i runs} of checksummed pages on the scratch pager, written and read
    back uncached (each run page is written once and read once).  The
    statement's total reservation is clamped to [budget_pages], so even
    with several breakers live at once (a grace join feeding a spilling
    aggregation) the other half of the pool stays free for pinned scan
    frames — a 4-page pool still runs a join-plus-group plan.

    This module holds only the machinery the breakers share: the
    statement's {!budget}, {!hold}s, {!run}s, hash {!parts} and the
    stable k-way {!merge}.  The algorithms (external sort, grace hash
    join, spilling hash aggregation and DISTINCT) are the executor's
    breaker cursors, written once: [budget ~gov None] is the unbounded
    budget of the RAM engine, under which no breaker ever spills and
    each runs as its plain in-memory algorithm. *)

open Eager_schema
open Eager_storage
open Eager_robust

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

(** {1 Budgets} *)

type budget
(** One statement's breaker budget, with the governor its page IO is
    charged to. *)

val budget : gov:Governor.t -> config option -> budget
(** [None] is the unbounded budget: no pool, no runs, no row limit. *)

val bounded : budget -> bool
(** Whether a breaker under this budget may spill (and so may lose its
    in-memory output order). *)

val rows : budget -> int
(** {!rows_budget} of the config, [max_int] when unbounded. *)

val limit : budget -> depth:int -> int
(** The row limit of a breaker table at partition depth [depth]: {!rows},
    or [max_int] from a fixed maximum depth on, where a partition is
    absorbed whatever its size (the in-memory fallback that guarantees
    termination). *)

val release_all : budget -> unit
(** {!cleanup} of the config, if any. *)

(** {1 Holds} *)

type hold
(** One structure's reservation against the pool. *)

val hold : budget -> hold

val hold_rows : hold -> int -> unit
(** Resize the reservation to cover [n] rows, clamped so the statement's
    total stays within the budget.  Free under the unbounded budget. *)

val hold_drop : hold -> unit

(** {1 Runs} *)

type run

val run_create : unit -> run
val run_rows : run -> int

val run_add : budget -> run -> Row.t -> unit
(** Append a row, writing a page out whenever one fills.  Fires
    [exec.spill] before each page write.  Typed [Storage] error for a row
    wider than a page.  @raise Invalid_argument under the unbounded
    budget. *)

val run_reader :
  budget -> batch_rows:int -> Schema.t -> run -> unit -> Batch.t option
(** Seal the run and stream it back in order, one page live at a time,
    in batches of at most [batch_rows] rows. *)

(** {1 Hash partitions} *)

type parts
(** A breaker's partition runs at one recursion depth (none under the
    unbounded budget). *)

val parts : budget -> depth:int -> parts

val part_add : parts -> int -> Row.t -> unit
(** [part_add p h row] appends [row] to the partition of its key hash
    [h] ({!Rowtbl.hash}), re-salted per depth so a partition that
    overflowed splits differently one level down. *)

val part_runs : parts -> run array
(** Every partition run, in partition order; two {!parts} of one budget
    and depth pair up index by index (a grace join's build and probe). *)

val spilled : parts -> run list
(** The non-empty partition runs, in partition order. *)

(** {1 Merge} *)

type merge

val merge : budget -> cmp:(Row.t -> Row.t -> int) -> run list -> merge
(** Open the merge of runs that are each sorted by [cmp].  Consecutive
    runs are merged [max 2 (budget_pages - 1)] at a time, each merged run
    taking its inputs' place, until that many remain; the final merge then
    streams, holding one page per run.  Ties go to the earlier run, so
    merging the runs of a stable sort, in input order, is stable. *)

val merge_fill : merge -> Batch.t -> unit
(** Append the next merged rows until the batch is full or the merge is
    drained (then its hold is dropped). *)
