(** A heap table: a growable multiset of rows with a fixed schema.

    Rows are identified by their insertion position, which serves as the
    paper's [RowID] — the column that "uniquely identifies a row" and lets
    the formalism distinguish duplicates (Section 4.3).  The RowID is not
    part of the schema; operators that need it use {!iteri}. *)

open Eager_schema
open Eager_robust

type t

val create : Schema.t -> t
(** RAM-backed heap (the original backing). *)

val create_paged : pool:Buffer_pool.t -> pager:Pager.t -> Schema.t -> t
(** Paged heap file: rows live on fixed-size pages owned by [pager] and
    cached/pinned through [pool].  Only the tail page is ever rewritten;
    full pages are frozen immutable, which is what keeps {!copy}
    snapshots cheap and safe. *)

val is_paged : t -> bool

val page_count : t -> int
(** Pages in the directory (0 for a RAM heap). *)

val of_rows : Schema.t -> Row.t list -> t

(** [copy t] is an independent heap with the same contents.  RAM: rows
    are shared (immutable engine-wide), only the backing array is
    duplicated.  Paged: the page directory is duplicated and the tail
    page frozen, so both heaps share every existing immutable page and
    append fresh pages of their own.  Generation/compaction counters
    restart at zero either way; the copy shares the original's
    {!lineage} until it is written to. *)
val copy : t -> t

val schema : t -> Schema.t
val length : t -> int
val insert : t -> Row.t -> unit
(** Raises [Invalid_argument] on arity mismatch. *)

val get : t -> int -> Row.t
val iter : (Row.t -> unit) -> t -> unit

val iter_range : (Row.t -> unit) -> t -> lo:int -> hi:int -> unit
(** [iter_range f t ~lo ~hi] applies [f] to the rows at positions
    [lo .. hi-1] (clamped to the heap), in order; a paged heap pins only
    the pages that range touches, one at a time. *)

val iteri : (int -> Row.t -> unit) -> t -> unit
val fold : ('a -> Row.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Row.t list
val to_seq : t -> Row.t Seq.t

type cursor
(** A batched scan cursor over a length snapshot of the heap.  The
    executor's pull pipeline reads base tables through cursors instead of
    [to_list], so a scan holds at most one batch of rows alive. *)

val cursor : ?batch_rows:int -> ?gov:Governor.t -> t -> cursor
(** Snapshot the current length and start a cursor that yields slices of
    at most [batch_rows] rows (default 1024).  On a paged heap each
    slice pins exactly one page for the duration of the copy, and [gov]
    is charged a page IO per buffer-pool miss.  Raises
    [Invalid_argument] if [batch_rows < 1]. *)

val cursor_next : cursor -> Row.t array option
(** The next slice, or [None] when the snapshot is exhausted.  Rows are
    shared with the heap (rows are immutable); a paged slice never spans
    pages, so it may be shorter than [batch_rows].  Raises
    [Invalid_argument] if the heap was mutated since the cursor opened. *)

val cursor_remaining : cursor -> int
(** Rows left in the snapshot. *)

val exists : (Row.t -> bool) -> t -> bool
val generation : t -> int
(** Monotone counter bumped on every insert; used to invalidate caches. *)

val delete_where : (Row.t -> bool) -> t -> int
(** Remove matching rows in place; returns the count.  Bumps
    {!compactions} (incremental caches must rebuild). *)

val replace_all : t -> Row.t list -> unit
(** Replace the heap's contents wholesale (used by UPDATE).  Bumps
    {!compactions}. *)

val compactions : t -> int
(** Counter bumped by every structural rewrite ([delete_where],
    [replace_all]).  Append-only consumers (incremental key indexes) must
    fully rebuild when it changes. *)

val lineage : t -> int
(** Token of the row sequence this heap is a prefix of.  Heaps that
    carry the same token agree on every row both hold, so statistics
    over the first n rows of one are statistics over the first n rows
    of any other that is at least n long.  Appends to the heap that
    took the token keep it; a compaction, or an insert into a {!copy},
    takes a fresh one. *)
