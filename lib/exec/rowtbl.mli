(** A hash table over rows, keyed on a column subset.

    The one table under every hash breaker: the hash join's build side,
    hash and partial aggregation, DISTINCT, and COUNT DISTINCT.  A row's
    key is its values at the key columns; it is hashed
    ({!Eager_value.Value.hash}) and compared
    ({!Eager_value.Value.key_equal}) in place, so inserting and probing
    build no key.  Two keys are equal exactly when their
    {!Eager_schema.Row.key_on} lists are: [Int] and integral [Float]
    values up to 2^53 are equal, NaN equals NaN, [-0.] equals [0], NULL
    equals NULL.

    An entry is a stored row plus the caller's data.  {!find_or_add}
    keeps one entry per distinct key (its first row seen: a group); {!add}
    inserts unconditionally, so a key may hold several entries (a join's
    build rows), which {!find} and {!next} visit newest-first.  {!iter}
    and {!to_stream} visit entries in insertion order, so groups come
    out first-seen.  Entries are small cells allocated in
    the minor heap, so a table costs the GC what the rows it holds cost,
    with no large backing array beyond the bucket index. *)

open Eager_schema

type 'a t

type 'a entry
(** The result of a lookup: an entry, or none.  Allocation-free. *)

val none : 'a entry

val create : int array -> 'a t
(** [create key]: an empty table whose stored rows are keyed on the
    columns [key]. *)

val length : 'a t -> int
(** Number of entries. *)

val reset : 'a t -> unit
(** Empty the table.  A stream taken by {!to_stream} before the reset
    still yields the old entries. *)

val hash : int array -> Row.t -> int
(** [hash idx row]: the non-negative hash of [row]'s key on the columns
    [idx] — the one the table buckets by, so equal keys hash alike. *)

val find : 'a t -> int array -> Row.t -> 'a entry
(** [find t idx row] looks up the key of [row] on the columns [idx],
    which pair positionally with the table's key columns (a join probes
    with the other side's columns). *)

val next : 'a t -> int array -> Row.t -> 'a entry -> 'a entry
(** [next t idx row e]: the next older entry after [e] whose key equals
    [row]'s on [idx], as {!find} would meet it. *)

val found : 'a entry -> bool

val data : 'a entry -> 'a
(** @raise Invalid_argument on a missing entry. *)

val row : 'a entry -> Row.t
(** The stored row.  @raise Invalid_argument on a missing entry. *)

val add : 'a t -> Row.t -> 'a -> unit
(** Insert a new entry for [row]'s key, whether or not the key is
    present. *)

val find_or_add : 'a t -> Row.t -> (Row.t -> 'a) -> 'a
(** [find_or_add t row fresh]: the data of [row]'s key, inserting
    [fresh row] first if the key is new (one hash either way). *)

val iter : (Row.t -> 'a -> unit) -> 'a t -> unit
(** Every entry as (stored row, data), in insertion order. *)

val to_stream : 'a t -> (Row.t -> 'a -> 'b) -> unit -> 'b option
(** A pull stream over {!iter}'s sequence, mapped through the function. *)
