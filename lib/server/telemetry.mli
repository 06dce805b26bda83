(** Per-session and server-wide telemetry counters.

    Every counter is monotone and guarded by one registry-wide mutex, so
    sessions on different threads can bump them without tearing.  The
    [STATUS] statement renders the registry; EXPLAIN responses append
    the asking session's line so a client can watch its own budget
    consumption query by query. *)

type session
(** Counters for one connected session. *)

type t
(** The registry: global counters plus every live session. *)

val create : unit -> t

val connect : t -> session
(** Register a new session and return its counter block; session ids
    are dense and never reused within a server's lifetime. *)

val disconnect : t -> session -> unit
(** Drop the session from the live set (its contribution to the global
    aggregates survives). *)

val session_id : session -> int

(** {1 Bumping} — each takes the registry so global aggregates stay in
    step with the per-session counts. *)

val query_served : t -> session -> rows_pulled:int -> batches:int -> unit
val write_committed : t -> session -> wal_bytes:int -> unit
val budget_refused : t -> session -> unit
(** An admission refusal (queue full, too many sessions, wait too
    long). *)

val degraded : t -> session -> unit
(** A statement answered with a typed [Resource] error mid-execution —
    the graceful-degradation path. *)

val errored : t -> session -> unit

val fenced_refused : t -> unit
(** A write refused because this node is fenced out of the cluster (or
    is a standby redirecting the client) — counted globally because the
    refusal is a property of the node, not of the asking session. *)

val group_commit : t -> statements:int -> unit
(** One WAL sync covering [statements] logged statements. *)

(** {1 Rendering} *)

val session_line : session -> string
(** ["session 3: queries=12 rows_pulled=480 ..."] — appended to EXPLAIN
    responses and printed per session by [STATUS]. *)

val render :
  ?repl:string ->
  ?pool:string ->
  ?stats:string ->
  t ->
  snapshot_lsn:int ->
  sessions:int ->
  active:int ->
  queued:int ->
  string
(** The full [STATUS] report: a global line (with the caller-supplied
    admission gauges and WAL position), the buffer-pool line when the
    caller supplies one ([pool], a paged server), the statistics-cache
    line ([stats]), the replication line when the caller supplies one,
    then one line per live session. *)
