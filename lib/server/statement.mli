(** The statement runner: the one SELECT/EXPLAIN path behind both the
    CLI and the session server.

    A grouped query is canonicalised ({!Eager_core.Canonical.of_input});
    inside the transformable class the planner decides between E1, E2
    and E2p ({!Eager_opt.Planner.decide}), outside it the
    straightforward {!Eager_parser.Binder.to_plan} plan runs.  Every
    execution goes through {!Eager_exec.Exec.run_checked} under the
    caller's governor, with the spill budget and IO model of the
    database it runs on.  The reply text is appended to a buffer, so
    a surface only decides where the text goes. *)

open Eager_storage
open Eager_parser
open Eager_robust

type show =
  | Results  (** the rows as a table, a [(N rows)] footer, the plan kind *)
  | Explain  (** the TestFD verdict and ranked plans, nothing executed *)
  | Explain_analyze
      (** the executed operator tree and [(N rows in X ms)], timed on
          {!Eager_robust.Clock.now_ms} *)

val run :
  Database.t ->
  Binder.bound_query ->
  governor:Governor.t ->
  order:(Eager_schema.Colref.t * bool) list ->
  show:show ->
  Buffer.t ->
  (unit, Err.t) result
(** Plan and (unless [show = Explain]) execute one bound query,
    appending its text to the buffer.  A failure is a typed [Error]
    (a bind failure of the fallback plan is kind [Bind]); text written
    before the failure, such as a [-- plan:] line, stays in the
    buffer. *)

val describe_outcome : Buffer.t -> Binder.outcome -> unit
(** The one-line reply for a non-query outcome ([N row(s) inserted],
    [checkpointed at wal lsn L], ...); appends nothing for queries. *)
