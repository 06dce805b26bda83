(** Naive whole-relation reference evaluator.

    The materialized oracle the batched pull pipeline is differentially
    tested against: every operator builds its complete output list
    before the parent sees it, joins are always nested loops, grouping
    is always generic.  Slow
    and simple on purpose — it shares no operator algorithm with
    {!Exec}, so the two agreeing on every fuzz-corpus query at every
    batch size is meaningful evidence. *)

open Eager_schema
open Eager_expr
open Eager_storage
open Eager_algebra

val eval : ?params:Expr.env -> Database.t -> Plan.t -> Row.t list
(** Rows of [plan]'s result, in an unspecified order (compare with
    {!Exec.multiset_equal}).  May raise on malformed plans — wrap in
    [Err.protect] if a typed error is needed. *)
