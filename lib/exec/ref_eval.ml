(* Reference evaluator: the deliberately naive, whole-relation
   materializing interpreter the batched pipeline is differentially
   tested against.

   Every operator builds its complete output as a list before the parent
   looks at it — exactly the execution model the pull pipeline replaced.
   It shares only the leaf machinery with [Exec] (expression compilation,
   aggregate accumulators) and none of the operator algorithms: joins
   are always nested loops over full predicates, grouping and DISTINCT
   hash [Row.key_on] lists in the stdlib [Hashtbl] rather than [Exec]'s
   [Rowtbl], and no order is tracked.  An agreement bug in [Exec]
   therefore cannot hide here.

   This file is exempt from the lint ban on whole-relation
   materialization in lib/exec — materializing is its entire point. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_storage
open Eager_algebra

let eval ?(params = Expr.no_params) db (plan : Plan.t) : Row.t list =
  let rec go (p : Plan.t) : Schema.t * Row.t list =
    match p with
    | Plan.Scan { table; schema; _ } ->
        let src = Database.heap db table in
        if Schema.arity schema <> Schema.arity (Heap.schema src) then
          invalid_arg "Ref_eval: scan arity mismatch";
        (schema, Heap.to_list src (* breaker-ok: reference semantics *))
    | Plan.Select { pred; input } ->
        let schema, rows = go input in
        let test = Expr.compile_pred ~params schema pred in
        (schema, List.filter (fun r -> Tbool.holds (test r)) rows)
    | Plan.Project { dedup; cols; input } ->
        let in_schema, rows = go input in
        let idxs = Schema.indices in_schema cols in
        let schema = Schema.project in_schema cols in
        let projected = List.map (Row.project idxs) rows in
        if not dedup then (schema, projected)
        else begin
          let seen = Hashtbl.create 64 in
          let all = Array.init (List.length cols) Fun.id in
          ( schema,
            List.filter
              (fun r ->
                let key = Row.key_on all r in
                if Hashtbl.mem seen key then false
                else begin
                  Hashtbl.add seen key ();
                  true
                end)
              projected )
        end
    | Plan.Map { items; input } ->
        let in_schema, rows = go input in
        let fns =
          List.map (fun (_, e) -> Expr.compile ~params in_schema e) items
        in
        ( Plan.schema_of p,
          List.map
            (fun r -> Array.of_list (List.map (fun f -> f r) fns))
            rows )
    | Plan.Sort { by; input } ->
        let schema, rows = go input in
        let keys =
          List.map (fun (c, desc) -> (Schema.index_of schema c, desc)) by
        in
        let cmp (a : Row.t) (b : Row.t) =
          let rec loop = function
            | [] -> 0
            | (i, desc) :: rest ->
                let c = Value.compare_total a.(i) b.(i) in
                if c <> 0 then if desc then -c else c else loop rest
          in
          loop keys
        in
        (schema, List.stable_sort cmp rows)
    | Plan.Product (a, b) ->
        let lsch, ls = go a in
        let rsch, rs = go b in
        ( Schema.concat lsch rsch,
          List.concat_map (fun l -> List.map (Row.concat l) rs) ls )
    | Plan.Join { pred; left; right } ->
        let lsch, ls = go left in
        let rsch, rs = go right in
        let schema = Schema.concat lsch rsch in
        let test = Expr.compile_pred ~params schema pred in
        ( schema,
          List.concat_map
            (fun l ->
              List.filter_map
                (fun r ->
                  let row = Row.concat l r in
                  if Tbool.holds (test row) then Some row else None)
                rs)
            ls )
    | Plan.Group { by; aggs; scalar; input } ->
        let in_schema, rows = go input in
        let by_idx = Schema.indices in_schema by in
        let compiled = Agg_exec.compile ~params in_schema aggs in
        let groups = Hashtbl.create 64 in
        let order = ref [] in
        List.iter
          (fun row ->
            let key = Row.key_on by_idx row in
            match Hashtbl.find_opt groups key with
            | Some (_, state) -> Agg_exec.update compiled state row
            | None ->
                let state = Agg_exec.fresh compiled in
                Agg_exec.update compiled state row;
                Hashtbl.add groups key (row, state);
                order := key :: !order)
          rows;
        let out =
          (* [!order] is latest-first, so rev_map restores first-seen order *)
          List.rev_map
            (fun key ->
              let repr, state = Hashtbl.find groups key in
              Array.append (Row.project by_idx repr)
                (Agg_exec.finalize compiled state))
            !order
        in
        let out =
          if scalar && out = [] then
            [ Agg_exec.finalize compiled (Agg_exec.fresh compiled) ]
          else out
        in
        (Plan.schema_of p, out)
    | Plan.Partial_group { by; aggs; cap = _; input } ->
        (* A full group table is a valid partial aggregation (the flush
           cap was simply never reached), so the reference semantics are
           plain grouping — one (group, partial) row per group. *)
        go (Plan.Group { by; aggs; scalar = false; input })
  in
  snd (go plan)
