open Eager_value
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
  governor : Governor.t;
  batch_rows : int;
  spill : Spill.config option;
}

let default_options =
  {
    join_algo = Auto;
    group_algo = Hash_group;
    params = Expr.no_params;
    use_indexes = true;
    governor = Governor.unlimited;
    batch_rows = Batch.default_rows;
    spill = None;
  }

type profile = { peak_live_rows : int; batch_rows : int }

let split_equijoin lsch rsch pred =
  let conjs = Expr.conjuncts pred in
  List.partition_map
    (fun c ->
      match Expr.classify_atom c with
      | Expr.Col_eq_col (a, b) when Schema.mem lsch a && Schema.mem rsch b ->
          Either.Left (a, b)
      | Expr.Col_eq_col (a, b) when Schema.mem lsch b && Schema.mem rsch a ->
          Either.Left (b, a)
      | _ -> Either.Right c)
    conjs

(* is [keys] a prefix of the known sort order [order]? *)
let covered_by_order keys order =
  let rec go ks os =
    match ks, os with
    | [], _ -> true
    | _, [] -> false
    | k :: ks, o :: os -> Colref.equal k o && go ks os
  in
  go keys order

(* longest prefix of [order] whose columns all appear in [cols] *)
let order_through_projection order cols =
  let colset = Colref.set_of_list cols in
  let rec go = function
    | c :: rest when Colref.Set.mem c colset -> c :: go rest
    | _ -> []
  in
  go order

(* ------------------------------------------------------------------ *)
(* pull-pipeline infrastructure                                        *)

(* A cursor yields batches until exhausted.  The batch an operator
   returns is owned by that operator and reused on the next pull, so
   consumers process it before pulling again (rows themselves are
   immutable and may be retained). *)
type cursor = unit -> Batch.t option

(* Live intermediate-row accounting: pipeline breakers [acquire] rows
   when they materialize state (hash-build sides, sort buffers, group
   tables) and [release] them when their output is drained.  [peak] is
   the high-water mark the bench sweep reports — the number that shrinks
   when early aggregation shrinks a join's build side. *)
type tracker = { mutable live : int; mutable peak : int }

let acquire tr n =
  tr.live <- tr.live + n;
  if tr.live > tr.peak then tr.peak <- tr.live

let release tr n = tr.live <- tr.live - n

(* Per-operator statistics, mutated as batches flow and realized into an
   [Optree.t] once the root cursor is drained. *)
type opstat = {
  mutable label : string;
  mutable rows_out : int;
  mutable batches_out : int;
  kids : opstat list;
}

let opstat label kids = { label; rows_out = 0; batches_out = 0; kids }

let rec realize st =
  Optree.node ~batches:st.batches_out st.label st.rows_out
    (List.map realize st.kids)

(* Stats-only wrapper (IndexScan leaves: counted but, as before the
   refactor, neither charged nor a fault point). *)
let observe st (next : cursor) : cursor =
 fun () ->
  match next () with
  | None -> None
  | Some b ->
      st.rows_out <- st.rows_out + Batch.length b;
      st.batches_out <- st.batches_out + 1;
      Some b

(* The operator boundary of the pull pipeline: every batch crossing it
   fires the [exec.next] fault point and is charged against the
   governor, so budgets and injected crashes trip mid-stream while the
   data flows, not after an operator has materialized its output. *)
let boundary gov st (next : cursor) : cursor =
 fun () ->
  Fault.trip "exec.next";
  match next () with
  | None -> None
  | Some b ->
      let n = Batch.length b in
      Governor.charge_batch gov ~rows:n;
      st.rows_out <- st.rows_out + n;
      st.batches_out <- st.batches_out + 1;
      Some b

(* Defer a breaker's build work to the first pull so the whole pipeline
   stays demand-driven. *)
let deferred (init : unit -> cursor) : cursor =
  let built = ref None in
  fun () ->
    (match !built with
    | Some c -> c
    | None ->
        let c = init () in
        built := Some c;
        c)
      ()

let dummy_row : Row.t = [||]

(* A growable row buffer: the state of the breakers that hold rows. *)
type rowbuf = { mutable arr : Row.t array; mutable len : int }

let rowbuf () = { arr = Array.make 64 dummy_row; len = 0 }

let push buf row =
  if buf.len >= Array.length buf.arr then begin
    let bigger = Array.make (2 * Array.length buf.arr) dummy_row in
    Array.blit buf.arr 0 bigger 0 buf.len;
    buf.arr <- bigger
  end;
  buf.arr.(buf.len) <- row;
  buf.len <- buf.len + 1

let contents buf = Array.sub buf.arr 0 buf.len

(* Pull a child cursor to exhaustion, handing every row to [f]. *)
let consume f (child : cursor) =
  let rec go () =
    match child () with
    | None -> ()
    | Some b ->
        Batch.iter f b;
        go ()
  in
  go ()

(* Drain a child cursor into an array, keeping only rows satisfying
   [keep]; the breaker's footprint is registered with the tracker as it
   grows (the caller releases it when done). *)
let drain_where tr keep (child : cursor) =
  let buf = rowbuf () in
  consume
    (fun row ->
      if keep row then begin
        push buf row;
        acquire tr 1
      end)
    child;
  contents buf

let drain tr child = drain_where tr (fun _ -> true) child

(* Stream a materialized array back out in batches.  The pool pages of
   [hold] go back as soon as the last rows are handed out; the [held]
   tracked rows are released on the pull after, once the consumer has
   taken them (the timing the profile's peak has always used). *)
let array_source ~batch_rows ~tr ~held ?hold schema (arr : Row.t array) :
    cursor =
  let pos = ref 0 in
  let n = Array.length arr in
  let closed = ref false in
  fun () ->
    if !pos >= n then begin
      if not !closed then begin
        closed := true;
        Option.iter Spill.hold_drop hold;
        release tr held
      end;
      None
    end
    else begin
      let k = min batch_rows (n - !pos) in
      let b = Batch.of_array schema (Array.sub arr !pos k) in
      pos := !pos + k;
      if !pos >= n then Option.iter Spill.hold_drop hold;
      Some b
    end

(* Stream a group table out in first-seen order, one output row per
   entry.  Once the last entry is out [hold] is dropped; the tracked rows
   are released on the next pull, as in [array_source]. *)
let table_source ~batch_rows ~tr ?hold schema tbl emit : cursor =
  let held = Rowtbl.length tbl in
  let next = Rowtbl.to_stream tbl emit in
  let out = Batch.create ~capacity:batch_rows schema in
  let closed = ref false in
  fun () ->
    if !closed then None
    else begin
      Batch.clear out;
      let rec fill () =
        if not (Batch.is_full out) then
          match next () with
          | None -> Option.iter Spill.hold_drop hold
          | Some row ->
              Batch.add out row;
              fill ()
      in
      fill ();
      if Batch.is_empty out then begin
        closed := true;
        release tr held;
        None
      end
      else Some out
    end

(* The cursors made by [subs], one after another, each made when the one
   before it is exhausted: how a spilling breaker streams its resident
   output and then each spilled partition in turn. *)
let concat_cursors (subs : (unit -> cursor) list) : cursor =
  let pending = ref subs in
  let cur : cursor ref = ref (fun () -> None) in
  let rec next () =
    match !cur () with
    | Some b -> Some b
    | None -> (
        match !pending with
        | [] -> None
        | make :: rest ->
            pending := rest;
            cur := make ();
            next ())
  in
  next

(* ------------------------------------------------------------------ *)
(* streaming (non-breaking) operators                                  *)

let filter_cursor ~batch_rows schema test (child : cursor) : cursor =
  let out = Batch.create ~capacity:batch_rows schema in
  fun () ->
    Batch.clear out;
    let result = ref None in
    let go = ref true in
    while !go do
      match child () with
      | None ->
          go := false;
          if not (Batch.is_empty out) then result := Some out
      | Some b ->
          Batch.iter
            (fun row -> if Tbool.holds (test row) then Batch.add out row)
            b;
          if not (Batch.is_empty out) then begin
            go := false;
            result := Some out
          end
    done;
    !result

(* one output row per input row *)
let map_cursor ~batch_rows schema f (child : cursor) : cursor =
  let out = Batch.create ~capacity:batch_rows schema in
  fun () ->
    match child () with
    | None -> None
    | Some b ->
        Batch.clear out;
        Batch.iter (fun row -> Batch.add out (f row)) b;
        Some out

(* DISTINCT projection streams first occurrences; the seen-key table is
   the only state it holds (one entry per retained row).  Once the table
   reaches the budget, rows of unseen keys go, projected, to hash
   partitions instead (a resident key is never evicted, so a spilled key
   was never emitted); each partition is deduplicated one level down
   after the input ends.  Under the unbounded budget nothing spills and
   the output is the input's first occurrences, in input order. *)
let rec dedup_cursor ~batch_rows ~tr ~budget ~depth schema idxs project
    (child : cursor) : cursor =
  let limit = Spill.limit budget ~depth in
  let bounded = Spill.bounded budget in
  (* keyed on the projected rows it emits, probed with the input's [idxs] *)
  let ident = Array.init (Array.length idxs) Fun.id in
  let seen = Rowtbl.create ident in
  let n = ref 0 in
  let h = Spill.hold budget in
  let parts = Spill.parts budget ~depth in
  let out = Batch.create ~capacity:batch_rows schema in
  let spilled = ref None in
  let keep row =
    if not (Rowtbl.found (Rowtbl.find seen idxs row)) then
      if !n < limit then begin
        let p = project row in
        Rowtbl.add seen p ();
        incr n;
        acquire tr 1;
        if bounded then Spill.hold_rows h !n;
        Batch.add out p
      end
      else Spill.part_add parts (Rowtbl.hash idxs row) (project row)
  in
  fun () ->
    match !spilled with
    | Some rest -> rest ()
    | None ->
        Batch.clear out;
        let result = ref None in
        let go = ref true in
        while !go do
          match child () with
          | None ->
              go := false;
              release tr !n;
              Rowtbl.reset seen;
              Spill.hold_drop h;
              let rest =
                concat_cursors
                  (List.map
                     (fun r () ->
                       dedup_cursor ~batch_rows ~tr ~budget ~depth:(depth + 1)
                         schema ident Fun.id
                         (Spill.run_reader budget ~batch_rows schema r))
                     (Spill.spilled parts))
              in
              spilled := Some rest;
              result := if Batch.is_empty out then rest () else Some out
          | Some b ->
              Batch.iter keep b;
              if not (Batch.is_empty out) then begin
                go := false;
                result := Some out
              end
        done;
        !result

(* ------------------------------------------------------------------ *)
(* joins                                                               *)

(* Nested loop: the inner (right) side is the pipeline breaker; the
   outer streams batch by batch, so output order follows the outer. *)
let nested_loop_cursor ~batch_rows ~tr schema pred_opt (lchild : cursor)
    (rchild : cursor) : cursor =
  deferred (fun () ->
      let inner = drain tr rchild in
      let ninner = Array.length inner in
      let out = Batch.create ~capacity:batch_rows schema in
      let lbatch = ref None in
      let li = ref 0 in
      let ri = ref 0 in
      let closed = ref false in
      fun () ->
        if !closed then None
        else begin
          Batch.clear out;
          let result = ref None in
          let go = ref true in
          while !go do
            if Batch.is_full out then begin
              go := false;
              result := Some out
            end
            else
              match !lbatch with
              | Some b when !li < Batch.length b ->
                  if ninner = 0 then lbatch := None
                  else begin
                    let row = Row.concat (Batch.get b !li) inner.(!ri) in
                    (match pred_opt with
                    | Some p when not (Tbool.holds (p row)) -> ()
                    | _ -> Batch.add out row);
                    incr ri;
                    if !ri >= ninner then begin
                      ri := 0;
                      incr li
                    end
                  end
              | _ -> (
                  match lchild () with
                  | Some b ->
                      lbatch := Some b;
                      li := 0;
                      ri := 0
                  | None ->
                      go := false;
                      closed := true;
                      release tr ninner;
                      if not (Batch.is_empty out) then result := Some out)
          done;
          !result
        end)

(* Hash join builds on the LEFT input and streams the probe from the
   right — the Volcano convention.  This is what makes the eager rewrite
   visible in memory, not just time: in E2 the build side is the
   already-aggregated [R1'], so the hash table holds one row per group
   instead of one per base row.  Output order follows the probe side;
   one probe row meets its matches newest-first.  A build side that
   outgrows the budget degrades to a grace join: the resident rows and
   the rest of the build go to hash partitions, the probe is partitioned
   the same way, and each partition pair is joined one level down.  A
   row with a NULL key column never matches, so it is dropped. *)
let rec hash_join_cursor ~batch_rows ~tr ~budget ~depth schema residual
    (lsch, lidx) (rsch, ridx) (lchild : cursor) (rchild : cursor) : cursor =
  deferred (fun () ->
      let limit = Spill.limit budget ~depth in
      let bounded = Spill.bounded budget in
      let build : unit Rowtbl.t = Rowtbl.create lidx in
      let n = ref 0 in
      let h = Spill.hold budget in
      let lparts = Spill.parts budget ~depth in
      let grace = ref false in
      let spill l = Spill.part_add lparts (Rowtbl.hash lidx l) l in
      consume
        (fun l ->
          if Row.non_null_on lidx l then
            if !n < limit then begin
              Rowtbl.add build l ();
              incr n;
              acquire tr 1;
              if bounded then Spill.hold_rows h !n
            end
            else begin
              if not !grace then begin
                (* budget reached: dump the resident build rows first *)
                grace := true;
                Rowtbl.iter (fun l () -> spill l) build;
                release tr !n;
                Rowtbl.reset build;
                Spill.hold_drop h
              end;
              spill l
            end)
        lchild;
      if !grace then begin
        let rparts = Spill.parts budget ~depth in
        consume
          (fun r ->
            if Row.non_null_on ridx r then
              Spill.part_add rparts (Rowtbl.hash ridx r) r)
          rchild;
        let lruns = Spill.part_runs lparts and rruns = Spill.part_runs rparts in
        concat_cursors
          (List.filter_map
             (fun i ->
               let lr = lruns.(i) and rr = rruns.(i) in
               if Spill.run_rows lr = 0 || Spill.run_rows rr = 0 then None
               else
                 Some
                   (fun () ->
                     hash_join_cursor ~batch_rows ~tr ~budget ~depth:(depth + 1)
                       schema residual (lsch, lidx) (rsch, ridx)
                       (Spill.run_reader budget ~batch_rows lsch lr)
                       (Spill.run_reader budget ~batch_rows rsch rr)))
             (List.init (Array.length lruns) Fun.id))
      end
      else
        let out = Batch.create ~capacity:batch_rows schema in
        let pending = ref Rowtbl.none in
        let cur = ref dummy_row in
        let pbatch = ref None in
        let pi = ref 0 in
        let closed = ref false in
        fun () ->
          if !closed then None
          else begin
            Batch.clear out;
            let result = ref None in
            let go = ref true in
            while !go do
              if Batch.is_full out then begin
                go := false;
                result := Some out
              end
              else if Rowtbl.found !pending then begin
                let row = Row.concat (Rowtbl.row !pending) !cur in
                pending := Rowtbl.next build ridx !cur !pending;
                match residual with
                | Some p when not (Tbool.holds (p row)) -> ()
                | _ -> Batch.add out row
              end
              else
                match !pbatch with
                | Some b when !pi < Batch.length b ->
                    let r = Batch.get b !pi in
                    incr pi;
                    if Row.non_null_on ridx r then begin
                      cur := r;
                      pending := Rowtbl.find build ridx r
                    end
                | _ -> (
                    match rchild () with
                    | Some b ->
                        pbatch := Some b;
                        pi := 0
                    | None ->
                        go := false;
                        closed := true;
                        release tr !n;
                        Spill.hold_drop h;
                        if not (Batch.is_empty out) then result := Some out)
            done;
            !result
          end)

(* Merge join breaks both sides (sorting is skipped for an input whose
   known order covers the keys — Section 7), then streams the merge. *)
let merge_join_cursor ~batch_rows ~tr schema residual lidx ridx ~lsorted
    ~rsorted (lchild : cursor) (rchild : cursor) : cursor =
  deferred (fun () ->
      let l = drain_where tr (Row.non_null_on lidx) lchild in
      let r = drain_where tr (Row.non_null_on ridx) rchild in
      if not lsorted then Array.sort (Row.compare_on lidx) l;
      if not rsorted then Array.sort (Row.compare_on ridx) r;
      let key_cmp (a : Row.t) (b : Row.t) =
        let n = Array.length lidx in
        let rec go k =
          if k >= n then 0
          else
            let c = Value.compare_total a.(lidx.(k)) b.(ridx.(k)) in
            if c <> 0 then c else go (k + 1)
        in
        go 0
      in
      let nl = Array.length l in
      let nr = Array.length r in
      let held = nl + nr in
      let i = ref 0 and j = ref 0 in
      let i2 = ref 0 and j2 = ref 0 in
      let a = ref 0 and b = ref 0 in
      let in_run = ref false in
      let out = Batch.create ~capacity:batch_rows schema in
      let closed = ref false in
      fun () ->
        if !closed then None
        else begin
          Batch.clear out;
          let result = ref None in
          let go = ref true in
          while !go do
            if Batch.is_full out then begin
              go := false;
              result := Some out
            end
            else if !in_run then begin
              let row = Row.concat l.(!a) r.(!b) in
              (match residual with
              | Some p when not (Tbool.holds (p row)) -> ()
              | _ -> Batch.add out row);
              incr b;
              if !b >= !j2 then begin
                b := !j;
                incr a;
                if !a >= !i2 then begin
                  in_run := false;
                  i := !i2;
                  j := !j2
                end
              end
            end
            else if !i < nl && !j < nr then begin
              let c = key_cmp l.(!i) r.(!j) in
              if c < 0 then incr i
              else if c > 0 then incr j
              else begin
                let x = ref !i in
                while !x < nl && Row.compare_on lidx l.(!i) l.(!x) = 0 do
                  incr x
                done;
                let y = ref !j in
                while !y < nr && Row.compare_on ridx r.(!j) r.(!y) = 0 do
                  incr y
                done;
                i2 := !x;
                j2 := !y;
                a := !i;
                b := !j;
                in_run := true
              end
            end
            else begin
              go := false;
              closed := true;
              release tr held;
              if not (Batch.is_empty out) then result := Some out
            end
          done;
          !result
        end)

(* ------------------------------------------------------------------ *)
(* grouping                                                            *)

let group_row by_idx compiled repr state =
  Array.append (Row.project by_idx repr) (Agg_exec.finalize compiled state)

(* Hash aggregation: the group table (one repr row + accumulators per
   group) is the breaker state; input rows stream through and are never
   retained.  A new group is tracked and charged against the governor's
   group budget before it is added, not only at the cursor boundary.
   Once the table reaches the budget, rows of non-resident keys go to
   hash partitions — a key's rows are all absorbed or all in one
   partition, so any aggregate, decomposable or not, sees its full row
   set — and each partition is aggregated one level down after the
   resident groups are out.  Emission is first-seen, so under the
   unbounded budget sorted input produces sorted output. *)
let rec hash_group_cursor ~batch_rows ~tr ~gov ~budget ~depth schema in_schema
    by_idx compiled (child : cursor) : cursor =
  deferred (fun () ->
      let limit = Spill.limit budget ~depth in
      let bounded = Spill.bounded budget in
      let groups = Rowtbl.create by_idx in
      let n = ref 0 in
      let h = Spill.hold budget in
      let parts = Spill.parts budget ~depth in
      let fresh _ =
        acquire tr 1;
        Governor.charge_groups gov (!n + 1);
        incr n;
        if bounded then Spill.hold_rows h !n;
        Agg_exec.fresh compiled
      in
      consume
        (fun row ->
          if !n < limit then
            Agg_exec.update compiled (Rowtbl.find_or_add groups row fresh) row
          else
            let e = Rowtbl.find groups by_idx row in
            if Rowtbl.found e then Agg_exec.update compiled (Rowtbl.data e) row
            else Spill.part_add parts (Rowtbl.hash by_idx row) row)
        child;
      concat_cursors
        ((fun () ->
           table_source ~batch_rows ~tr ~hold:h schema groups
             (group_row by_idx compiled))
        :: List.map
             (fun r () ->
               hash_group_cursor ~batch_rows ~tr ~gov ~budget ~depth:(depth + 1)
                 schema in_schema by_idx compiled
                 (Spill.run_reader budget ~batch_rows in_schema r))
             (Spill.spilled parts)))

(* Partial pre-aggregation: a bounded group table that flushes its
   (group, partial-accumulator) rows whenever it reaches [cap] live
   groups, so memory stays O(cap + one batch) no matter how many groups
   the input holds — the memory-efficient aggregation technique for
   multi-way joins.  The output stream may therefore contain several
   rows per group (one per flush epoch); it is only correct under a
   finalizing [Group] that re-combines them, which is the only way the
   planner emits this operator. *)
let partial_group_cursor ~batch_rows ~tr ~gov schema by_idx compiled ~cap
    (child : cursor) : cursor =
  let cap = max 1 cap in
  let groups = Rowtbl.create by_idx in
  let fresh _ =
    acquire tr 1;
    Governor.charge_groups gov (Rowtbl.length groups + 1);
    Agg_exec.fresh compiled
  in
  let absorb row =
    Agg_exec.update compiled (Rowtbl.find_or_add groups row fresh) row
  in
  let pending = ref (fun () -> None) in
  let finished = ref false in
  let flush () =
    (* the stream keeps the flushed epoch's entries, first-seen, after
       the table is emptied for the next one *)
    pending := Rowtbl.to_stream groups (group_row by_idx compiled);
    release tr (Rowtbl.length groups);
    Rowtbl.reset groups
  in
  let out = Batch.create ~capacity:batch_rows schema in
  fun () ->
    Batch.clear out;
    let eof = ref false in
    while (not !eof) && not (Batch.is_full out) do
      match !pending () with
      | Some row -> Batch.add out row
      | None ->
          if !finished then eof := true
          else begin
            (* refill until the cap trips (a whole input batch is always
               absorbed, so the table can overshoot by one batch) or the
               child is exhausted *)
            let rec pull () =
              if Rowtbl.length groups < cap then
                match child () with
                | Some b ->
                    Batch.iter absorb b;
                    pull ()
                | None -> finished := true
            in
            pull ();
            if Rowtbl.length groups = 0 then eof := true else flush ()
          end
    done;
    if Batch.is_empty out then None else Some out

(* External merge sort: the sort buffer is the breaker state.  Rows
   collect in memory up to the budget; a full buffer is stably sorted
   into a run on the scratch pager, and the runs are merged stably in
   input order ({!Spill.merge}).  A buffer that never fills — always,
   under the unbounded budget — is sorted in memory and streamed out.
   Either way the sort is stable. *)
let sort_cursor ~batch_rows ~tr ~budget schema cmp (child : cursor) : cursor =
  deferred (fun () ->
      let limit = Spill.rows budget in
      let bounded = Spill.bounded budget in
      let h = Spill.hold budget in
      let buf = ref (rowbuf ()) in
      let runs = ref [] in
      let flush () =
        let rows = contents !buf in
        Array.stable_sort cmp rows;
        let r = Spill.run_create () in
        Array.iter (Spill.run_add budget r) rows;
        runs := r :: !runs;
        release tr (Array.length rows);
        buf := rowbuf ()
      in
      consume
        (fun row ->
          push !buf row;
          acquire tr 1;
          if bounded then Spill.hold_rows h !buf.len;
          if !buf.len >= limit then flush ())
        child;
      if !runs = [] then begin
        let rows = contents !buf in
        Array.stable_sort cmp rows;
        array_source ~batch_rows ~tr ~held:(Array.length rows) ~hold:h schema
          rows
      end
      else begin
        if !buf.len > 0 then flush ();
        Spill.hold_drop h;
        let m = Spill.merge budget ~cmp (List.rev !runs) in
        let out = Batch.create ~capacity:batch_rows schema in
        fun () ->
          Batch.clear out;
          Spill.merge_fill m out;
          if Batch.is_empty out then None else Some out
      end)

(* Sort aggregation: groups stream off a sorted input, one at a time, so
   the only breaker state is the sort's (none when the input already
   arrives sorted on the grouping columns).  Output is in group-key
   order. *)
let sort_group_cursor ~batch_rows ~tr ~budget schema in_schema by_idx compiled
    ~presorted (child : cursor) : cursor =
  let cmp = Row.compare_on by_idx in
  let sorted =
    if presorted then child
    else sort_cursor ~batch_rows ~tr ~budget in_schema cmp child
  in
  let out = Batch.create ~capacity:batch_rows schema in
  let repr = ref dummy_row in
  let state = ref (Agg_exec.fresh compiled) in
  let open_group = ref false in
  let inb = ref None in
  let i = ref 0 in
  let finished = ref false in
  fun () ->
    if !finished then None
    else begin
      Batch.clear out;
      while (not !finished) && not (Batch.is_full out) do
        match !inb with
        | Some b when !i < Batch.length b ->
            let row = Batch.get b !i in
            incr i;
            if !open_group && cmp !repr row = 0 then
              Agg_exec.update compiled !state row
            else begin
              if !open_group then
                Batch.add out (group_row by_idx compiled !repr !state);
              repr := row;
              state := Agg_exec.fresh compiled;
              Agg_exec.update compiled !state row;
              open_group := true
            end
        | _ -> (
            match sorted () with
            | Some b ->
                inb := Some b;
                i := 0
            | None ->
                if !open_group then begin
                  Batch.add out (group_row by_idx compiled !repr !state);
                  open_group := false
                end;
                finished := true)
      done;
      if Batch.is_empty out then None else Some out
    end

(* SQL scalar aggregation yields one row even for empty input; the
   paper's G[GA] (scalar = false) yields zero groups instead. *)
let scalar_fallback compiled schema (inner : cursor) : cursor =
  let emitted = ref false in
  let done_ = ref false in
  fun () ->
    match inner () with
    | Some b ->
        emitted := true;
        Some b
    | None ->
        if !emitted || !done_ then None
        else begin
          done_ := true;
          let state = Agg_exec.fresh compiled in
          Some (Batch.of_array schema [| Agg_exec.finalize compiled state |])
        end

(* ------------------------------------------------------------------ *)
(* compilation: plan -> cursor tree                                    *)

let run_profiled ?(options = default_options) db plan =
  let params = options.params in
  let gov = options.governor in
  let batch_rows = Batch.clamp_capacity options.batch_rows in
  let tr = { live = 0; peak = 0 } in
  (* the one place the spill config is read: every breaker runs against
     this budget, which is unbounded on the RAM engine *)
  let budget = Spill.budget ~gov options.spill in
  let rec compile (p : Plan.t) : cursor * Schema.t * opstat * Colref.t list =
    let label = Plan.label p in
    match p with
    | Plan.Scan { table; schema; _ } ->
        let src = Database.heap db table in
        if Schema.arity schema <> Schema.arity (Heap.schema src) then
          Err.failf Err.Exec
            "scan of %s: schema arity mismatch (plan expects %d columns, \
             stored table has %d)"
            table (Schema.arity schema)
            (Schema.arity (Heap.schema src));
        let st = opstat label [] in
        (* a paged heap charges the governor's page-IO budget at pin
           time, through this handle *)
        let hc = Heap.cursor ~batch_rows ~gov src in
        let cur () =
          match Heap.cursor_next hc with
          | None -> None
          | Some slice -> Some (Batch.of_array schema slice)
        in
        (boundary gov st cur, schema, st, [])
    | Plan.Select { pred; input } -> (
        (* point-lookup path: a [col = const] conjunct over a base-table
           scan with a declared single-column index *)
        let index_path () =
          match input with
          | Plan.Scan { table; schema; rel = _; _ } when options.use_indexes ->
              List.find_map
                (fun atom ->
                  let resolved =
                    match Expr.classify_atom atom with
                    | Expr.Col_eq_const (c, v) -> Some (c, v)
                    | Expr.Col_eq_param (c, pname) -> Some (c, params pname)
                    | _ -> None
                  in
                  match resolved with
                  | Some (c, v)
                    when Schema.mem schema c && not (Value.is_null v) -> (
                      match
                        Database.find_equality_index db ~table
                          ~col:c.Colref.name
                      with
                      | Some def -> Some (def, v)
                      | None -> None)
                  | _ -> None)
                (Expr.conjuncts pred)
              |> Option.map (fun (def, v) -> (def, v, schema, table))
          | _ -> None
        in
        match index_path () with
        | Some (def, v, schema, table) ->
            let candidates =
              Array.of_list (Database.index_lookup db def [ v ])
            in
            acquire tr (Array.length candidates);
            let leaf =
              opstat
                (Printf.sprintf "IndexScan %s via %s" table
                   def.Eager_catalog.Catalog.iname)
                []
            in
            let src =
              observe leaf
                (array_source ~batch_rows ~tr
                   ~held:(Array.length candidates) schema candidates)
            in
            let test = Expr.compile_pred ~params schema pred in
            let st = opstat label [ leaf ] in
            ( boundary gov st (filter_cursor ~batch_rows schema test src),
              schema,
              st,
              [] )
        | None ->
            let child, schema, cst, order = compile input in
            let test = Expr.compile_pred ~params schema pred in
            let st = opstat label [ cst ] in
            ( boundary gov st (filter_cursor ~batch_rows schema test child),
              schema,
              st,
              order ))
    | Plan.Project { dedup; cols; input } ->
        let child, in_schema, cst, order = compile input in
        let idxs = Schema.indices in_schema cols in
        let schema = Schema.project in_schema cols in
        let st = opstat label [ cst ] in
        let cur =
          if dedup then
            dedup_cursor ~batch_rows ~tr ~budget ~depth:0 schema idxs
              (Row.project idxs) child
          else
            map_cursor ~batch_rows schema (fun row -> Row.project idxs row) child
        in
        let out_order =
          if dedup && Spill.bounded budget then []
          else order_through_projection order cols
        in
        (boundary gov st cur, schema, st, out_order)
    | Plan.Map { items; input } ->
        let child, in_schema, cst, order = compile input in
        let schema = Plan.schema_of p in
        let fns =
          List.map (fun (_, e) -> Expr.compile ~params in_schema e) items
        in
        let st = opstat label [ cst ] in
        let cur =
          map_cursor ~batch_rows schema
            (fun row -> Array.of_list (List.map (fun f -> f row) fns))
            child
        in
        (* identity items keep their column's position in the sort order *)
        let identity =
          List.filter_map
            (fun (c, e) ->
              match e with
              | Expr.Col src when Colref.equal src c -> Some c
              | _ -> None)
            items
        in
        let out_order =
          let idset = Colref.set_of_list identity in
          let rec prefix = function
            | c :: rest when Colref.Set.mem c idset -> c :: prefix rest
            | _ -> []
          in
          prefix order
        in
        (boundary gov st cur, schema, st, out_order)
    | Plan.Sort { by; input } ->
        let child, schema, cst, _ = compile input in
        let keys =
          List.map (fun (c, desc) -> (Schema.index_of schema c, desc)) by
        in
        let cmp (a : Row.t) (b : Row.t) =
          let rec go = function
            | [] -> 0
            | (i, desc) :: rest ->
                let c = Value.compare_total a.(i) b.(i) in
                if c <> 0 then if desc then -c else c else go rest
          in
          go keys
        in
        let st = opstat label [ cst ] in
        let cur = sort_cursor ~batch_rows ~tr ~budget schema cmp child in
        (* the known (ascending) order is the prefix before the first DESC *)
        let rec asc_prefix = function
          | (c, false) :: rest -> c :: asc_prefix rest
          | _ -> []
        in
        (boundary gov st cur, schema, st, asc_prefix by)
    | Plan.Product (a, b) ->
        let lcur, lsch, sa, order_a = compile a in
        let rcur, rsch, sb, _ = compile b in
        let schema = Schema.concat lsch rsch in
        let st = opstat label [ sa; sb ] in
        let cur = nested_loop_cursor ~batch_rows ~tr schema None lcur rcur in
        (* outer-loop order: the left order survives *)
        (boundary gov st cur, schema, st, order_a)
    | Plan.Join { pred; left; right } ->
        let lcur, lsch, sl, order_l = compile left in
        let rcur, rsch, sr, order_r = compile right in
        let out_schema = Schema.concat lsch rsch in
        let keys, residual = split_equijoin lsch rsch pred in
        let residual_pred =
          match residual with
          | [] -> None
          | conjs ->
              Some (Expr.compile_pred ~params out_schema (Expr.conj conjs))
        in
        let algo =
          match options.join_algo with
          | Auto -> if keys = [] then Nested_loop else Hash_join
          | a -> a
        in
        let lkeys = List.map fst keys and rkeys = List.map snd keys in
        let out_order, presorted =
          match algo, keys with
          | Nested_loop, _ | _, [] -> (order_l, 0)
          | Hash_join, _ ->
              (* the probe (right) side streams, so its order survives —
                 unless the join may degrade to grace partitioning *)
              ((if Spill.bounded budget then [] else order_r), 0)
          | (Merge_join | Auto), _ ->
              (* merge join emits rows in join-key order *)
              let ls = covered_by_order lkeys order_l in
              let rs = covered_by_order rkeys order_r in
              (lkeys, (if ls then 1 else 0) + if rs then 1 else 0)
        in
        let cur =
          match algo, keys with
          | Nested_loop, _ | _, [] ->
              let full = Expr.compile_pred ~params out_schema pred in
              nested_loop_cursor ~batch_rows ~tr out_schema (Some full) lcur
                rcur
          | Hash_join, _ ->
              hash_join_cursor ~batch_rows ~tr ~budget ~depth:0 out_schema
                residual_pred
                (lsch, Schema.indices lsch lkeys)
                (rsch, Schema.indices rsch rkeys)
                lcur rcur
          | Merge_join, _ ->
              let lidx = Schema.indices lsch lkeys in
              let ridx = Schema.indices rsch rkeys in
              merge_join_cursor ~batch_rows ~tr out_schema residual_pred lidx
                ridx
                ~lsorted:(covered_by_order lkeys order_l)
                ~rsorted:(covered_by_order rkeys order_r)
                lcur rcur
          | Auto, _ -> assert false
        in
        let label =
          if presorted > 0 then
            Printf.sprintf "%s (%d presorted input%s)" label presorted
              (if presorted > 1 then "s" else "")
          else label
        in
        let st = opstat label [ sl; sr ] in
        (boundary gov st cur, out_schema, st, out_order)
    | Plan.Group { by; aggs; scalar; input } ->
        let child, in_schema, cst, in_order = compile input in
        let by_idx = Schema.indices in_schema by in
        let compiled = Agg_exec.compile ~params in_schema aggs in
        let schema = Plan.schema_of p in
        let st = opstat label [ cst ] in
        let out_order =
          match options.group_algo with
          | Sort_group -> by
          | Hash_group ->
              (* first-seen emission: sorted input stays sorted — but a
                 spilling table may emit partitions out of line *)
              if (not (Spill.bounded budget)) && covered_by_order by in_order
              then by
              else []
        in
        let inner =
          match options.group_algo with
          | Hash_group ->
              hash_group_cursor ~batch_rows ~tr ~gov ~budget ~depth:0 schema
                in_schema by_idx compiled child
          | Sort_group ->
              sort_group_cursor ~batch_rows ~tr ~budget schema in_schema by_idx
                compiled
                ~presorted:(covered_by_order by in_order)
                child
        in
        let cur =
          if scalar then scalar_fallback compiled schema inner else inner
        in
        (boundary gov st cur, schema, st, out_order)
    | Plan.Partial_group { by; aggs; cap; input } ->
        let child, in_schema, cst, _ = compile input in
        (* the partial-aggregation overflow cap shares the per-operator
           budget of the other breakers *)
        let cap = min cap (Spill.rows budget) in
        let by_idx = Schema.indices in_schema by in
        let compiled = Agg_exec.compile ~params in_schema aggs in
        let schema = Plan.schema_of p in
        let st = opstat label [ cst ] in
        let cur =
          partial_group_cursor ~batch_rows ~tr ~gov schema by_idx compiled
            ~cap child
        in
        (* flush epochs may repeat groups, so no order survives *)
        (boundary gov st cur, schema, st, [])
  in
  (* Pool reservations are cross-statement state: release whatever the
     spill paths still hold even when a governor abort or injected fault
     unwinds mid-stream. *)
  let finally () = Spill.release_all budget in
  Fun.protect ~finally (fun () ->
      let cur, schema, st, order = compile plan in
      let out = Heap.create schema in
      let rec drain_root () =
        match cur () with
        | None -> ()
        | Some b ->
            Batch.iter (Heap.insert out) b;
            drain_root ()
      in
      drain_root ();
      (out, realize st, order, { peak_live_rows = tr.peak; batch_rows }))

let run_ordered ?options db plan =
  let h, st, order, _ = run_profiled ?options db plan in
  (h, st, order)

let run ?options db plan =
  let h, st, _, _ = run_profiled ?options db plan in
  (h, st)

let run_rows ?options db plan =
  let h, _ = run ?options db plan in
  Heap.to_list h (* breaker-ok: API conversion of the final result *)

(* The typed-error boundary: a query either completes or yields an
   [Error] — budget breaches, injected faults, missing tables and legacy
   raises all surface here as values.  Base tables are never mutated by
   evaluation, so an abort leaves the database consistent. *)
let run_checked ?options db plan =
  Err.protect ~kind:Err.Exec (fun () -> run ?options db plan)

let run_rows_checked ?options db plan =
  Result.map
    (fun (h, _) ->
      Heap.to_list h (* breaker-ok: API conversion of the final result *))
    (run_checked ?options db plan)

(* Rows of one arity at a time: a key is a whole row, so rows of
   different arities are never equal. *)
let rec multiset_equal a b =
  match a with
  | [] -> b = []
  | r :: _ ->
      let n = Array.length r in
      let same_arity r = Array.length r = n in
      let a1, a2 = List.partition same_arity a in
      let b1, b2 = List.partition same_arity b in
      List.compare_lengths a1 b1 = 0
      && (let all = Array.init n Fun.id in
          let tally = Rowtbl.create all in
          List.iter
            (fun r -> incr (Rowtbl.find_or_add tally r (fun _ -> ref 0)))
            a1;
          List.for_all
            (fun r ->
              let e = Rowtbl.find tally all r in
              Rowtbl.found e
              &&
              let c = Rowtbl.data e in
              decr c;
              !c >= 0)
            b1)
      && multiset_equal a2 b2
