(* Spill-to-disk paths for the pipeline breakers.

   Every breaker (sort buffer, aggregation table, hash-join build) gets a
   per-operator memory budget expressed in buffer-pool pages.  State
   within budget is *reserved* against the pool — it competes with
   cached pages for capacity and counts into the pinned telemetry, so
   "peak pinned pages" measures an execution's true working set.  State
   over budget goes to *runs*: sequences of checksummed pages on the
   scratch pager, written write-through and read back uncached (a run is
   written once and read once; caching it would pollute the hot set).

   Three algorithms share the run machinery:

   - [sort]: classic external merge sort — sorted runs of [budget] rows,
     then k-way merges at fan-in [budget_pages - 1] (one page buffer per
     input run) until one streaming merge remains;

   - [hash_agg]: adaptive spilling hash aggregation — groups absorb into
     the table until it reaches the budget; rows of non-resident keys
     spill to hash-partitioned runs, and each partition recurses with a
     re-salted hash.  A key's rows are either all absorbed or all in one
     partition, so the algorithm is correct for non-decomposable
     aggregates; depth is capped, with an unbounded in-memory fallback
     at the bottom for adversarial key distributions;

   - [grace_join]: grace hash join — the build side absorbs until
     budget, then degrades to partitioning (dumping the table first),
     the probe side partitions the same way, and each partition pair
     recurses like [hash_agg].

   A [config] is per-statement: it tracks the pages it reserved so
   [cleanup] (run from the executor's unwind path) can return them to
   the pool even when a governor aborts the query mid-spill. *)

open Eager_schema
open Eager_storage
open Eager_robust

type row_stream = unit -> Row.t option

type config = {
  pool : Buffer_pool.t;
  scratch : Pager.t;
  budget_pages : int; (* per-operator in-memory budget, in pages *)
  page_rows : int; (* nominal rows per page, for rows<->pages *)
  mutable held_pages : int; (* pool pages currently reserved *)
  mutable run_pages_written : int; (* spill telemetry *)
}

let make ~pool ~scratch ~budget_pages ~page_rows =
  if budget_pages < 2 then invalid_arg "Spill.make: budget_pages must be >= 2";
  {
    pool;
    scratch;
    budget_pages;
    page_rows = max 1 page_rows;
    held_pages = 0;
    run_pages_written = 0;
  }

(* One spill config per statement over a paged database: the budget
   defaults to half the pool (so two spilling operators can coexist), or
   64 pages when the pool is unbounded. *)
let for_db ?budget_pages db =
  match Database.scratch db with
  | None -> None
  | Some (pool, scratch) ->
      let budget =
        match budget_pages with
        | Some b -> max 2 b
        | None -> (
            match Buffer_pool.cap pool with
            | Some c -> max 2 (c / 2)
            | None -> 64)
      in
      Some
        (make ~pool ~scratch ~budget_pages:budget
           ~page_rows:(Database.page_rows db))

let rows_budget cfg = cfg.budget_pages * cfg.page_rows
let run_pages cfg = cfg.run_pages_written
let budget_pages cfg = cfg.budget_pages
let pages_of_rows cfg n = (n + cfg.page_rows - 1) / cfg.page_rows

let reserve ?gov cfg n =
  Buffer_pool.reserve ?gov cfg.pool n;
  cfg.held_pages <- cfg.held_pages + n

let release_pages cfg n =
  Buffer_pool.release cfg.pool n;
  cfg.held_pages <- cfg.held_pages - n

let cleanup cfg =
  if cfg.held_pages > 0 then begin
    Buffer_pool.release cfg.pool cfg.held_pages;
    cfg.held_pages <- 0
  end

(* A hold resizes one structure's reservation as it grows or shrinks,
   clamped so the statement's TOTAL reservation never exceeds the
   budget: the budget is shared by every breaker of the statement
   (pipelined plans run several at once — a grace join feeding a
   spilling aggregation), which guarantees the other half of the pool
   stays available for pinned scan frames.  The max-depth fallbacks may
   hold more rows than the clamp admits; honest accounting up to the
   clamp keeps them runnable rather than failing the query on a
   reservation the pool cannot grant. *)
type hold = { hcfg : config; mutable hpages : int }

let hold cfg = { hcfg = cfg; hpages = 0 }

let hold_rows ?gov h n =
  let others = h.hcfg.held_pages - h.hpages in
  let target =
    min (pages_of_rows h.hcfg n) (max 0 (h.hcfg.budget_pages - others))
  in
  if target > h.hpages then begin
    reserve ?gov h.hcfg (target - h.hpages);
    h.hpages <- target
  end
  else if target < h.hpages then begin
    release_pages h.hcfg (h.hpages - target);
    h.hpages <- target
  end

let hold_drop h = hold_rows h 0

(* ---------------- spill runs ---------------- *)

type run = {
  mutable pids : int list; (* newest first *)
  mutable tail : Row.t list; (* newest first; always under one page *)
  mutable tail_rows : int;
  mutable tail_bytes : int;
  mutable total : int;
}

let run_create () =
  { pids = []; tail = []; tail_rows = 0; tail_bytes = 0; total = 0 }

let run_rows r = r.total

let run_flush_tail ?gov cfg r =
  if r.tail_rows > 0 then begin
    (* the fault point fires before the page lands, so an injected IO
       failure leaves a clean (shorter) run *)
    Fault.trip "exec.spill";
    let page = Array.of_list (List.rev r.tail) in
    let pid = Buffer_pool.append_page ?gov cfg.pool cfg.scratch page in
    cfg.run_pages_written <- cfg.run_pages_written + 1;
    r.pids <- pid :: r.pids;
    r.tail <- [];
    r.tail_rows <- 0;
    r.tail_bytes <- 0
  end

let run_add ?gov cfg r row =
  let rb = Page.row_bytes row in
  let cap = Page.capacity ~page_size:(Pager.page_size cfg.scratch) in
  if rb > cap then
    Err.failf Err.Storage
      "spilled row needs %d bytes, a page holds %d (use a larger \
       --page-size)"
      rb cap;
  if r.tail_rows >= cfg.page_rows || r.tail_bytes + rb > cap then
    run_flush_tail ?gov cfg r;
  r.tail <- row :: r.tail;
  r.tail_rows <- r.tail_rows + 1;
  r.tail_bytes <- r.tail_bytes + rb;
  r.total <- r.total + 1

(* Seal the run and stream it back page by page (one page of rows live
   at a time, read uncached). *)
let run_stream ?gov cfg r : row_stream =
  run_flush_tail ?gov cfg r;
  let pids = ref (List.rev r.pids) in
  let page = ref [||] in
  let i = ref 0 in
  let rec next () =
    if !i < Array.length !page then begin
      let row = (!page).(!i) in
      incr i;
      Some row
    end
    else
      match !pids with
      | [] -> None
      | pid :: rest ->
          pids := rest;
          page := Buffer_pool.read_page ?gov cfg.pool cfg.scratch pid;
          i := 0;
          next ()
  in
  next

(* re-salted partition of a key hash ([Rowtbl.hash]): each recursion
   depth splits keys differently, so a partition that overflowed at depth
   d spreads out at depth d+1 *)
let partition_of ~depth ~nparts h =
  Hashtbl.seeded_hash ((depth * 31) + 17) h mod nparts

let max_depth = 6

let nparts_of cfg = max 2 (min 32 (cfg.budget_pages - 1))

(* ---------------- external merge sort ---------------- *)

let merge_streams cmp streams : row_stream =
  let heads = Array.of_list (List.map (fun s -> (ref (s ()), s)) streams) in
  let next () =
    let best = ref (-1) in
    Array.iteri
      (fun i (p, _) ->
        match !p with
        | None -> ()
        | Some r -> (
            if !best < 0 then best := i
            else
              let pb, _ = heads.(!best) in
              match !pb with
              | Some rb when cmp rb r <= 0 -> ()
              | _ -> best := i))
      heads;
    if !best < 0 then None
    else begin
      let p, s = heads.(!best) in
      let row = Option.get !p in
      p := s ();
      Some row
    end
  in
  next

let sort cfg ?gov ?(acquire = ignore) ?(release = ignore) ~cmp
    (input : row_stream) : row_stream =
  let budget = rows_budget cfg in
  let h = hold cfg in
  let buf = ref [] in
  let n = ref 0 in
  let runs = ref [] in
  let flush_chunk () =
    if !n > 0 then begin
      let arr = Array.of_list (List.rev !buf) in
      Array.stable_sort cmp arr;
      let r = run_create () in
      Array.iter (fun row -> run_add ?gov cfg r row) arr;
      runs := r :: !runs;
      release !n;
      buf := [];
      n := 0
    end
  in
  let rec load () =
    match input () with
    | None -> ()
    | Some row ->
        buf := row :: !buf;
        incr n;
        acquire 1;
        hold_rows ?gov h !n;
        if !n >= budget then flush_chunk ();
        load ()
  in
  load ();
  if !runs = [] then begin
    (* everything fit: one in-memory sort, streamed out *)
    let arr = Array.of_list (List.rev !buf) in
    Array.stable_sort cmp arr;
    buf := [];
    let i = ref 0 in
    let closed = ref false in
    fun () ->
      if !i < Array.length arr then begin
        let row = arr.(!i) in
        incr i;
        Some row
      end
      else begin
        if not !closed then begin
          closed := true;
          release (Array.length arr);
          hold_drop h
        end;
        None
      end
  end
  else begin
    flush_chunk ();
    hold_drop h;
    let fan = max 2 (cfg.budget_pages - 1) in
    (* intermediate passes until one streaming merge remains *)
    let rec reduce runs =
      if List.length runs <= fan then runs
      else begin
        let batch = List.filteri (fun i _ -> i < fan) runs in
        let rest = List.filteri (fun i _ -> i >= fan) runs in
        let out = run_create () in
        let s =
          merge_streams cmp (List.map (fun r -> run_stream ?gov cfg r) batch)
        in
        let rec go () =
          match s () with
          | None -> ()
          | Some row ->
              run_add ?gov cfg out row;
              go ()
        in
        go ();
        reduce (rest @ [ out ])
      end
    in
    let final = reduce (List.rev !runs) in
    (* one page buffer per surviving run during the streaming merge *)
    let hm = hold cfg in
    hold_rows ?gov hm (List.length final * cfg.page_rows);
    let s =
      merge_streams cmp (List.map (fun r -> run_stream ?gov cfg r) final)
    in
    let closed = ref false in
    fun () ->
      match s () with
      | Some row -> Some row
      | None ->
          if not !closed then begin
            closed := true;
            hold_drop hm
          end;
          None
  end

(* ---------------- adaptive spilling hash aggregation ---------------- *)

let hash_agg (type st) cfg ?gov ?(acquire = ignore) ?(release = ignore)
    ?(on_groups = ignore) ~key ~(fresh : unit -> st)
    ~(absorb : st -> Row.t -> unit) ~(emit : Row.t -> st -> Row.t)
    (input : row_stream) : row_stream =
  let budget = rows_budget cfg in
  let nparts = nparts_of cfg in
  let rec process depth (input : row_stream) : row_stream =
    let table : st Rowtbl.t = Rowtbl.create key in
    let h = hold cfg in
    let parts = ref None in
    let part_of row =
      let arr =
        match !parts with
        | Some a -> a
        | None ->
            let a = Array.init nparts (fun _ -> run_create ()) in
            parts := Some a;
            a
      in
      arr.(partition_of ~depth ~nparts (Rowtbl.hash key row))
    in
    let unbounded = depth >= max_depth in
    let rec load () =
      match input () with
      | None -> ()
      | Some row ->
          let e = Rowtbl.find table key row in
          if Rowtbl.found e then absorb (Rowtbl.data e) row
          else if unbounded || Rowtbl.length table < budget then begin
            let st = fresh () in
            absorb st row;
            Rowtbl.add table row st;
            acquire 1;
            hold_rows ?gov h (Rowtbl.length table);
            on_groups (Rowtbl.length table)
          end
          else
            (* non-resident key: its rows all go to one partition *)
            run_add ?gov cfg (part_of row) row;
          load ()
    in
    load ();
    (* resident groups stream out in first-seen order; spilled
       partitions follow, so no global order is promised *)
    let resident = Rowtbl.to_stream table emit in
    let dropped = ref false in
    let pending =
      ref
        (match !parts with
        | None -> []
        | Some a -> Array.to_list a |> List.filter (fun r -> run_rows r > 0))
    in
    let sub = ref None in
    let rec next () =
      match resident () with
      | Some row -> Some row
      | None -> (
          if not !dropped then begin
            dropped := true;
            release (Rowtbl.length table);
            Rowtbl.reset table;
            hold_drop h
          end;
          match !sub with
          | Some s -> (
              match s () with
              | Some row -> Some row
              | None ->
                  sub := None;
                  next ())
          | None -> (
              match !pending with
              | [] -> None
              | r :: rest ->
                  pending := rest;
                  sub := Some (process (depth + 1) (run_stream ?gov cfg r));
                  next ()))
    in
    next
  in
  process 0 input

(* ---------------- grace hash join ---------------- *)

let dummy_row : Row.t = [||]

let grace_join cfg ?gov ?(acquire = ignore) ?(release = ignore) ~lkey ~rkey
    ~combine ~(left : row_stream) ~(right : row_stream) () : row_stream =
  let budget = rows_budget cfg in
  let nparts = nparts_of cfg in
  let rec process depth (left : row_stream) (right : row_stream) : row_stream =
    let table : unit Rowtbl.t = Rowtbl.create lkey in
    let h = hold cfg in
    let grace = ref false in
    let lparts = Array.init nparts (fun _ -> run_create ()) in
    let part row =
      lparts.(partition_of ~depth ~nparts (Rowtbl.hash lkey row))
    in
    let unbounded = depth >= max_depth in
    let rec build () =
      match left () with
      | None -> ()
      | Some row ->
          (* a NULL join key never matches: inner join drops the row *)
          if Row.non_null_on lkey row then
            if (not !grace) && (unbounded || Rowtbl.length table < budget)
            then begin
              Rowtbl.add table row ();
              acquire 1;
              hold_rows ?gov h (Rowtbl.length table)
            end
            else begin
              if not !grace then begin
                (* budget breached: degrade to partitioning, dumping
                   the resident build rows first *)
                grace := true;
                Rowtbl.iter
                  (fun row () -> run_add ?gov cfg (part row) row)
                  table;
                release (Rowtbl.length table);
                Rowtbl.reset table;
                hold_drop h
              end;
              run_add ?gov cfg (part row) row
            end;
          build ()
    in
    build ();
    if not !grace then begin
      (* build fits: stream the probe against the resident table *)
      let pending = ref Rowtbl.none in
      let cur = ref dummy_row in
      let closed = ref false in
      let rec next () =
        if Rowtbl.found !pending then begin
          let l = Rowtbl.row !pending in
          pending := Rowtbl.next table rkey !cur !pending;
          match combine l !cur with Some row -> Some row | None -> next ()
        end
        else
          match right () with
          | None ->
              if not !closed then begin
                closed := true;
                release (Rowtbl.length table);
                Rowtbl.reset table;
                hold_drop h
              end;
              None
          | Some r ->
              if Row.non_null_on rkey r then begin
                cur := r;
                pending := Rowtbl.find table rkey r
              end;
              next ()
      in
      next
    end
    else begin
      (* partition the probe with the same salted hash, then join each
         partition pair recursively *)
      let rparts = Array.init nparts (fun _ -> run_create ()) in
      let rec split () =
        match right () with
        | None -> ()
        | Some r ->
            if Row.non_null_on rkey r then
              run_add ?gov cfg
                rparts.(partition_of ~depth ~nparts (Rowtbl.hash rkey r))
                r;
            split ()
      in
      split ();
      let pairs =
        ref
          (List.init nparts (fun i -> (lparts.(i), rparts.(i)))
          |> List.filter (fun (l, r) -> run_rows l > 0 && run_rows r > 0))
      in
      let sub = ref None in
      let rec next () =
        match !sub with
        | Some s -> (
            match s () with
            | Some row -> Some row
            | None ->
                sub := None;
                next ())
        | None -> (
            match !pairs with
            | [] -> None
            | (lr, rr) :: rest ->
                pairs := rest;
                sub :=
                  Some
                    (process (depth + 1)
                       (run_stream ?gov cfg lr)
                       (run_stream ?gov cfg rr));
                next ())
      in
      next
    end
  in
  process 0 left right
