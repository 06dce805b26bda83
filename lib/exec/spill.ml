(* Spill-to-disk machinery for the pipeline breakers.

   Every breaker (sort buffer, aggregation table, DISTINCT seen-set,
   hash-join build) runs against its statement's [budget].  A bounded
   budget comes from a [config] and is expressed in buffer-pool pages.
   State within budget is *reserved* against the pool — it competes with
   cached pages for capacity and counts into the pinned telemetry, so
   "peak pinned pages" measures an execution's true working set.  State
   over budget goes to *runs*: sequences of checksummed pages on the
   scratch pager, written write-through and read back uncached (a run is
   written once and read once; caching it would pollute the hot set).

   The unbounded budget (no config: the RAM engine) has no pool, holds
   reserve nothing and no breaker ever reaches its row limit, so the
   executor's spilling breakers run as plain in-memory ones.

   This module keeps only what the breakers share: budgets, holds
   (reservations), runs, hash partitions and the stable k-way merge.  The
   algorithms themselves — external sort, grace hash join, spilling hash
   aggregation and DISTINCT — are the executor's breaker cursors.

   A [config] is per-statement: it tracks the pages it reserved so
   [cleanup] (run from the executor's unwind path) can return them to
   the pool even when a governor aborts the query mid-spill. *)

open Eager_schema
open Eager_storage
open Eager_robust

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

let reserve ~gov cfg n =
  Buffer_pool.reserve ~gov cfg.pool n;
  cfg.held_pages <- cfg.held_pages + n

let release_pages cfg n =
  Buffer_pool.release cfg.pool n;
  cfg.held_pages <- cfg.held_pages - n

let cleanup cfg =
  if cfg.held_pages > 0 then begin
    Buffer_pool.release cfg.pool cfg.held_pages;
    cfg.held_pages <- 0
  end

(* ---------------- budgets ---------------- *)

type budget = { cfg : config option; gov : Governor.t; rows : int }

let budget ~gov cfg =
  { cfg; gov; rows = (match cfg with Some c -> rows_budget c | None -> max_int) }

let bounded b = Option.is_some b.cfg
let rows b = b.rows

(* Past [max_depth] a partition is absorbed whatever its size: the
   unbounded in-memory fallback that guarantees termination on
   adversarial key distributions. *)
let max_depth = 6
let limit b ~depth = if depth >= max_depth then max_int else b.rows
let release_all b = Option.iter cleanup b.cfg

let spill_cfg b =
  match b.cfg with
  | Some cfg -> cfg
  | None -> invalid_arg "Spill: an unbounded budget never spills"

(* A hold resizes one structure's reservation as it grows or shrinks,
   clamped so the statement's TOTAL reservation never exceeds the
   budget: the budget is shared by every breaker of the statement
   (pipelined plans run several at once — a grace join feeding a
   spilling aggregation), which guarantees the other half of the pool
   stays available for pinned scan frames.  The max-depth fallbacks may
   hold more rows than the clamp admits; honest accounting up to the
   clamp keeps them runnable rather than failing the query on a
   reservation the pool cannot grant.  Under the unbounded budget a
   hold reserves nothing. *)
type hold = { hcfg : config option; hgov : Governor.t; mutable hpages : int }

let hold b = { hcfg = b.cfg; hgov = b.gov; hpages = 0 }

let hold_rows h n =
  match h.hcfg with
  | None -> ()
  | Some cfg ->
      let others = cfg.held_pages - h.hpages in
      let target =
        min (pages_of_rows cfg n) (max 0 (cfg.budget_pages - others))
      in
      if target > h.hpages then begin
        reserve ~gov:h.hgov cfg (target - h.hpages);
        h.hpages <- target
      end
      else if target < h.hpages then begin
        release_pages cfg (h.hpages - target);
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

let run_flush_tail b cfg r =
  if r.tail_rows > 0 then begin
    (* the fault point fires before the page lands, so an injected IO
       failure leaves a clean (shorter) run *)
    Fault.trip "exec.spill";
    let page = Array.of_list (List.rev r.tail) in
    let pid = Buffer_pool.append_page ~gov:b.gov cfg.pool cfg.scratch page in
    cfg.run_pages_written <- cfg.run_pages_written + 1;
    r.pids <- pid :: r.pids;
    r.tail <- [];
    r.tail_rows <- 0;
    r.tail_bytes <- 0
  end

let run_add b r row =
  let cfg = spill_cfg b in
  let rb = Page.row_bytes row in
  let cap = Page.capacity ~page_size:(Pager.page_size cfg.scratch) in
  if rb > cap then
    Err.failf Err.Storage
      "spilled row needs %d bytes, a page holds %d (use a larger \
       --page-size)"
      rb cap;
  if r.tail_rows >= cfg.page_rows || r.tail_bytes + rb > cap then
    run_flush_tail b cfg r;
  r.tail <- row :: r.tail;
  r.tail_rows <- r.tail_rows + 1;
  r.tail_bytes <- r.tail_bytes + rb;
  r.total <- r.total + 1

(* Seal the run and read it back one page at a time (uncached), each
   page sliced into batches of at most [batch_rows] rows. *)
let run_reader b ~batch_rows schema r : unit -> Batch.t option =
  let cfg = spill_cfg b in
  run_flush_tail b cfg r;
  let pids = ref (List.rev r.pids) in
  let page = ref [||] in
  let pos = ref 0 in
  let rec next () =
    let n = Array.length !page in
    if !pos < n then begin
      let k = min batch_rows (n - !pos) in
      let slice = if k = n then !page else Array.sub !page !pos k in
      pos := !pos + k;
      Some (Batch.of_array schema slice)
    end
    else
      match !pids with
      | [] -> None
      | pid :: rest ->
          pids := rest;
          page := Buffer_pool.read_page ~gov:b.gov cfg.pool cfg.scratch pid;
          pos := 0;
          next ()
  in
  next

(* ---------------- hash partitions ---------------- *)

(* re-salted partition of a key hash ([Rowtbl.hash]): each recursion
   depth splits keys differently, so a partition that overflowed at depth
   d spreads out at depth d+1 *)
let partition_of ~depth ~nparts h =
  Hashtbl.seeded_hash ((depth * 31) + 17) h mod nparts

type parts = { pb : budget; pdepth : int; pruns : run array }

(* no runs at all under the unbounded budget, which never spills *)
let parts b ~depth =
  let n =
    match b.cfg with
    | None -> 0
    | Some cfg -> max 2 (min 32 (cfg.budget_pages - 1))
  in
  { pb = b; pdepth = depth; pruns = Array.init n (fun _ -> run_create ()) }

let part_add p h row =
  let nparts = Array.length p.pruns in
  run_add p.pb p.pruns.(partition_of ~depth:p.pdepth ~nparts h) row

let part_runs p = p.pruns
let spilled p = List.filter (fun r -> run_rows r > 0) (Array.to_list p.pruns)

(* ---------------- stable k-way merge ---------------- *)

type merge = {
  mb : budget;
  mcfg : config;
  cmp : Row.t -> Row.t -> int;
  pages : Row.t array array; (* each run's current page; [||] when drained *)
  pos : int array;
  unread : int list array; (* each run's pages still on disk *)
  mhold : hold; (* the final merge's one page buffer per run *)
}

let load m i =
  match m.unread.(i) with
  | [] -> m.pages.(i) <- [||]
  | pid :: rest ->
      m.unread.(i) <- rest;
      m.pages.(i) <-
        Buffer_pool.read_page ~gov:m.mb.gov m.mcfg.pool m.mcfg.scratch pid;
      m.pos.(i) <- 0

let open_merge b ~cmp runs =
  let cfg = spill_cfg b in
  List.iter (run_flush_tail b cfg) runs;
  let k = List.length runs in
  let m =
    {
      mb = b;
      mcfg = cfg;
      cmp;
      pages = Array.make k [||];
      pos = Array.make k 0;
      unread = Array.of_list (List.map (fun r -> List.rev r.pids) runs);
      mhold = hold b;
    }
  in
  for i = 0 to k - 1 do
    load m i
  done;
  m

(* The run whose head row is least, ties going to the earliest run (so
   merging consecutive runs of a stable sort stays stable); -1 once every
   run is drained. *)
let least m =
  let best = ref (-1) in
  for i = 0 to Array.length m.pages - 1 do
    if m.pos.(i) < Array.length m.pages.(i) then
      if
        !best < 0
        || m.cmp m.pages.(i).(m.pos.(i)) m.pages.(!best).(m.pos.(!best)) < 0
      then best := i
  done;
  !best

let take m i =
  let row = m.pages.(i).(m.pos.(i)) in
  m.pos.(i) <- m.pos.(i) + 1;
  if m.pos.(i) >= Array.length m.pages.(i) then load m i;
  row

let merge_fill m out =
  let rec go () =
    if not (Batch.is_full out) then begin
      let i = least m in
      if i >= 0 then begin
        Batch.add out (take m i);
        go ()
      end
      else hold_drop m.mhold
    end
  in
  go ()

let merge_fan b = max 2 ((spill_cfg b).budget_pages - 1)

(* Merge consecutive runs, [merge_fan] at a time, each merged run taking
   its inputs' place, until at most [merge_fan] runs remain; then open
   the final streaming merge.  Keeping runs in input order is what keeps
   the external sort stable across passes. *)
let merge b ~cmp runs =
  let fan = merge_fan b in
  let merge_group group =
    match group with
    | [ r ] -> r
    | _ ->
        let m = open_merge b ~cmp group in
        let out = run_create () in
        let rec go () =
          let i = least m in
          if i >= 0 then begin
            run_add b out (take m i);
            go ()
          end
        in
        go ();
        out
  in
  let rec pass = function
    | [] -> []
    | runs ->
        let group = List.filteri (fun i _ -> i < fan) runs in
        let rest = List.filteri (fun i _ -> i >= fan) runs in
        let merged = merge_group group in
        merged :: pass rest
  in
  let rec reduce runs =
    if List.length runs <= fan then runs else reduce (pass runs)
  in
  let final = reduce runs in
  let m = open_merge b ~cmp final in
  hold_rows m.mhold (List.length final * m.mcfg.page_rows);
  m
