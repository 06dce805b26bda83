(* Per-layer measurements for the traced run: spans around each layer
   call of a statement, counters read at the same boundaries, and the
   ranked-candidate timings that score the planner's choice. *)

open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt

(* one traced statement, kept in memory until the run ends *)
type record = {
  query : string;
  spans : (string * float) list;  (** layer spans, in call order *)
  total_ms : float;  (** the whole statement, around every span *)
  testfd_ms : float;  (** a separate TestFD call on the same query *)
  candidates : int;
  rows_produced : int;
  peak_live : int;
  minor_mb : float;
  majors : int;
  pool : Buffer_pool.stats option;  (** deltas over the statement *)
  peak_pinned : int;
  factor : float;  (** wall clock to reference time, for the times above *)
}

let pool_delta (a : Buffer_pool.stats) (b : Buffer_pool.stats) =
  {
    b with
    Buffer_pool.hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    evictions = b.evictions - a.evictions;
    page_reads = b.page_reads - a.page_reads;
    page_writes = b.page_writes - a.page_writes;
  }

(* [open_view tr] yields the database the statement reads: the database
   itself, or on the server replica a snapshot view taken under its own
   span *)
let traced_statement ~open_view ~pool ~name sql =
  let tr = Stmt.new_trace () in
  Option.iter Buffer_pool.reset_peak pool;
  let p0 = Option.map Buffer_pool.stats pool in
  let g0 = Gc.quick_stat () in
  let result, total_ms =
    Stat.time (fun () ->
        let db = open_view (Some tr) in
        Result.map (fun o -> (o, db)) (Stmt.execute ~tr db sql))
  in
  let g1 = Gc.quick_stat () in
  let p1 = Option.map Buffer_pool.stats pool in
  match result with
  | Error e -> Error e
  | Ok (o, db) ->
      let _, testfd_ms = Stat.time (fun () -> Testfd.test db o.Stmt.query) in
      let pool, peak_pinned =
        match (p0, p1) with
        | Some a, Some b -> (Some (pool_delta a b), b.Buffer_pool.peak_pinned)
        | _ -> (None, 0)
      in
      Ok
        ( o,
          {
            query = name;
            spans = List.rev tr.Stmt.spans;
            total_ms;
            testfd_ms;
            candidates = List.length o.Stmt.decision.Planner.candidates;
            rows_produced = Optree.total_produced o.Stmt.tree;
            peak_live = tr.Stmt.peak_live;
            minor_mb = (g1.Gc.minor_words -. g0.Gc.minor_words) *. 8. /. 1048576.;
            majors = g1.Gc.major_collections - g0.Gc.major_collections;
            pool;
            peak_pinned;
            factor = 1.;
          } )

(* the span names a statement may record, with the metric each feeds *)
let span_metrics =
  [
    "storage.snapshot_ms";
    "parser.parse_ms";
    "parser.bind_ms";
    "core.canonical_ms";
    "storage.stats_ms";
    "opt.decide_ms";
    "exec.run_ms";
  ]

(* Means, not medians, so the layer figures of a statement add up: the
   mean total equals the mean of every span plus the mean unattributed
   remainder.  Times are scaled to reference time by each statement's
   [factor] (Stat.Host), as the end-to-end latencies are.  A span a workload
   never records (no snapshot off the server, no pool on the RAM engine)
   reads 0. *)
let summarize records =
  let mean f = Stat.mean (List.map f records) in
  let mean_ms f = mean (fun r -> r.factor *. f r) in
  let span name r = Option.value ~default:0. (List.assoc_opt name r.spans) in
  let spans = List.map (fun n -> (n, mean_ms (span n), "ref_ms")) span_metrics in
  let unattributed r =
    r.total_ms -. List.fold_left (fun acc (_, ms) -> acc +. ms) 0. r.spans
  in
  let pool f = mean (fun r -> match r.pool with Some s -> float_of_int (f s) | None -> 0.) in
  let hits = pool (fun s -> s.Buffer_pool.hits) in
  let misses = pool (fun s -> s.Buffer_pool.misses) in
  spans
  @ [
      ("core.testfd_ms", mean_ms (fun r -> r.testfd_ms), "ref_ms");
      ("opt.candidates", mean (fun r -> float_of_int r.candidates), "count");
      ( "storage.pool_hit_rate",
        (if hits +. misses > 0. then hits /. (hits +. misses) else 0.),
        "ratio" );
      ("storage.page_reads", pool (fun s -> s.Buffer_pool.page_reads), "pages/query");
      ("storage.page_writes", pool (fun s -> s.Buffer_pool.page_writes), "pages/query");
      ("storage.evictions", pool (fun s -> s.Buffer_pool.evictions), "pages/query");
      ( "storage.peak_pinned",
        float_of_int (List.fold_left (fun acc r -> max acc r.peak_pinned) 0 records),
        "pages" );
      ("exec.rows_produced", mean (fun r -> float_of_int r.rows_produced), "rows/query");
      ("exec.peak_live_rows", mean (fun r -> float_of_int r.peak_live), "rows");
      ("gc.minor_mb_per_query", mean (fun r -> r.minor_mb), "MiB");
      ("gc.major_per_query", mean (fun r -> float_of_int r.majors), "count");
      ("trace.statement_ms", mean_ms (fun r -> r.total_ms), "ref_ms");
      ("trace.unattributed_ms", mean_ms unattributed, "ref_ms");
    ]

let record_json r =
  let spans =
    String.concat ","
      (List.map (fun (n, ms) -> Printf.sprintf "%S:%.6f" n ms) r.spans)
  in
  Printf.sprintf
    "{\"query\":%S,\"total_ms\":%.6f,\"spans\":{%s},\"testfd_ms\":%.6f,\
     \"candidates\":%d,\"rows_produced\":%d,\"peak_live_rows\":%d,\
     \"minor_mb\":%.6f,\"major_collections\":%d,\"peak_pinned\":%d}"
    r.query r.total_ms spans r.testfd_ms r.candidates r.rows_produced
    r.peak_live r.minor_mb r.majors r.peak_pinned

(* ---------- every ranked candidate, timed ---------- *)

type ranked = {
  label : string;
  regret : float;  (** t(chosen) / t(fastest ranked candidate) *)
  best_chosen : bool;
  q_error : float;  (** root cardinality: max(est/act, act/est) *)
  lines : string list;  (** one per candidate, with its fingerprint *)
}

(* Ties within this share of the fastest time count as a best choice:
   candidates that run the same operators differ by less than the
   run-to-run noise. *)
let tie = 0.05

(* Every candidate runs once to warm up and check its rows, then the
   candidates take turns, [reps] rounds, so host noise falls on all of
   them alike. *)
let rank ~label ~reps db (cq : Canonical.t) =
  let ( let* ) = Result.bind in
  let io = Cost.default_io db in
  let* d = Result.map_error Eager_robust.Err.to_string (Planner.decide ?io db cq) in
  let run plan = Stmt.run_plan db plan in
  let chosen_fp = Stmt.fingerprint d.Planner.chosen in
  let plans =
    (* the chosen plan is the head of the ranking unless forcing or a
       fallback intervened; then it is timed beside the candidates *)
    let ranked = List.map (fun (c : Placement.t) -> (Some c, c.plan)) d.Planner.candidates in
    if List.exists (fun (_, p) -> Stmt.fingerprint p = chosen_fp) ranked then ranked
    else ranked @ [ (None, d.Planner.chosen) ]
  in
  let* heaps = Stmt.map_ok (fun (_, plan) -> Result.map fst (run plan)) plans in
  let reference = Heap.to_list (List.hd heaps) in
  let* () =
    if List.for_all (fun h -> Exec.multiset_equal (Heap.to_list h) reference) heaps then Ok ()
    else Error (label ^ ": ranked candidates disagree on the result")
  in
  let samples = Array.make (List.length plans) [] in
  for _ = 1 to reps do
    List.iteri
      (fun i (_, plan) ->
        let _, ms = Stat.time (fun () -> run plan) in
        samples.(i) <- ms :: samples.(i))
      plans
  done;
  let timed =
    List.mapi (fun i ((c, plan), heap) -> (c, plan, heap, Stat.median samples.(i)))
      (List.combine plans heaps)
  in
  let _, _, chosen_heap, chosen_ms =
    List.find (fun (_, p, _, _) -> Stmt.fingerprint p = chosen_fp) timed
  in
  let fastest = List.fold_left (fun acc (_, _, _, ms) -> Float.min acc ms) chosen_ms timed in
  let est = (Cost.breakdown ?io db d.Planner.chosen).Cost.out_card in
  let act = float_of_int (Heap.length chosen_heap) in
  let est = Float.max est 1. and act = Float.max act 1. in
  let lines =
    List.mapi
      (fun i (c, plan, _, ms) ->
        let fp = Stmt.fingerprint plan in
        let what, cost =
          match c with
          | Some (c : Placement.t) -> (Placement.describe c, c.cost)
          | None -> ("chosen outside the ranking", Float.nan)
        in
        Printf.sprintf "%s #%d %s %-32s cost=%.0f median=%.3f ms (%d samples)%s"
          label (i + 1) fp what cost ms reps
          (if fp = chosen_fp then " chosen" else ""))
      timed
  in
  Ok
    {
      label;
      regret = chosen_ms /. fastest;
      best_chosen = chosen_ms <= fastest *. (1. +. tie);
      q_error = Float.max (est /. act) (act /. est);
      lines;
    }
