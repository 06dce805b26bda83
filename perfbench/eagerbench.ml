(* EagerDB's benchmark: SQL text in, rows out, on three workloads.

     eagerbench.exe --workload olap_embedded|paged_spill|server_mixed
                    --seed N --seconds S --trace 0|1
                    [--scale full|tiny] [--eagerdb PATH] [--out DIR]

   Every workload runs the same three-query mix over the same data
   (Dataset): sales (E2 should win), fig8 (E1 should win) and star (E2p
   should win).

   - olap_embedded: one caller, closed loop, the RAM engine, warm caches.
     The executor and the planner's choice dominate; storage, durability
     and the server do nothing.  The control for server and storage
     changes.
   - paged_spill: the same on the paged engine with a buffer pool that
     holds E2's and E2p's build sides but not E1's, pager files on disk,
     spill budgets and IO-aware costing as the server sets them.  The
     buffer pool and the spilling breakers dominate.
   - server_mixed: a separate [eagerdb serve --db] process (WAL, default
     group commit) driven by one closed-loop reader cycling the mix and
     one open-loop writer inserting anonymous orders at [write_rate].
     Every read plans on a fresh snapshot view with cold statistics, and
     every commit invalidates the snapshot.

   With [--trace 0] the run prints the end-to-end metrics, measured
   without tracing; with [--trace 1] it prints the per-layer metrics of
   a traced run (see Layers).  The last line of standard output is one
   JSON object; every earlier line starts with "#".  A wrong result makes
   [correct] false and the exit status 1. *)

open Eager_storage
open Eager_opt
open Eager_workload

type metric = string * float * string

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let say fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

(* ---------- settings ---------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref false
let scale = ref Dataset.full
let eagerdb = ref "_build/default/bin/eagerdb.exe"
let out_dir = ref "perfbench/_out"

(* set-up is repeated and its median reported, so one slow set-up does
   not move the figure *)
let setup_repeats = 3

(* samples per ranked candidate in the traced run, after one warm run;
   Example 3's candidates run in well under a millisecond *)
let rank_reps = 5
let ex3_reps = 51

(* ~10^5 rows per table at 84 rows per 4 KiB page is ~3600 data pages.
   128 pages gives breakers a 64-page (~5.4k-row) budget: E2's sales
   build side (~1.7k customer groups) and E2p's star partials fit, E1's
   100k-row builds spill. *)
let pool_pages () = if !scale == Dataset.tiny then 8 else 128

(* The server workload's writer, one insert per commit.  The target was
   50 commits/s, but while a CPU-bound read executes, each commit waits
   for the runtime lock at every thread hand-off (session thread, commit
   thread, back): ~100-150 ms per commit on a 2-core host, so the server
   sustains fewer than 10 commits/s beside the reader, and at 10/s the
   generator fell seconds behind whenever the host slowed down.  5/s
   keeps it on schedule. *)
let write_rate = 5.

let queries = Array.of_list Dataset.queries

(* ---------- files ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* ---------- correctness ---------- *)

let ( let* ) = Result.bind

(* The Main Theorem's guarantee, checked at set-up: every candidate the
   planner ranked returns the same multiset as forced E1.  The E1 result
   then fixes the (row count, checksum) every measured read must match. *)
let expected db =
  let check (q : Dataset.query) =
    let* e1 = Stmt.execute ~force:Planner.E1 db q.sql in
    let reference = Heap.to_list e1.Stmt.heap in
    let* _, _, _, d = Stmt.decide db q.sql in
    let* _ =
      Stmt.map_ok
        (fun (c : Placement.t) ->
          let* heap, _ = Stmt.run_plan db c.plan in
          if Eager_exec.Exec.multiset_equal (Heap.to_list heap) reference then Ok ()
          else
            Error
              (Printf.sprintf "%s: candidate %s differs from E1" q.name
                 (Placement.describe c)))
        d.Planner.candidates
    in
    Ok (Heap.length e1.heap, Dataset.checksum_heap e1.heap)
  in
  Result.map Array.of_list (Stmt.map_ok check (Array.to_list queries))

let matches (rows, sum) heap =
  Heap.length heap = rows && Dataset.checksum_heap heap = sum

(* ---------- shared pieces ---------- *)

(* Run [f] [setup_repeats] times and keep the last value; [dispose]
   frees an earlier one before the next set-up starts.  Each set-up is
   scaled to reference time by probes taken just before and after it
   (the contract names the unit "s"; these are reference seconds). *)
let repeated_setup ~dispose f =
  let rec go i prev times =
    Option.iter dispose prev;
    Gc.compact ();
    let host = Stat.Host.create () in
    let v, ms = Stat.time (fun () -> f i) in
    let times = (ms /. 1000., Stat.Host.sample host) :: times in
    if i + 1 < setup_repeats then go (i + 1) (Some v) times else (v, times)
  in
  let v, times = go 0 None [] in
  say "setup over %d set-ups, wall clock s (reference s): %s" setup_repeats
    (String.concat " "
       (List.rev_map (fun (s, f) -> Printf.sprintf "%.3f (%.3f)" s (s *. f)) times));
  (v, Stat.median (List.map (fun (s, f) -> s *. f) times))

(* Run the whole mix once per cycle, in seeded order, until [seconds]
   have passed, probing the host after each cycle.  [f cycle query]
   runs one statement and returns what to record once the cycle's
   reference-time factor is known. *)
let closed_loop ~host ~seconds f =
  let g = Gen.make !seed in
  let t_end = Stat.now_ms () +. (seconds *. 1000.) in
  let cycle = ref 0 in
  while Stat.now_ms () < t_end do
    let order = Dataset.shuffle g (List.init (Array.length queries) Fun.id) in
    let finish = List.fold_left (fun acc i -> f !cycle i :: acc) [] order in
    let factor = Stat.Host.sample host in
    List.iter (fun k -> k factor) finish;
    incr cycle
  done

(* the metrics of every correct read, in reference time *)
let latency_metrics ~host ~(reads : Stat.sample list) ~elapsed_s =
  let of_query i = List.filter (fun (s : Stat.sample) -> s.query = i) reads in
  let ms = List.map (fun (s : Stat.sample) -> s.ms) in
  let wall = List.map (fun (s : Stat.sample) -> s.wall_ms) in
  let sum = List.fold_left ( +. ) 0. in
  Array.iteri
    (fun i (q : Dataset.query) ->
      let xs = of_query i in
      say "%s: %d reads, p50 %.3f ref_ms, p95 %.3f ref_ms; wall clock p50 %.3f ms, p95 %.3f ms"
        q.name (List.length xs) (Stat.median (ms xs)) (Stat.p95 (ms xs))
        (Stat.median (wall xs)) (Stat.p95 (wall xs)))
    queries;
  say "query_ms_p95 over %d reads; %.3f reads/s wall clock" (List.length reads)
    (float_of_int (List.length reads) /. elapsed_s);
  say "host probe: %d samples, median %.4f ms (nominal %.4f ms)"
    (List.length host.Stat.Host.probes) (Stat.median host.Stat.Host.probes)
    Stat.Host.nominal_ms;
  (* the run's length in reference time, for the throughput *)
  let ref_s = elapsed_s *. sum (ms reads) /. sum (wall reads) in
  Array.to_list
    (Array.mapi
       (fun i (q : Dataset.query) -> (q.name ^ "_ms_p50", Stat.median (ms (of_query i)), "ref_ms"))
       queries)
  @ [
      ("query_ms_p95", Stat.p95 (ms reads), "ref_ms");
      ("queries_per_s", float_of_int (List.length reads) /. ref_s, "1/ref_s");
    ]

(* every ranked candidate of the mix (on [db]) and of the paper's
   Example 3 query, timed; the planner's regret per query *)
let ranking db =
  let* mix =
    Stmt.map_ok
      (fun (q : Dataset.query) ->
        let* _, _, cq, _ = Stmt.decide db q.sql in
        Layers.rank ~label:q.name ~reps:rank_reps db cq)
      (Array.to_list queries)
  in
  let ex3 = Printers.setup ~seed:!seed () in
  let* ex3 =
    Layers.rank ~label:"ex3" ~reps:ex3_reps ex3.Printers.db ex3.Printers.query
  in
  List.iter (fun (r : Layers.ranked) -> List.iter (say "candidate %s") r.lines) (mix @ [ ex3 ]);
  let best = List.length (List.filter (fun (r : Layers.ranked) -> r.best_chosen) mix) in
  Ok
    (List.map
       (fun (r : Layers.ranked) -> ("opt.regret." ^ r.label, r.regret, "ratio"))
       (mix @ [ ex3 ])
    @ [
        ( "opt.regret",
          List.fold_left (fun acc (r : Layers.ranked) -> Float.max acc r.regret) 1. mix,
          "ratio" );
        ( "opt.best_chosen_frac",
          float_of_int best /. float_of_int (List.length mix),
          "ratio" );
        ( "opt.q_error_root",
          List.fold_left (fun acc (r : Layers.ranked) -> Float.max acc r.q_error) 1. mix,
          "ratio" );
      ])

let write_trace records =
  let path =
    Filename.concat !out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun r -> output_string oc (Layers.record_json r ^ "\n")) records);
  say "spans of %d traced statements written to %s" (List.length records) path

type traced = {
  records : Layers.record list;
  plain : Stat.sample list;  (** the untraced statements *)
  attempted : int;
  failed : int;
  wrong : int;
  overhead : float;  (** mean traced / mean untraced statement time - 1 *)
}

(* Alternate untraced and traced cycles over the same database; the
   untraced statements give the tracing overhead.  [prepare] runs before
   each statement, outside its timing. *)
let traced_loop ?(prepare = ignore) ~seconds ~open_view ~pool ~expected () =
  let host = Stat.Host.create () in
  let records = ref [] and plain = ref [] and failed = ref 0 and wrong = ref 0 in
  closed_loop ~host ~seconds (fun cycle i ->
      let q = queries.(i) in
      prepare ();
      if cycle mod 2 = 0 then
        match Stat.time (fun () -> Stmt.execute (open_view None) q.sql) with
        | Ok o, ms when matches expected.(i) o.Stmt.heap ->
            fun factor -> plain := Stat.sample i ms factor :: !plain
        | Ok _, _ ->
            incr wrong;
            ignore
        | Error _, _ ->
            incr failed;
            ignore
      else
        match Layers.traced_statement ~open_view ~pool ~name:q.name q.sql with
        | Ok (o, r) when matches expected.(i) o.Stmt.heap ->
            fun factor -> records := { r with Layers.factor } :: !records
        | Ok _ ->
            incr wrong;
            ignore
        | Error _ ->
            incr failed;
            ignore);
  let records = List.rev !records in
  let traced_ms = Stat.mean (List.map (fun r -> r.Layers.factor *. r.Layers.total_ms) records) in
  let plain_ms = Stat.mean (List.map (fun (s : Stat.sample) -> s.ms) !plain) in
  {
    records;
    plain = List.rev !plain;
    attempted = List.length !plain + List.length records + !failed + !wrong;
    failed = !failed;
    wrong = !wrong;
    overhead = (traced_ms /. plain_ms) -. 1.;
  }

(* the server-only per-layer metrics, zero where there is no server *)
let no_server =
  [
    ("commit_ms_p50", 0., "ms");
    ("commit_ms_p95", 0., "ms");
    ("durable.commit_ms", 0., "ms");
    ("durable.wal_bytes_per_commit", 0., "bytes");
    ("server.group_size", 0., "stmts/commit");
    ("server.refusals", 0., "count");
    ("server.errors", 0., "count");
    ("server.overhead_ms", 0., "ref_ms");
    ("load.late_ms_p95", 0., "ms");
  ]

(* ---------- olap_embedded and paged_spill ---------- *)

let embedded ~run_dir ~paged =
  let storage i =
    if paged then
      let dir = Filename.concat run_dir (Printf.sprintf "pages-%d" i) in
      mkdir_p dir;
      Some
        {
          Database.pool_pages = Some (pool_pages ());
          page_size = Database.default_storage.page_size;
          spill_dir = Some dir;
        }
    else None
  in
  (* set-up ends when every query of the mix has been answered once, so
     the statistics caches are warm *)
  let build i =
    let db = Dataset.build ?storage:(storage i) ~seed:!seed !scale in
    Array.iter (fun (q : Dataset.query) -> ignore (Stmt.execute db q.sql)) queries;
    db
  in
  let db, setup_s =
    if !trace then (build 0, 0.)
    else repeated_setup ~dispose:Database.close_storage build
  in
  Fun.protect ~finally:(fun () -> Database.close_storage db) @@ fun () ->
  match expected db with
  | Error e ->
      say "wrong result: %s" e;
      { correct = false; attempted = 1; failed = 0; metrics = [] }
  | Ok expected ->
      if not !trace then begin
        let reads = ref [] and failed = ref 0 and wrong = ref 0 in
        let host = Stat.Host.create () in
        let t0 = Stat.now_ms () in
        closed_loop ~host ~seconds:!seconds (fun _ i ->
            match Stat.time (fun () -> Stmt.execute db queries.(i).sql) with
            | Ok o, ms when matches expected.(i) o.Stmt.heap ->
                fun factor -> reads := Stat.sample i ms factor :: !reads
            | Ok _, _ ->
                incr wrong;
                ignore
            | Error e, _ ->
                say "%s failed: %s" queries.(i).name e;
                incr failed;
                ignore);
        let elapsed_s = (Stat.now_ms () -. t0) /. 1000. in
        let reads = List.rev !reads in
        {
          correct = !wrong = 0 && reads <> [];
          attempted = List.length reads + !failed + !wrong;
          failed = !failed;
          metrics =
            (("setup_s", setup_s, "s") :: latency_metrics ~host ~reads ~elapsed_s)
            @ [ ("peak_rss_mb", Stat.peak_rss_mb None, "MiB") ];
        }
      end
      else begin
        let t =
          traced_loop ~seconds:!seconds ~open_view:(fun _ -> db)
            ~pool:(Database.buffer_pool db) ~expected ()
        in
        write_trace t.records;
        match ranking db with
        | Error e ->
            say "ranking failed: %s" e;
            { correct = false; attempted = t.attempted; failed = t.failed; metrics = [] }
        | Ok ranked ->
            {
              correct = t.wrong = 0 && t.records <> [];
              attempted = t.attempted;
              failed = t.failed;
              metrics =
                Layers.summarize t.records @ ranked @ no_server
                @ [
                    ("trace.overhead_frac", t.overhead, "ratio");
                    ( "ops_failed_frac",
                      float_of_int t.failed /. float_of_int (max 1 t.attempted),
                      "ratio" );
                  ];
            }
      end

(* ---------- server_mixed ---------- *)

let server_mixed ~run_dir =
  let sock = Filename.concat run_dir "s.sock" in
  (* build, verify, save; the load generator keeps only the expected
     results, the server process holds the database *)
  let build i =
    let dir = Filename.concat run_dir (Printf.sprintf "db-%d" i) in
    let db = Dataset.build ~seed:!seed !scale in
    let* () = Result.map_error Eager_robust.Err.to_string (Eager_parser.Persist.save db ~dir) in
    let* srv =
      Serverload.start ~exe:!eagerdb ~dir ~sock
        ~log:(Filename.concat run_dir (Printf.sprintf "serve-%d.log" i))
    in
    (* the first read of each query ends set-up *)
    let* _ =
      Serverload.with_conn srv.addr (fun c ->
          Stmt.map_ok (fun (q : Dataset.query) -> Serverload.request c q.sql)
            (Array.to_list queries))
    in
    Ok (srv, dir, db)
  in
  let dispose = function
    | Ok (srv, _, _) -> Serverload.stop srv
    | Error _ -> ()
  in
  let built, setup_s =
    if !trace then (build 0, 0.) else repeated_setup ~dispose build
  in
  match
    Result.bind built (fun (srv, dir, db) ->
        match expected db with
        | Ok e -> Ok (srv, dir, e)
        | Error e ->
            Serverload.stop srv;
            Error e)
  with
  | Error e ->
      say "server set-up failed: %s" e;
      { correct = false; attempted = 1; failed = 1; metrics = [] }
  | Ok (srv, dir, expected) ->
      Gc.compact ();
      let first_id = Dataset.next_order_id !scale in
      let phase_s = if !trace then !seconds /. 2. else !seconds in
      let load =
        Serverload.run ~addr:srv.addr ~seconds:phase_s ~seed:!seed ~rate:write_rate
          ~first_id ~queries ~expected
      in
      let status = Serverload.status srv.addr in
      let count = Serverload.count_orders srv.addr in
      let rss = Stat.peak_rss_mb (Some srv.pid) in
      Serverload.stop srv;
      let initial = !scale.Dataset.orders in
      let count_ok =
        match count with
        | Ok n ->
            (* an insert whose acknowledgement was lost may have landed *)
            let ok = n >= initial + load.acked && n <= initial + load.acked + load.write_failed in
            if not ok then
              say "Orders holds %d rows, expected %d + %d acked inserts" n initial load.acked;
            ok
        | Error e ->
            say "row count failed: %s" e;
            false
      in
      if load.wrong > 0 then say "%d reads returned wrong rows" load.wrong;
      let attempted =
        List.length load.reads + load.read_failed + load.wrong + load.acked + load.write_failed
      in
      let failed = load.read_failed + load.write_failed in
      let correct = count_ok && load.wrong = 0 && load.reads <> [] in
      say "writer: %d acked, %d failed, commit p50 %.3f ms p95 %.3f ms over %d commits, late p95 %.3f ms"
        load.acked load.write_failed (Stat.median load.commits_ms) (Stat.p95 load.commits_ms)
        (List.length load.commits_ms) (Stat.p95 load.late_ms);
      if not !trace then
        {
          correct;
          attempted;
          failed;
          metrics =
            (("setup_s", setup_s, "s")
            :: latency_metrics ~host:load.host ~reads:load.reads ~elapsed_s:load.elapsed_s)
            @ [ ("peak_rss_mb", rss, "MiB") ];
        }
      else begin
        (* the replica: the server's read path (snapshot at the commit
           LSN, then a fresh reader view) and its write path
           (Durable.exec), in this process, over the server's directory *)
        match Eager_durable.Durable.open_ ~dir () with
        | Error e ->
            say "replica open failed: %s" (Eager_robust.Err.to_string e);
            { correct = false; attempted; failed; metrics = [] }
        | Ok (session, _) ->
            Fun.protect ~finally:(fun () -> Eager_durable.Durable.close session)
            @@ fun () ->
            let snaps = Eager_server.Snapshot.create () in
            let g = Gen.make (!seed + 2) in
            let interval = 1000. /. write_rate in
            (* ids well above any the server phase can have used *)
            let next_due = ref (Stat.now_ms ()) and next_id = ref (first_id + 1_000_000) in
            let commit_ms = ref [] and replica_acked = ref 0 in
            let wal0 = Eager_durable.Durable.wal_bytes session in
            (* the writes due so far go first, as the commit thread would
               have applied them before this read's snapshot *)
            let apply_due () =
              while !next_due <= Stat.now_ms () do
                let stmt = Eager_parser.Parser.parse_statement (Serverload.insert_sql g !next_id) in
                (match Stat.time (fun () -> Eager_durable.Durable.exec session stmt) with
                | Ok _, ms ->
                    commit_ms := ms :: !commit_ms;
                    incr replica_acked
                | Error e, _ -> say "replica insert failed: %s" (Eager_robust.Err.to_string e));
                incr next_id;
                next_due := !next_due +. interval
              done
            in
            let open_view tr =
              Stmt.span tr "storage.snapshot_ms" (fun () ->
                  Eager_server.Snapshot.get snaps
                    ~lsn:(Eager_durable.Durable.lsn session)
                    ~db:(Eager_durable.Durable.db session))
            in
            let t =
              traced_loop ~prepare:apply_due ~seconds:phase_s ~open_view ~pool:None ~expected ()
            in
            write_trace t.records;
            let db = Eager_durable.Durable.db session in
            let replica_rows_ok =
              Database.row_count db "Orders" >= initial + load.acked + !replica_acked
            in
            let p50 reads i =
              Stat.median
                (List.filter_map
                   (fun (s : Stat.sample) -> if s.query = i then Some s.ms else None)
                   reads)
            in
            let overhead_ms =
              Stat.mean
                (List.init (Array.length queries) (fun i -> p50 load.reads i -. p50 t.plain i))
            in
            let st k =
              match status with
              | Ok f -> float_of_int (Option.value ~default:0 (List.assoc_opt k f))
              | Error _ -> 0.
            in
            let commits = float_of_int (List.length !commit_ms) in
            let wal = float_of_int (Eager_durable.Durable.wal_bytes session - wal0) in
            let attempted = attempted + t.attempted in
            let failed = failed + t.failed in
            match ranking db with
            | Error e ->
                say "ranking failed: %s" e;
                { correct = false; attempted; failed; metrics = [] }
            | Ok ranked ->
                {
                  correct = correct && t.wrong = 0 && replica_rows_ok && t.records <> [];
                  attempted;
                  failed;
                  metrics =
                    Layers.summarize t.records @ ranked
                    @ [
                        ("commit_ms_p50", Stat.median load.commits_ms, "ms");
                        ("commit_ms_p95", Stat.p95 load.commits_ms, "ms");
                        ("durable.commit_ms", Stat.mean !commit_ms, "ms");
                        ( "durable.wal_bytes_per_commit",
                          (if commits > 0. then wal /. commits else 0.),
                          "bytes" );
                        ( "server.group_size",
                          (let gc = st "group_commits" in
                           if gc > 0. then st "grouped_stmts" /. gc else 0.),
                          "stmts/commit" );
                        ("server.refusals", st "refusals", "count");
                        ("server.errors", st "errors", "count");
                        ("server.overhead_ms", overhead_ms, "ref_ms");
                        ("load.late_ms_p95", Stat.p95 load.late_ms, "ms");
                        ("trace.overhead_frac", t.overhead, "ratio");
                        ( "ops_failed_frac",
                          float_of_int failed /. float_of_int (max 1 attempted),
                          "ratio" );
                      ];
                }
      end

(* ---------- output ---------- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result o =
  let metrics =
    List.map
      (fun (name, v, unit) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct (max 1 o.attempted) o.failed (String.concat ", " metrics)

let () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME olap_embedded|paged_spill|server_mixed");
      ("--seed", Arg.Set_int seed, "N seed for the workload generators");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer run");
      ( "--scale",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> scale := if s = "tiny" then Dataset.tiny else Dataset.full),
        " data size (tiny: self-check)" );
      ("--eagerdb", Arg.Set_string eagerdb, "PATH the eagerdb binary (server_mixed)");
      ("--out", Arg.Set_string out_dir, "DIR traces and scratch files");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "eagerbench.exe [options]";
  let run_dir =
    Filename.concat !out_dir (Printf.sprintf "run-%s-%d" !workload (Unix.getpid ()))
  in
  mkdir_p run_dir;
  let run () =
    match !workload with
    | "olap_embedded" -> embedded ~run_dir ~paged:false
    | "paged_spill" -> embedded ~run_dir ~paged:true
    | "server_mixed" -> server_mixed ~run_dir
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  let o = Fun.protect ~finally:(fun () -> rm_rf run_dir) run in
  print_result o;
  exit (if o.correct then 0 else 1)
