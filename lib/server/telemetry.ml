(* Per-session and server-wide telemetry counters.  One mutex guards the
   whole registry: contention is negligible (a handful of increments per
   statement) and a single lock keeps the global aggregates exactly the
   sum of what the sessions reported. *)

type session = {
  id : int;
  mutable queries : int; (* statements answered successfully *)
  mutable rows_pulled : int; (* governor row charge across its queries *)
  mutable batches : int; (* batches pulled through cursor boundaries *)
  mutable wal_bytes : int; (* log bytes this session's writes produced *)
  mutable refusals : int; (* admission refusals (shed load) *)
  mutable degradations : int; (* typed Resource errors mid-execution *)
  mutable errors : int; (* every other typed error *)
}

type t = {
  mu : Mutex.t;
  mutable next_id : int;
  mutable live : session list;
  (* global aggregates, including contributions of departed sessions *)
  mutable g_queries : int;
  mutable g_rows : int;
  mutable g_wal_bytes : int;
  mutable g_refusals : int;
  mutable g_degradations : int;
  mutable g_errors : int;
  mutable g_group_commits : int;
  mutable g_grouped_stmts : int;
  mutable g_connected : int; (* sessions ever accepted *)
  mutable g_fenced : int; (* writes refused because the node is fenced/standby *)
}

let create () =
  {
    mu = Mutex.create ();
    next_id = 0;
    live = [];
    g_queries = 0;
    g_rows = 0;
    g_wal_bytes = 0;
    g_refusals = 0;
    g_degradations = 0;
    g_errors = 0;
    g_group_commits = 0;
    g_grouped_stmts = 0;
    g_connected = 0;
    g_fenced = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let connect t =
  locked t (fun () ->
      t.next_id <- t.next_id + 1;
      t.g_connected <- t.g_connected + 1;
      let s =
        {
          id = t.next_id;
          queries = 0;
          rows_pulled = 0;
          batches = 0;
          wal_bytes = 0;
          refusals = 0;
          degradations = 0;
          errors = 0;
        }
      in
      t.live <- s :: t.live;
      s)

let disconnect t s =
  locked t (fun () -> t.live <- List.filter (fun x -> x.id <> s.id) t.live)

let session_id s = s.id

let query_served t s ~rows_pulled ~batches =
  locked t (fun () ->
      s.queries <- s.queries + 1;
      s.rows_pulled <- s.rows_pulled + rows_pulled;
      s.batches <- s.batches + batches;
      t.g_queries <- t.g_queries + 1;
      t.g_rows <- t.g_rows + rows_pulled)

let write_committed t s ~wal_bytes =
  locked t (fun () ->
      s.wal_bytes <- s.wal_bytes + wal_bytes;
      t.g_wal_bytes <- t.g_wal_bytes + wal_bytes)

let budget_refused t s =
  locked t (fun () ->
      s.refusals <- s.refusals + 1;
      t.g_refusals <- t.g_refusals + 1)

let degraded t s =
  locked t (fun () ->
      s.degradations <- s.degradations + 1;
      t.g_degradations <- t.g_degradations + 1)

let errored t s =
  locked t (fun () ->
      s.errors <- s.errors + 1;
      t.g_errors <- t.g_errors + 1)

let fenced_refused t = locked t (fun () -> t.g_fenced <- t.g_fenced + 1)

let group_commit t ~statements =
  locked t (fun () ->
      t.g_group_commits <- t.g_group_commits + 1;
      t.g_grouped_stmts <- t.g_grouped_stmts + statements)

let session_line s =
  Printf.sprintf
    "session %d: queries=%d rows_pulled=%d batches=%d wal_bytes=%d \
     refusals=%d degraded=%d errors=%d"
    s.id s.queries s.rows_pulled s.batches s.wal_bytes s.refusals
    s.degradations s.errors

let render ?repl ?pool ?stats t ~snapshot_lsn ~sessions ~active ~queued =
  locked t (fun () ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf
           "server: sessions=%d (ever %d) active=%d queued=%d queries=%d \
            rows_pulled=%d wal_bytes=%d group_commits=%d grouped_stmts=%d \
            refusals=%d degraded=%d errors=%d fenced_refused=%d \
            snapshot_lsn=%d\n"
           sessions t.g_connected active queued t.g_queries t.g_rows
           t.g_wal_bytes t.g_group_commits t.g_grouped_stmts t.g_refusals
           t.g_degradations t.g_errors t.g_fenced snapshot_lsn);
      List.iter
        (function
          | Some line ->
              Buffer.add_string buf line;
              Buffer.add_char buf '\n'
          | None -> ())
        [ pool; stats; repl ];
      List.iter
        (fun s ->
          Buffer.add_string buf (session_line s);
          Buffer.add_char buf '\n')
        (List.sort (fun a b -> compare a.id b.id) t.live);
      Buffer.contents buf)
