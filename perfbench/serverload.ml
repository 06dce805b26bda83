(* The server workload's two halves outside the engine: an
   [eagerdb serve] child process, and the load generator that drives it
   over a Unix socket with one closed-loop reader and one open-loop
   writer. *)

open Eager_server
open Eager_workload

type server = { pid : int; addr : Client.addr }

let live = ref []

let reap pid =
  let rec wait deadline =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Stat.now_ms () < deadline ->
        Unix.sleepf 0.02;
        wait deadline
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait (Stat.now_ms () +. 30_000.);
  live := List.filter (( <> ) pid) !live

(* SIGTERM is the server's graceful shutdown; a server that does not
   finish within 30 s is killed *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

let stop s = terminate s.pid
let () = at_exit (fun () -> List.iter terminate !live)

let config addr = Client.config ~timeout_ms:60_000. ~retries:0 ~redirects:0 addr

(* Start [eagerdb serve --db dir] and wait until it accepts a session. *)
let start ~exe ~dir ~sock ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--listen"; "unix:" ^ sock; "--db"; dir |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  live := pid :: !live;
  let s = { pid; addr = Client.A_unix sock } in
  let deadline = Stat.now_ms () +. 120_000. in
  let rec ready () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
        live := List.filter (( <> ) pid) !live;
        Error ("eagerdb serve exited during start-up; see " ^ log)
    | _ -> (
        match Client.connect (config s.addr) with
        | Ok c ->
            Client.close c;
            Ok s
        | Error _ when Stat.now_ms () < deadline ->
            Unix.sleepf 0.02;
            ready ()
        | Error e ->
            stop s;
            Error ("eagerdb serve not ready: " ^ Eager_robust.Err.to_string e))
  in
  ready ()

let request conn sql =
  match Client.request conn sql with
  | Ok (Client.Ok_text text) -> Ok text
  | Ok (Client.Refused { msg; _ }) -> Error ("refused: " ^ msg)
  | Ok (Client.Failed { kind; msg }) -> Error (kind ^ ": " ^ msg)
  | Error e -> Error (Eager_robust.Err.to_string e)

let with_conn addr f =
  match Client.connect (config addr) with
  | Error e -> Error (Eager_robust.Err.to_string e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* the integer fields of STATUS's "server:" line *)
let status addr =
  Result.bind (with_conn addr (fun c -> request c "STATUS;")) (fun text ->
      let fields =
        String.split_on_char '\n' text
        |> List.concat_map (String.split_on_char ' ')
        |> List.filter_map (fun tok ->
               match String.index_opt tok '=' with
               | None -> None
               | Some i ->
                   Option.map
                     (fun v -> (String.sub tok 0 i, v))
                     (int_of_string_opt
                        (String.sub tok (i + 1) (String.length tok - i - 1))))
      in
      Ok fields)

(* checks a rendered result against the expected (row count, checksum) *)
let matches (rows, sum) text =
  match Dataset.parse_table text with
  | Some cells -> List.length cells = rows && Dataset.checksum_cells cells = sum
  | None -> false

type load = {
  reads : Stat.sample list;  (** client latencies of correct reads *)
  host : Stat.Host.t;  (** probed by the reader after each cycle *)
  read_failed : int;
  wrong : int;  (** reads answered with rows other than expected *)
  commits_ms : float list;  (** each timed from its due time *)
  late_ms : float list;  (** how late the writer sent each insert *)
  acked : int;
  write_failed : int;
  elapsed_s : float;
}

(* Anonymous orders (CustID NULL): they grow Orders, so the server's
   statistics and snapshots go stale, yet they join no customer and no
   query's rows change, so every read stays checkable. *)
let insert_sql g id =
  Printf.sprintf "INSERT INTO Orders VALUES (%d, NULL, %d, %d);" id
    (Gen.int g 500) (1 + Gen.int g 9)

let run ~addr ~seconds ~seed ~rate ~first_id ~(queries : Dataset.query array)
    ~expected =
  let t0 = Stat.now_ms () in
  let t_end = t0 +. (seconds *. 1000.) in
  let reads = ref [] and read_failed = ref 0 and wrong = ref 0 in
  let host = Stat.Host.create () in
  let reader () =
    let g = Gen.make seed in
    ignore
      (with_conn addr (fun c ->
           while Stat.now_ms () < t_end do
             let cycle =
               List.filter_map
                 (fun i ->
                   let r, ms = Stat.time (fun () -> request c queries.(i).Dataset.sql) in
                   match r with
                   | Ok text when matches expected.(i) text -> Some (i, ms)
                   | Ok _ ->
                       incr wrong;
                       None
                   | Error _ ->
                       incr read_failed;
                       None)
                 (Dataset.shuffle g (List.init (Array.length queries) Fun.id))
             in
             let factor = Stat.Host.sample host in
             List.iter (fun (i, ms) -> reads := Stat.sample i ms factor :: !reads) cycle
           done;
           Ok ()))
  in
  let commits = ref [] and late = ref [] and acked = ref 0 and write_failed = ref 0 in
  let writer () =
    let g = Gen.make (seed + 1) in
    let interval = 1000. /. rate in
    ignore
      (with_conn addr (fun c ->
           let rec go i =
             let due = t0 +. (float_of_int i *. interval) in
             if due < t_end then begin
               let now = Stat.now_ms () in
               if due > now then Unix.sleepf ((due -. now) /. 1000.);
               late := Float.max 0. (Stat.now_ms () -. due) :: !late;
               (match request c (insert_sql g (first_id + i)) with
               | Ok _ ->
                   commits := (Stat.now_ms () -. due) :: !commits;
                   incr acked
               | Error _ -> incr write_failed);
               go (i + 1)
             end
           in
           go 0;
           Ok ()))
  in
  let threads = [ Thread.create reader (); Thread.create writer () ] in
  List.iter Thread.join threads;
  {
    reads = List.rev !reads;
    host;
    read_failed = !read_failed;
    wrong = !wrong;
    commits_ms = !commits;
    late_ms = !late;
    acked = !acked;
    write_failed = !write_failed;
    elapsed_s = (Stat.now_ms () -. t0) /. 1000.;
  }

let count_orders addr =
  Result.bind
    (with_conn addr (fun c -> request c "SELECT COUNT(O.OrderID) AS n FROM Orders O;"))
    (fun text ->
      match Dataset.parse_table text with
      | Some [ [ n ] ] -> Option.to_result ~none:("bad count: " ^ n) (int_of_string_opt n)
      | _ -> Error ("unparsable count response: " ^ text))
