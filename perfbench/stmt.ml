(* The statement path the CLI and the server run for a SELECT, called
   layer by layer from here so a traced run can time each call:

     Parser.parse_statement → Binder.exec_statement → Canonical.of_input
     → Planner.decide → Exec.run_checked

   Without a trace the calls are made exactly as the CLI makes them.  With
   one, each call is wrapped in a span named after the per-layer metric
   it feeds, and the table statistics the planner would compute lazily
   are computed first under their own span, so a cold statistics cache
   shows as storage time rather than planning time. *)

open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt
open Eager_parser
open Eager_robust

type trace = { mutable spans : (string * float) list; mutable peak_live : int }

let new_trace () = { spans = []; peak_live = 0 }

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let r, ms = Stat.time f in
      t.spans <- (name, ms) :: t.spans;
      r

type outcome = {
  heap : Heap.t;
  tree : Optree.t;
  query : Canonical.t;
  decision : Planner.decision;
}

let ( let* ) = Result.bind

(* [f] over [l], stopping at the first error *)
let map_ok f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

(* a fresh governor per statement, as the CLI and the server make one;
   the benchmark sets no limits *)
let governor () = Governor.create Governor.no_limits

let decide ?tr ?force db sql =
  let* stmt =
    span tr "parser.parse_ms" (fun () ->
        try Ok (Parser.parse_statement sql)
        with Parser.Parse_error m -> Error ("parse: " ^ m))
  in
  let* bound = span tr "parser.bind_ms" (fun () -> Binder.exec_statement db stmt) in
  match bound with
  | Binder.Query (Binder.Grouped input, order) ->
      let* cq = span tr "core.canonical_ms" (fun () -> Canonical.of_input db input) in
      if tr <> None then
        span tr "storage.stats_ms" (fun () ->
            List.iter
              (fun (s : Canonical.source) -> ignore (Database.stats db s.table))
              input.Canonical.sources);
      let governor = governor () in
      let io = Cost.default_io db in
      let* decision =
        span tr "opt.decide_ms" (fun () ->
            Result.map_error Err.to_string
              (Planner.decide ~governor ?io ?force db cq))
      in
      Ok (governor, order, cq, decision)
  | _ -> Error ("not a grouped query: " ^ sql)

let run_plan ?tr ?(governor = governor ()) db plan =
  let options = { Exec.default_options with governor; spill = Spill.for_db db } in
  span tr "exec.run_ms" (fun () ->
      Result.map_error Err.to_string
        (match tr with
        | None -> Exec.run_checked ~options db plan
        | Some t ->
            Err.protect ~kind:Err.Exec (fun () ->
                let heap, tree, _, prof = Exec.run_profiled ~options db plan in
                t.peak_live <- prof.Exec.peak_live_rows;
                (heap, tree))))

(* one SELECT, SQL text in, rows out *)
let execute ?tr ?force db sql =
  let* governor, order, query, decision = decide ?tr ?force db sql in
  let plan = Binder.apply_order order decision.Planner.chosen in
  let* heap, tree = run_plan ?tr ~governor db plan in
  Ok { heap; tree; query; decision }

(* a stable identifier for a ranked plan: its printed form, digested *)
let fingerprint plan =
  String.sub (Digest.to_hex (Digest.string (Eager_algebra.Plan.to_string plan))) 0 12
