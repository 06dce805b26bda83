(* The one SELECT/EXPLAIN path, shared by the CLI (bin/eagerdb.ml) and
   the session server: canonicalise, let the planner decide E1/E2/E2p,
   execute under the statement's governor, and render the reply text. *)

open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt
open Eager_parser
open Eager_robust

let render_table buf heap =
  let schema = Heap.schema heap in
  let headers =
    Array.map (fun (c, _) -> Eager_schema.Colref.to_string c)
      (Eager_schema.Schema.cols schema)
  in
  let rows =
    Heap.to_list heap
    |> List.map (fun row -> Array.map Eager_value.Value.to_string row)
  in
  let ncols = Array.length headers in
  let widths = Array.map String.length headers in
  List.iter
    (fun row ->
      Array.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)) row)
    rows;
  let line cells =
    String.concat " | "
      (List.init ncols (fun i ->
           let s = if i < Array.length cells then cells.(i) else "" in
           s ^ String.make (widths.(i) - String.length s) ' '))
  in
  let out s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  out (line headers);
  out
    (String.concat "-+-"
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter (fun r -> out (line r)) rows;
  Buffer.add_string buf (Printf.sprintf "(%d rows)\n" (List.length rows))

type show = Results | Explain | Explain_analyze

let run db (q : Binder.bound_query) ~governor ~order ~show buf =
  let ( let* ) = Err.( let* ) in
  let bprintf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* on a paged database the breakers get a fresh spill budget and the
     planner costs page IOs *)
  let options =
    { Exec.default_options with governor; spill = Spill.for_db db }
  in
  let io = Cost.default_io db in
  let checked plan k =
    let* heap, stats = Exec.run_checked ~options db plan in
    k (heap, stats);
    Ok ()
  in
  let analyze plan =
    let t0 = Clock.now_ms () in
    checked (Binder.apply_order order plan) (fun (heap, stats) ->
        bprintf "%s(%d rows in %.2f ms)\n" (Optree.to_string stats)
          (Heap.length heap)
          (Clock.now_ms () -. t0))
  in
  let finish plan =
    match show with
    | Explain ->
        bprintf "%s\n"
          (Eager_algebra.Plan.to_string (Binder.apply_order order plan));
        Ok ()
    | Explain_analyze -> analyze plan
    | Results ->
        checked (Binder.apply_order order plan) (fun (heap, _) ->
            render_table buf heap)
  in
  match q with
  | Binder.Grouped input -> (
      match Canonical.of_input db input with
      | Ok cq -> (
          let* decision = Planner.decide ~governor ?io db cq in
          match show with
          | Explain ->
              Buffer.add_string buf (Explain.text db decision);
              if order <> [] then bprintf "-- final output sorted per ORDER BY\n";
              Ok ()
          | Explain_analyze ->
              bprintf "-- plan: %s\n"
                (Planner.kind_to_string decision.Planner.chosen_kind);
              analyze decision.Planner.chosen
          | Results ->
              let plan = Binder.apply_order order decision.Planner.chosen in
              checked plan (fun (heap, _) ->
                  render_table buf heap;
                  bprintf "-- plan: %s\n"
                    (Planner.kind_to_string decision.Planner.chosen_kind)))
      | Error reason -> (
          (* outside the canonical class: run the straightforward plan *)
          match Binder.to_plan db q with
          | Ok plan ->
              if show <> Results then
                bprintf "-- not in the transformable class: %s\n" reason;
              finish plan
          | Error msg -> Error (Err.bind "%s" msg)))
  | _ -> (
      match Binder.to_plan db q with
      | Ok plan -> finish plan
      | Error msg -> Error (Err.bind "%s" msg))

let describe_outcome buf = function
  | Binder.Created msg -> Buffer.add_string buf (msg ^ "\n")
  | Binder.Inserted n -> Buffer.add_string buf (Printf.sprintf "%d row(s) inserted\n" n)
  | Binder.Updated n -> Buffer.add_string buf (Printf.sprintf "%d row(s) updated\n" n)
  | Binder.Deleted n -> Buffer.add_string buf (Printf.sprintf "%d row(s) deleted\n" n)
  | Binder.Checkpointed lsn ->
      Buffer.add_string buf (Printf.sprintf "checkpointed at wal lsn %d\n" lsn)
  | Binder.Backed_up { dir; lsn } ->
      Buffer.add_string buf
        (Printf.sprintf "backup written to %s at wal lsn %d\n" dir lsn)
  | Binder.Promoted lsn ->
      Buffer.add_string buf
        (Printf.sprintf "promoted to primary at wal lsn %d\n" lsn)
  | Binder.Query _ | Binder.Explained _ -> ()
