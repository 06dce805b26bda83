(* The shared dataset: three lib/workload generators merged into one
   database whose table names do not overlap.

   - sales  Orders ⋈ Customer: many orders per customer, so grouping
            before the join shrinks the join input (E2 should win);
   - fig8   the paper's Figure 8 (Contrived A ⋈ B): the rewrite is valid
            but grouping A barely reduces it while the join would cut it
            to a few rows (E1 should win);
   - star   Part ⋈ Supplier ⋈ Region: the full push is invalid but a
            partial pre-aggregation below both joins is sound (E2p should
            win).

   The seed feeds only the generators; the engine sees plain tables. *)

open Eager_value
open Eager_catalog
open Eager_storage
open Eager_workload

type scale = { orders : int; customers : int; a_rows : int; parts : int }

(* ~10^5 fact rows per dataset.  fig8 keeps the figure's shape: A has
   0.9 groups per row and joins only 50 rows of a 100-row B. *)
let full = { orders = 100_000; customers = 1_700; a_rows = 100_000; parts = 100_000 }
let tiny = { orders = 2_000; customers = 40; a_rows = 2_000; parts = 2_000 }

type query = { name : string; sql : string }

let queries =
  [
    {
      name = "sales";
      sql =
        "SELECT C.CustID, C.Name, SUM(O.Amount) AS revenue, COUNT(O.OrderID) \
         AS order_count FROM Orders O, Customer C WHERE O.CustID = C.CustID \
         GROUP BY C.CustID, C.Name";
    };
    {
      name = "fig8";
      sql =
        "SELECT A.j, SUM(A.v) AS total_v FROM A A, B B WHERE A.j = B.k GROUP \
         BY A.j";
    };
    {
      name = "star";
      sql =
        "SELECT G.RegionName, SUM(P.Qty) AS total_qty, COUNT(P.PartNo) AS \
         parts FROM Part P, Supplier S, Region G WHERE P.SupplierNo = \
         S.SupplierNo AND S.RegionNo = G.RegionNo GROUP BY G.RegionName";
    };
  ]

(* tables in load order: a referenced table precedes its referrers *)
let load_order = [ "Customer"; "Orders"; "B"; "A"; "Region"; "Supplier"; "Part" ]

let build ?storage ~seed scale =
  let sales =
    Sales.setup ~seed ~customers:scale.customers ~orders:scale.orders ()
  in
  let fig8 =
    Contrived.setup ~seed:(seed + 1) ~a_rows:scale.a_rows
      ~a_groups:(scale.a_rows * 9 / 10) ()
  in
  let star = Star.setup ~seed:(seed + 2) ~parts:scale.parts () in
  let sources = [ sales.Sales.db; fig8.Contrived.db; star.Star.db ] in
  let db = Database.create ?storage () in
  List.iter
    (fun name ->
      let src =
        List.find
          (fun s -> Catalog.find_table (Database.catalog s) name <> None)
          sources
      in
      Option.iter (Database.create_table db)
        (Catalog.find_table (Database.catalog src) name);
      let rows = Heap.fold (fun acc r -> Array.to_list r :: acc) [] (Database.heap src name) in
      Database.load db name (List.rev rows))
    load_order;
  db

(* the first OrderID above every generated one, for the anonymous orders
   the server workload inserts *)
let next_order_id scale = scale.orders + 1

(* An order-insensitive fingerprint of a result: each row rendered cell by
   cell exactly as the server renders it, rows sorted, the lot digested.
   Comparing it with a server response checks the served rows without
   trusting the server's plan choice or output order. *)
let checksum_cells rows =
  let lines = List.map (String.concat "\x1f") rows in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

let checksum_heap heap =
  checksum_cells
    (Heap.fold
       (fun acc r -> Array.to_list (Array.map Value.to_string r) :: acc)
       [] heap)

(* [split_cells "a | b"] = ["a "; " b"]: the server joins cells with " | " *)
let split_cells l =
  let n = String.length l in
  let rec go start i acc =
    if i + 3 > n then List.rev (String.sub l start (n - start) :: acc)
    else if String.sub l i 3 = " | " then
      go (i + 3) (i + 3) (String.sub l start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* the rows of a rendered server table: the lines between the "-+-"
   rule under the header and the "(N rows)" footer *)
let parse_table text =
  let lines = String.split_on_char '\n' text in
  let rec skip = function
    | l :: rest ->
        if String.length l > 0 && String.for_all (fun c -> c = '-' || c = '+') l
        then rows [] rest
        else skip rest
    | [] -> None
  and rows acc = function
    | l :: _ when String.length l > 0 && l.[0] = '(' -> (
        match Scanf.sscanf_opt l "(%d rows)" (fun n -> n) with
        | Some n when n = List.length acc -> Some (List.rev acc)
        | _ -> None)
    | l :: rest ->
        rows (List.map String.trim (split_cells l) :: acc) rest
    | [] -> None
  in
  skip lines

(* the order one cycle runs the queries in, drawn from the seed *)
let shuffle g l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Gen.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
