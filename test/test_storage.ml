(* Storage tests: heap behaviour, statistics, and insert-time enforcement of
   every SQL2 constraint class. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage

let col name ctype : Table_def.column_def =
  { Table_def.cname = name; ctype; domain = None }

let simple_schema =
  Schema.make
    [ (Colref.make "T" "a", Ctype.Int); (Colref.make "T" "b", Ctype.String) ]

(* ---------------- heap ---------------- *)

let test_heap_basics () =
  let h = Heap.create simple_schema in
  Alcotest.(check int) "empty" 0 (Heap.length h);
  Heap.insert h [| Value.Int 1; Value.Str "x" |];
  Heap.insert h [| Value.Int 2; Value.Str "y" |];
  Alcotest.(check int) "two rows" 2 (Heap.length h);
  Alcotest.(check int) "get" 2
    (match (Heap.get h 1).(0) with Value.Int n -> n | _ -> -1);
  Alcotest.(check int) "fold" 3
    (Heap.fold
       (fun acc row -> acc + match row.(0) with Value.Int n -> n | _ -> 0)
       0 h);
  Alcotest.(check int) "to_list" 2 (List.length (Heap.to_list h));
  Alcotest.(check int) "to_seq" 2 (Seq.length (Heap.to_seq h));
  Alcotest.(check bool) "exists" true
    (Heap.exists (fun r -> Value.null_eq r.(0) (Value.Int 2)) h);
  Alcotest.(check bool) "generation grows" true (Heap.generation h > 0)

let test_heap_growth () =
  let h = Heap.create simple_schema in
  for i = 1 to 1000 do
    Heap.insert h [| Value.Int i; Value.Str "s" |]
  done;
  Alcotest.(check int) "1000 rows survive doubling" 1000 (Heap.length h);
  Alcotest.(check int) "last row intact" 1000
    (match (Heap.get h 999).(0) with Value.Int n -> n | _ -> -1)

let test_heap_arity_check () =
  let h = Heap.create simple_schema in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       Heap.insert h [| Value.Int 1 |];
       false
     with Invalid_argument _ -> true)

(* A lineage token is shared by a heap and its copies while every one
   of them holds a prefix of the original's rows. *)
let test_heap_lineage () =
  let check_backing what mk =
    let row i = [| Value.Int i; Value.Str "s" |] in
    let h = mk () in
    Heap.insert h (row 1);
    let l0 = Heap.lineage h in
    Heap.insert h (row 2);
    Alcotest.(check int) (what ^ ": append keeps it") l0 (Heap.lineage h);
    let c = Heap.copy h in
    Alcotest.(check int) (what ^ ": copy shares it") l0 (Heap.lineage c);
    Heap.insert h (row 3);
    Alcotest.(check int) (what ^ ": owner appends keep it") l0
      (Heap.lineage h);
    Alcotest.(check int) (what ^ ": copy still shares it") l0
      (Heap.lineage c);
    Heap.insert c (row 4);
    let lc = Heap.lineage c in
    Alcotest.(check bool) (what ^ ": written copy diverges") true (lc <> l0);
    Heap.insert c (row 5);
    Alcotest.(check int) (what ^ ": and then owns its token") lc
      (Heap.lineage c);
    Alcotest.(check int) (what ^ ": owner unaffected") l0 (Heap.lineage h);
    let fresh = [ Heap.lineage (mk ()); Heap.lineage (mk ()) ] in
    Alcotest.(check bool) (what ^ ": new heaps are new lineages") true
      (List.for_all (fun l -> l <> l0 && l <> lc) fresh
       && List.nth fresh 0 <> List.nth fresh 1);
    let before = Heap.lineage h in
    Alcotest.(check int) (what ^ ": deleting nothing") 0
      (Heap.delete_where (fun _ -> false) h);
    Alcotest.(check int) (what ^ ": keeps the lineage") before
      (Heap.lineage h);
    ignore (Heap.delete_where (fun r -> r.(0) = Value.Int 2) h);
    let after_delete = Heap.lineage h in
    Alcotest.(check bool) (what ^ ": delete compacts") true
      (after_delete <> before);
    Heap.replace_all h [ row 7 ];
    Alcotest.(check bool) (what ^ ": replace_all compacts") true
      (Heap.lineage h <> after_delete)
  in
  check_backing "ram" (fun () -> Heap.create simple_schema);
  let pool = Buffer_pool.create ~cap:4 () in
  let pager = Pager.create_mem ~page_size:256 () in
  check_backing "paged" (fun () -> Heap.create_paged ~pool ~pager simple_schema)

(* ---------------- pages and the buffer pool ---------------- *)

open Eager_robust

let prow a b = [| Value.Int a; Value.Str b |]

let rows_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Row.equal a b

let test_page_roundtrip () =
  let rows =
    [|
      [| Value.Int 1; Value.Str "x" |];
      [| Value.Null; Value.Float 2.5 |];
      [| Value.Bool true; Value.Str "" |];
    |]
  in
  let img = Page.encode ~page_size:512 ~id:7 rows in
  Alcotest.(check int) "image is page-sized" 512 (Bytes.length img);
  Alcotest.(check bool) "decode round-trips" true
    (rows_equal rows (Page.decode ~page_size:512 ~id:7 img));
  (* wrong id refused: a page read from the wrong offset must not decode *)
  Alcotest.(check bool) "wrong id refused" true
    (match Page.decode ~page_size:512 ~id:8 img with
    | _ -> false
    | exception Err.Error_exn e -> Err.kind e = Err.Storage)

(* every single byte of the image — header, payload, padding, checksum —
   is covered: flip it and the read must refuse with a typed Storage
   error; flip it back and the page must read cleanly again *)
let test_corruption_every_byte () =
  let page_size = 256 in
  let pool = Buffer_pool.create () in
  let pgr = Pager.create_mem ~page_size () in
  let id =
    Buffer_pool.append_page pool pgr [| prow 1 "hello"; prow 2 "world" |]
  in
  for pos = 0 to page_size - 1 do
    Pager.corrupt_byte pgr id ~pos;
    (match Buffer_pool.read_page pool pgr id with
    | _ -> Alcotest.failf "byte %d: corruption accepted" pos
    | exception Err.Error_exn e ->
        if Err.kind e <> Err.Storage then
          Alcotest.failf "byte %d: kind %s, want Storage" pos
            (Err.kind_to_string (Err.kind e)));
    (* XOR is an involution: restore and prove the refusal was the flip *)
    Pager.corrupt_byte pgr id ~pos
  done;
  Alcotest.(check bool) "intact again after restores" true
    (rows_equal
       [| prow 1 "hello"; prow 2 "world" |]
       (Buffer_pool.read_page pool pgr id))

let test_pinned_never_evicted () =
  let pool = Buffer_pool.create ~cap:2 () in
  let pgr = Pager.create_mem ~page_size:256 () in
  let a = Buffer_pool.alloc pool pgr [| prow 1 "a" |] in
  let b = Buffer_pool.alloc pool pgr [| prow 2 "b" |] in
  let rows_a = Buffer_pool.pin pool pgr a in
  Alcotest.(check bool) "pin sees the page" true
    (rows_equal [| prow 1 "a" |] rows_a);
  (* allocating a third page must evict the unpinned b, never pinned a *)
  let c = Buffer_pool.alloc pool pgr [| prow 3 "c" |] in
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one eviction" 1 s.Buffer_pool.evictions;
  Alcotest.(check bool) "evicted page written back and readable" true
    (rows_equal [| prow 2 "b" |] (Buffer_pool.read_page pool pgr b));
  (* a stayed resident through the eviction: re-pin is a hit *)
  let hits0 = (Buffer_pool.stats pool).Buffer_pool.hits in
  ignore (Buffer_pool.pin pool pgr a);
  Buffer_pool.unpin pool pgr a;
  Alcotest.(check int) "re-pin of pinned page is a hit" (hits0 + 1)
    (Buffer_pool.stats pool).Buffer_pool.hits;
  (* with every frame pinned, a further pin is a typed Resource error *)
  ignore (Buffer_pool.pin pool pgr c);
  Alcotest.(check bool) "pool of pinned pages refuses with Resource" true
    (match Buffer_pool.pin pool pgr b with
    | _ -> false
    | exception Err.Error_exn e -> Err.kind e = Err.Resource);
  Buffer_pool.unpin pool pgr c;
  Buffer_pool.unpin pool pgr a;
  (* all unpinned again: the pin succeeds by evicting *)
  ignore (Buffer_pool.pin pool pgr b);
  Buffer_pool.unpin pool pgr b;
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "peak pinned tracked" true
    (s.Buffer_pool.peak_pinned >= 2)

let test_lru_replacement () =
  let pool = Buffer_pool.create ~cap:3 () in
  let pgr = Pager.create_mem ~page_size:256 () in
  let ids = Array.init 3 (fun k -> Buffer_pool.alloc pool pgr [| prow k "p" |]) in
  (* touch page 0 so it is the most recently used *)
  ignore (Buffer_pool.with_page pool pgr ids.(0) Fun.id);
  (* force an eviction; the victim must not be page 0 *)
  ignore (Buffer_pool.alloc pool pgr [| prow 9 "q" |]);
  let misses0 = (Buffer_pool.stats pool).Buffer_pool.misses in
  ignore (Buffer_pool.with_page pool pgr ids.(0) Fun.id);
  Alcotest.(check int) "recently-used page survived the eviction" misses0
    (Buffer_pool.stats pool).Buffer_pool.misses;
  (* reservations compete with frames for the cap *)
  Alcotest.(check bool) "over-cap reservation refused with Resource" true
    (match Buffer_pool.reserve pool 4 with
    | () -> false
    | exception Err.Error_exn e -> Err.kind e = Err.Resource);
  Buffer_pool.reserve pool 2;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "reserved pages counted" 2 s.Buffer_pool.reserved;
  Alcotest.(check bool) "reserved pages count into pinned" true
    (s.Buffer_pool.pinned >= 2);
  Buffer_pool.release pool 2;
  Alcotest.(check int) "release returns the pages" 0
    (Buffer_pool.stats pool).Buffer_pool.reserved

(* ---------------- stats ---------------- *)

let test_stats () =
  let h = Heap.create simple_schema in
  List.iter (Heap.insert h)
    [
      [| Value.Int 1; Value.Str "x" |];
      [| Value.Int 1; Value.Str "y" |];
      [| Value.Int 2; Value.Str "x" |];
      [| Value.Null; Value.Str "x" |];
    ];
  let s = Stats.collect h in
  Alcotest.(check int) "row count" 4 (Stats.row_count s);
  Alcotest.(check int) "ndv a" 2 (Stats.col s 0).Stats.ndv;
  Alcotest.(check int) "nulls a" 1 (Stats.col s 0).Stats.nulls;
  Alcotest.(check int) "ndv b" 2 (Stats.col s 1).Stats.ndv;
  Alcotest.(check bool) "min a" true
    (Value.null_eq (Stats.col s 0).Stats.min_v (Value.Int 1));
  Alcotest.(check bool) "max a" true
    (Value.null_eq (Stats.col s 0).Stats.max_v (Value.Int 2));
  (* distinct combinations: capped at row count *)
  Alcotest.(check int) "ndv over (a,b)" 4 (Stats.ndv_of_cols s [| 0; 1 |]);
  Alcotest.(check int) "ndv of no columns" 1 (Stats.ndv_of_cols s [||])

(* Stats.extend against Stats.collect: statistics extended from a
   prefix must equal statistics collected from scratch, bit for bit,
   over values that stress the NDV equality (NULL, NaN, -0.0 vs 0, Int
   vs whole Float at and beyond 2^53, Str, Bool) and histogram ranges
   that move or stay put. *)

let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_value a b =
  match a, b with
  | Value.Float x, Value.Float y -> same_float x y
  | Value.Float _, _ | _, Value.Float _ -> false
  | _ -> a = b

let same_col (a : Stats.col_stats) (b : Stats.col_stats) =
  a.Stats.ndv = b.Stats.ndv && a.Stats.nulls = b.Stats.nulls
  && same_value a.Stats.min_v b.Stats.min_v
  && same_value a.Stats.max_v b.Stats.max_v
  &&
  match a.Stats.hist, b.Stats.hist with
  | None, None -> true
  | Some x, Some y ->
      same_float x.Stats.lo y.Stats.lo && same_float x.Stats.hi y.Stats.hi
      && x.Stats.counts = y.Stats.counts && x.Stats.total = y.Stats.total
  | _ -> false

let stats_diff arity a b =
  if Stats.row_count a <> Stats.row_count b then
    Some (Printf.sprintf "rows %d vs %d" (Stats.row_count a) (Stats.row_count b))
  else
    List.find_map
      (fun i ->
        if same_col (Stats.col a i) (Stats.col b i) then None
        else
          Some
            (Format.asprintf "column %d differs: %a vs %a" i Stats.pp a
               Stats.pp b))
      (List.init arity Fun.id)

let two53 = 9007199254740992

let diff_pools =
  let open Value in
  [|
    (* numeric, with every NDV corner *)
    [| Null; Float Float.nan; Float (-0.); Int 0; Float 0.; Int 1; Float 1.;
       Int two53; Float (float_of_int two53); Int (two53 + 1);
       Int (two53 + 2); Float (float_of_int two53 +. 2.);
       Float (2. *. float_of_int two53); Int (-7); Float 2.5;
       Float (-3.25); Float Float.infinity; Float Float.neg_infinity |];
    (* a narrow integer range: histograms mostly keep their buckets *)
    [| Null; Int 0; Int 1; Int 2; Int 3; Int 4; Int 5 |];
    [| Null; Str ""; Str "a"; Str "b"; Str "ab" |];
    [| Null; Bool true; Bool false |];
    (* one column holding every type at once *)
    [| Null; Int 3; Float 3.; Float Float.nan; Str "a"; Bool false;
       Float (-0.); Int (two53 + 1) |];
  |]

let diff_schema =
  Schema.make
    (List.mapi
       (fun i t -> (Colref.make "D" (Printf.sprintf "c%d" i), t))
       [ Ctype.Float; Ctype.Int; Ctype.String; Ctype.Bool; Ctype.Float ])

let random_row st =
  Array.map (fun pool -> pool.(Random.State.int st (Array.length pool))) diff_pools

(* An oracle sharing no code with Stats: quadratic distinct count
   under key_equal, first-occurrence min/max, and the count of numeric
   values a histogram must summarise. *)
let naive_col rows i =
  let vals =
    List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> r.(i)) rows)
  in
  let distinct =
    List.fold_left
      (fun acc v -> if List.exists (Value.key_equal v) acc then acc else v :: acc)
      [] vals
  in
  let pick better =
    List.fold_left
      (fun acc v ->
        if Value.is_null acc || better (Value.compare_total v acc) then v
        else acc)
      Value.Null vals
  in
  let numeric = function Value.Int _ | Value.Float _ -> true | _ -> false in
  let min_v = pick (fun c -> c < 0) and max_v = pick (fun c -> c > 0) in
  ( List.length distinct,
    List.length rows - List.length vals,
    min_v,
    max_v,
    if numeric min_v && numeric max_v then
      List.length (List.filter numeric vals)
    else 0 )

let check_naive what h =
  let s = Stats.collect h in
  let rows = Heap.to_list h in
  Array.iteri
    (fun i _ ->
      let ndv, nulls, min_v, max_v, total = naive_col rows i in
      let c = Stats.col s i in
      let got_total = match c.Stats.hist with Some x -> x.Stats.total | None -> 0 in
      if not (c.Stats.ndv = ndv && c.Stats.nulls = nulls
              && same_value c.Stats.min_v min_v && same_value c.Stats.max_v max_v
              && got_total = total)
      then
        Alcotest.failf "%s: column %d: ndv %d/%d nulls %d/%d min %s/%s max %s/%s total %d/%d"
          what i c.Stats.ndv ndv c.Stats.nulls nulls
          (Value.to_string c.Stats.min_v) (Value.to_string min_v)
          (Value.to_string c.Stats.max_v) (Value.to_string max_v) got_total total)
    diff_pools

(* rows [0, c1) collected, extended to c2, then to n *)
let check_extend ~paged st ~n ~c1 ~c2 =
  let h =
    if paged then
      Heap.create_paged
        ~pool:(Buffer_pool.create ~cap:4 ())
        ~pager:(Pager.create_mem ~page_size:256 ())
        diff_schema
    else Heap.create diff_schema
  in
  let rows = Array.init n (fun _ -> random_row st) in
  let fill lo hi =
    for i = lo to hi - 1 do
      Heap.insert h rows.(i)
    done
  in
  let arity = Array.length diff_pools in
  let check what got =
    match stats_diff arity got (Stats.collect h) with
    | None -> ()
    | Some d ->
        Alcotest.failf "%s (paged=%b n=%d c1=%d c2=%d): %s" what paged n c1 c2
          d
  in
  fill 0 c1;
  let s1 = Stats.collect h in
  fill c1 c2;
  let s2 = Stats.extend s1 h in
  check "extend once" s2;
  fill c2 n;
  check "extend twice" (Stats.extend s2 h);
  check "extend from the start" (Stats.extend s1 h);
  check_naive (Printf.sprintf "collect (paged=%b n=%d)" paged n) h

let test_stats_extend_differential () =
  let st = Random.State.make [| 20261017 |] in
  List.iter
    (fun paged ->
      (* empty prefix, empty delta, both, and a one-row delta *)
      List.iter
        (fun (n, c1, c2) -> check_extend ~paged st ~n ~c1 ~c2)
        [ (0, 0, 0); (30, 0, 0); (30, 0, 30); (30, 30, 30); (30, 12, 12);
          (30, 29, 29); (300, 299, 299); (300, 0, 150) ];
      for _ = 1 to 150 do
        let n = Random.State.int st 120 in
        let c1 = Random.State.int st (n + 1) in
        let c2 = c1 + Random.State.int st (n - c1 + 1) in
        check_extend ~paged st ~n ~c1 ~c2
      done)
    [ false; true ];
  Alcotest.check_raises "prefix longer than the heap"
    (Invalid_argument
       "Stats.extend: statistics cover more rows than the heap")
    (fun () ->
      let h = Heap.create diff_schema in
      Heap.insert h (random_row st);
      let s = Stats.collect h in
      ignore (Stats.extend s (Heap.create diff_schema)))

(* ---------------- database constraint enforcement ---------------- *)

let make_db () =
  let db = Database.create () in
  Database.create_domain db
    {
      Catalog.dname = "Pos";
      dtype = Ctype.Int;
      dcheck = Some (Expr.Cmp (Expr.Gt, Expr.col "" "VALUE", Expr.int 0));
    };
  Database.create_table db
    (Table_def.make "Parent"
       [ col "pk" Ctype.Int; col "label" Ctype.String ]
       [ Constr.Primary_key [ "pk" ] ]);
  Database.create_table db
    (Table_def.make "Child"
       [
         col "id" Ctype.Int;
         col "uniq" Ctype.Int;
         col "parent" Ctype.Int;
         { Table_def.cname = "amount"; ctype = Ctype.Int; domain = Some "Pos" };
         col "must" Ctype.String;
       ]
       [
         Constr.Primary_key [ "id" ];
         Constr.Unique [ "uniq" ];
         Constr.Not_null "must";
         Constr.Check (Expr.Cmp (Expr.Lt, Expr.col "" "amount", Expr.int 100));
         Constr.Foreign_key
           { cols = [ "parent" ]; ref_table = "Parent"; ref_cols = [ "pk" ] };
       ]);
  Database.insert_exn db "Parent" [ Value.Int 1; Value.Str "one" ];
  Database.insert_exn db "Parent" [ Value.Int 2; Value.Str "two" ];
  db

let ok_row ?(id = 10) ?(uniq = Value.Int 10) ?(parent = Value.Int 1)
    ?(amount = Value.Int 5) ?(must = Value.Str "m") () =
  [ Value.Int id; uniq; parent; amount; must ]

let expect_error db table row msg_part =
  match Database.insert db table row with
  | Ok () -> Alcotest.fail ("expected rejection: " ^ msg_part)
  | Error e ->
      let msg = Eager_robust.Err.to_string e in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg msg_part)
        true (contains msg msg_part)

let test_insert_ok () =
  let db = make_db () in
  Alcotest.(check bool) "clean insert" true
    (Result.is_ok (Database.insert db "Child" (ok_row ())));
  Alcotest.(check int) "row landed" 1 (Database.row_count db "Child")

let test_primary_key () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ());
  expect_error db "Child" (ok_row ~uniq:(Value.Int 11) ()) "duplicate key";
  (* PK columns are NOT NULL *)
  expect_error db "Child"
    [ Value.Null; Value.Int 12; Value.Int 1; Value.Int 5; Value.Str "m" ]
    "cannot be NULL"

let test_unique_null_semantics () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:Value.Null ());
  (* SQL2 UNIQUE treats NULL as distinct from NULL: a second NULL is fine *)
  Alcotest.(check bool) "second NULL in UNIQUE column accepted" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~id:2 ~uniq:Value.Null ())));
  Database.insert_exn db "Child" (ok_row ~id:3 ~uniq:(Value.Int 7) ());
  expect_error db "Child" (ok_row ~id:4 ~uniq:(Value.Int 7) ()) "duplicate key"

let test_not_null () =
  let db = make_db () in
  expect_error db "Child" (ok_row ~must:Value.Null ()) "cannot be NULL"

let test_check_constraints () =
  let db = make_db () in
  (* CHECK (amount < 100) *)
  expect_error db "Child" (ok_row ~amount:(Value.Int 150) ()) "constraint violated";
  (* domain check (amount > 0) *)
  expect_error db "Child" (ok_row ~amount:(Value.Int 0) ()) "constraint violated";
  (* SQL2: CHECK evaluating to unknown (NULL amount) is satisfied *)
  Alcotest.(check bool) "NULL passes CHECK" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~amount:Value.Null ())))

let test_foreign_key () =
  let db = make_db () in
  expect_error db "Child" (ok_row ~parent:(Value.Int 99) ()) "foreign key";
  (* NULL foreign keys are always allowed *)
  Alcotest.(check bool) "NULL FK accepted" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~parent:Value.Null ())));
  (* late parents work: the key index must refresh *)
  Database.insert_exn db "Parent" [ Value.Int 3; Value.Str "three" ];
  Alcotest.(check bool) "new parent visible" true
    (Result.is_ok
       (Database.insert db "Child" (ok_row ~id:11 ~uniq:(Value.Int 11)
          ~parent:(Value.Int 3) ())))

let test_type_checking () =
  let db = make_db () in
  expect_error db "Child"
    [ Value.Str "nope"; Value.Int 1; Value.Int 1; Value.Int 5; Value.Str "m" ]
    "does not fit type";
  expect_error db "Child" [ Value.Int 1 ] "arity mismatch";
  expect_error db "Nope" (ok_row ()) "unknown table"

let test_stats_cache () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ());
  let s1 = Database.stats db "Child" in
  Alcotest.(check int) "one row" 1 (Stats.row_count s1);
  Database.insert_exn db "Child" (ok_row ~id:20 ~uniq:(Value.Int 20) ());
  let s2 = Database.stats db "Child" in
  Alcotest.(check int) "cache invalidated on growth" 2 (Stats.row_count s2)

let test_histogram () =
  let schema = Schema.make [ (Colref.make "T" "v", Ctype.Int) ] in
  let h = Heap.create schema in
  (* skew: 90 values in [0,10), 10 values in [90,100) *)
  for i = 0 to 89 do
    Heap.insert h [| Value.Int (i mod 10) |]
  done;
  for i = 0 to 9 do
    Heap.insert h [| Value.Int (90 + i) |]
  done;
  let s = Stats.collect h in
  match (Stats.col s 0).Stats.hist with
  | None -> Alcotest.fail "numeric column should have a histogram"
  | Some hist ->
      Alcotest.(check int) "summarises all values" 100 hist.Stats.total;
      let below v = Stats.fraction_below hist v in
      Alcotest.(check bool)
        (Printf.sprintf "~90%% below 50 (got %.2f)" (below 50.))
        true
        (below 50. > 0.85 && below 50. < 0.95);
      Alcotest.(check (float 1e-9)) "nothing below min" 0. (below 0.);
      Alcotest.(check (float 1e-9)) "everything below max+1" 1. (below 100.);
      Alcotest.(check bool) "monotone" true (below 20. <= below 80.)

let test_histogram_absent_for_strings () =
  let schema = Schema.make [ (Colref.make "T" "s", Ctype.String) ] in
  let h = Heap.create schema in
  Heap.insert h [| Value.Str "x" |];
  let s = Stats.collect h in
  Alcotest.(check bool) "no histogram for strings" true
    ((Stats.col s 0).Stats.hist = None)

(* ---------------- DELETE / UPDATE ---------------- *)

let col_of tname name = Colref.make tname name

let test_delete () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ());
  Database.insert_exn db "Child" (ok_row ~id:3 ~uniq:(Value.Int 3) ~amount:Value.Null ());
  (* delete where id >= 2: the NULL-amount row with id 3 goes too *)
  let where = Expr.Cmp (Expr.Ge, Expr.Col (col_of "Child" "id"), Expr.int 2) in
  (match Database.delete db "Child" ~where () with
  | Ok n -> Alcotest.(check int) "two deleted" 2 n
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  Alcotest.(check int) "one left" 1 (Database.row_count db "Child");
  (* unknown predicate keeps rows: amount = 5 is unknown for NULL amount *)
  Database.insert_exn db "Child" (ok_row ~id:9 ~uniq:(Value.Int 9) ~amount:Value.Null ());
  let where2 =
    Expr.Cmp (Expr.Ne, Expr.Col (col_of "Child" "amount"), Expr.int (-1))
  in
  (match Database.delete db "Child" ~where:where2 () with
  | Ok n -> Alcotest.(check int) "NULL amount row kept (unknown)" 1 n
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  Alcotest.(check int) "NULL row survives" 1 (Database.row_count db "Child")

let test_delete_fk_restrict () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~parent:(Value.Int 1) ());
  (* parent 1 is referenced: deleting it must fail *)
  let where = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 1) in
  (match Database.delete db "Parent" ~where () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "referenced parent must not be deletable");
  (* parent 2 is free *)
  let where2 = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 2) in
  (match Database.delete db "Parent" ~where:where2 () with
  | Ok 1 -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "expected 1, got %d" n)
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  (* after deleting the child, parent 1 becomes deletable *)
  (match Database.delete db "Child" ~where:Expr.etrue () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  match Database.delete db "Parent" ~where () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "parent should now be deletable"

let test_update_basic () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ~amount:(Value.Int 5) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ~amount:(Value.Int 7) ());
  (* amount := amount + 10 where id = 1 *)
  let set =
    [ ("amount",
       Expr.Arith (Expr.Add, Expr.Col (col_of "Child" "amount"), Expr.int 10)) ]
  in
  let where = Expr.eq (Expr.Col (col_of "Child" "id")) (Expr.int 1) in
  (match Database.update db "Child" ~set ~where () with
  | Ok n -> Alcotest.(check int) "one updated" 1 n
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  let h = Database.heap db "Child" in
  let amount_of id =
    let schema = Heap.schema h in
    let idi = Schema.index_of schema (col_of "Child" "id") in
    let ida = Schema.index_of schema (col_of "Child" "amount") in
    let r =
      List.find (fun r -> Value.null_eq r.(idi) (Value.Int id)) (Heap.to_list h)
    in
    r.(ida)
  in
  Alcotest.(check bool) "updated to 15" true (Value.null_eq (amount_of 1) (Value.Int 15));
  Alcotest.(check bool) "other row untouched" true
    (Value.null_eq (amount_of 2) (Value.Int 7))

let test_update_constraint_enforcement () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ());
  let upd set where = Database.update db "Child" ~set ~where () in
  let id_eq n = Expr.eq (Expr.Col (col_of "Child" "id")) (Expr.int n) in
  (* CHECK violated *)
  (match upd [ ("amount", Expr.int 500) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "CHECK must reject 500");
  (* NOT NULL violated *)
  (match upd [ ("must", Expr.Const Value.Null) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "NOT NULL must reject");
  (* key collision *)
  (match upd [ ("id", Expr.int 2) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate PK must reject");
  (* FK violated *)
  (match upd [ ("parent", Expr.int 999) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown parent must reject");
  (* type violated *)
  (match upd [ ("amount", Expr.str "oops") ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "type error must reject");
  (* a failing update leaves the table unchanged *)
  Alcotest.(check int) "no partial effects" 2 (Database.row_count db "Child")

let test_update_incoming_fk () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~parent:(Value.Int 1) ());
  (* changing the referenced key away must fail... *)
  let set = [ ("pk", Expr.int 77) ] in
  let where = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 1) in
  (match Database.update db "Parent" ~set ~where () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "referenced key change must be rejected");
  (* ...but changing an unreferenced one is fine *)
  let where2 = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 2) in
  match Database.update db "Parent" ~set:[ ("pk", Expr.int 88) ] ~where:where2 () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "unreferenced key change should work"

let test_key_index_rebuild_after_delete () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ());
  let where = Expr.eq (Expr.Col (col_of "Child" "id")) (Expr.int 1) in
  (match Database.delete db "Child" ~where () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "delete failed");
  (* the key index must have been invalidated: re-inserting id 1 works *)
  Alcotest.(check bool) "re-insert after delete" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ())))

(* ---------------- secondary indexes ---------------- *)

let test_secondary_index () =
  let db = make_db () in
  (match Database.create_index db ~name:"child_by_parent" ~table:"Child"
           ~cols:[ "parent" ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ~parent:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ~parent:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:3 ~uniq:(Value.Int 3) ~parent:(Value.Int 2) ());
  Database.insert_exn db "Child" (ok_row ~id:4 ~uniq:(Value.Int 4) ~parent:Value.Null ());
  let def =
    Option.get (Database.find_equality_index db ~table:"Child" ~col:"parent")
  in
  Alcotest.(check int) "two rows for parent 1" 2
    (List.length (Database.index_lookup db def [ Value.Int 1 ]));
  Alcotest.(check int) "one row for parent 2" 1
    (List.length (Database.index_lookup db def [ Value.Int 2 ]));
  Alcotest.(check int) "nothing for parent 9" 0
    (List.length (Database.index_lookup db def [ Value.Int 9 ]));
  (* NULL lookups find nothing, and NULL keys are not indexed *)
  Alcotest.(check int) "NULL finds nothing" 0
    (List.length (Database.index_lookup db def [ Value.Null ]));
  (* index tracks later inserts *)
  Database.insert_exn db "Child" (ok_row ~id:5 ~uniq:(Value.Int 5) ~parent:(Value.Int 2) ());
  Alcotest.(check int) "insert visible" 2
    (List.length (Database.index_lookup db def [ Value.Int 2 ]));
  (* ... and rebuilds after a delete *)
  let where = Expr.eq (Expr.Col (Colref.make "Child" "id")) (Expr.int 2) in
  (match Database.delete db "Child" ~where () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "delete failed");
  Alcotest.(check int) "delete visible" 1
    (List.length (Database.index_lookup db def [ Value.Int 1 ]));
  (* errors *)
  Alcotest.(check bool) "duplicate index name" true
    (Result.is_error
       (Database.create_index db ~name:"child_by_parent" ~table:"Child"
          ~cols:[ "id" ]));
  Alcotest.(check bool) "unknown column" true
    (Result.is_error
       (Database.create_index db ~name:"i2" ~table:"Child" ~cols:[ "zzz" ]))

let () =
  Alcotest.run "storage"
    [
      ( "heap",
        [
          Alcotest.test_case "basics" `Quick test_heap_basics;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "arity check" `Quick test_heap_arity_check;
          Alcotest.test_case "lineage" `Quick test_heap_lineage;
        ] );
      ( "pages",
        [
          Alcotest.test_case "codec round-trip" `Quick test_page_roundtrip;
          Alcotest.test_case "every byte of corruption detected" `Quick
            test_corruption_every_byte;
          Alcotest.test_case "pinned pages never evicted" `Quick
            test_pinned_never_evicted;
          Alcotest.test_case "LRU replacement and reservations" `Quick
            test_lru_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "collect" `Quick test_stats;
          Alcotest.test_case "histograms" `Quick test_histogram;
          Alcotest.test_case "no histogram for strings" `Quick
            test_histogram_absent_for_strings;
          Alcotest.test_case "extend equals collect" `Quick
            test_stats_extend_differential;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "clean insert" `Quick test_insert_ok;
          Alcotest.test_case "primary key" `Quick test_primary_key;
          Alcotest.test_case "UNIQUE with NULLs" `Quick test_unique_null_semantics;
          Alcotest.test_case "NOT NULL" `Quick test_not_null;
          Alcotest.test_case "CHECK and domains" `Quick test_check_constraints;
          Alcotest.test_case "foreign keys" `Quick test_foreign_key;
          Alcotest.test_case "types and arity" `Quick test_type_checking;
          Alcotest.test_case "stats cache" `Quick test_stats_cache;
        ] );
      ( "dml",
        [
          Alcotest.test_case "DELETE semantics" `Quick test_delete;
          Alcotest.test_case "DELETE is FK-restricted" `Quick
            test_delete_fk_restrict;
          Alcotest.test_case "UPDATE basics" `Quick test_update_basic;
          Alcotest.test_case "UPDATE enforcement" `Quick
            test_update_constraint_enforcement;
          Alcotest.test_case "UPDATE incoming FKs" `Quick test_update_incoming_fk;
          Alcotest.test_case "key index rebuild" `Quick
            test_key_index_rebuild_after_delete;
        ] );
      ( "indexes",
        [ Alcotest.test_case "secondary index" `Quick test_secondary_index ] );
    ]
