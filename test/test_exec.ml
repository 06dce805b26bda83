(* Executor tests: every operator, every join/group algorithm, and the SQL2
   semantics corners — unknown-is-false filtering, NULL join keys, =ⁿ
   duplicate elimination, NULL-aware aggregates. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage
open Eager_algebra
open Eager_exec

let cr = Colref.make
let i n = Value.Int n
let s x = Value.Str x

let coldef name ctype : Table_def.column_def =
  { Table_def.cname = name; ctype; domain = None }

(* A small database with NULLs and duplicates.
   T(a, b): (1,10) (1,10) (2,20) (NULL,30) (3,NULL)
   U(x, y): (1,'one') (2,'two') (NULL,'none') (9,'nine') *)
let make_db () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
  Database.create_table db
    (Table_def.make "U" [ coldef "x" Ctype.Int; coldef "y" Ctype.String ] []);
  Database.load db "T"
    [ [ i 1; i 10 ]; [ i 1; i 10 ]; [ i 2; i 20 ]; [ Value.Null; i 30 ];
      [ i 3; Value.Null ] ];
  Database.load db "U"
    [ [ i 1; s "one" ]; [ i 2; s "two" ]; [ Value.Null; s "none" ];
      [ i 9; s "nine" ] ];
  db

let t_schema =
  Schema.make [ (cr "T" "a", Ctype.Int); (cr "T" "b", Ctype.Int) ]

let u_schema =
  Schema.make [ (cr "U" "x", Ctype.Int); (cr "U" "y", Ctype.String) ]

let scan_t = Plan.scan ~table:"T" ~rel:"T" t_schema
let scan_u = Plan.scan ~table:"U" ~rel:"U" u_schema

let rows db ?options plan = Exec.run_rows ?options db plan

let sorted_strings rs = List.sort compare (List.map Row.to_string rs)

let check_rows name expected actual =
  Alcotest.(check (list string)) name
    (List.sort compare expected)
    (sorted_strings actual)

(* ---------------- scan / select / project ---------------- *)

let test_scan () =
  let db = make_db () in
  Alcotest.(check int) "all rows" 5 (List.length (rows db scan_t))

let test_select_3vl () =
  let db = make_db () in
  (* a = 1: the NULL row is unknown → dropped *)
  let p = Plan.select (Expr.eq (Expr.col "T" "a") (Expr.int 1)) scan_t in
  Alcotest.(check int) "a=1 keeps 2" 2 (List.length (rows db p));
  (* a <> 1: NULL row still dropped (unknown), not kept *)
  let p2 =
    Plan.select (Expr.Cmp (Expr.Ne, Expr.col "T" "a", Expr.int 1)) scan_t
  in
  Alcotest.(check int) "a<>1 keeps 2 (not the NULL row)" 2
    (List.length (rows db p2));
  (* IS NULL finds exactly the NULL row *)
  let p3 = Plan.select (Expr.Is_null (Expr.col "T" "a")) scan_t in
  check_rows "IS NULL" [ "(NULL, 30)" ] (rows db p3)

let test_project_all_and_distinct () =
  let db = make_db () in
  let p = Plan.project [ cr "T" "a" ] scan_t in
  Alcotest.(check int) "πA keeps duplicates" 5 (List.length (rows db p));
  let pd = Plan.project ~dedup:true [ cr "T" "a" ] scan_t in
  (* distinct under =ⁿ: {1, 2, NULL, 3} — the two 1s merge, NULL kept once *)
  check_rows "πD dedups with NULL=NULL" [ "(1)"; "(2)"; "(3)"; "(NULL)" ]
    (rows db pd)

let test_distinct_null_pairs () =
  (* two (NULL, NULL) rows are duplicates of each other — SQL2 duplicate
     semantics (paper Section 4.2) *)
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "N" [ coldef "p" Ctype.Int; coldef "q" Ctype.Int ] []);
  Database.load db "N"
    [ [ Value.Null; Value.Null ]; [ Value.Null; Value.Null ]; [ i 1; Value.Null ] ];
  let sc =
    Plan.scan ~table:"N" ~rel:"N"
      (Schema.make [ (cr "N" "p", Ctype.Int); (cr "N" "q", Ctype.Int) ])
  in
  let pd = Plan.project ~dedup:true [ cr "N" "p"; cr "N" "q" ] sc in
  Alcotest.(check int) "NULL rows merge" 2 (List.length (rows db pd))

(* ---------------- joins ---------------- *)

let join_pred = Expr.eq (Expr.col "T" "a") (Expr.col "U" "x")

let expected_join =
  (* T.a=U.x: (1,10,1,one) ×2, (2,20,2,two); NULLs never match *)
  [ "(1, 10, 1, 'one')"; "(1, 10, 1, 'one')"; "(2, 20, 2, 'two')" ]

let test_join_algorithms_agree () =
  let db = make_db () in
  let j = Plan.join join_pred scan_t scan_u in
  List.iter
    (fun (name, algo) ->
      let options = { Exec.default_options with join_algo = algo } in
      check_rows (name ^ " join result") expected_join (rows db ~options j))
    [
      ("nested-loop", Exec.Nested_loop);
      ("hash", Exec.Hash_join);
      ("merge", Exec.Merge_join);
      ("auto", Exec.Auto);
    ]

let test_join_null_keys_never_match () =
  let db = make_db () in
  let j = Plan.join join_pred scan_t scan_u in
  let out = rows db j in
  Alcotest.(check bool) "no NULL key in output" true
    (List.for_all (fun r -> not (Value.is_null r.(0))) out)

let test_join_residual_predicate () =
  let db = make_db () in
  (* equi key plus residual: T.b > 10 *)
  let pred =
    Expr.And (join_pred, Expr.Cmp (Expr.Gt, Expr.col "T" "b", Expr.int 10))
  in
  let j = Plan.join pred scan_t scan_u in
  List.iter
    (fun algo ->
      let options = { Exec.default_options with join_algo = algo } in
      check_rows "residual applied" [ "(2, 20, 2, 'two')" ] (rows db ~options j))
    [ Exec.Nested_loop; Exec.Hash_join; Exec.Merge_join ]

let test_theta_join_falls_back () =
  let db = make_db () in
  (* pure inequality join: only nested loops can run it; Auto must fall back *)
  let pred = Expr.Cmp (Expr.Lt, Expr.col "T" "a", Expr.col "U" "x") in
  let j = Plan.join pred scan_t scan_u in
  let n = List.length (rows db j) in
  (* pairs with a < x among non-null: a∈{1,1,2,3} x∈{1,2,9}:
     1<2,1<9 (×2 rows of a=1 → 4), 2<9 (1), 3<9 (1) → 6 *)
  Alcotest.(check int) "theta join count" 6 n

let test_product () =
  let db = make_db () in
  let p = Plan.Product (scan_t, scan_u) in
  Alcotest.(check int) "5×4 product" 20 (List.length (rows db p))

let test_split_equijoin () =
  let keys, residual = Exec.split_equijoin t_schema u_schema join_pred in
  Alcotest.(check int) "one key pair" 1 (List.length keys);
  Alcotest.(check int) "no residual" 0 (List.length residual);
  let keys2, residual2 =
    Exec.split_equijoin t_schema u_schema
      (Expr.And
         ( Expr.eq (Expr.col "U" "x") (Expr.col "T" "a"),
           Expr.Cmp (Expr.Lt, Expr.col "T" "b", Expr.col "U" "x") ))
  in
  Alcotest.(check int) "flipped equi key recognised" 1 (List.length keys2);
  let l, r = List.hd keys2 in
  Alcotest.(check string) "left side col" "T.a" (Colref.to_string l);
  Alcotest.(check string) "right side col" "U.x" (Colref.to_string r);
  Alcotest.(check int) "inequality is residual" 1 (List.length residual2)

(* ---------------- grouping and aggregates ---------------- *)

let test_group_null_key () =
  let db = make_db () in
  let g =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.count_star (cr "" "n") ]
      scan_t
  in
  List.iter
    (fun algo ->
      let options = { Exec.default_options with group_algo = algo } in
      (* groups: 1 (2 rows), 2, NULL, 3 → 4 groups; NULL is its own group *)
      check_rows "groups incl. NULL"
        [ "(1, 2)"; "(2, 1)"; "(3, 1)"; "(NULL, 1)" ]
        (rows db ~options g))
    [ Exec.Hash_group; Exec.Sort_group ]

let test_aggregate_null_rules () =
  let db = make_db () in
  let aggs =
    [
      Agg.count_star (cr "" "cstar");
      Agg.count (cr "" "cb") (Expr.col "T" "b");
      Agg.sum (cr "" "sb") (Expr.col "T" "b");
      Agg.min_ (cr "" "mn") (Expr.col "T" "b");
      Agg.max_ (cr "" "mx") (Expr.col "T" "b");
      Agg.avg (cr "" "av") (Expr.col "T" "b");
    ]
  in
  let g = Plan.group ~by:[] ~aggs scan_t in
  match rows db g with
  | [ row ] ->
      (* b values: 10,10,20,30,NULL *)
      Alcotest.(check bool) "COUNT(*)=5" true (Value.null_eq row.(0) (i 5));
      Alcotest.(check bool) "COUNT(b)=4 skips NULL" true (Value.null_eq row.(1) (i 4));
      Alcotest.(check bool) "SUM(b)=70" true (Value.null_eq row.(2) (i 70));
      Alcotest.(check bool) "MIN(b)=10" true (Value.null_eq row.(3) (i 10));
      Alcotest.(check bool) "MAX(b)=30" true (Value.null_eq row.(4) (i 30));
      Alcotest.(check bool) "AVG(b)=17.5" true
        (Value.null_eq row.(5) (Value.Float 17.5))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length other))

let test_aggregate_all_null_group () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "Z" [ coldef "g" Ctype.Int; coldef "v" Ctype.Int ] []);
  Database.load db "Z" [ [ i 1; Value.Null ]; [ i 1; Value.Null ] ];
  let sc =
    Plan.scan ~table:"Z" ~rel:"Z"
      (Schema.make [ (cr "Z" "g", Ctype.Int); (cr "Z" "v", Ctype.Int) ])
  in
  let g =
    Plan.group ~by:[ cr "Z" "g" ]
      ~aggs:
        [
          Agg.sum (cr "" "s") (Expr.col "Z" "v");
          Agg.min_ (cr "" "m") (Expr.col "Z" "v");
          Agg.avg (cr "" "a") (Expr.col "Z" "v");
          Agg.count (cr "" "c") (Expr.col "Z" "v");
        ]
      sc
  in
  match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "SUM of all-NULL is NULL" true (Value.is_null row.(1));
      Alcotest.(check bool) "MIN of all-NULL is NULL" true (Value.is_null row.(2));
      Alcotest.(check bool) "AVG of all-NULL is NULL" true (Value.is_null row.(3));
      Alcotest.(check bool) "COUNT of all-NULL is 0" true (Value.null_eq row.(4) (i 0))
  | _ -> Alcotest.fail "expected one group"

let test_scalar_agg_empty_input () =
  let db = make_db () in
  let empty = Plan.select (Expr.eq (Expr.col "T" "a") (Expr.int 999)) scan_t in
  let g =
    Plan.group ~scalar:true ~by:[]
      ~aggs:[ Agg.count_star (cr "" "n"); Agg.sum (cr "" "s") (Expr.col "T" "b") ]
      empty
  in
  (match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "COUNT over empty = 0" true (Value.null_eq row.(0) (i 0));
      Alcotest.(check bool) "SUM over empty = NULL" true (Value.is_null row.(1))
  | _ -> Alcotest.fail "scalar aggregation must yield exactly one row");
  (* GROUP BY over empty input yields zero groups *)
  let g2 =
    Plan.group ~by:[ cr "T" "a" ] ~aggs:[ Agg.count_star (cr "" "n") ] empty
  in
  Alcotest.(check int) "grouped empty input: no rows" 0 (List.length (rows db g2));
  (* the paper's G[∅] over empty input also yields zero groups — the
     non-scalar / scalar distinction only matters here *)
  let g3 = Plan.group ~by:[] ~aggs:[ Agg.count_star (cr "" "n") ] empty in
  Alcotest.(check int) "non-scalar G[∅] over empty: no rows" 0
    (List.length (rows db g3));
  (* scalar with grouping columns is a construction error *)
  Alcotest.(check bool) "scalar with by rejected" true
    (try
       ignore (Plan.group ~scalar:true ~by:[ cr "T" "a" ] ~aggs:[] scan_t);
       false
     with Invalid_argument _ -> true)

let test_count_distinct () =
  let db = make_db () in
  (* b values: 10,10,20,30,NULL → 3 distinct non-NULL *)
  let g =
    Plan.group ~by:[]
      ~aggs:[ Agg.count_distinct (cr "" "d") (Expr.col "T" "b") ]
      scan_t
  in
  (match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "3 distinct" true (Value.null_eq row.(0) (i 3))
  | _ -> Alcotest.fail "one row expected");
  (* per group, NULL-key group included *)
  let g2 =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.count_distinct (cr "" "d") (Expr.col "T" "b") ]
      scan_t
  in
  check_rows "count distinct per group"
    [ "(1, 1)"; "(2, 1)"; "(3, 0)"; "(NULL, 1)" ]
    (rows db g2)

let test_agg_arith_expression () =
  let db = make_db () in
  (* COUNT(b) + SUM(b+0) over all rows: 4 + 70 = 74 *)
  let calc =
    Agg.Arith
      ( Expr.Add,
        Agg.Call (Agg.Count (Expr.col "T" "b")),
        Agg.Call (Agg.Sum (Expr.Arith (Expr.Add, Expr.col "T" "b", Expr.int 0)))
      )
  in
  let g = Plan.group ~by:[] ~aggs:[ Agg.make (cr "" "combo") calc ] scan_t in
  match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "arith over aggregates" true
        (Value.null_eq row.(0) (i 74))
  | _ -> Alcotest.fail "one row expected"

(* ---------------- sort ---------------- *)

let test_sort () =
  let db = make_db () in
  (* ascending on a: NULL first, then 1,1,2,3 *)
  let p = Plan.sort [ (cr "T" "a", false) ] scan_t in
  let firsts = List.map (fun r -> r.(0)) (rows db p) in
  Alcotest.(check (list string)) "ascending, NULLs first"
    [ "NULL"; "1"; "1"; "2"; "3" ]
    (List.map Value.to_string firsts);
  (* descending *)
  let pd = Plan.sort [ (cr "T" "a", true) ] scan_t in
  let firsts_d = List.map (fun r -> r.(0)) (rows db pd) in
  Alcotest.(check (list string)) "descending, NULLs last"
    [ "3"; "2"; "1"; "1"; "NULL" ]
    (List.map Value.to_string firsts_d);
  (* stability: the two a=1 rows keep their scan order (b = 10 then 10 —
     use the two-key case instead: sort by b desc then check a order) *)
  let p2 = Plan.sort [ (cr "T" "b", false); (cr "T" "a", true) ] scan_t in
  Alcotest.(check int) "sort preserves multiset" 5 (List.length (rows db p2));
  (* empty order list is the identity constructor *)
  (match Plan.sort [] scan_t with
  | Plan.Scan _ -> ()
  | _ -> Alcotest.fail "empty sort should be elided");
  (* schema passes through *)
  Alcotest.(check int) "schema unchanged" 2
    (Schema.arity (Plan.schema_of p))

(* ---------------- order propagation (Section 7) ---------------- *)

let is_sorted_by schema cols rows =
  let idxs = Schema.indices schema cols in
  let rec go = function
    | a :: (b :: _ as rest) -> Row.compare_on idxs a b <= 0 && go rest
    | _ -> true
  in
  go rows

let test_order_propagation () =
  let db = make_db () in
  (* sort-based grouping leaves its output sorted on the grouping columns *)
  let g =
    Plan.group ~by:[ cr "T" "a" ] ~aggs:[ Agg.count_star (cr "" "n") ] scan_t
  in
  let options = { Exec.default_options with group_algo = Exec.Sort_group } in
  let h, _, order = Exec.run_ordered ~options db g in
  Alcotest.(check (list string)) "group claims its by-order" [ "T.a" ]
    (List.map Colref.to_string order);
  Alcotest.(check bool) "claimed order is physical" true
    (is_sorted_by (Heap.schema h) order (Heap.to_list h));
  (* Sort claims its ascending prefix *)
  let s = Plan.sort [ (cr "T" "a", false); (cr "T" "b", true) ] scan_t in
  let _, _, order_s = Exec.run_ordered db s in
  Alcotest.(check (list string)) "ascending prefix only" [ "T.a" ]
    (List.map Colref.to_string order_s);
  (* selection preserves order *)
  let sel = Plan.select (Expr.Is_not_null (Expr.col "T" "a")) s in
  let _, _, order_sel = Exec.run_ordered db sel in
  Alcotest.(check int) "select preserves order" 1 (List.length order_sel)

let test_merge_join_skips_presorted () =
  let db = make_db () in
  (* group T on its join column with sort-grouping, then merge-join with U:
     the left input arrives sorted on the key — the paper's Section 7
     "exploit the grouping order" observation *)
  let grouped =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.sum (cr "" "s") (Expr.col "T" "b") ]
      scan_t
  in
  let joined =
    Plan.join (Expr.eq (Expr.col "T" "a") (Expr.col "U" "x")) grouped scan_u
  in
  let options =
    {
      Exec.default_options with
      group_algo = Exec.Sort_group;
      join_algo = Exec.Merge_join;
    }
  in
  let h, stats, order = Exec.run_ordered ~options db joined in
  (* the join recognised one presorted input *)
  (match Optree.find ~prefix:"Join" stats with
  | Some node ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "presorted input recognised (%s)" node.Optree.label)
        true
        (contains node.Optree.label "presorted")
  | None -> Alcotest.fail "no join node in stats");
  (* merge join output is itself key-ordered *)
  Alcotest.(check (list string)) "output ordered on the key" [ "T.a" ]
    (List.map Colref.to_string order);
  Alcotest.(check bool) "physically sorted" true
    (is_sorted_by (Heap.schema h) order (Heap.to_list h));
  (* and the result matches the hash join *)
  let rows_hash =
    Exec.run_rows
      ~options:{ Exec.default_options with group_algo = Exec.Sort_group }
      db joined
  in
  Alcotest.(check bool) "same result as hash join" true
    (Exec.multiset_equal rows_hash (Heap.to_list h))

let test_map_operator () =
  let db = make_db () in
  (* identity + computed items *)
  let m =
    Plan.map_items
      [
        (cr "T" "a", Expr.col "T" "a");
        (cr "" "doubled", Expr.Arith (Expr.Mul, Expr.col "T" "b", Expr.int 2));
      ]
      scan_t
  in
  let rows_out = rows db m in
  Alcotest.(check int) "row count preserved" 5 (List.length rows_out);
  Alcotest.(check bool) "NULL propagates through computation" true
    (List.exists (fun r -> Value.is_null r.(1)) rows_out);
  Alcotest.(check bool) "doubling works" true
    (List.exists (fun r -> Value.null_eq r.(1) (i 20)) rows_out);
  (* order propagation: identity prefix survives, computed tail does not *)
  let sorted_then_mapped =
    Plan.map_items
      [
        (cr "T" "a", Expr.col "T" "a");
        (cr "" "c", Expr.Arith (Expr.Add, Expr.col "T" "b", Expr.int 1));
      ]
      (Plan.sort [ (cr "T" "a", false) ] scan_t)
  in
  let _, _, order = Exec.run_ordered db sorted_then_mapped in
  Alcotest.(check (list string)) "identity item keeps the order" [ "T.a" ]
    (List.map Colref.to_string order);
  (* a renaming breaks the claim *)
  let renamed =
    Plan.map_items
      [ (cr "" "alias", Expr.col "T" "a") ]
      (Plan.sort [ (cr "T" "a", false) ] scan_t)
  in
  let _, _, order_r = Exec.run_ordered db renamed in
  Alcotest.(check int) "renamed column loses the order" 0 (List.length order_r)

(* property: any claimed order is physically true *)
let order_table_gen =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (pair
         (oneof [ return Value.Null; map (fun n -> i n) (int_range 0 3) ])
         (oneof [ return Value.Null; map (fun n -> i n) (int_range 0 3) ])))

let prop_claimed_order_is_real =
  QCheck.Test.make ~count:150 ~name:"claimed sort orders are physical"
    (QCheck.make
       (QCheck.Gen.tup3 order_table_gen order_table_gen
          (QCheck.Gen.int_range 0 3)))
    (fun (trows, urows, variant) ->
      let db = Database.create () in
      Database.create_table db
        (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
      Database.create_table db
        (Table_def.make "U" [ coldef "x" Ctype.Int; coldef "y" Ctype.Int ] []);
      Database.load db "T" (List.map (fun (a, b) -> [ a; b ]) trows);
      Database.load db "U" (List.map (fun (x, y) -> [ x; y ]) urows);
      let u_schema' =
        Schema.make [ (cr "U" "x", Ctype.Int); (cr "U" "y", Ctype.Int) ]
      in
      let scan_u' = Plan.scan ~table:"U" ~rel:"U" u_schema' in
      let grouped =
        Plan.group ~by:[ cr "T" "a" ]
          ~aggs:[ Agg.count_star (cr "" "n") ]
          scan_t
      in
      let plan =
        match variant with
        | 0 -> Plan.sort [ (cr "T" "a", false) ] scan_t
        | 1 -> grouped
        | 2 -> Plan.join (Expr.eq (Expr.col "T" "a") (Expr.col "U" "x")) grouped scan_u'
        | _ ->
            Plan.select
              (Expr.Is_not_null (Expr.col "T" "a"))
              (Plan.sort [ (cr "T" "a", false); (cr "T" "b", false) ] scan_t)
      in
      List.for_all
        (fun (ja, ga) ->
          let options =
            { Exec.default_options with join_algo = ja; group_algo = ga }
          in
          let h, _, order = Exec.run_ordered ~options db plan in
          is_sorted_by (Heap.schema h) order (Heap.to_list h))
        [
          (Exec.Auto, Exec.Hash_group);
          (Exec.Merge_join, Exec.Sort_group);
          (Exec.Nested_loop, Exec.Sort_group);
        ])

(* ---------------- operator statistics ---------------- *)

let test_optree () =
  let db = make_db () in
  let plan =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.count_star (cr "" "n") ]
      (Plan.select (Expr.Is_not_null (Expr.col "T" "a")) scan_t)
  in
  let _, st = Exec.run db plan in
  (* shape: GroupBy over Select over Scan *)
  (match Optree.find ~prefix:"GroupBy" st with
  | Some g ->
      Alcotest.(check int) "group consumed the filtered rows" 4
        (List.hd (Optree.in_rows g));
      Alcotest.(check int) "group emitted 3 groups" 3 g.Optree.out_rows
  | None -> Alcotest.fail "no group node");
  (match Optree.find ~prefix:"Scan" st with
  | Some s -> Alcotest.(check int) "scan saw all rows" 5 s.Optree.out_rows
  | None -> Alcotest.fail "no scan node");
  Alcotest.(check bool) "missing prefix" true
    (Optree.find ~prefix:"Window" st = None);
  (* total work = 5 (scan) + 4 (select) + 3 (group) *)
  Alcotest.(check int) "total produced" 12 (Optree.total_produced st);
  (* the printer mentions each operator with its cardinality *)
  let text = Optree.to_string st in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "printer shows cardinalities" true
    (contains "-- 4 rows" && contains "GroupBy");
  Alcotest.(check bool) "printer shows batch counts" true
    (contains "batch");
  (* per-operator batch counts at a small batch size: 5 rows in batches
     of 2 → the scan emits 3 batches; the select keeps 4 rows but still
     re-batches each nonempty input slice → 3; the group's 3 rows fit 2 *)
  let _, st2 =
    Exec.run ~options:{ Exec.default_options with batch_rows = 2 } db plan
  in
  let batches prefix =
    match Optree.find ~prefix st2 with
    | Some n -> n.Optree.batches
    | None -> Alcotest.failf "no %s node" prefix
  in
  Alcotest.(check int) "scan batches" 3 (batches "Scan");
  Alcotest.(check int) "select batches" 3 (batches "Select");
  Alcotest.(check int) "group batches" 2 (batches "GroupBy")

let test_optree_find_all () =
  let db = make_db () in
  let _, st = Exec.run db (Plan.Product (scan_t, scan_u)) in
  (* [find] commits to the first scan; [find_all] sees both, in order *)
  (match Optree.find_all ~prefix:"Scan" st with
  | [ l; r ] ->
      Alcotest.(check int) "left scan first (T: 5 rows)" 5 l.Optree.out_rows;
      Alcotest.(check int) "right scan second (U: 4 rows)" 4 r.Optree.out_rows;
      Alcotest.(check bool) "find returns the first of them" true
        (Optree.find ~prefix:"Scan" st = Some l)
  | other ->
      Alcotest.failf "expected exactly 2 scans, got %d" (List.length other));
  Alcotest.(check int) "no match is empty" 0
    (List.length (Optree.find_all ~prefix:"Window" st))

(* ---------------- batched pull pipeline ---------------- *)

(* the same plans must mean the same thing at every batch size; sweep a
   plan that exercises scan, select, join, group and project *)
let batch_sizes = [ 1; 2; 7; 1024; max_int ]

let algo_combos =
  [
    (Exec.Auto, Exec.Hash_group);
    (Exec.Nested_loop, Exec.Sort_group);
    (Exec.Merge_join, Exec.Sort_group);
    (Exec.Merge_join, Exec.Hash_group);
  ]

let check_against_reference ?(combos = algo_combos) name db plan =
  let reference = Eager_exec.Ref_eval.eval db plan in
  List.iter
    (fun batch_rows ->
      List.iter
        (fun (join_algo, group_algo) ->
          let options =
            { Exec.default_options with join_algo; group_algo; batch_rows }
          in
          let got = Exec.run_rows ~options db plan in
          Alcotest.(check bool)
            (Printf.sprintf "%s: batch=%d algos agree with reference" name
               (min batch_rows 99999))
            true
            (Exec.multiset_equal reference got))
        combos)
    batch_sizes

let test_batch_size_invariance () =
  let db = make_db () in
  let plan =
    Plan.project ~dedup:true
      [ cr "T" "a"; cr "" "n" ]
      (Plan.group ~by:[ cr "T" "a" ]
         ~aggs:[ Agg.count_star (cr "" "n") ]
         (Plan.join join_pred
            (Plan.select (Expr.Is_not_null (Expr.col "T" "b")) scan_t)
            scan_u))
  in
  check_against_reference "group-over-join" db plan;
  (* empty input through every operator *)
  let empty =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.sum (cr "" "s") (Expr.col "T" "b") ]
      (Plan.select Expr.efalse scan_t)
  in
  check_against_reference "empty input" db empty

(* every checked-in fuzz-corpus query, replayed at several batch sizes
   against the naive whole-relation reference evaluator *)
let test_corpus_differential () =
  let dir = if Sys.file_exists "../corpus" then "../corpus" else "corpus" in
  let files =
    if Sys.file_exists dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".sql")
      |> List.sort String.compare
      |> List.map (Filename.concat dir)
    else []
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  let checked = ref 0 in
  List.iter
    (fun path ->
      match Eager_fuzz.Corpus.queries_of_file path with
      | Error msg -> Alcotest.failf "corpus load: %s" msg
      | Ok (db, qs) ->
          List.iter
            (fun q ->
              let plans =
                (Filename.basename path ^ ":E1", Eager_core.Plans.e1 db q)
                ::
                (match
                   Eager_robust.Err.protect ~kind:Eager_robust.Err.Planner
                     (fun () -> Eager_core.Plans.e2 db q)
                 with
                | Ok p -> [ (Filename.basename path ^ ":E2", p) ]
                | Error _ -> [])
              in
              List.iter
                (fun (name, plan) ->
                  incr checked;
                  check_against_reference name db plan)
                plans)
            qs)
    files;
  Alcotest.(check bool) "at least one corpus plan checked" true (!checked > 0)

(* generated queries too: a slice of the fuzz space beyond the corpus *)
let test_generated_differential () =
  let seeds = List.init 12 (fun k -> 1000 + k) in
  List.iter
    (fun seed ->
      let case = Eager_fuzz.Qgen.generate (Eager_workload.Gen.make2 777 seed) in
      match Eager_fuzz.Qgen.build case with
      | Error m -> Alcotest.failf "qgen build (seed %d): %s" seed m
      | Ok (db, q) ->
          check_against_reference
            ~combos:[ (Exec.Auto, Exec.Hash_group);
                      (Exec.Merge_join, Exec.Sort_group) ]
            (Printf.sprintf "gen seed %d" seed)
            db
            (Eager_core.Plans.e1 db q))
    seeds

(* the profile's high-water mark: breakers account for what they hold,
   and the eager plan's smaller build side shows up as a lower peak *)
let test_profile_peak () =
  let db = make_db () in
  let j = Plan.join join_pred scan_t scan_u in
  let _, _, _, prof = Exec.run_profiled db j in
  (* hash join builds the left side's non-NULL-key rows: 4 of T's 5 *)
  Alcotest.(check bool)
    (Printf.sprintf "join build side tracked (peak %d)" prof.Exec.peak_live_rows)
    true
    (prof.Exec.peak_live_rows >= 4);
  let w = Eager_workload.Employee_dept.setup ~employees:400 ~departments:10 () in
  let wdb = w.Eager_workload.Employee_dept.db in
  let q = w.Eager_workload.Employee_dept.query in
  let peak plan =
    let _, _, _, p = Exec.run_profiled wdb plan in
    p.Exec.peak_live_rows
  in
  let p1 = peak (Eager_core.Plans.e1 wdb q) in
  let p2 = peak (Eager_core.Plans.e2 wdb q) in
  Alcotest.(check bool)
    (Printf.sprintf "E2 peak (%d) strictly below E1 peak (%d)" p2 p1)
    true (p2 < p1)

(* the paged engine, squeezed: each workload must agree with the naive
   reference at every pool size down to a handful of pages.  The
   smallest pool is far below each table's footprint, so scans fault
   pages in and out while the spill breakers (grace join, external
   sort, spilling aggregation) carry the build sides on scratch runs. *)
let test_paged_pool_sweep () =
  let workloads =
    [
      ( "fig1",
        fun storage () ->
          let w =
            Eager_workload.Employee_dept.setup ?storage ~employees:1000
              ~departments:10 ()
          in
          Eager_workload.Employee_dept.(w.db, w.query) );
      ( "sales",
        fun storage () ->
          let w =
            Eager_workload.Sales.setup ?storage ~customers:25 ~orders:800 ()
          in
          Eager_workload.Sales.(w.db, w.query) );
      ( "star",
        fun storage () ->
          let w =
            Eager_workload.Star.setup ?storage ~parts:800 ~suppliers:20
              ~regions:4 ()
          in
          Eager_workload.Star.(w.db, w.query) );
    ]
  in
  let pools = [ Some 4; Some 16; Some 64; None ] in
  List.iter
    (fun (name, build) ->
      (* reference: the RAM engine's whole-relation evaluator over the
         same data (workload seeds are fixed) *)
      let rdb, rq = build None () in
      let reference = Ref_eval.eval rdb (Eager_core.Plans.e1 rdb rq) in
      List.iter
        (fun pool_pages ->
          let storage =
            { Database.pool_pages; page_size = 1024; spill_dir = None }
          in
          let db, q = build (Some storage) () in
          Fun.protect
            ~finally:(fun () -> Database.close_storage db)
            (fun () ->
              let plans =
                ("E1", Eager_core.Plans.e1 db q)
                ::
                (* E2 only where TestFD admits it (star's region rollup
                   fails FD2: SupplierNo is finer than RegionName) *)
                (match Eager_core.Eager.transform db q with
                | Ok p -> [ ("E2", p) ]
                | Error _ -> [])
              in
              List.iter
                (fun (pname, plan) ->
                  List.iter
                    (fun group_algo ->
                      let options =
                        {
                          Exec.default_options with
                          group_algo;
                          spill = Spill.for_db db;
                        }
                      in
                      let got = Exec.run_rows ~options db plan in
                      Alcotest.(check bool)
                        (Printf.sprintf "%s %s pool=%s %s agrees with reference"
                           name pname
                           (match pool_pages with
                           | Some n -> string_of_int n
                           | None -> "unbounded")
                           (match group_algo with
                           | Exec.Hash_group -> "hash"
                           | _ -> "sort"))
                        true
                        (Exec.multiset_equal reference got))
                    [ Exec.Hash_group; Exec.Sort_group ])
                plans))
        pools)
    workloads

(* ---------------- the row hash table ---------------- *)

(* Every hash breaker keys on [Rowtbl], whose equality must be exactly
   [Row.key_on]'s.  The reference here is the stdlib [Hashtbl] over
   [Row.key_on] lists; the keys mix every class that equality has to
   get right: NULL, Int, whole Floats (-0., 2^53, and 2^53+1, which no
   Float holds), fractional Floats, NaN, Str and Bool. *)
let two53 = 9007199254740992

let mixed_keys =
  [|
    Value.Null; i 0; i 1; i (-1); i two53; i (two53 + 1); i (two53 + 2);
    Value.Float 0.; Value.Float (-0.); Value.Float 1.; Value.Float (-1.);
    Value.Float 9007199254740992.; Value.Float 9007199254740993.;
    Value.Float 9007199254740994.; Value.Float 0.5; Value.Float (-2.5);
    Value.Float Float.nan; Value.Float (-.Float.nan); s "a"; s "b"; s "";
    Value.Bool true; Value.Bool false;
  |]

(* rows (k1, k2, tag): the tag identifies a row physically *)
let mixed_rows st n =
  let pick () = mixed_keys.(Random.State.int st (Array.length mixed_keys)) in
  List.init n (fun t -> [| pick (); pick (); i t |])

let tag (r : Row.t) = Row.to_string r

(* reference groups, first-seen, each with its rows in input order *)
let reference_groups idx rows =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun r ->
      let k = Row.key_on idx r in
      match Hashtbl.find_opt tbl k with
      | Some members -> members := r :: !members
      | None ->
          Hashtbl.add tbl k (ref [ r ]);
          order := k :: !order)
    rows;
  List.rev_map (fun k -> List.rev_map tag !(Hashtbl.find tbl k)) !order

let test_rowtbl_differential () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let rows = mixed_rows st 400 in
      let probes = mixed_rows st 200 in
      List.iter
        (fun idx ->
          let name = Printf.sprintf "seed %d, %d key column(s)" seed (Array.length idx) in
          (* grouping: one entry per class, first-seen *)
          let t = Rowtbl.create idx in
          List.iter
            (fun r ->
              let members = Rowtbl.find_or_add t r (fun _ -> ref []) in
              members := r :: !members)
            rows;
          let got = ref [] in
          Rowtbl.iter (fun _ members -> got := List.rev_map tag !members :: !got) t;
          let want = reference_groups idx rows in
          Alcotest.(check int) (name ^ ": group count") (List.length want)
            (Rowtbl.length t);
          Alcotest.(check (list (list string)))
            (name ^ ": groups, first-seen") want (List.rev !got);
          (* join: every entry kept, a probe meets its matches newest-first *)
          let build = Rowtbl.create idx and rbuild = Hashtbl.create 64 in
          List.iter
            (fun r ->
              Rowtbl.add build r ();
              Hashtbl.add rbuild (Row.key_on idx r) r)
            rows;
          List.iter
            (fun p ->
              let rec matches e =
                if Rowtbl.found e then
                  tag (Rowtbl.row e) :: matches (Rowtbl.next build idx p e)
                else []
              in
              Alcotest.(check (list string))
                (name ^ ": matches of " ^ tag p)
                (List.map tag (Hashtbl.find_all rbuild (Row.key_on idx p)))
                (matches (Rowtbl.find build idx p)))
            probes)
        [ [| 0 |]; [| 0; 1 |]; [| 1; 0 |] ])
    [ 1; 2; 3; 4; 5 ]

(* The same classes through the executor's hash breakers, in-memory and
   spilling at a 4-page pool.  Columns are typed, so each class lives in
   its own column: numbers (NULL, Int, whole and fractional Floats,
   NaN) in a FLOAT column, strings and booleans beside it. *)
let num_keys =
  Array.of_list
    (List.filter
       (function Value.Null | Value.Int _ | Value.Float _ -> true | _ -> false)
       (Array.to_list mixed_keys))

let str_keys = [| Value.Null; s "a"; s "b" |]
let bool_keys = [| Value.Null; Value.Bool true; Value.Bool false |]

let typed_table rel =
  Table_def.make rel
    [
      coldef "n" Ctype.Float; coldef "s" Ctype.String; coldef "b" Ctype.Bool;
      coldef "v" Ctype.Int;
    ]
    []

let typed_schema rel =
  Schema.make
    [
      (cr rel "n", Ctype.Float); (cr rel "s", Ctype.String);
      (cr rel "b", Ctype.Bool); (cr rel "v", Ctype.Int);
    ]

let typed_rows st n =
  let pick a = a.(Random.State.int st (Array.length a)) in
  List.init n (fun t -> [ pick num_keys; pick str_keys; pick bool_keys; i t ])

let load_typed ?storage trows urows =
  let db = Database.create ?storage () in
  Database.create_table db (typed_table "T");
  Database.create_table db (typed_table "U");
  Database.load db "T" trows;
  Database.load db "U" urows;
  db

let has_null idx (r : Row.t) = Array.exists (fun k -> Value.is_null r.(k)) idx

(* reference outputs, in the order the in-memory breakers promise *)
let reference_group idx rows =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun r ->
      let k = Row.key_on idx r in
      match Hashtbl.find_opt tbl k with
      | Some (_, n, sum) ->
          incr n;
          sum := !sum + (match r.(3) with Value.Int v -> v | _ -> 0)
      | None ->
          Hashtbl.add tbl k (r, ref 1, ref (match r.(3) with Value.Int v -> v | _ -> 0));
          order := k :: !order)
    rows;
  List.rev_map
    (fun k ->
      let first, n, sum = Hashtbl.find tbl k in
      Row.to_string (Array.append (Row.project idx first) [| i !n; i !sum |]))
    !order

let reference_distinct idx rows =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      let k = Row.key_on idx r in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some (Row.to_string (Row.project idx r))
      end)
    rows

let reference_join idx trows urows =
  let build = Hashtbl.create 64 in
  List.iter
    (fun t -> if not (has_null idx t) then Hashtbl.add build (Row.key_on idx t) t)
    trows;
  List.concat_map
    (fun u ->
      if has_null idx u then []
      else
        List.map
          (fun t -> Row.to_string (Row.concat t u))
          (Hashtbl.find_all build (Row.key_on idx u)))
    urows

let test_hash_breakers_differential () =
  let keysets = [ [ "n" ]; [ "n"; "s"; "b" ]; [ "b"; "n" ] ] in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let trows = typed_rows st 300 and urows = typed_rows st 300 in
      let arr = List.map Array.of_list in
      let ram = load_typed trows urows in
      let paged =
        load_typed
          ~storage:{ Database.pool_pages = Some 4; page_size = 1024; spill_dir = None }
          trows urows
      in
      Fun.protect
        ~finally:(fun () -> Database.close_storage paged)
        (fun () ->
          List.iter
            (fun keys ->
              let by = List.map (cr "T") keys in
              let idx = Schema.indices (typed_schema "T") by in
              let group =
                Plan.group ~by
                  ~aggs:[ Agg.count_star (cr "" "c"); Agg.sum (cr "" "t") (Expr.col "T" "v") ]
                  (Plan.scan ~table:"T" ~rel:"T" (typed_schema "T"))
              in
              let distinct =
                Plan.project ~dedup:true by
                  (Plan.scan ~table:"T" ~rel:"T" (typed_schema "T"))
              in
              let join =
                Plan.join
                  (Expr.conj
                     (List.map (fun c -> Expr.eq (Expr.col "T" c) (Expr.col "U" c)) keys))
                  (Plan.scan ~table:"T" ~rel:"T" (typed_schema "T"))
                  (Plan.scan ~table:"U" ~rel:"U" (typed_schema "U"))
              in
              let cases =
                [
                  ("group", group, reference_group idx (arr trows));
                  ("distinct", distinct, reference_distinct idx (arr trows));
                  ("join", join, reference_join idx (arr trows) (arr urows));
                ]
              in
              List.iter
                (fun (what, plan, want) ->
                  let name =
                    Printf.sprintf "seed %d %s on %s" seed what (String.concat "," keys)
                  in
                  let options =
                    { Exec.default_options with join_algo = Exec.Hash_join;
                      group_algo = Exec.Hash_group }
                  in
                  (* in memory: first-seen groups, probe order, newest-first *)
                  Alcotest.(check (list string)) (name ^ " in memory") want
                    (List.map Row.to_string (Exec.run_rows ~options ram plan));
                  (* spilling: the same rows, in no promised order *)
                  let sp = Spill.for_db paged in
                  let options = { options with spill = sp } in
                  Alcotest.(check (list string)) (name ^ " spilling, 4 pages")
                    (List.sort compare want)
                    (List.sort compare
                       (List.map Row.to_string (Exec.run_rows ~options paged plan)));
                  (* a join's build side always overflows the budget; a
                     group table when it has more groups than the budget *)
                  let sp = Option.get sp in
                  if what = "join" || List.length want > Spill.rows_budget sp then
                    Alcotest.(check bool) (name ^ " wrote spill runs") true
                      (Spill.run_pages sp > 0))
                cases)
            keysets))
    [ 11; 12; 13 ]

(* ---------------- one breaker at three budgets ---------------- *)

(* Every pipeline breaker is one algorithm: the RAM engine runs it under
   the unbounded budget, the paged engine under a page budget that it
   spills past.  Three engines load the same rows: RAM, paged with an
   unbounded pool (a 64-page budget, 1344 rows, that these inputs never
   reach) and paged at a 4-page pool (a 2-page budget, 42 rows, that
   every breaker here outgrows).  T.k is heavily tied (8 values and
   NULL), T.g has ~250 distinct values, T.v numbers the rows. *)
let kgv_table rel =
  Table_def.make rel
    [ coldef "k" Ctype.Int; coldef "g" Ctype.Int; coldef "v" Ctype.Int ]
    []

let kgv_scan rel =
  Plan.scan ~table:rel ~rel
    (Schema.make
       [ (cr rel "k", Ctype.Int); (cr rel "g", Ctype.Int); (cr rel "v", Ctype.Int) ])

let kgv_rows st n =
  List.init n (fun v ->
      let k = Random.State.int st 9 in
      [ (if k = 8 then Value.Null else i k); i (Random.State.int st 250); i v ])

(* [f] gets (engine name, database, fresh spill config per statement) *)
let with_three_budgets f =
  let st = Random.State.make [| 2026 |] in
  let trows = kgv_rows st 600 and urows = kgv_rows st 300 in
  let load storage =
    let db = Database.create ?storage () in
    Database.create_table db (kgv_table "T");
    Database.create_table db (kgv_table "U");
    Database.load db "T" trows;
    Database.load db "U" urows;
    db
  in
  let paged pool_pages =
    Some { Database.pool_pages; page_size = 1024; spill_dir = None }
  in
  let engines =
    [
      ("RAM", load None);
      ("paged, unbounded pool", load (paged None));
      ("paged, 4 pages", load (paged (Some 4)));
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, db) -> Database.close_storage db) engines)
    (fun () ->
      f (List.map (fun (name, db) -> (name, db, fun () -> Spill.for_db db)) engines))

let sum_v = Agg.sum (cr "" "s") (Expr.col "T" "v")

let test_one_breaker_three_budgets () =
  let t = kgv_scan "T" and u = kgv_scan "U" in
  let by_g = Plan.sort [ (cr "T" "g", false) ] t in
  let group input =
    Plan.group ~by:[ cr "T" "g" ] ~aggs:[ Agg.count_star (cr "" "n"); sum_v ] input
  in
  let group_keys input = Plan.group ~by:[ cr "T" "g" ] ~aggs:[] input in
  (* each breaker over an input whose order the RAM engine promises to
     keep, so the order claim is there to check *)
  let cases =
    [
      ("sort", Exec.Hash_group, Plan.sort [ (cr "T" "k", false) ] t);
      ( "hash join",
        Exec.Hash_group,
        Plan.join (Expr.eq (Expr.col "U" "g") (Expr.col "T" "g")) u by_g );
      ("hash group", Exec.Hash_group, group by_g);
      ("DISTINCT", Exec.Hash_group, Plan.project ~dedup:true [ cr "T" "g"; cr "T" "k" ] by_g);
      ("sort group", Exec.Sort_group, group t);
      (* a GROUP BY with no aggregate call keeps an empty state per group *)
      ("hash group, no aggregates", Exec.Hash_group, group_keys by_g);
      ("sort group, no aggregates", Exec.Sort_group, group_keys t);
    ]
  in
  with_three_budgets (fun engines ->
      List.iter
        (fun (what, group_algo, plan) ->
          let run (engine, db, spill) =
            let sp = spill () in
            let options =
              { Exec.default_options with join_algo = Exec.Hash_join; group_algo; spill = sp }
            in
            let h, _, order, prof = Exec.run_profiled ~options db plan in
            (engine, sp, Heap.to_list h, order, prof.Exec.peak_live_rows)
          in
          match List.map run engines with
          | [ (_, _, ram, ram_order, ram_peak); (_, Some unb, unb_rows, unb_order, unb_peak);
              (_, Some small, small_rows, small_order, small_peak) ] ->
              let name s = Printf.sprintf "%s: %s" what s in
              let strings = List.map Row.to_string in
              let _, rdb, _ = List.hd engines in
              Alcotest.(check bool) (name "RAM agrees with the reference") true
                (Exec.multiset_equal (Ref_eval.eval rdb plan) ram);
              Alcotest.(check bool) (name "same multiset, unbounded pool") true
                (Exec.multiset_equal ram unb_rows);
              Alcotest.(check bool) (name "same multiset, 4 pages") true
                (Exec.multiset_equal ram small_rows);
              (* RAM promises an order; the same code that never spills
                 produces RAM's exact row sequence *)
              Alcotest.(check bool) (name "RAM promises an order") true (ram_order <> []);
              Alcotest.(check (list string)) (name "RAM's row order, unbounded pool")
                (strings ram) (strings unb_rows);
              Alcotest.(check int) (name "peak live rows, RAM = never-spilling budget")
                ram_peak unb_peak;
              Alcotest.(check int) (name "no spill runs under the unbounded pool") 0
                (Spill.run_pages unb);
              (* a sort keeps its promise at every budget, stably; the hash
                 breakers promise nothing once they may spill *)
              if what = "sort" || String.starts_with ~prefix:"sort group" what then begin
                Alcotest.(check bool) (name "order promised at 4 pages") true
                  (small_order = ram_order && unb_order = ram_order);
                Alcotest.(check (list string)) (name "RAM's row order, 4 pages")
                  (strings ram) (strings small_rows)
              end
              else
                Alcotest.(check bool) (name "no order promised where it may spill") true
                  (unb_order = [] && small_order = []);
              (* at 4 pages the breaker outgrows its budget: it writes runs
                 and never holds more than the budget's rows *)
              Alcotest.(check bool) (name "input outgrows the 4-page budget") true
                (Spill.rows_budget small < 200);
              Alcotest.(check bool) (name "spill runs written at 4 pages") true
                (Spill.run_pages small > 0);
              Alcotest.(check bool)
                (name (Printf.sprintf "peak %d within the %d-row budget" small_peak
                         (Spill.rows_budget small)))
                true
                (small_peak <= Spill.rows_budget small)
          | _ -> Alcotest.fail "expected RAM, then two paged engines")
        cases)

(* The group budget counts a new group before it is added, at every
   budget: T.k has 9 groups (NULL is one), so [max_groups = 9] passes
   and [max_groups = 8] trips on the 9th group. *)
let test_group_budget_trips_alike () =
  let plan =
    Plan.group ~by:[ cr "T" "k" ] ~aggs:[ Agg.count_star (cr "" "n") ] (kgv_scan "T")
  in
  with_three_budgets (fun engines ->
      List.iter
        (fun (engine, db, spill) ->
          let run max_groups =
            let governor =
              Eager_robust.Governor.create
                { Eager_robust.Governor.no_limits with max_groups = Some max_groups }
            in
            let options = { Exec.default_options with governor; spill = spill () } in
            Exec.run_checked ~options db plan
          in
          (match run 9 with
          | Ok (h, _) -> Alcotest.(check int) (engine ^ ": 9 groups fit") 9 (Heap.length h)
          | Error e -> Alcotest.fail (engine ^ ": " ^ Eager_robust.Err.to_string e));
          match run 8 with
          | Ok _ -> Alcotest.fail (engine ^ ": the group budget did not trip")
          | Error e ->
              Alcotest.(check string) (engine ^ ": trips at the 9th group")
                "aggregation hash table exceeds 8 entries (9 live groups)"
                (Eager_robust.Err.msg e))
        engines)

(* An external sort that needs several merge passes stays stable: a
   heavily tied ORDER BY at a 4-page pool returns the RAM engine's exact
   row order. *)
let test_external_sort_stable () =
  let plan = Plan.sort [ (cr "T" "k", false) ] (kgv_scan "T") in
  with_three_budgets (fun engines ->
      let _, ram_db, _ = List.hd engines in
      let want = List.map Row.to_string (Exec.run_rows ram_db plan) in
      let _, db, spill = List.nth engines 2 in
      let sp = spill () in
      let cfg = Option.get sp in
      let runs = (600 + Spill.rows_budget cfg - 1) / Spill.rows_budget cfg in
      let fan = max 2 (Spill.budget_pages cfg - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "%d sorted runs need more than one merge pass at fan-in %d"
           runs fan)
        true (runs > fan * fan);
      let options = { Exec.default_options with spill = sp } in
      Alcotest.(check (list string)) "the RAM engine's row order" want
        (List.map Row.to_string (Exec.run_rows ~options db plan)))

(* SUM folds exactly as [Value.add] does, across its Int, Float and
   generic modes; MIN/MAX as [compare_total]; AVG over non-NULLs. *)
let test_accumulators_fold_like_value () =
  let schema = Schema.make [ (cr "T" "x", Ctype.Float) ] in
  let x = Expr.col "T" "x" in
  let aggs =
    [ Agg.sum (cr "" "s") x; Agg.min_ (cr "" "mn") x; Agg.max_ (cr "" "mx") x;
      Agg.avg (cr "" "av") x; Agg.count_distinct (cr "" "cd") x ]
  in
  let compiled = Agg_exec.compile schema aggs in
  let pool =
    [| Value.Null; i 3; i (-7); Value.Float 0.25; Value.Float (-0.);
       Value.Float 2.; Value.Float Float.nan; s "z"; Value.Bool true |]
  in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      (* numeric-only streams exercise the Int/Float modes; seeds >= 10
         let Str/Bool in, which drops SUM to its generic fold *)
      let n = if seed < 10 then 6 else Array.length pool in
      let vals = List.init 20 (fun _ -> pool.(Random.State.int st n)) in
      let state = Agg_exec.fresh compiled in
      List.iter (fun v -> Agg_exec.update compiled state [| v |]) vals;
      let got = Agg_exec.finalize compiled state in
      let nn = List.filter (fun v -> not (Value.is_null v)) vals in
      let fold f = match nn with [] -> Value.Null | v :: rest -> List.fold_left f v rest in
      let pick c a b = if c (Value.compare_total b a) then b else a in
      let avg =
        if nn = [] then Value.Null
        else
          let total =
            List.fold_left
              (fun acc v ->
                acc +. match v with Value.Int k -> float_of_int k | Value.Float f -> f | _ -> 0.)
              0. nn
          in
          Value.Float (total /. float_of_int (List.length nn))
      in
      let distinct = Hashtbl.create 8 in
      List.iter (fun v -> Hashtbl.replace distinct (Row.key_on [| 0 |] [| v |]) ()) nn;
      let want =
        [| fold Value.add; fold (pick (fun c -> c < 0)); fold (pick (fun c -> c > 0));
           avg; i (Hashtbl.length distinct) |]
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: %s" seed
           (String.concat " " (List.map Value.to_string vals)))
        (Row.to_string want) (Row.to_string got))
    (List.init 20 Fun.id)

(* ---------------- multiset equality ---------------- *)

let test_multiset_equal () =
  let r1 = [ [| i 1 |]; [| i 2 |]; [| i 1 |] ] in
  let r2 = [ [| i 2 |]; [| i 1 |]; [| i 1 |] ] in
  let r3 = [ [| i 1 |]; [| i 2 |] ] in
  let r4 = [ [| i 1 |]; [| i 2 |]; [| i 2 |] ] in
  Alcotest.(check bool) "permutation equal" true (Exec.multiset_equal r1 r2);
  Alcotest.(check bool) "different length" false (Exec.multiset_equal r1 r3);
  Alcotest.(check bool) "different multiplicity" false (Exec.multiset_equal r1 r4);
  Alcotest.(check bool) "NULLs compare =ⁿ" true
    (Exec.multiset_equal [ [| Value.Null |] ] [ [| Value.Null |] ])

(* ---------------- property: join algorithms agree on random data -------- *)

let small_val = QCheck.Gen.(oneof [ return Value.Null; map (fun n -> i n) (int_range 0 3) ])

let table_gen =
  QCheck.Gen.(list_size (int_range 0 12) (pair small_val small_val))

let prop_join_algos_agree =
  QCheck.Test.make ~count:120 ~name:"NL, hash and merge joins agree"
    (QCheck.make (QCheck.Gen.pair table_gen table_gen))
    (fun (trows, urows) ->
      let db = Database.create () in
      Database.create_table db
        (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
      Database.create_table db
        (Table_def.make "U" [ coldef "x" Ctype.Int; coldef "y" Ctype.Int ] []);
      Database.load db "T" (List.map (fun (a, b) -> [ a; b ]) trows);
      Database.load db "U" (List.map (fun (x, y) -> [ x; y ]) urows);
      let u_schema' =
        Schema.make [ (cr "U" "x", Ctype.Int); (cr "U" "y", Ctype.Int) ]
      in
      let j =
        Plan.join join_pred scan_t (Plan.scan ~table:"U" ~rel:"U" u_schema')
      in
      let run algo =
        rows db ~options:{ Exec.default_options with join_algo = algo } j
      in
      let nl = run Exec.Nested_loop in
      Exec.multiset_equal nl (run Exec.Hash_join)
      && Exec.multiset_equal nl (run Exec.Merge_join))

let prop_group_algos_agree =
  QCheck.Test.make ~count:120 ~name:"hash and sort grouping agree"
    (QCheck.make table_gen)
    (fun trows ->
      let db = Database.create () in
      Database.create_table db
        (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
      Database.load db "T" (List.map (fun (a, b) -> [ a; b ]) trows);
      let g =
        Plan.group ~by:[ cr "T" "a" ]
          ~aggs:
            [
              Agg.count_star (cr "" "n");
              Agg.sum (cr "" "s") (Expr.col "T" "b");
              Agg.min_ (cr "" "m") (Expr.col "T" "b");
            ]
          scan_t
      in
      let run algo =
        rows db ~options:{ Exec.default_options with group_algo = algo } g
      in
      Exec.multiset_equal (run Exec.Hash_group) (run Exec.Sort_group))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "exec"
    [
      ( "relational",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "select 3VL" `Quick test_select_3vl;
          Alcotest.test_case "project ALL/DISTINCT" `Quick
            test_project_all_and_distinct;
          Alcotest.test_case "DISTINCT merges NULL rows" `Quick
            test_distinct_null_pairs;
          Alcotest.test_case "product" `Quick test_product;
        ] );
      ( "joins",
        [
          Alcotest.test_case "algorithms agree" `Quick test_join_algorithms_agree;
          Alcotest.test_case "NULL keys never match" `Quick
            test_join_null_keys_never_match;
          Alcotest.test_case "residual predicates" `Quick
            test_join_residual_predicate;
          Alcotest.test_case "theta join fallback" `Quick
            test_theta_join_falls_back;
          Alcotest.test_case "equi-key extraction" `Quick test_split_equijoin;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "NULL group keys" `Quick test_group_null_key;
          Alcotest.test_case "aggregate NULL rules" `Quick
            test_aggregate_null_rules;
          Alcotest.test_case "all-NULL group" `Quick test_aggregate_all_null_group;
          Alcotest.test_case "scalar agg on empty input" `Quick
            test_scalar_agg_empty_input;
          Alcotest.test_case "arithmetic over aggregates" `Quick
            test_agg_arith_expression;
          Alcotest.test_case "COUNT(DISTINCT)" `Quick test_count_distinct;
        ] );
      ("sort", [ Alcotest.test_case "ORDER BY semantics" `Quick test_sort ]);
      ( "order propagation",
        [
          Alcotest.test_case "claims and physical order" `Quick
            test_order_propagation;
          Alcotest.test_case "merge join skips presorted input" `Quick
            test_merge_join_skips_presorted;
          Alcotest.test_case "Map operator + order" `Quick test_map_operator;
          QCheck_alcotest.to_alcotest prop_claimed_order_is_real;
        ] );
      ( "multiset",
        [ Alcotest.test_case "multiset_equal" `Quick test_multiset_equal ] );
      ( "row hash table",
        [
          Alcotest.test_case "differential against Row.key_on" `Quick
            test_rowtbl_differential;
          Alcotest.test_case "hash breakers, in memory and spilling" `Quick
            test_hash_breakers_differential;
          Alcotest.test_case "accumulators fold like Value" `Quick
            test_accumulators_fold_like_value;
        ] );
      ( "stats",
        [
          Alcotest.test_case "operator tree" `Quick test_optree;
          Alcotest.test_case "find_all" `Quick test_optree_find_all;
        ] );
      ( "batch pipeline",
        [
          Alcotest.test_case "batch-size invariance" `Quick
            test_batch_size_invariance;
          Alcotest.test_case "corpus differential" `Quick
            test_corpus_differential;
          Alcotest.test_case "generated differential" `Quick
            test_generated_differential;
          Alcotest.test_case "peak live rows" `Quick test_profile_peak;
          Alcotest.test_case "paged pool sweep" `Quick test_paged_pool_sweep;
        ] );
      ( "breakers",
        [
          Alcotest.test_case "one breaker at three budgets" `Quick
            test_one_breaker_three_budgets;
          Alcotest.test_case "group budget trips alike" `Quick
            test_group_budget_trips_alike;
          Alcotest.test_case "external sort stable across passes" `Quick
            test_external_sort_stable;
        ] );
      ("properties", qsuite [ prop_join_algos_agree; prop_group_algos_agree ]);
    ]
