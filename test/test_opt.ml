(* Optimizer tests: selectivity heuristics, cardinality estimation on the
   paper workloads, cost ordering (Figure 1 vs Figure 8) and the planner's
   combined validity + profitability decision. *)

open Eager_schema
open Eager_expr
open Eager_core
open Eager_opt
open Eager_workload

let cr = Colref.make

(* ---------------- selectivity ---------------- *)

let test_selectivity () =
  let ndv c = if c.Colref.name = "wide" then 100. else 10. in
  let sel = Estimate.selectivity ~ndv in
  let wide = Expr.col "R" "wide" and narrow = Expr.col "R" "narrow" in
  Alcotest.(check (float 1e-9)) "eq const = 1/ndv" 0.01
    (sel (Expr.eq wide (Expr.int 1)));
  Alcotest.(check (float 1e-9)) "eq col-col = 1/max" 0.01
    (sel (Expr.eq wide narrow));
  Alcotest.(check (float 1e-9)) "range = 1/3" (1. /. 3.)
    (sel (Expr.Cmp (Expr.Lt, wide, Expr.int 1)));
  Alcotest.(check (float 1e-9)) "conjunction multiplies" 0.001
    (sel (Expr.And (Expr.eq wide (Expr.int 1), Expr.eq narrow (Expr.int 1))));
  let s_or =
    sel (Expr.Or (Expr.eq wide (Expr.int 1), Expr.eq narrow (Expr.int 1)))
  in
  Alcotest.(check (float 1e-9)) "disjunction incl-excl" (0.01 +. 0.1 -. 0.001) s_or;
  Alcotest.(check (float 1e-9)) "negation" 0.99
    (sel (Expr.Not (Expr.eq wide (Expr.int 1))));
  Alcotest.(check (float 1e-9)) "TRUE" 1.0 (sel Expr.etrue);
  Alcotest.(check (float 1e-9)) "FALSE" 0.0 (sel Expr.efalse)

(* ---------------- estimation on a real workload ---------------- *)

let test_estimates_fig1 () =
  let w = Employee_dept.setup ~employees:2000 ~departments:40 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let e1 = Plans.e1 db q in
  let c_e1 = Estimate.card db e1 in
  (* 40 true groups; the estimator (with exponential backoff over the two
     correlated grouping columns) must land between the department count
     and a small multiple of it, far below the employee count *)
  Alcotest.(check bool)
    (Printf.sprintf "E1 output ≈ departments (got %.0f)" c_e1)
    true
    (c_e1 >= 20. && c_e1 <= 400.);
  let e2 = Plans.e2 db q in
  let c_e2 = Estimate.card db e2 in
  Alcotest.(check bool)
    (Printf.sprintf "E2 output ≈ departments (got %.0f)" c_e2)
    true
    (c_e2 >= 20. && c_e2 <= 400.)

let test_estimate_profile_scan () =
  let w = Employee_dept.setup ~employees:500 ~departments:10 () in
  let db = w.Employee_dept.db in
  let q = w.Employee_dept.query in
  let p = Estimate.profile db (Plans.side1 db q) in
  Alcotest.(check (float 1.0)) "scan card" 500. p.Estimate.card;
  let dept_ndv = Colref.Map.find (cr "E" "DeptID") p.Estimate.ndv in
  Alcotest.(check bool) "DeptID ndv ≈ 10" true (dept_ndv >= 8. && dept_ndv <= 12.)

(* ---------------- cost ordering ---------------- *)

let test_cost_prefers_eager_on_fig1 () =
  let w = Employee_dept.setup () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let c1 = Cost.cost db (Plans.e1 db q) in
  let c2 = Cost.cost db (Plans.e2 db q) in
  Alcotest.(check bool)
    (Printf.sprintf "E2 cheaper on Figure 1 (%.0f vs %.0f)" c2 c1)
    true (c2 < c1)

let test_cost_prefers_lazy_on_fig8 () =
  let w = Contrived.setup () in
  let db = w.Contrived.db and q = w.Contrived.query in
  let c1 = Cost.cost db (Plans.e1 db q) in
  let c2 = Cost.cost db (Plans.e2 db q) in
  Alcotest.(check bool)
    (Printf.sprintf "E1 cheaper on Figure 8 (%.0f vs %.0f)" c1 c2)
    true (c1 < c2)

let test_cost_breakdown () =
  let w = Employee_dept.setup ~employees:100 ~departments:5 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let b = Cost.breakdown db (Plans.e1 db q) in
  Alcotest.(check bool) "total positive" true (b.Cost.total > 0.);
  Alcotest.(check bool) "total bounds node" true (b.Cost.total >= b.Cost.node_cost);
  let text = Format.asprintf "%a" Cost.pp_breakdown b in
  Alcotest.(check bool) "breakdown prints" true (String.length text > 50)

(* ---------------- planner ---------------- *)

let decide_ok db q =
  match Planner.decide db q with
  | Ok d -> d
  | Error e -> Alcotest.fail ("Planner.decide: " ^ Eager_robust.Err.to_string e)

let test_planner_fig1 () =
  let w = Employee_dept.setup () in
  let d = decide_ok w.Employee_dept.db w.Employee_dept.query in
  (match d.Planner.verdict with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail r);
  Alcotest.(check bool) "eager plan exists" true (Option.is_some d.Planner.plan_eager);
  (match d.Planner.chosen_kind with
  | Planner.Eager_group -> ()
  | Planner.Lazy_group | Planner.Eager_partial_group ->
      Alcotest.fail "planner should pick E2 on Figure 1")

let test_planner_fig8 () =
  let w = Contrived.setup () in
  let d = decide_ok w.Contrived.db w.Contrived.query in
  (match d.Planner.verdict with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("valid but refused: " ^ r));
  match d.Planner.chosen_kind with
  | Planner.Lazy_group -> ()
  | Planner.Eager_group | Planner.Eager_partial_group ->
      Alcotest.fail "planner should pick E1 on Figure 8"

let test_planner_invalid_query () =
  (* invalid transformation: no eager plan is even proposed *)
  let w = Employee_dept.setup ~employees:200 ~departments:10 () in
  let db = w.Employee_dept.db in
  let q =
    Canonical.of_input_exn db
      {
        Canonical.sources =
          [
            { Canonical.table = "Employee"; rel = "E" };
            { Canonical.table = "Department"; rel = "D" };
          ];
        where = Expr.eq (Expr.col "E" "DeptID") (Expr.col "D" "DeptID");
        group_by = [ cr "D" "Name" ];
        select_cols = [ cr "D" "Name" ];
        select_aggs =
          [ Eager_algebra.Agg.count (cr "" "n") (Expr.col "E" "EmpID") ];
        select_distinct = false;
        select_having = None;
        r1_hint = [];
      }
  in
  let d = decide_ok db q in
  Alcotest.(check bool) "no full eager plan" true
    (Option.is_none d.Planner.plan_eager);
  (match d.Planner.chosen_kind with
  | Planner.Eager_group ->
      Alcotest.fail "full E2 must not be chosen when TestFD says NO"
  | Planner.Lazy_group | Planner.Eager_partial_group -> ());
  (* the unverified full rewrite never even appears among the candidates *)
  Alcotest.(check bool) "no full-E2 candidate" true
    (List.for_all
       (fun (p : Placement.t) -> p.Placement.mode <> Placement.Eager_full)
       d.Planner.candidates);
  (* the partial rewrite needs no FD check, so it may (and here does)
     still beat E1 *)
  Alcotest.(check bool) "a partial candidate was enumerated" true
    (List.exists
       (fun (p : Placement.t) -> p.Placement.mode = Placement.Eager_partial)
       d.Planner.candidates);
  let text = Explain.text db d in
  Alcotest.(check bool) "explain prints" true (String.length text > 20)

(* histogram-aware range selectivity: a skewed column's estimate must beat
   the uniform 1/3 guess *)
let test_histogram_selectivity () =
  let open Eager_catalog in
  let open Eager_storage in
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "Sk"
       [ { Table_def.cname = "v"; ctype = Eager_schema.Ctype.Int; domain = None } ]
       []);
  for i = 0 to 89 do
    Database.insert_exn db "Sk" [ Eager_value.Value.Int (i mod 10) ]
  done;
  for i = 0 to 9 do
    Database.insert_exn db "Sk" [ Eager_value.Value.Int (90 + i) ]
  done;
  let td = Option.get (Catalog.find_table (Database.catalog db) "Sk") in
  let scan = Eager_algebra.Plan.scan ~table:"Sk" ~rel:"S" (Table_def.schema ~rel:"S" td) in
  let sel =
    Eager_algebra.Plan.select
      (Expr.Cmp (Expr.Lt, Expr.col "S" "v", Expr.int 50))
      scan
  in
  let est = Estimate.card db sel in
  let actual =
    float_of_int (List.length (Eager_exec.Exec.run_rows db sel))
  in
  Alcotest.(check (float 1e-9)) "actual is 90" 90. actual;
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within 15%% of 90" est)
    true
    (est > 76. && est < 104.);
  (* the other side of the skew *)
  let sel_hi =
    Eager_algebra.Plan.select
      (Expr.Cmp (Expr.Ge, Expr.col "S" "v", Expr.int 50))
      scan
  in
  let est_hi = Estimate.card db sel_hi in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f near 10" est_hi)
    true
    (est_hi > 2. && est_hi < 25.)

(* ---------------- DP join ordering ---------------- *)

(* A(60) and B(60) each join the 5-row C; written in the FROM order A, B, C
   the greedy builder starts with the cross product A×B.  The DP enumerator
   must find an order that joins through C instead. *)
let star_db () =
  let open Eager_catalog in
  let open Eager_storage in
  let coldef name ctype : Table_def.column_def =
    { Table_def.cname = name; ctype; domain = None }
  in
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "C" [ coldef "id" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "id" ] ]);
  Database.create_table db
    (Table_def.make "A"
       [ coldef "aid" Eager_schema.Ctype.Int; coldef "c" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "aid" ] ]);
  Database.create_table db
    (Table_def.make "B"
       [ coldef "bid" Eager_schema.Ctype.Int; coldef "c" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "bid" ] ]);
  for i = 1 to 5 do
    Database.insert_exn db "C" [ Eager_value.Value.Int i ]
  done;
  for i = 1 to 60 do
    Database.insert_exn db "A"
      [ Eager_value.Value.Int i; Eager_value.Value.Int (1 + (i mod 5)) ];
    Database.insert_exn db "B"
      [ Eager_value.Value.Int i; Eager_value.Value.Int (1 + (i mod 5)) ]
  done;
  let sources =
    [
      { Canonical.table = "A"; rel = "A" };
      { Canonical.table = "B"; rel = "B" };
      { Canonical.table = "C"; rel = "C" };
    ]
  in
  let conjuncts =
    [
      Expr.eq (Expr.col "A" "c") (Expr.col "C" "id");
      Expr.eq (Expr.col "B" "c") (Expr.col "C" "id");
    ]
  in
  (db, sources, conjuncts)

let test_join_order_beats_greedy () =
  let db, sources, conjuncts = star_db () in
  let greedy = Plans.join_tree db sources conjuncts in
  let dp = Join_order.best_tree db sources conjuncts in
  let cg = Cost.cost db greedy and cd = Cost.cost db dp in
  Alcotest.(check bool)
    (Printf.sprintf "DP (%.0f) beats greedy (%.0f)" cd cg)
    true (cd < cg);
  (* the greedy plan contains a cross product; the DP plan must not *)
  let rec has_product = function
    | Eager_algebra.Plan.Product _ -> true
    | Eager_algebra.Plan.Scan _ -> false
    | Eager_algebra.Plan.Select { input; _ }
    | Eager_algebra.Plan.Project { input; _ }
    | Eager_algebra.Plan.Group { input; _ }
    | Eager_algebra.Plan.Partial_group { input; _ }
    | Eager_algebra.Plan.Sort { input; _ }
    | Eager_algebra.Plan.Map { input; _ } ->
        has_product input
    | Eager_algebra.Plan.Join { left; right; _ } ->
        has_product left || has_product right
  in
  Alcotest.(check bool) "greedy has the cross product" true (has_product greedy);
  Alcotest.(check bool) "DP avoids it" false (has_product dp);
  (* and both compute the same multiset *)
  let rg = Eager_exec.Exec.run_rows db greedy in
  let rd = Eager_exec.Exec.run_rows db dp in
  (* column orders differ between trees, so compare projected *)
  let proj plan rows =
    let schema = Eager_algebra.Plan.schema_of plan in
    let cols =
      List.sort Colref.compare (Eager_schema.Schema.colrefs schema)
    in
    let idxs = Eager_schema.Schema.indices schema cols in
    List.map (Eager_schema.Row.project idxs) rows
  in
  Alcotest.(check bool) "same result" true
    (Eager_exec.Exec.multiset_equal (proj greedy rg) (proj dp rd))

let test_planner_uses_dp_for_wide_sides () =
  let db, _, _ = star_db () in
  (* a grouping dimension so the query enters the canonical class with
     R1 = {A, B, C} (three tables) and R2 = {G} *)
  let open Eager_catalog in
  let open Eager_storage in
  let coldef name ctype : Table_def.column_def =
    { Table_def.cname = name; ctype; domain = None }
  in
  Database.create_table db
    (Table_def.make "G"
       [ coldef "gid" Eager_schema.Ctype.Int; coldef "cid" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "gid" ] ]);
  for g = 1 to 5 do
    Database.insert_exn db "G" [ Eager_value.Value.Int g; Eager_value.Value.Int g ]
  done;
  let q =
    Canonical.of_input_exn db
      {
        Canonical.sources =
          [
            { Canonical.table = "A"; rel = "A" };
            { Canonical.table = "B"; rel = "B" };
            { Canonical.table = "C"; rel = "C" };
            { Canonical.table = "G"; rel = "G" };
          ];
        where =
          Expr.conj
            [
              Expr.eq (Expr.col "A" "c") (Expr.col "C" "id");
              Expr.eq (Expr.col "B" "c") (Expr.col "C" "id");
              Expr.eq (Expr.col "C" "id") (Expr.col "G" "cid");
            ];
        group_by = [ cr "G" "gid" ];
        select_cols = [ cr "G" "gid" ];
        select_aggs =
          [
            Eager_algebra.Agg.count (cr "" "na") (Expr.col "A" "aid");
            Eager_algebra.Agg.max_ (cr "" "mb") (Expr.col "B" "bid");
          ];
        select_distinct = false;
        select_having = None;
        r1_hint = [ "C" ];
      }
  in
  Alcotest.(check int) "three tables on R1" 3 (List.length q.Canonical.r1);
  let d = decide_ok db q in
  let rec has_product = function
    | Eager_algebra.Plan.Product _ -> true
    | Eager_algebra.Plan.Scan _ -> false
    | Eager_algebra.Plan.Select { input; _ }
    | Eager_algebra.Plan.Project { input; _ }
    | Eager_algebra.Plan.Group { input; _ }
    | Eager_algebra.Plan.Partial_group { input; _ }
    | Eager_algebra.Plan.Sort { input; _ }
    | Eager_algebra.Plan.Map { input; _ } ->
        has_product input
    | Eager_algebra.Plan.Join { left; right; _ } ->
        has_product left || has_product right
  in
  Alcotest.(check bool) "planner's lazy plan avoids the cross product" false
    (has_product d.Planner.plan_lazy);
  Alcotest.(check bool) "greedy FROM-order plan had one" true
    (has_product (Plans.e1 db q));
  (* and the DP-ordered plan computes the same result *)
  let r_dp = Eager_exec.Exec.run_rows db d.Planner.plan_lazy in
  let r_greedy = Eager_exec.Exec.run_rows db (Plans.e1 db q) in
  Alcotest.(check bool) "same result" true
    (Eager_exec.Exec.multiset_equal r_dp r_greedy)

let test_join_order_single_and_fallback () =
  let db, sources, conjuncts = star_db () in
  (* single relation: just the filtered scan *)
  (match Join_order.best_tree db [ List.hd sources ] [] with
  | Eager_algebra.Plan.Scan _ -> ()
  | _ -> Alcotest.fail "single source should be a scan");
  (* over budget: falls back to the greedy tree (still executable) *)
  let p = Join_order.best_tree ~max_relations:2 db sources conjuncts in
  Alcotest.(check bool) "fallback executes" true
    (List.length (Eager_exec.Exec.run_rows db p) > 0)

let () =
  Alcotest.run "opt"
    [
      ("selectivity", [ Alcotest.test_case "heuristics" `Quick test_selectivity ]);
      ( "estimation",
        [
          Alcotest.test_case "Figure 1 outputs" `Quick test_estimates_fig1;
          Alcotest.test_case "scan profile" `Quick test_estimate_profile_scan;
          Alcotest.test_case "histogram range selectivity" `Quick
            test_histogram_selectivity;
        ] );
      ( "cost",
        [
          Alcotest.test_case "Figure 1 favours eager" `Quick
            test_cost_prefers_eager_on_fig1;
          Alcotest.test_case "Figure 8 favours lazy" `Quick
            test_cost_prefers_lazy_on_fig8;
          Alcotest.test_case "breakdown" `Quick test_cost_breakdown;
        ] );
      ( "planner",
        [
          Alcotest.test_case "Figure 1 decision" `Quick test_planner_fig1;
          Alcotest.test_case "Figure 8 decision" `Quick test_planner_fig8;
          Alcotest.test_case "invalid query fallback" `Quick
            test_planner_invalid_query;
        ] );
      ( "join order",
        [
          Alcotest.test_case "DP beats greedy on a star" `Quick
            test_join_order_beats_greedy;
          Alcotest.test_case "degenerate cases" `Quick
            test_join_order_single_and_fallback;
          Alcotest.test_case "planner uses DP on wide sides" `Quick
            test_planner_uses_dp_for_wide_sides;
        ] );
    ]
