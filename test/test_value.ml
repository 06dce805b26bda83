(* Unit and property tests for the SQL value domain and three-valued logic.
   Figure 2 (AND/OR truth tables) and Figure 3 (interpretation operators and
   the =ⁿ duplicate equality) are checked exhaustively. *)

open Eager_value

let tb = Alcotest.testable Tbool.pp Tbool.equal
let vv = Alcotest.testable Value.pp Value.equal

let all3 = [ Tbool.True; Tbool.Unknown; Tbool.False ]

(* Figure 2, AND table: rows/cols in order true, unknown, false *)
let fig2_and =
  [
    (Tbool.True, Tbool.True, Tbool.True);
    (Tbool.True, Tbool.Unknown, Tbool.Unknown);
    (Tbool.True, Tbool.False, Tbool.False);
    (Tbool.Unknown, Tbool.True, Tbool.Unknown);
    (Tbool.Unknown, Tbool.Unknown, Tbool.Unknown);
    (Tbool.Unknown, Tbool.False, Tbool.False);
    (Tbool.False, Tbool.True, Tbool.False);
    (Tbool.False, Tbool.Unknown, Tbool.False);
    (Tbool.False, Tbool.False, Tbool.False);
  ]

let fig2_or =
  [
    (Tbool.True, Tbool.True, Tbool.True);
    (Tbool.True, Tbool.Unknown, Tbool.True);
    (Tbool.True, Tbool.False, Tbool.True);
    (Tbool.Unknown, Tbool.True, Tbool.True);
    (Tbool.Unknown, Tbool.Unknown, Tbool.Unknown);
    (Tbool.Unknown, Tbool.False, Tbool.Unknown);
    (Tbool.False, Tbool.True, Tbool.True);
    (Tbool.False, Tbool.Unknown, Tbool.Unknown);
    (Tbool.False, Tbool.False, Tbool.False);
  ]

let test_fig2_and () =
  List.iter
    (fun (a, b, expect) ->
      Alcotest.check tb
        (Printf.sprintf "%s AND %s" (Tbool.to_string a) (Tbool.to_string b))
        expect (Tbool.and_ a b))
    fig2_and

let test_fig2_or () =
  List.iter
    (fun (a, b, expect) ->
      Alcotest.check tb
        (Printf.sprintf "%s OR %s" (Tbool.to_string a) (Tbool.to_string b))
        expect (Tbool.or_ a b))
    fig2_or

let test_not () =
  Alcotest.check tb "not true" Tbool.False (Tbool.not_ Tbool.True);
  Alcotest.check tb "not false" Tbool.True (Tbool.not_ Tbool.False);
  Alcotest.check tb "not unknown" Tbool.Unknown (Tbool.not_ Tbool.Unknown)

(* Figure 3: ⌊P⌋ maps unknown to false, ⌈P⌉ maps unknown to true *)
let test_fig3_interpreters () =
  Alcotest.(check bool) "⌊true⌋" true (Tbool.holds Tbool.True);
  Alcotest.(check bool) "⌊unknown⌋" false (Tbool.holds Tbool.Unknown);
  Alcotest.(check bool) "⌊false⌋" false (Tbool.holds Tbool.False);
  Alcotest.(check bool) "⌈true⌉" true (Tbool.possible Tbool.True);
  Alcotest.(check bool) "⌈unknown⌉" true (Tbool.possible Tbool.Unknown);
  Alcotest.(check bool) "⌈false⌉" false (Tbool.possible Tbool.False)

(* Figure 3: =ⁿ — NULL equal to NULL for duplicate purposes *)
let test_null_eq () =
  Alcotest.(check bool) "NULL =ⁿ NULL" true (Value.null_eq Value.Null Value.Null);
  Alcotest.(check bool) "NULL =ⁿ 1" false (Value.null_eq Value.Null (Value.Int 1));
  Alcotest.(check bool) "1 =ⁿ NULL" false (Value.null_eq (Value.Int 1) Value.Null);
  Alcotest.(check bool) "1 =ⁿ 1" true (Value.null_eq (Value.Int 1) (Value.Int 1));
  Alcotest.(check bool) "1 =ⁿ 2" false (Value.null_eq (Value.Int 1) (Value.Int 2));
  Alcotest.(check bool) "1 =ⁿ 1.0 (numeric coercion)" true
    (Value.null_eq (Value.Int 1) (Value.Float 1.0));
  Alcotest.(check bool) "'a' =ⁿ 'a'" true
    (Value.null_eq (Value.Str "a") (Value.Str "a"))

let test_cmp_null_is_unknown () =
  List.iter
    (fun f ->
      Alcotest.check tb "cmp with NULL left" Tbool.Unknown
        (f Value.Null (Value.Int 1));
      Alcotest.check tb "cmp with NULL right" Tbool.Unknown
        (f (Value.Int 1) Value.Null);
      Alcotest.check tb "cmp NULL NULL" Tbool.Unknown (f Value.Null Value.Null))
    [ Value.cmp_eq; Value.cmp_ne; Value.cmp_lt; Value.cmp_le; Value.cmp_gt; Value.cmp_ge ]

let test_cmp_values () =
  Alcotest.check tb "1 = 1" Tbool.True (Value.cmp_eq (Value.Int 1) (Value.Int 1));
  Alcotest.check tb "1 <> 1" Tbool.False (Value.cmp_ne (Value.Int 1) (Value.Int 1));
  Alcotest.check tb "1 < 2" Tbool.True (Value.cmp_lt (Value.Int 1) (Value.Int 2));
  Alcotest.check tb "2 <= 1" Tbool.False (Value.cmp_le (Value.Int 2) (Value.Int 1));
  Alcotest.check tb "2 > 1" Tbool.True (Value.cmp_gt (Value.Int 2) (Value.Int 1));
  Alcotest.check tb "1 >= 1" Tbool.True (Value.cmp_ge (Value.Int 1) (Value.Int 1));
  Alcotest.check tb "int vs float" Tbool.True
    (Value.cmp_eq (Value.Int 2) (Value.Float 2.0));
  Alcotest.check tb "1.5 < 2" Tbool.True
    (Value.cmp_lt (Value.Float 1.5) (Value.Int 2));
  Alcotest.check tb "'a' < 'b'" Tbool.True
    (Value.cmp_lt (Value.Str "a") (Value.Str "b"))

let test_arith () =
  Alcotest.check vv "1+2" (Value.Int 3) (Value.add (Value.Int 1) (Value.Int 2));
  Alcotest.check vv "1+NULL" Value.Null (Value.add (Value.Int 1) Value.Null);
  Alcotest.check vv "NULL*2" Value.Null (Value.mul Value.Null (Value.Int 2));
  Alcotest.check vv "mixed 1+2.5" (Value.Float 3.5)
    (Value.add (Value.Int 1) (Value.Float 2.5));
  Alcotest.check vv "7/2 int division" (Value.Int 3)
    (Value.div (Value.Int 7) (Value.Int 2));
  Alcotest.check vv "7.0/2" (Value.Float 3.5)
    (Value.div (Value.Float 7.0) (Value.Int 2));
  Alcotest.check vv "div by zero is NULL" Value.Null
    (Value.div (Value.Int 7) (Value.Int 0));
  Alcotest.check vv "float div by zero is NULL" Value.Null
    (Value.div (Value.Float 7.0) (Value.Float 0.0));
  Alcotest.check vv "neg" (Value.Int (-3)) (Value.neg (Value.Int 3));
  Alcotest.check vv "neg NULL" Value.Null (Value.neg Value.Null)

let test_compare_total () =
  Alcotest.(check int) "NULL = NULL in total order" 0
    (Value.compare_total Value.Null Value.Null);
  Alcotest.(check bool) "NULL sorts first" true
    (Value.compare_total Value.Null (Value.Int 0) < 0);
  Alcotest.(check int) "2 vs 2.0" 0
    (Value.compare_total (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "1 before 2" true
    (Value.compare_total (Value.Int 1) (Value.Int 2) < 0)

(* The grouping-key equality is equality of [canonical_num] forms, and
   [hash] is constant on its classes — across the 2^53 edge, signed
   zeros, NaNs and huge whole Floats that stay Floats. *)
let test_key_equal_and_hash () =
  let two53 = 9007199254740992 in
  let pool =
    Value.
      [
        Null; Int 0; Int 1; Int two53; Int (two53 + 1); Int (two53 + 2);
        Float 0.; Float (-0.); Float 1.; Float 9007199254740992.;
        Float 9007199254740994.; Float 1e300; Float 0.5; Float Float.nan;
        Float (-.Float.nan); Str "a"; Str ""; Bool true; Bool false;
      ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let name = Value.to_string a ^ " vs " ^ Value.to_string b in
          let same = compare (Value.canonical_num a) (Value.canonical_num b) = 0 in
          Alcotest.(check bool) ("key_equal " ^ name) same (Value.key_equal a b);
          if same then
            Alcotest.(check int) ("hash " ^ name) (Value.hash a) (Value.hash b))
        pool)
    pool

(* ---------------- qcheck generators and properties ---------------- *)

let value_gen : Value.t QCheck.arbitrary =
  QCheck.make ~print:Value.to_string
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun n -> Value.Int n) (int_range (-4) 4);
          map (fun f -> Value.Float (float_of_int f /. 2.)) (int_range (-4) 4);
          map (fun b -> Value.Bool b) bool;
          map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "c" ]);
        ])

let tbool_gen = QCheck.make QCheck.Gen.(oneofl all3)

let prop_compare_total_consistent_with_null_eq =
  QCheck.Test.make ~count:500
    ~name:"compare_total = 0 iff null_eq"
    (QCheck.pair value_gen value_gen)
    (fun (a, b) -> Value.compare_total a b = 0 = Value.null_eq a b)

let prop_compare_total_antisym =
  QCheck.Test.make ~count:500 ~name:"compare_total antisymmetric"
    (QCheck.pair value_gen value_gen)
    (fun (a, b) ->
      compare (Value.compare_total a b) 0 = compare 0 (Value.compare_total b a))

let prop_compare_total_transitive =
  QCheck.Test.make ~count:500 ~name:"compare_total transitive"
    (QCheck.triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      if Value.compare_total a b <= 0 && Value.compare_total b c <= 0 then
        Value.compare_total a c <= 0
      else true)

let prop_null_eq_equivalence =
  QCheck.Test.make ~count:500 ~name:"null_eq is an equivalence"
    (QCheck.triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      Value.null_eq a a
      && Value.null_eq a b = Value.null_eq b a
      && if Value.null_eq a b && Value.null_eq b c then Value.null_eq a c
         else true)

let prop_and_commutative =
  QCheck.Test.make ~count:200 ~name:"AND commutative"
    (QCheck.pair tbool_gen tbool_gen)
    (fun (a, b) -> Tbool.and_ a b = Tbool.and_ b a)

let prop_or_commutative =
  QCheck.Test.make ~count:200 ~name:"OR commutative"
    (QCheck.pair tbool_gen tbool_gen)
    (fun (a, b) -> Tbool.or_ a b = Tbool.or_ b a)

let prop_de_morgan =
  QCheck.Test.make ~count:200 ~name:"De Morgan holds in Kleene logic"
    (QCheck.pair tbool_gen tbool_gen)
    (fun (a, b) ->
      Tbool.not_ (Tbool.and_ a b) = Tbool.or_ (Tbool.not_ a) (Tbool.not_ b)
      && Tbool.not_ (Tbool.or_ a b) = Tbool.and_ (Tbool.not_ a) (Tbool.not_ b))

let prop_distributivity =
  QCheck.Test.make ~count:200 ~name:"AND distributes over OR (Kleene)"
    (QCheck.triple tbool_gen tbool_gen tbool_gen)
    (fun (a, b, c) ->
      Tbool.and_ a (Tbool.or_ b c)
      = Tbool.or_ (Tbool.and_ a b) (Tbool.and_ a c))

let prop_arith_null_propagates =
  QCheck.Test.make ~count:300 ~name:"arithmetic propagates NULL"
    value_gen
    (fun v ->
      Value.is_null (Value.add v Value.Null)
      && Value.is_null (Value.mul Value.Null v))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "value"
    [
      ( "tbool-fig2",
        [
          Alcotest.test_case "AND truth table" `Quick test_fig2_and;
          Alcotest.test_case "OR truth table" `Quick test_fig2_or;
          Alcotest.test_case "NOT" `Quick test_not;
          Alcotest.test_case "fig3 interpreters" `Quick test_fig3_interpreters;
        ] );
      ( "value",
        [
          Alcotest.test_case "null_eq (=ⁿ)" `Quick test_null_eq;
          Alcotest.test_case "cmp with NULL" `Quick test_cmp_null_is_unknown;
          Alcotest.test_case "cmp values" `Quick test_cmp_values;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "total order" `Quick test_compare_total;
          Alcotest.test_case "key equality and hash" `Quick
            test_key_equal_and_hash;
        ] );
      qsuite "properties"
        [
          prop_compare_total_consistent_with_null_eq;
          prop_compare_total_antisym;
          prop_compare_total_transitive;
          prop_null_eq_equivalence;
          prop_and_commutative;
          prop_or_commutative;
          prop_de_morgan;
          prop_distributivity;
          prop_arith_null_propagates;
        ];
    ]
