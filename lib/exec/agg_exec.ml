open Eager_value
open Eager_schema
open Eager_expr
open Eager_algebra

(* A float slot stored flat: a record of floats alone holds them
   unboxed, so [c.f <- c.f +. x] allocates nothing. *)
type fcell = { mutable f : float }

(* Accumulator for one aggregate-function call, mutated in place.  SUM
   moves between modes as operands arrive — none seen, all-Int, Float
   (once a Float meets the sum) and the generic [Value.add] fold for
   anything else — and each mode folds exactly as [Value.add] would. *)
type acc =
  | Acount_star of { mutable n : int }
  | Acount of { mutable n : int }
  | Adistinct of unit Rowtbl.t  (* =ⁿ classes seen, as one-column rows *)
  | Asum_none
  | Asum_int of { mutable n : int }
  | Asum_float of fcell
  | Asum_value of { mutable v : Value.t }
  | Amin of { mutable v : Value.t }  (* NULL until the first non-NULL operand *)
  | Amax of { mutable v : Value.t }
  | Aavg of { mutable n : int; sum : fcell }  (* non-NULL count, running sum *)

(* A compiled Call site: the operand evaluator (None for COUNT star) plus a
   constructor for its accumulator and the fold step. *)
type call_site = { operand : (Row.t -> Value.t) option; kind : Agg.func }

(* The calc tree with Call nodes replaced by call-site indices. *)
type calc_ir =
  | Iconst of Value.t
  | Icall of int
  | Iarith of Expr.binop * calc_ir * calc_ir
  | Ineg of calc_ir

type compiled = { sites : call_site array; irs : calc_ir array }

type group_state = acc array

let compile ?params schema (aggs : Agg.t list) =
  let sites = ref [] in
  let n = ref 0 in
  let add_site kind operand =
    sites := { operand; kind } :: !sites;
    incr n;
    !n - 1
  in
  let rec compile_calc (c : Agg.calc) : calc_ir =
    match c with
    | Agg.Const v -> Iconst v
    | Agg.Call f ->
        let operand =
          match f with
          | Agg.Count_star -> None
          | Agg.Count e | Agg.Count_distinct e | Agg.Sum e | Agg.Min e
          | Agg.Max e | Agg.Avg e ->
              Some (Expr.compile ?params schema e)
        in
        Icall (add_site f operand)
    | Agg.Arith (op, a, b) -> Iarith (op, compile_calc a, compile_calc b)
    | Agg.Neg a -> Ineg (compile_calc a)
  in
  let irs = List.map (fun (a : Agg.t) -> compile_calc a.Agg.calc) aggs in
  { sites = Array.of_list (List.rev !sites); irs = Array.of_list irs }

let distinct_key = [| 0 |]

let fresh t =
  Array.map
    (fun site ->
      match site.kind with
      | Agg.Count_star -> Acount_star { n = 0 }
      | Agg.Count _ -> Acount { n = 0 }
      | Agg.Count_distinct _ -> Adistinct (Rowtbl.create distinct_key)
      | Agg.Sum _ -> Asum_none
      | Agg.Min _ -> Amin { v = Value.Null }
      | Agg.Max _ -> Amax { v = Value.Null }
      | Agg.Avg _ -> Aavg { n = 0; sum = { f = 0. } })
    t.sites

let update t state row =
  for i = 0 to Array.length t.sites - 1 do
    let v =
      match t.sites.(i).operand with None -> Value.Null | Some f -> f row
    in
    match state.(i) with
    | Acount_star a -> a.n <- a.n + 1
    | _ when Value.is_null v -> ()
    | Acount a -> a.n <- a.n + 1
    | Adistinct seen -> Rowtbl.find_or_add seen [| v |] ignore
    | Asum_none ->
        state.(i) <-
          (match v with
          | Value.Int x -> Asum_int { n = x }
          | Value.Float x -> Asum_float { f = x }
          | v -> Asum_value { v })
    | Asum_int a -> (
        match v with
        | Value.Int x -> a.n <- a.n + x
        | Value.Float x ->
            state.(i) <- Asum_float { f = float_of_int a.n +. x }
        | v -> state.(i) <- Asum_value { v = Value.add (Value.Int a.n) v })
    | Asum_float c -> (
        match v with
        | Value.Float x -> c.f <- c.f +. x
        | Value.Int x -> c.f <- c.f +. float_of_int x
        | v -> state.(i) <- Asum_value { v = Value.add (Value.Float c.f) v })
    | Asum_value a -> a.v <- Value.add a.v v
    | Amin m ->
        if Value.is_null m.v || Value.compare_total v m.v < 0 then m.v <- v
    | Amax m ->
        if Value.is_null m.v || Value.compare_total v m.v > 0 then m.v <- v
    | Aavg a ->
        a.n <- a.n + 1;
        let x =
          match v with
          | Value.Int x -> float_of_int x
          | Value.Float x -> x
          | _ -> 0.
        in
        a.sum.f <- a.sum.f +. x
  done

let result_of_acc = function
  | Acount_star { n } | Acount { n } | Asum_int { n } -> Value.Int n
  | Adistinct seen -> Value.Int (Rowtbl.length seen)
  | Asum_none -> Value.Null
  | Asum_float c -> Value.Float c.f
  | Asum_value { v } | Amin { v } | Amax { v } -> v
  | Aavg { n; sum } ->
      if n = 0 then Value.Null else Value.Float (sum.f /. float_of_int n)

let finalize t state =
  let rec eval_ir = function
    | Iconst v -> v
    | Icall i -> result_of_acc state.(i)
    | Iarith (op, a, b) ->
        let va = eval_ir a and vb = eval_ir b in
        (match op with
        | Expr.Add -> Value.add va vb
        | Expr.Sub -> Value.sub va vb
        | Expr.Mul -> Value.mul va vb
        | Expr.Div -> Value.div va vb)
    | Ineg a -> Value.neg (eval_ir a)
  in
  Array.map eval_ir t.irs
