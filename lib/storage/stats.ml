open Eager_value
open Eager_schema

type histogram = { lo : float; hi : float; counts : int array; total : int }

type col_stats = {
  ndv : int;
  nulls : int;
  min_v : Value.t;
  max_v : Value.t;
  hist : histogram option;
}

type t = { rows : int; cols : col_stats array }

let bucket_count = 16

let as_float = function
  | Value.Int n -> Some (float_of_int n)
  | Value.Float f -> Some f
  | _ -> None

let fraction_below h v =
  if h.total = 0 then 0.
  else if v <= h.lo then 0.
  else if v > h.hi then 1.
  else begin
    let width = (h.hi -. h.lo) /. float_of_int (Array.length h.counts) in
    let width = if width <= 0. then 1. else width in
    let pos = (v -. h.lo) /. width in
    let full = min (int_of_float pos) (Array.length h.counts) in
    let below = ref 0. in
    for i = 0 to full - 1 do
      below := !below +. float_of_int h.counts.(i)
    done;
    (* interpolate within the straddled bucket *)
    if full < Array.length h.counts then begin
      let frac = pos -. float_of_int full in
      below := !below +. (frac *. float_of_int h.counts.(full))
    end;
    Float.max 0. (Float.min 1. (!below /. float_of_int h.total))
  end

(* distinct values under [Row.key_on]'s equality, hashed in place *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.key_equal
  let hash = Value.hash
end)

let empty_col =
  { ndv = 0; nulls = 0; min_v = Value.Null; max_v = Value.Null; hist = None }

(* Equi-width bucket of [f] over [lo, lo + 16 * width]; inlined so [f]
   is never boxed, keeping the histogram passes allocation-free. *)
let[@inline] bucket ~lo ~width f =
  if width <= 0. then 0
  else min (bucket_count - 1) (int_of_float ((f -. lo) /. width))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Exact statistics for the whole heap from [prev], the statistics of
   its first [prev.rows] rows.  Nothing per value survives the call:
   the appended rows are scanned into per-column sets of distinct
   values, the values the prefix already holds are dropped from those
   sets in one pass over the prefix, and each histogram is rebuilt only
   where the merged [min, max] moved it off its old buckets. *)
let extend prev heap =
  let p = prev.rows and n = Heap.length heap in
  if p > n then
    invalid_arg "Stats.extend: statistics cover more rows than the heap";
  if p = n then prev
  else begin
    let arity = Array.length prev.cols in
    let fresh = Array.init arity (fun _ -> Vtbl.create 16) in
    let nulls = Array.map (fun c -> c.nulls) prev.cols in
    let mins = Array.map (fun c -> c.min_v) prev.cols in
    let maxs = Array.map (fun c -> c.max_v) prev.cols in
    Heap.iter_range
      (fun row ->
        for i = 0 to arity - 1 do
          let v = row.(i) in
          if Value.is_null v then nulls.(i) <- nulls.(i) + 1
          else begin
            Vtbl.replace fresh.(i) v ();
            (if Value.is_null mins.(i) || Value.compare_total v mins.(i) < 0 then
               mins.(i) <- v);
            if Value.is_null maxs.(i) || Value.compare_total v maxs.(i) > 0 then
              maxs.(i) <- v
          end
        done)
      heap ~lo:p ~hi:n;
    (* histograms over the merged range: keep the prefix's buckets when
       the range did not move, rebuild them when it did *)
    let los = Array.make arity 0. and his = Array.make arity 0. in
    let widths = Array.make arity 0. in
    let counts = Array.make arity [||] and totals = Array.make arity 0 in
    let rebucket = Array.make arity false in
    for i = 0 to arity - 1 do
      match as_float mins.(i), as_float maxs.(i) with
      | Some lo, Some hi ->
          los.(i) <- lo;
          his.(i) <- hi;
          widths.(i) <- (hi -. lo) /. float_of_int bucket_count;
          (match prev.cols.(i).hist with
          | Some h when same_float h.lo lo && same_float h.hi hi ->
              counts.(i) <- Array.copy h.counts;
              totals.(i) <- h.total
          | _ ->
              counts.(i) <- Array.make bucket_count 0;
              rebucket.(i) <- not (Value.is_null prev.cols.(i).min_v))
      | _ -> ()
    done;
    let bump i v =
      let c = counts.(i) in
      if Array.length c > 0 then
        match v with
        | Value.Int k ->
            let b = bucket ~lo:los.(i) ~width:widths.(i) (float_of_int k) in
            c.(b) <- c.(b) + 1;
            totals.(i) <- totals.(i) + 1
        | Value.Float f ->
            let b = bucket ~lo:los.(i) ~width:widths.(i) f in
            c.(b) <- c.(b) + 1;
            totals.(i) <- totals.(i) + 1
        | _ -> ()
    in
    Heap.iter_range
      (fun row ->
        for i = 0 to arity - 1 do
          if rebucket.(i) then bump i row.(i);
          let set = fresh.(i) in
          if Vtbl.length set > 0 then Vtbl.remove set row.(i)
        done)
      heap ~lo:0 ~hi:p;
    Heap.iter_range
      (fun row ->
        for i = 0 to arity - 1 do
          bump i row.(i)
        done)
      heap ~lo:p ~hi:n;
    {
      rows = n;
      cols =
        Array.mapi
          (fun i c ->
            {
              ndv = c.ndv + Vtbl.length fresh.(i);
              nulls = nulls.(i);
              min_v = mins.(i);
              max_v = maxs.(i);
              hist =
                (if totals.(i) > 0 then
                   Some
                     { lo = los.(i); hi = his.(i); counts = counts.(i);
                       total = totals.(i) }
                 else None);
            })
          prev.cols;
    }
  end

let collect heap =
  extend
    { rows = 0; cols = Array.make (Schema.arity (Heap.schema heap)) empty_col }
    heap

let row_count t = t.rows
let col t i = t.cols.(i)
let col_by_ref t schema c = t.cols.(Schema.index_of schema c)

let ndv_of_cols t idxs =
  if Array.length idxs = 0 then 1
  else begin
    let product = ref 1.0 in
    Array.iter
      (fun i ->
        let s = t.cols.(i) in
        let d = max 1 (s.ndv + if s.nulls > 0 then 1 else 0) in
        product := !product *. float_of_int d)
      idxs;
    let capped = Float.min !product (float_of_int t.rows) in
    max 1 (int_of_float capped)
  end

let pp ppf t =
  Format.fprintf ppf "rows=%d" t.rows;
  Array.iteri
    (fun i c -> Format.fprintf ppf " [%d: ndv=%d nulls=%d]" i c.ndv c.nulls)
    t.cols
