open Eager_value

type t = Value.t array

let concat = Array.append
let project idxs row = Array.map (fun i -> row.(i)) idxs

let null_eq_on idxs a b =
  Array.for_all (fun i -> Value.null_eq a.(i) b.(i)) idxs

(* a top-level loop, not [Array.for_all]: no closure per probed row *)
let rec non_null_from idxs (row : t) k =
  k >= Array.length idxs
  || ((not (Value.is_null row.(idxs.(k)))) && non_null_from idxs row (k + 1))

let non_null_on idxs row = non_null_from idxs row 0

let compare_on idxs a b =
  let n = Array.length idxs in
  let rec go k =
    if k >= n then 0
    else
      let c = Value.compare_total a.(idxs.(k)) b.(idxs.(k)) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

(* Normalise whole floats to ints so that the structural key respects
   numeric [=ⁿ] across Int/Float.  The cutoff is [Value.canonical_num]'s
   2^53 exact-conversion bound — an ad-hoc smaller cutoff (1e15, say)
   would put [Int 10^15] and [Float 1e15] in different group-by buckets
   even though [compare_total] calls them equal. *)
let normalise = Value.canonical_num

let key_on idxs row = Array.to_list (Array.map (fun i -> normalise row.(i)) idxs)

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Value.null_eq x y) a b

let to_string row =
  "("
  ^ String.concat ", " (Array.to_list (Array.map Value.to_string row))
  ^ ")"

let pp ppf row = Format.pp_print_string ppf (to_string row)
