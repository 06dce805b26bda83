type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

let is_null = function Null -> true | _ -> false

(* Numeric comparison with Int/Float coercion; None when incomparable types
   meet (we treat that as unknown rather than crashing — the binder should
   have rejected ill-typed queries already). *)
let cmp_non_null a b =
  match a, b with
  | Int x, Int y -> Some (compare x y)
  | Float x, Float y -> Some (compare x y)
  | Int x, Float y -> Some (compare (float_of_int x) y)
  | Float x, Int y -> Some (compare x (float_of_int y))
  | Str x, Str y -> Some (compare x y)
  | Bool x, Bool y -> Some (compare x y)
  | Null, _ | _, Null -> None
  | _ -> None

let null_eq a b =
  match a, b with
  | Null, Null -> true
  | Null, _ | _, Null -> false
  | _ -> ( match cmp_non_null a b with Some 0 -> true | _ -> false)

let lift3 rel a b : Tbool.t =
  match a, b with
  | Null, _ | _, Null -> Unknown
  | _ -> (
      match cmp_non_null a b with
      | Some c -> Tbool.of_bool (rel c)
      | None -> Unknown)

let cmp_eq = lift3 (fun c -> c = 0)
let cmp_ne = lift3 (fun c -> c <> 0)
let cmp_lt = lift3 (fun c -> c < 0)
let cmp_le = lift3 (fun c -> c <= 0)
let cmp_gt = lift3 (fun c -> c > 0)
let cmp_ge = lift3 (fun c -> c >= 0)

let type_tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* numeric types share a tag so coercion stays consistent *)
  | Str _ -> 3

let compare_total a b =
  match a, b with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> compare x y
  | Float x, Float y -> compare x y
  | Int x, Float y -> compare (float_of_int x) y
  | Float x, Int y -> compare x (float_of_int y)
  | Str x, Str y -> compare x y
  | Bool x, Bool y -> compare x y
  | _ -> compare (type_tag a) (type_tag b)

(* 2^53: the largest magnitude below which int<->float round-trips are
   exact.  [cmp_non_null] settles mixed Int/Float comparisons by
   coercing the int to float, so within this range an integral Float and
   the equal Int must share one canonical form.  Beyond it no coherent
   canonicalization exists — [compare_total] distinguishes huge Ints
   exactly while equating each with its rounded Float — so values there
   are left untouched rather than collapsed. *)
let max_exact_int_float = 9007199254740992.

let exact_int_float f = Float.is_integer f && Float.abs f <= max_exact_int_float

let canonical_num = function
  | Float f when exact_int_float f -> Int (int_of_float f)
  | v -> v

let arith fi ff a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> fi x y
  | Float x, Float y -> ff x y
  | Int x, Float y -> ff (float_of_int x) y
  | Float x, Int y -> ff x (float_of_int y)
  | _ -> Null

let add = arith (fun x y -> Int (x + y)) (fun x y -> Float (x +. y))
let sub = arith (fun x y -> Int (x - y)) (fun x y -> Float (x -. y))
let mul = arith (fun x y -> Int (x * y)) (fun x y -> Float (x *. y))

let div =
  arith
    (fun x y -> if y = 0 then Null else Int (x / y))
    (fun x y -> if y = 0. then Null else Float (x /. y))

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | v -> v

let equal (a : t) (b : t) =
  match a, b with Float x, Float y -> x = y | _ -> a = b

(* A multiplicative mix: sequential ints spread over the low bits that a
   power-of-two bucket mask keeps. *)
let hash_int x =
  let h = x * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* Within the exact range an integral Float hashes as the equal Int, so
   the hash is constant on [canonical_num] classes. *)
let hash = function
  | Null -> 0x3c6ef372
  | Int x -> hash_int x
  | Float f -> if exact_int_float f then hash_int (int_of_float f) else Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Bool b -> if b then 0x1b873593 else 0x0e6546b6

let key_equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float f | Float f, Int x -> exact_int_float f && int_of_float f = x
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Null, Null -> true
  | _ -> false

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> string_of_float x
  | Str s -> "'" ^ s ^ "'"
  | Bool b -> if b then "TRUE" else "FALSE"

let pp ppf v = Format.pp_print_string ppf (to_string v)
