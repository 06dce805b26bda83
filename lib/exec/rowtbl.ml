(* The hash table under every hash breaker (join build, group-by,
   partial aggregation, DISTINCT, COUNT DISTINCT).

   Keys are never built: a row's key is the values at the table's key
   columns, hashed with [Value.hash] and compared with [Value.key_equal]
   in place, so a probe allocates nothing.  One cell per entry — per
   distinct key under [find_or_add], per row under [add].  Cells chain
   twice: through their bucket, and in insertion order from [first],
   which is how groups come out first-seen.  Cells are small blocks
   allocated in the minor heap; only the bucket index is an array.
   Entries kept in large backing arrays would be allocated straight in
   the major heap, whose collector then falls behind and grows the peak
   resident set. *)

open Eager_value
open Eager_schema

type 'a entry =
  | Empty
  | Cell of {
      row : Row.t;  (* a group's first row, or one build row *)
      hash : int;
      data : 'a;
      mutable next : 'a entry;  (* bucket chain *)
      mutable succ : 'a entry;  (* insertion order *)
    }

type 'a t = {
  key : int array;
  mutable buckets : 'a entry array;
  mutable size : int;
  mutable first : 'a entry;
  mutable last : 'a entry;
}

let initial_buckets = 16

let create key =
  {
    key;
    buckets = Array.make initial_buckets Empty;
    size = 0;
    first = Empty;
    last = Empty;
  }

let length t = t.size

let reset t =
  t.buckets <- Array.make initial_buckets Empty;
  t.size <- 0;
  t.first <- Empty;
  t.last <- Empty

let hash idx (row : Row.t) =
  let h = ref 0 in
  for k = 0 to Array.length idx - 1 do
    h := (!h * 0x100000001b3) + Value.hash row.(idx.(k))
  done;
  !h land max_int

let rec equal_from key (stored : Row.t) pidx (probe : Row.t) k =
  k >= Array.length key
  || Value.key_equal stored.(key.(k)) probe.(pidx.(k))
     && equal_from key stored pidx probe (k + 1)

let rec find_in key pidx probe h = function
  | Empty -> Empty
  | Cell c as e ->
      if c.hash = h && equal_from key c.row pidx probe 0 then e
      else find_in key pidx probe h c.next

let slot t h = h land (Array.length t.buckets - 1)

let find t pidx row =
  let h = hash pidx row in
  find_in t.key pidx row h t.buckets.(slot t h)

let next t pidx row = function
  | Empty -> Empty
  | Cell c -> find_in t.key pidx row c.hash c.next

let none = Empty
let found = function Empty -> false | Cell _ -> true

let data = function
  | Cell c -> c.data
  | Empty -> invalid_arg "Rowtbl.data: key not found"

let row = function
  | Cell c -> c.row
  | Empty -> invalid_arg "Rowtbl.row: key not found"

(* Double the bucket array, relinking every cell along the insertion
   chain: pushing oldest first leaves each bucket newest-first, the
   order [find]/[next] promise for a key added more than once. *)
let grow t =
  let buckets = Array.make (2 * Array.length t.buckets) Empty in
  t.buckets <- buckets;
  let rec relink = function
    | Empty -> ()
    | Cell c as e ->
        let i = slot t c.hash in
        c.next <- buckets.(i);
        buckets.(i) <- e;
        relink c.succ
  in
  relink t.first

let add_hashed t h row data =
  let i = slot t h in
  let e = Cell { row; hash = h; data; next = t.buckets.(i); succ = Empty } in
  t.buckets.(i) <- e;
  (match t.last with Cell c -> c.succ <- e | Empty -> t.first <- e);
  t.last <- e;
  t.size <- t.size + 1;
  if t.size > 2 * Array.length t.buckets then grow t

let add t row data = add_hashed t (hash t.key row) row data

let find_or_add t row fresh =
  let h = hash t.key row in
  match find_in t.key t.key row h t.buckets.(slot t h) with
  | Cell c -> c.data
  | Empty ->
      let d = fresh row in
      add_hashed t h row d;
      d

let iter f t =
  let rec go = function
    | Empty -> ()
    | Cell c ->
        f c.row c.data;
        go c.succ
  in
  go t.first

let to_stream t f =
  let cur = ref t.first in
  fun () ->
    match !cur with
    | Empty -> None
    | Cell c ->
        cur := c.succ;
        Some (f c.row c.data)
