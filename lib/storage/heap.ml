open Eager_schema
open Eager_robust

(* A heap is either the original RAM-backed growable array or a paged
   heap file: a sequence of fixed-size pages owned by a buffer pool, with
   an in-memory page directory ([pref] per page) mapping row positions to
   pages.  The cursor API — the PR 4 seam — is identical for both, so
   the executor's scans never know which backing they read.

   Paged invariants:
   - only the tail page is ever rewritten (appends); a page is frozen
     once full, and [copy] freezes the tail too, so every page shared
     between a heap and its snapshots is immutable — MVCC-lite carries
     over to the paged backend as shared immutable pages plus
     copy-on-write at the tail;
   - [pref.bytes] tracks the encoded payload size so a row lands on the
     tail only if the image will fit — [Page.encode] can then never fail
     on the eviction path;
   - structural rewrites ([delete_where], [replace_all]) build fresh
     pages and abandon the old ones to the run-scoped pager (snapshots
     may still be reading them). *)

type pref = {
  pid : int;
  mutable nrows : int;
  mutable start : int; (* row position of the page's first row *)
  mutable bytes : int; (* encoded payload bytes, for fits accounting *)
  mutable frozen : bool;
}

type backing =
  | Ram of { mutable rows : Row.t array; mutable len : int }
  | Paged of paged

and paged = {
  pool : Buffer_pool.t;
  pager : Pager.t;
  mutable prefs : pref array;
  mutable npages : int;
  mutable plen : int;
}

(* [lineage] names a row sequence that only grows: every heap carrying
   the token holds a prefix of it.  Only the [owner] appends under the
   token; a [copy] shares it without owning it, so a copy that is
   written to, or any heap that compacts, takes a fresh token. *)
type t = {
  schema : Schema.t;
  mutable backing : backing;
  mutable gen : int;
  mutable compactions : int;
  mutable lineage : int;
  mutable owner : bool;
}

let dummy_row : Row.t = [||]

let next_lineage = Atomic.make 0
let fresh_lineage () = Atomic.fetch_and_add next_lineage 1

let renew_lineage t =
  t.lineage <- fresh_lineage ();
  t.owner <- true

let create schema =
  {
    schema;
    backing = Ram { rows = Array.make 16 dummy_row; len = 0 };
    gen = 0;
    compactions = 0;
    lineage = fresh_lineage ();
    owner = true;
  }

let create_paged ~pool ~pager schema =
  {
    schema;
    backing = Paged { pool; pager; prefs = [||]; npages = 0; plen = 0 };
    gen = 0;
    compactions = 0;
    lineage = fresh_lineage ();
    owner = true;
  }

let is_paged t = match t.backing with Paged _ -> true | Ram _ -> false
let schema t = t.schema

let length t =
  match t.backing with Ram r -> r.len | Paged p -> p.plen

let generation t = t.gen
let compactions t = t.compactions
let lineage t = t.lineage

let ensure_capacity rows len =
  if len >= Array.length rows then begin
    let bigger = Array.make (2 * Array.length rows) dummy_row in
    Array.blit rows 0 bigger 0 len;
    bigger
  end
  else rows

let push_pref p pref =
  if p.npages >= Array.length p.prefs then begin
    let bigger =
      Array.make (max 8 (2 * Array.length p.prefs))
        { pid = -1; nrows = 0; start = 0; bytes = 0; frozen = true }
    in
    Array.blit p.prefs 0 bigger 0 p.npages;
    p.prefs <- bigger
  end;
  p.prefs.(p.npages) <- pref;
  p.npages <- p.npages + 1

let paged_append p row =
  let rb = Page.row_bytes row in
  let cap = Page.capacity ~page_size:(Pager.page_size p.pager) in
  if rb > cap then
    Err.failf Err.Storage
      "row needs %d bytes, a page holds %d (use a larger --page-size)" rb cap;
  let tail = if p.npages = 0 then None else Some p.prefs.(p.npages - 1) in
  (match tail with
  | Some pref when (not pref.frozen) && pref.bytes + rb <= cap ->
      Buffer_pool.update p.pool p.pager pref.pid (fun rows ->
          Array.append rows [| row |]);
      pref.nrows <- pref.nrows + 1;
      pref.bytes <- pref.bytes + rb
  | _ ->
      (match tail with Some pref -> pref.frozen <- true | None -> ());
      let pid = Buffer_pool.alloc p.pool p.pager [| row |] in
      push_pref p { pid; nrows = 1; start = p.plen; bytes = rb; frozen = false });
  p.plen <- p.plen + 1

let insert t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Heap.insert: arity %d, expected %d" (Array.length row)
         (Schema.arity t.schema));
  (* fault point fires before any mutation, so an aborted append leaves
     the heap exactly as it was *)
  Fault.trip "heap.append";
  if not t.owner then renew_lineage t;
  (match t.backing with
  | Ram r ->
      r.rows <- ensure_capacity r.rows r.len;
      r.rows.(r.len) <- row;
      r.len <- r.len + 1
  | Paged p -> paged_append p row);
  t.gen <- t.gen + 1

let of_rows schema rows =
  let t = create schema in
  List.iter (insert t) rows;
  t

(* An independent heap holding the same rows.  RAM backing: only the
   array is duplicated — rows are immutable engine-wide, so sharing them
   is what makes MVCC-lite snapshots cheap.  Paged backing: the page
   directory is duplicated and the tail page frozen, so both heaps share
   every existing (now immutable) page and append new pages of their
   own — snapshots cost O(pages) directory entries, not O(data). *)
let copy t =
  let backing =
    match t.backing with
    | Ram r -> Ram { rows = Array.sub r.rows 0 (max 16 r.len); len = r.len }
    | Paged p ->
        if p.npages > 0 then p.prefs.(p.npages - 1).frozen <- true;
        let prefs =
          Array.init p.npages (fun i ->
              let pr = p.prefs.(i) in
              { pid = pr.pid; nrows = pr.nrows; start = pr.start;
                bytes = pr.bytes; frozen = true })
        in
        Paged
          { pool = p.pool; pager = p.pager; prefs; npages = p.npages;
            plen = p.plen }
  in
  {
    schema = t.schema;
    backing;
    gen = 0;
    compactions = 0;
    lineage = t.lineage;
    owner = false;
  }

(* page directory lookup: greatest pref with start <= i *)
let pref_of p i =
  let lo = ref 0 and hi = ref (p.npages - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if p.prefs.(mid).start <= i then lo := mid else hi := mid - 1
  done;
  p.prefs.(!lo)

let get t i =
  if i < 0 || i >= length t then invalid_arg "Heap.get: out of bounds";
  match t.backing with
  | Ram r -> r.rows.(i)
  | Paged p ->
      let pref = pref_of p i in
      Buffer_pool.with_page p.pool p.pager pref.pid (fun rows ->
          rows.(i - pref.start))

(* iterate, in order, the pages holding rows [lo, hi), one pinned at a
   time *)
let paged_iter_pages p ~lo ~hi f =
  for pi = 0 to p.npages - 1 do
    let pref = p.prefs.(pi) in
    if pref.start < hi && pref.start + pref.nrows > lo then begin
      let rows =
        Buffer_pool.with_page p.pool p.pager pref.pid (fun rows -> rows)
      in
      (* the rows array outlives the pin safely: appends replace the
         frame's array rather than mutating it, and rows are immutable *)
      f pref rows
    end
  done

let iter_range f t ~lo ~hi =
  match t.backing with
  | Ram r ->
      for i = max 0 lo to min hi r.len - 1 do
        f r.rows.(i)
      done
  | Paged p ->
      paged_iter_pages p ~lo ~hi (fun pref rows ->
          for j = max lo pref.start to min hi (pref.start + pref.nrows) - 1 do
            f rows.(j - pref.start)
          done)

let iter f t = iter_range f t ~lo:0 ~hi:(length t)

let iteri f t =
  match t.backing with
  | Ram r ->
      for i = 0 to r.len - 1 do
        f i r.rows.(i)
      done
  | Paged p ->
      paged_iter_pages p ~lo:0 ~hi:p.plen (fun pref rows ->
          for j = 0 to pref.nrows - 1 do
            f (pref.start + j) rows.(j)
          done)

let fold f init t =
  let acc = ref init in
  iter (fun row -> acc := f !acc row) t;
  !acc

let to_list t = List.rev (fold (fun acc r -> r :: acc) [] t)

(* A scan cursor: snapshots the heap's length at creation and hands out
   fixed-size row slices, so a scan never materializes the relation.
   RAM backing reads straight out of the backing array; paged backing
   pins one page per slice — a slice never spans pages, so at most one
   page of the table is pinned at any instant and the buffer pool's
   LRU-2 policy sees the scan as a once-touched sequential flood.  The
   [generation] snapshot lets the caller detect concurrent mutation
   (single-statement evaluation never mutates base tables, so a stale
   cursor is a programming error, not a runtime condition). *)
type cursor = {
  heap : t;
  snapshot_len : int;
  snapshot_gen : int;
  batch_rows : int;
  gov : Governor.t option;
  mutable pos : int;
  mutable page_idx : int; (* paged: directory index of the current page *)
}

let cursor ?(batch_rows = 1024) ?gov t =
  if batch_rows < 1 then invalid_arg "Heap.cursor: batch_rows must be >= 1";
  {
    heap = t;
    snapshot_len = length t;
    snapshot_gen = t.gen;
    batch_rows;
    gov;
    pos = 0;
    page_idx = 0;
  }

let cursor_next c =
  if c.pos >= c.snapshot_len then None
  else begin
    if c.heap.gen <> c.snapshot_gen then
      invalid_arg "Heap.cursor_next: heap mutated under an open cursor";
    match c.heap.backing with
    | Ram r ->
        let n = min c.batch_rows (c.snapshot_len - c.pos) in
        let slice = Array.sub r.rows c.pos n in
        c.pos <- c.pos + n;
        Some slice
    | Paged p ->
        while
          c.page_idx < p.npages - 1
          && p.prefs.(c.page_idx).start + p.prefs.(c.page_idx).nrows <= c.pos
        do
          c.page_idx <- c.page_idx + 1
        done;
        let pref = p.prefs.(c.page_idx) in
        let off = c.pos - pref.start in
        let page_left = min pref.nrows (c.snapshot_len - pref.start) - off in
        let n = min c.batch_rows page_left in
        let slice =
          Buffer_pool.with_page ?gov:c.gov p.pool p.pager pref.pid
            (fun rows -> Array.sub rows off n)
        in
        c.pos <- c.pos + n;
        Some slice
  end

let cursor_remaining c = c.snapshot_len - c.pos

let to_seq t =
  match t.backing with
  | Ram r ->
      let rec go i () =
        if i >= r.len then Seq.Nil else Seq.Cons (r.rows.(i), go (i + 1))
      in
      go 0
  | Paged _ ->
      let c = cursor t in
      let rec page slice j () =
        if j < Array.length slice then Seq.Cons (slice.(j), page slice (j + 1))
        else
          match cursor_next c with
          | None -> Seq.Nil
          | Some slice -> page slice 0 ()
      in
      page [||] 0

let exists p t =
  match t.backing with
  | Ram r ->
      let rec go i = i < r.len && (p r.rows.(i) || go (i + 1)) in
      go 0
  | Paged _ ->
      let exception Found in
      (try
         iter (fun row -> if p row then raise Found) t;
         false
       with Found -> true)

(* rebuild the paged backing from scratch: fresh pages, fresh directory;
   the old pages are abandoned to the pager (open snapshots may still
   read them — pages are immutable once frozen) *)
let paged_rebuild p rows =
  p.prefs <- [||];
  p.npages <- 0;
  p.plen <- 0;
  List.iter (paged_append p) rows

(* bumped before a paged rebuild, so a rebuild that fails part-way
   cannot leave the heap on its old lineage *)
let compacted t =
  t.gen <- t.gen + 1;
  t.compactions <- t.compactions + 1;
  renew_lineage t

let delete_where pred t =
  match t.backing with
  | Ram r ->
      let keep = ref 0 in
      for i = 0 to r.len - 1 do
        if not (pred r.rows.(i)) then begin
          r.rows.(!keep) <- r.rows.(i);
          incr keep
        end
      done;
      let removed = r.len - !keep in
      for i = !keep to r.len - 1 do
        r.rows.(i) <- dummy_row
      done;
      r.len <- !keep;
      if removed > 0 then compacted t;
      removed
  | Paged p ->
      let survivors = ref [] in
      let removed = ref 0 in
      iter
        (fun row ->
          if pred row then incr removed else survivors := row :: !survivors)
        t;
      if !removed > 0 then begin
        compacted t;
        paged_rebuild p (List.rev !survivors)
      end;
      !removed

(* Replace the contents atomically: the new row list is fully validated
   before any mutation, so neither an arity error nor an injected fault
   can leave the heap part-old, part-new.  (On the paged backing the
   rebuild writes fresh pages; a page-write fault mid-rebuild aborts the
   statement, and recovery replays from the WAL — pager files are
   run-scoped caches, not the durability story.) *)
let replace_all t rows =
  List.iter
    (fun row ->
      if Array.length row <> Schema.arity t.schema then
        invalid_arg
          (Printf.sprintf "Heap.replace_all: arity %d, expected %d"
             (Array.length row) (Schema.arity t.schema)))
    rows;
  Fault.trip "heap.append";
  compacted t;
  (match t.backing with
  | Ram r ->
      let arr = Array.of_list rows in
      let cap = max 16 (Array.length arr) in
      let bigger = Array.make cap dummy_row in
      Array.blit arr 0 bigger 0 (Array.length arr);
      r.rows <- bigger;
      r.len <- Array.length arr
  | Paged p -> paged_rebuild p rows)

let page_count t =
  match t.backing with
  | Ram _ -> 0
  | Paged p -> p.npages
