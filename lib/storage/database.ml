open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_robust

(* Heaps are append-only between compactions, so key indexes are maintained
   incrementally: [rows_seen] records how many rows have been folded in, and
   a change in the heap's compaction counter forces a full rebuild. *)
type key_index = {
  mutable rows_seen : int;
  mutable compactions_seen : int;
  keys : (Value.t list, unit) Hashtbl.t;
}

(* secondary index: key values -> rows, maintained like [key_index] *)
type sec_index = {
  mutable s_rows_seen : int;
  mutable s_compactions_seen : int;
  entries : (Value.t list, Row.t) Hashtbl.t;
}

(* Paged storage: when a database is created with a [storage_config],
   every table heap lives on fixed-size pages behind one shared buffer
   pool, and a second (scratch) pager holds the executor's spill runs.
   Pager files are run-scoped caches — durability stays with the WAL and
   snapshots, so recovery rebuilds pages from the recovered rows instead
   of trusting a stale page file. *)
type storage_config = {
  pool_pages : int option; (* buffer-pool capacity; None = unbounded *)
  page_size : int;
  spill_dir : string option; (* None = in-memory pagers *)
}

let default_storage = { pool_pages = None; page_size = 4096; spill_dir = None }

type storage_state = {
  scfg : storage_config;
  pool : Buffer_pool.t;
  data_pager : Pager.t;
  scratch_pager : Pager.t;
}

(* Table statistics are a fact about a table version, so one cache,
   guarded by its own mutex, serves a live database, every snapshot of
   it and every reader view of those.  An entry holds the statistics of
   the first [Stats.row_count] rows of a {!Heap.lineage}: a heap of that
   lineage and length hits, a longer one extends the entry. *)
type stats_entry = { lineage : int; stats : Stats.t }

type stats_cache = {
  mu : Mutex.t;
  entries : (string, stats_entry) Hashtbl.t;
  mutable collects : int;
  mutable extends : int;
  mutable hits : int;
}

type stats_counters = { collects : int; extends : int; hits : int }

type t = {
  mutable cat : Catalog.t;
  heaps : (string, Heap.t) Hashtbl.t;
  shared_stats : stats_cache;
  (* (table, key columns) -> set of key values; used for FK lookups *)
  key_indexes : (string * string list, key_index) Hashtbl.t;
  sec_indexes : (string, sec_index) Hashtbl.t; (* by index name *)
  storage : storage_state option;
}

let open_storage (cfg : storage_config) =
  let mk name =
    match cfg.spill_dir with
    | None -> Pager.create_mem ~page_size:cfg.page_size ()
    | Some dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path =
          Filename.concat dir
            (Printf.sprintf "%s.%d.%d.pages" name (Unix.getpid ())
               (Hashtbl.hash (Unix.gettimeofday ()) land 0xffffff))
        in
        Pager.create_file ~page_size:cfg.page_size path
  in
  {
    scfg = cfg;
    pool = Buffer_pool.create ?cap:cfg.pool_pages ();
    data_pager = mk "data";
    scratch_pager = mk "spill";
  }

let create ?storage () =
  {
    cat = Catalog.empty;
    heaps = Hashtbl.create 16;
    shared_stats =
      {
        mu = Mutex.create ();
        entries = Hashtbl.create 16;
        collects = 0;
        extends = 0;
        hits = 0;
      };
    key_indexes = Hashtbl.create 16;
    sec_indexes = Hashtbl.create 16;
    storage = Option.map open_storage storage;
  }

let catalog t = t.cat
let storage_config t = Option.map (fun s -> s.scfg) t.storage
let is_paged t = Option.is_some t.storage
let buffer_pool t = Option.map (fun s -> s.pool) t.storage
let scratch t = Option.map (fun s -> (s.pool, s.scratch_pager)) t.storage
let pool_stats t = Option.map (fun s -> Buffer_pool.stats s.pool) t.storage

(* flush-before-checkpoint barrier: every dirty page reaches its pager
   (and the pager its disk) before a snapshot is cut *)
let flush t =
  match t.storage with None -> () | Some s -> Buffer_pool.flush_all s.pool

(* rows per page, estimated from the page payload capacity at a nominal
   encoded row width — the IO cost model's translation from cardinality
   estimates to page counts *)
let nominal_row_bytes = 48

let page_rows t =
  match t.storage with
  | None -> max 1 (Page.capacity ~page_size:default_storage.page_size
                   / nominal_row_bytes)
  | Some s ->
      max 1
        (Page.capacity ~page_size:s.scfg.page_size / nominal_row_bytes)

let close_storage t =
  match t.storage with
  | None -> ()
  | Some s ->
      Pager.close s.data_pager;
      Pager.close s.scratch_pager

(* A frozen copy for MVCC-lite readers: the catalog value is captured
   (it is updated functionally, so sharing is safe), every heap is
   copied (rows shared — they are immutable engine-wide; the copy keeps
   the heap's lineage), the statistics cache is shared, and the key and
   secondary-index caches start empty.  Later mutations of the live
   database never show through the snapshot, and vice versa. *)
let snapshot t =
  let heaps = Hashtbl.create (Hashtbl.length t.heaps) in
  Hashtbl.iter (fun name h -> Hashtbl.replace heaps name (Heap.copy h)) t.heaps;
  {
    cat = t.cat;
    heaps;
    shared_stats = t.shared_stats;
    key_indexes = Hashtbl.create 16;
    sec_indexes = Hashtbl.create 16;
    storage = t.storage;
  }

(* A reader's private view over a frozen snapshot: heaps are shared with
   the snapshot (nobody mutates a snapshot, so sharing the row storage
   is safe), statistics go through the shared, locked cache, and the
   key and secondary indexes are private, because two reader threads
   filling the same hashtable concurrently could corrupt it.
   O(#tables), so handing one to every statement is cheap. *)
let reader_view t =
  {
    cat = t.cat;
    heaps = Hashtbl.copy t.heaps;
    shared_stats = t.shared_stats;
    key_indexes = Hashtbl.create 16;
    sec_indexes = Hashtbl.create 16;
    storage = t.storage;
  }

(* Drop every cached derived structure for [tname]: statistics, key
   indexes (keyed by table name) and secondary indexes (keyed by index
   name, resolved through the catalog).  Compaction counters alone cannot
   catch a drop/recreate — a fresh heap restarts at compaction 0, which
   matches what a stale index last saw. *)
let evict_derived t tname =
  Mutex.protect t.shared_stats.mu (fun () ->
      Hashtbl.remove t.shared_stats.entries tname);
  Hashtbl.filter_map_inplace
    (fun (tab, _) idx -> if String.equal tab tname then None else Some idx)
    t.key_indexes;
  List.iter
    (fun (i : Catalog.index_def) -> Hashtbl.remove t.sec_indexes i.Catalog.iname)
    (Catalog.indexes_on t.cat tname)

let create_table t td =
  (* recreate path: a table of the same name may have lived here before *)
  evict_derived t td.Table_def.tname;
  t.cat <- Catalog.add_table t.cat td;
  let h =
    match t.storage with
    | None -> Heap.create (Table_def.schema td)
    | Some s ->
        Heap.create_paged ~pool:s.pool ~pager:s.data_pager
          (Table_def.schema td)
  in
  Hashtbl.replace t.heaps td.Table_def.tname h

let drop_table t tname =
  match Catalog.find_table t.cat tname with
  | None -> Error (Err.catalog "unknown table %s" tname)
  | Some _ ->
      evict_derived t tname;
      t.cat <- Catalog.remove_table t.cat tname;
      Hashtbl.remove t.heaps tname;
      Ok ()

let create_domain t d = t.cat <- Catalog.add_domain t.cat d
let create_view t v = t.cat <- Catalog.add_view t.cat v

let heap_opt t name = Hashtbl.find_opt t.heaps name

let heap t name =
  match heap_opt t name with
  | Some h -> h
  | None -> Err.failf Err.Storage "unknown table %s" name

let key_index t tname cols =
  let h = heap t tname in
  let key = (tname, List.map Colref.to_string cols) in
  let idx =
    match Hashtbl.find_opt t.key_indexes key with
    | Some idx -> idx
    | None ->
        let idx =
          { rows_seen = 0; compactions_seen = -1; keys = Hashtbl.create 256 }
        in
        Hashtbl.replace t.key_indexes key idx;
        idx
  in
  if idx.compactions_seen <> Heap.compactions h then begin
    Hashtbl.reset idx.keys;
    idx.rows_seen <- 0;
    idx.compactions_seen <- Heap.compactions h
  end;
  if idx.rows_seen < Heap.length h then begin
    let idxs = Schema.indices (Heap.schema h) cols in
    for i = idx.rows_seen to Heap.length h - 1 do
      let row = Heap.get h i in
      (* keys containing NULL never participate in matching *)
      if Array.for_all (fun j -> not (Value.is_null row.(j))) idxs then
        Hashtbl.replace idx.keys (Row.key_on idxs row) ()
    done;
    idx.rows_seen <- Heap.length h
  end;
  idx

let check_types td values =
  let rec go cols vs =
    match cols, vs with
    | [], [] -> Ok ()
    | (c : Table_def.column_def) :: cols, v :: vs ->
        if Ctype.accepts c.Table_def.ctype v then go cols vs
        else
          Error
            (Printf.sprintf "column %s: value %s does not fit type %s"
               c.Table_def.cname (Value.to_string v)
               (Ctype.to_string c.Table_def.ctype))
    | _ -> Error "arity mismatch"
  in
  go td.Table_def.columns values

let insert_impl t tname values =
  let ( let* ) = Result.bind in
  match Catalog.find_table t.cat tname with
  | None -> Error (Printf.sprintf "unknown table %s" tname)
  | Some td ->
      let* () = check_types td values in
      let h = heap t tname in
      let schema = Heap.schema h in
      let row = Array.of_list values in
      (* NOT NULL: the row must provide a value *)
      let* () =
        List.fold_left
          (fun acc cname ->
            let* () = acc in
            let i = Schema.index_of schema (Colref.make tname cname) in
            if Value.is_null row.(i) then
              Error (Printf.sprintf "column %s cannot be NULL" cname)
            else Ok ())
          (Ok ()) (Table_def.not_null td)
      in
      (* CHECK and domain constraints: SQL2 enforces "not false" — a check
         that evaluates to unknown (via NULL) is satisfied *)
      let checks = Catalog.check_predicates t.cat ~rel:tname td in
      let* () =
        List.fold_left
          (fun acc e ->
            let* () = acc in
            if Tbool.possible (Expr.eval_pred schema e row) then Ok ()
            else Error (Printf.sprintf "constraint violated: %s" (Expr.to_string e)))
          (Ok ()) checks
      in
      (* key uniqueness *)
      let* () =
        List.fold_left
          (fun acc key_cols ->
            let* () = acc in
            let cols = List.map (Colref.make tname) key_cols in
            let idxs = Schema.indices schema cols in
            let has_null = Array.exists (fun i -> Value.is_null row.(i)) idxs in
            if has_null then Ok () (* UNIQUE: NULL ≠ NULL; PK nulls already rejected *)
            else
              let idx = key_index t tname cols in
              let key = Row.key_on idxs row in
              if Hashtbl.mem idx.keys key then
                Error
                  (Printf.sprintf "duplicate key (%s) for table %s"
                     (String.concat ", " key_cols) tname)
              else Ok ())
          (Ok ()) (Table_def.keys td)
      in
      (* referential integrity *)
      let* () =
        List.fold_left
          (fun acc c ->
            let* () = acc in
            match c with
            | Constr.Foreign_key { cols; ref_table; ref_cols } ->
                let idxs =
                  Schema.indices schema (List.map (Colref.make tname) cols)
                in
                if Array.exists (fun i -> Value.is_null row.(i)) idxs then Ok ()
                else begin
                  match Catalog.find_table t.cat ref_table with
                  | None -> Error (Printf.sprintf "unknown table %s" ref_table)
                  | Some _ ->
                      let ref_colrefs = List.map (Colref.make ref_table) ref_cols in
                      let ridx = key_index t ref_table ref_colrefs in
                      let key = Row.key_on idxs row in
                      if Hashtbl.mem ridx.keys key then Ok ()
                      else
                        Error
                          (Printf.sprintf
                             "foreign key violation: %s not present in %s"
                             (Row.to_string (Row.project idxs row))
                             ref_table)
                end
            | _ -> Ok ())
          (Ok ()) td.Table_def.constraints
      in
      (* every check passed; the fault point fires before the physical
         append so an aborted insert leaves the heap untouched *)
      Fault.trip "storage.write";
      Heap.insert h row;
      Ok ()

(* typed-error primary: validation failures are [Storage] errors, and
   injected faults or internal raises never escape as exceptions *)
let insert t tname values =
  match Err.protect ~kind:Err.Storage (fun () -> insert_impl t tname values) with
  | Ok (Ok ()) -> Ok ()
  | Ok (Error msg) -> Error (Err.make Err.Storage msg)
  | Error e -> Error e

let insert_result = insert

let insert_exn t tname values =
  match insert t tname values with
  | Ok () -> ()
  | Error e ->
      Err.raise_ (Err.add_context (Printf.sprintf "insert into %s" tname) e)

(* Statement-atomic bulk insert: rows are validated and appended one at a
   time (so rows within the batch can satisfy each other's constraints),
   but a refusal anywhere rolls the heap back to its prior contents.
   [replace_all] bumps the compaction counter, which forces every
   incremental index over the table to rebuild — a rolled-back prefix can
   never linger in a cache. *)
let load_result t tname rows =
  match Catalog.find_table t.cat tname with
  | None -> Error (Err.storage "unknown table %s" tname)
  | Some _ ->
      let h = heap t tname in
      let before = Heap.to_list h in
      let rec go landed = function
        | [] -> Ok ()
        | r :: rest -> (
            match insert t tname r with
            | Ok () -> go (landed + 1) rest
            | Error e ->
                if landed > 0 then Heap.replace_all h before;
                Error
                  (Err.add_context
                     (Printf.sprintf "load into %s (row %d of %d)" tname
                        (landed + 1) (List.length rows))
                     e))
      in
      go 0 rows

let load t tname rows =
  match load_result t tname rows with
  | Ok () -> ()
  | Error e -> Err.raise_ e

(* ------------------------------------------------------------------ *)
(* secondary indexes *)

let create_index t ~name ~table ~cols =
  match Catalog.add_index t.cat { Catalog.iname = name; itable = table; icols = cols } with
  | cat ->
      t.cat <- cat;
      Hashtbl.replace t.sec_indexes name
        { s_rows_seen = 0; s_compactions_seen = -1; entries = Hashtbl.create 256 };
      Ok ()
  | exception Failure msg -> Error msg

let find_equality_index t ~table ~col =
  Catalog.indexes_on t.cat table
  |> List.find_opt (fun (i : Catalog.index_def) -> i.Catalog.icols = [ col ])

let refresh_sec_index t (def : Catalog.index_def) idx =
  let h = heap t def.Catalog.itable in
  if idx.s_compactions_seen <> Heap.compactions h then begin
    Hashtbl.reset idx.entries;
    idx.s_rows_seen <- 0;
    idx.s_compactions_seen <- Heap.compactions h
  end;
  if idx.s_rows_seen < Heap.length h then begin
    let idxs =
      Schema.indices (Heap.schema h)
        (List.map (Colref.make def.Catalog.itable) def.Catalog.icols)
    in
    for i = idx.s_rows_seen to Heap.length h - 1 do
      let row = Heap.get h i in
      (* NULL keys never participate in equality lookups *)
      if Array.for_all (fun j -> not (Value.is_null row.(j))) idxs then
        Hashtbl.add idx.entries (Row.key_on idxs row) row
    done;
    idx.s_rows_seen <- Heap.length h
  end

let index_lookup t (def : Catalog.index_def) values =
  if List.exists Value.is_null values then []
  else begin
    let idx =
      match Hashtbl.find_opt t.sec_indexes def.Catalog.iname with
      | Some idx -> idx
      | None ->
          let idx =
            { s_rows_seen = 0; s_compactions_seen = -1; entries = Hashtbl.create 256 }
          in
          Hashtbl.replace t.sec_indexes def.Catalog.iname idx;
          idx
    in
    refresh_sec_index t def idx;
    (* normalise via Row.key_on so Int/Float keys match the stored form *)
    let key =
      Row.key_on
        (Array.init (List.length values) Fun.id)
        (Array.of_list values)
    in
    Hashtbl.find_all idx.entries key
  end

(* ------------------------------------------------------------------ *)
(* DELETE and UPDATE — enforced with NO ACTION referential semantics *)

(* every FK constraint in the catalog that references [tname] *)
let incoming_fks t tname =
  List.concat_map
    (fun (td : Table_def.t) ->
      List.filter_map
        (fun c ->
          match c with
          | Constr.Foreign_key { cols; ref_table; ref_cols }
            when String.equal ref_table tname ->
              Some (td, cols, ref_cols)
          | _ -> None)
        td.Table_def.constraints)
    (Catalog.tables t.cat)

(* do all non-NULL referencing keys among [rows] appear in [available]?
   [rows] is passed explicitly so self-referencing tables can be checked
   against their prospective state. *)
let check_incoming t (referencer : Table_def.t) cols ~rows available =
  let schema = Heap.schema (heap t referencer.Table_def.tname) in
  let idxs =
    Schema.indices schema
      (List.map (Colref.make referencer.Table_def.tname) cols)
  in
  if
    List.for_all
      (fun row ->
        Array.exists (fun i -> Value.is_null row.(i)) idxs
        || Hashtbl.mem available (Row.key_on idxs row))
      rows
  then Ok ()
  else
    Error
      (Printf.sprintf "rows in %s still reference deleted or changed keys"
         referencer.Table_def.tname)

let key_values_of schema cols rows =
  let tbl = Hashtbl.create 64 in
  let idxs = Schema.indices schema cols in
  List.iter
    (fun row ->
      if Array.for_all (fun i -> not (Value.is_null row.(i))) idxs then
        Hashtbl.replace tbl (Row.key_on idxs row) ())
    rows;
  tbl

let delete_impl t tname ?(params = Expr.no_params) ~where () =
  let ( let* ) = Result.bind in
  match Catalog.find_table t.cat tname with
  | None -> Error (Printf.sprintf "unknown table %s" tname)
  | Some _ ->
      let h = heap t tname in
      let schema = Heap.schema h in
      let pred = Expr.compile_pred ~params schema where in
      let doomed row = Tbool.holds (pred row) in
      let remaining = List.filter (fun r -> not (doomed r)) (Heap.to_list h) in
      (* referential integrity: NO ACTION — every incoming FK must still
         resolve against the remaining rows *)
      let* () =
        List.fold_left
          (fun acc ((referencer : Table_def.t), cols, ref_cols) ->
            let* () = acc in
            let available =
              key_values_of schema
                (List.map (Colref.make tname) ref_cols)
                remaining
            in
            let rows =
              if String.equal referencer.Table_def.tname tname then remaining
              else Heap.to_list (heap t referencer.Table_def.tname)
            in
            check_incoming t referencer cols ~rows available)
          (Ok ()) (incoming_fks t tname)
      in
      Fault.trip "storage.write";
      Ok (Heap.delete_where doomed h)

let delete t tname ?params ~where () =
  match
    Err.protect ~kind:Err.Storage (fun () -> delete_impl t tname ?params ~where ())
  with
  | Ok (Ok n) -> Ok n
  | Ok (Error msg) -> Error (Err.make Err.Storage msg)
  | Error e -> Error e

let update_impl t tname ?(params = Expr.no_params) ~set ~where () =
  let ( let* ) = Result.bind in
  match Catalog.find_table t.cat tname with
  | None -> Error (Printf.sprintf "unknown table %s" tname)
  | Some td ->
      let h = heap t tname in
      let schema = Heap.schema h in
      let pred = Expr.compile_pred ~params schema where in
      (* compile the assignments against the OLD row *)
      let* assigns =
        List.fold_left
          (fun acc (cname, e) ->
            let* acc = acc in
            match Schema.index_of_opt schema (Colref.make tname cname) with
            | None -> Error (Printf.sprintf "unknown column %s" cname)
            | Some i -> Ok ((i, Expr.compile ~params schema e) :: acc))
          (Ok []) set
      in
      let changed = ref 0 in
      let new_rows =
        List.map
          (fun row ->
            if Tbool.holds (pred row) then begin
              incr changed;
              let nr = Array.copy row in
              List.iter (fun (i, f) -> nr.(i) <- f row) assigns;
              nr
            end
            else row)
          (Heap.to_list h)
      in
      (* validate the prospective state: per-row constraints *)
      let checks = Catalog.check_predicates t.cat ~rel:tname td in
      let not_null = Table_def.not_null td in
      let* () =
        List.fold_left
          (fun acc row ->
            let* () = acc in
            let* () =
              check_types td (Array.to_list row)
            in
            let* () =
              List.fold_left
                (fun acc cname ->
                  let* () = acc in
                  let i = Schema.index_of schema (Colref.make tname cname) in
                  if Value.is_null row.(i) then
                    Error (Printf.sprintf "column %s cannot be NULL" cname)
                  else Ok ())
                (Ok ()) not_null
            in
            List.fold_left
              (fun acc e ->
                let* () = acc in
                if Tbool.possible (Expr.eval_pred schema e row) then Ok ()
                else
                  Error
                    (Printf.sprintf "constraint violated: %s" (Expr.to_string e)))
              (Ok ()) checks)
          (Ok ()) new_rows
      in
      (* key uniqueness over the whole prospective state *)
      let* () =
        List.fold_left
          (fun acc key_cols ->
            let* () = acc in
            let idxs =
              Schema.indices schema (List.map (Colref.make tname) key_cols)
            in
            let seen = Hashtbl.create 64 in
            List.fold_left
              (fun acc row ->
                let* () = acc in
                if Array.exists (fun i -> Value.is_null row.(i)) idxs then Ok ()
                else
                  let key = Row.key_on idxs row in
                  if Hashtbl.mem seen key then
                    Error
                      (Printf.sprintf "duplicate key (%s) for table %s"
                         (String.concat ", " key_cols) tname)
                  else begin
                    Hashtbl.add seen key ();
                    Ok ()
                  end)
              (Ok ()) new_rows)
          (Ok ()) (Table_def.keys td)
      in
      (* outgoing foreign keys of the updated rows *)
      let* () =
        List.fold_left
          (fun acc c ->
            let* () = acc in
            match c with
            | Constr.Foreign_key { cols; ref_table; ref_cols } ->
                let idxs =
                  Schema.indices schema (List.map (Colref.make tname) cols)
                in
                let available =
                  if String.equal ref_table tname then
                    (* self-reference: validate against the prospective state *)
                    key_values_of schema
                      (List.map (Colref.make tname) ref_cols)
                      new_rows
                  else
                    (key_index t ref_table
                       (List.map (Colref.make ref_table) ref_cols))
                      .keys
                in
                List.fold_left
                  (fun acc row ->
                    let* () = acc in
                    if Array.exists (fun i -> Value.is_null row.(i)) idxs then
                      Ok ()
                    else if Hashtbl.mem available (Row.key_on idxs row) then
                      Ok ()
                    else
                      Error
                        (Printf.sprintf
                           "foreign key violation: %s not present in %s"
                           (Row.to_string (Row.project idxs row))
                           ref_table))
                  (Ok ()) new_rows
            | _ -> Ok ())
          (Ok ()) td.Table_def.constraints
      in
      (* incoming foreign keys must still resolve against the new state *)
      let* () =
        List.fold_left
          (fun acc ((referencer : Table_def.t), cols, ref_cols) ->
            let* () = acc in
            let available =
              key_values_of schema
                (List.map (Colref.make tname) ref_cols)
                new_rows
            in
            let rows =
              if String.equal referencer.Table_def.tname tname then new_rows
              else Heap.to_list (heap t referencer.Table_def.tname)
            in
            check_incoming t referencer cols ~rows available)
          (Ok ()) (incoming_fks t tname)
      in
      (* all prospective-state checks passed: mutate in one step, with the
         fault point ahead of it so an abort is all-or-nothing *)
      Fault.trip "storage.write";
      Heap.replace_all h new_rows;
      Ok !changed

let update t tname ?params ~set ~where () =
  match
    Err.protect ~kind:Err.Storage (fun () ->
        update_impl t tname ?params ~set ~where ())
  with
  | Ok (Ok n) -> Ok n
  | Ok (Error msg) -> Error (Err.make Err.Storage msg)
  | Error e -> Error e

(* Look up under the lock, compute outside it, publish under it.  A
   view shorter than the entry (an older snapshot asked late) collects
   for itself and leaves the entry alone; another lineage (DROP/CREATE,
   a compaction, a rolled-back bulk insert) collects and replaces it. *)
let stats t tname =
  let h = heap t tname in
  let lin = Heap.lineage h in
  let n = Heap.length h in
  let c = t.shared_stats in
  let cached () =
    match Hashtbl.find_opt c.entries tname with
    | Some e when e.lineage = lin -> Some e.stats
    | _ -> None
  in
  let prefix =
    Mutex.protect c.mu (fun () ->
        match cached () with
        | Some s when Stats.row_count s = n ->
            c.hits <- c.hits + 1;
            Some s
        | Some s when Stats.row_count s < n ->
            c.extends <- c.extends + 1;
            Some s
        | _ ->
            c.collects <- c.collects + 1;
            None)
  in
  match prefix with
  | Some s when Stats.row_count s = n -> s
  | _ ->
      let s =
        match prefix with Some p -> Stats.extend p h | None -> Stats.collect h
      in
      Mutex.protect c.mu (fun () ->
          match cached () with
          | Some old when Stats.row_count old >= n -> ()
          | _ -> Hashtbl.replace c.entries tname { lineage = lin; stats = s });
      s

let stats_counters t =
  let c = t.shared_stats in
  Mutex.protect c.mu (fun () ->
      { collects = c.collects; extends = c.extends; hits = c.hits })

let row_count t tname = Heap.length (heap t tname)
