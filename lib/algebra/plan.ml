open Eager_schema
open Eager_expr

type t =
  | Scan of { table : string; rel : string; schema : Schema.t }
  | Select of { pred : Expr.t; input : t }
  | Project of { dedup : bool; cols : Colref.t list; input : t }
  | Product of t * t
  | Join of { pred : Expr.t; left : t; right : t }
  | Group of {
      by : Colref.t list;
      aggs : Agg.t list;
      scalar : bool;
      input : t;
    }
  | Partial_group of {
      by : Colref.t list;
      aggs : Agg.t list;
      cap : int;
      input : t;
    }
  | Sort of { by : (Colref.t * bool) list; input : t }
  | Map of { items : (Colref.t * Expr.t) list; input : t }

let scan ~table ~rel schema = Scan { table; rel; schema }

let select pred input =
  if Expr.equal pred Expr.etrue then input else Select { pred; input }

let project ?(dedup = false) cols input = Project { dedup; cols; input }
let join pred left right = Join { pred; left; right }
let sort by input = if by = [] then input else Sort { by; input }
let map_items items input = Map { items; input }

let group ?(scalar = false) ~by ~aggs input =
  if scalar && by <> [] then
    invalid_arg "Plan.group: scalar aggregation cannot have grouping columns";
  Group { by; aggs; scalar; input }

let partial_group ~by ~aggs ~cap input =
  if cap < 1 then
    invalid_arg "Plan.partial_group: the flush cap must be at least 1";
  Partial_group { by; aggs; cap; input }

let rec schema_of = function
  | Scan { schema; _ } -> schema
  | Select { input; _ } | Sort { input; _ } -> schema_of input
  | Map { items; input } ->
      let inner = schema_of input in
      Schema.make
        (List.map
           (fun (c, e) ->
             let ty =
               match Expr.infer inner e with
               | Ok t -> t
               | Error msg ->
                   failwith
                     (Printf.sprintf "Map item %s: %s" (Colref.to_string c) msg)
             in
             (c, ty))
           items)
  | Project { cols; input; _ } -> Schema.project (schema_of input) cols
  | Product (a, b) -> Schema.concat (schema_of a) (schema_of b)
  | Join { left; right; _ } -> Schema.concat (schema_of left) (schema_of right)
  | Group { by; aggs; input; _ } | Partial_group { by; aggs; input; _ } ->
      let inner = schema_of input in
      let by_cols = List.map (fun c -> (c, Schema.type_of inner c)) by in
      let agg_cols =
        List.map
          (fun (a : Agg.t) -> (a.Agg.name, Agg.out_type inner a.Agg.calc))
          aggs
      in
      Schema.make (by_cols @ agg_cols)

let rec relations = function
  | Scan { rel; _ } -> [ rel ]
  | Select { input; _ } | Project { input; _ } | Group { input; _ }
  | Partial_group { input; _ } | Sort { input; _ } | Map { input; _ } ->
      relations input
  | Product (a, b) | Join { left = a; right = b; _ } ->
      relations a @ relations b

let node_label = function
  | Scan { table; rel; _ } ->
      if String.equal table rel then Printf.sprintf "Scan %s" table
      else Printf.sprintf "Scan %s AS %s" table rel
  | Select { pred; _ } -> Printf.sprintf "Select [%s]" (Expr.to_string pred)
  | Project { dedup; cols; _ } ->
      Printf.sprintf "Project%s [%s]"
        (if dedup then " DISTINCT" else "")
        (String.concat ", " (List.map Colref.to_string cols))
  | Product _ -> "Product"
  | Join { pred; _ } -> Printf.sprintf "Join [%s]" (Expr.to_string pred)
  | Map { items; _ } ->
      Printf.sprintf "Map [%s]"
        (String.concat ", "
           (List.map
              (fun (c, e) ->
                Printf.sprintf "%s AS %s" (Expr.to_string e) (Colref.to_string c))
              items))
  | Sort { by; _ } ->
      Printf.sprintf "Sort [%s]"
        (String.concat ", "
           (List.map
              (fun (c, desc) ->
                Colref.to_string c ^ if desc then " DESC" else "")
              by))
  | Group { by; aggs; _ } ->
      Printf.sprintf "GroupBy [%s]%s"
        (String.concat ", " (List.map Colref.to_string by))
        (match aggs with
        | [] -> ""
        | _ -> " " ^ String.concat ", " (List.map Agg.to_string aggs))
  | Partial_group { by; aggs; cap; _ } ->
      Printf.sprintf "PartialGroupBy [%s]%s (cap %d)"
        (String.concat ", " (List.map Colref.to_string by))
        (match aggs with
        | [] -> ""
        | _ -> " " ^ String.concat ", " (List.map Agg.to_string aggs))
        cap

let children = function
  | Scan _ -> []
  | Select { input; _ } | Project { input; _ } | Group { input; _ }
  | Partial_group { input; _ } | Sort { input; _ } | Map { input; _ } ->
      [ input ]
  | Product (a, b) | Join { left = a; right = b; _ } -> [ a; b ]

let label = node_label

let pp_annotated ~note ppf plan =
  let rec go indent p =
    let label = node_label p in
    let annot = match note p with Some s -> "   -- " ^ s | None -> "" in
    Format.fprintf ppf "%s%s%s@," indent label annot;
    List.iter (go (indent ^ "  ")) (children p)
  in
  Format.fprintf ppf "@[<v>";
  go "" plan;
  Format.fprintf ppf "@]"

let pp ppf plan = pp_annotated ~note:(fun _ -> None) ppf plan
let to_string plan = Format.asprintf "%a" pp plan
