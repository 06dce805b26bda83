open Eager_core
open Eager_algebra
open Eager_robust

type kind = Lazy_group | Eager_group | Eager_partial_group

type force =
  | E1
  | E2
  | Force_placement of { below : string list; partial : bool }

type decision = {
  verdict : Testfd.verdict;
  plan_lazy : Plan.t;
  cost_lazy : float;
  plan_eager : Plan.t option;
  cost_eager : float option;
  chosen : Plan.t;
  chosen_kind : kind;
  expanded_atoms : int;
  fallback : string option;
  forced : force option;
  candidates : Placement.t list;
}

let kind_to_string = function
  | Lazy_group -> "group after join (E1)"
  | Eager_group -> "group before join (E2)"
  | Eager_partial_group -> "partial group before join (E2p)"

let force_to_string = function
  | E1 -> "E1"
  | E2 -> "E2"
  | Force_placement { below; partial } ->
      Printf.sprintf "%s placement below {%s}"
        (if partial then "partial" else "full")
        (String.concat ", " below)

let rank placements =
  List.stable_sort
    (fun (a : Placement.t) (b : Placement.t) -> Float.compare a.cost b.cost)
    placements

let rels_of sources =
  List.map (fun (s : Canonical.source) -> s.Canonical.rel) sources

(* Graceful degradation: an eager rewrite is only proposed when its
   validity argument actually goes through — TestFD for the full push
   (cf. Chirkova & Genesereth on dependency-based rewrites),
   decomposability for the partial one.  Whenever verification or
   costing cannot complete — an internal error, an injected fault, or a
   governor deadline already blown — we demote to the canonical E1 plan
   and record why, rather than failing the query. *)
let decide_raw ?strict ?(expand = true) ?(governor = Governor.unlimited)
    ?force ?(partial_cap = 1024) ?(max_cuts = 16) ?io db q =
  let fallback = ref None in
  let demote reason = fallback := Some reason in
  let expanded_atoms, q =
    match
      Err.protect ~kind:Err.Planner (fun () ->
          if expand then (Expand.derived_count q, Expand.query q) else (0, q))
    with
    | Ok r -> r
    | Error e ->
        demote (Printf.sprintf "predicate expansion failed: %s" (Err.to_string e));
        (0, q)
  in
  let verdict =
    if !fallback <> None then
      Testfd.No (Printf.sprintf "planner fallback: %s" (Option.get !fallback))
    else
      match
        let ( let* ) = Result.bind in
        let* () = Fault.check "opt.testfd" in
        let* () = Governor.check governor in
        Err.protect ~kind:Err.Planner (fun () -> Testfd.test ?strict db q)
      with
      | Ok v -> v
      | Error e ->
          let reason =
            Printf.sprintf "TestFD could not complete: %s" (Err.to_string e)
          in
          demote reason;
          Testfd.No reason
  in
  let plan_lazy = Placement.lower_lazy db q in
  let cost_lazy =
    match Err.protect ~kind:Err.Planner (fun () -> Cost.cost ?io db plan_lazy) with
    | Ok c -> c
    | Error e ->
        (* E1 is the plan of last resort: run it even uncosted *)
        demote (Printf.sprintf "cost model failed on E1: %s" (Err.to_string e));
        Float.infinity
  in
  let lazy_cand =
    { Placement.mode = Placement.Lazy; below = []; verdict = None;
      plan = plan_lazy; cost = cost_lazy }
  in
  let lazy_decision verdict =
    {
      verdict;
      plan_lazy;
      cost_lazy;
      plan_eager = None;
      cost_eager = None;
      chosen = plan_lazy;
      chosen_kind = Lazy_group;
      expanded_atoms;
      fallback = !fallback;
      forced = (match force with Some E1 -> Some E1 | _ -> None);
      candidates = [ lazy_cand ];
    }
  in
  (* every placement at one cut: the full E2 push when TestFD verifies
     it, the partial push when the aggregates decompose *)
  let candidates_at g cut : Placement.t list =
    match Qgraph.canonical_at db g cut with
    | Error _ -> []
    | Ok qc ->
        let full =
          match
            Err.protect ~kind:Err.Planner (fun () -> Testfd.test ?strict db qc)
          with
          | Ok Testfd.Yes -> (
              match
                Err.protect ~kind:Err.Planner (fun () ->
                    let p =
                      Placement.restore_order ~like:q qc
                        (Placement.lower_full db qc)
                    in
                    (p, Cost.cost ?io db p))
              with
              | Ok (p, c) ->
                  [ { Placement.mode = Placement.Eager_full; below = cut;
                      verdict = Some Testfd.Yes; plan = p; cost = c } ]
              | Error _ -> [])
          | Ok (Testfd.No _) | Error _ -> []
        in
        let partial =
          match
            Err.protect ~kind:Err.Planner (fun () ->
                match Placement.lower_partial db ~cap:partial_cap qc with
                | Ok p ->
                    let p = Placement.restore_order ~like:q qc p in
                    Some (p, Cost.cost ?io db p)
                | Error _ -> None)
          with
          | Ok (Some (p, c)) ->
              [ { Placement.mode = Placement.Eager_partial; below = cut;
                  verdict = None; plan = p; cost = c } ]
          | Ok None | Error _ -> []
        in
        full @ partial
  in
  let enumerate () =
    match Qgraph.of_canonical db q with
    | Error _ -> []
    | Ok g ->
        List.concat_map
          (fun cut ->
            match Governor.check governor with
            | Error _ -> [] (* deadline blown mid-enumeration: stop adding *)
            | Ok () -> candidates_at g cut)
          (Qgraph.cuts ~max_cuts g)
  in
  let default_full ranked =
    List.find_opt
      (fun (p : Placement.t) ->
        p.mode = Placement.Eager_full
        && List.sort String.compare p.below
           = List.sort String.compare (rels_of q.Canonical.r1))
      ranked
  in
  match force, verdict with
  | Some E1, _ ->
      (* forced E1: always valid — the canonical plan needs no FD check *)
      lazy_decision verdict
  | Some E2, Testfd.No reason ->
      (* force hooks must stay honest: an unverified rewrite is refused
         with a typed error, never silently executed *)
      Err.failf Err.Planner
        "forced E2 rejected: the rewrite is not verified — TestFD says NO \
         (%s)"
        reason
  | Some E2, Testfd.Yes ->
      let plan_eager =
        match
          Err.protect ~kind:Err.Planner (fun () -> Placement.lower_full db q)
        with
        | Ok p -> p
        | Error e ->
            Err.raise_ (Err.add_context "forced E2: plan construction" e)
      in
      let cost_eager =
        match Err.protect ~kind:Err.Planner (fun () -> Cost.cost ?io db plan_eager)
        with
        | Ok c -> Some c
        | Error _ -> None (* cost is advisory under force *)
      in
      let cand =
        { Placement.mode = Placement.Eager_full;
          below = rels_of q.Canonical.r1; verdict = Some Testfd.Yes;
          plan = plan_eager;
          cost = Option.value cost_eager ~default:Float.infinity }
      in
      {
        verdict;
        plan_lazy;
        cost_lazy;
        plan_eager = Some plan_eager;
        cost_eager;
        chosen = plan_eager;
        chosen_kind = Eager_group;
        expanded_atoms;
        fallback = !fallback;
        forced = Some E2;
        candidates = rank [ lazy_cand; cand ];
      }
  | Some (Force_placement { below; partial }), _ ->
      let g =
        match Qgraph.of_canonical db q with
        | Ok g -> g
        | Error msg ->
            Err.failf Err.Planner "forced placement rejected: %s" msg
      in
      let qc =
        match Qgraph.canonical_at db g below with
        | Ok qc -> qc
        | Error msg ->
            Err.failf Err.Planner "forced placement rejected: %s" msg
      in
      let plan, chosen_kind, cand_verdict =
        if partial then
          match Placement.lower_partial db ~cap:partial_cap qc with
          | Ok p -> (p, Eager_partial_group, None)
          | Error msg ->
              Err.failf Err.Planner "forced partial placement rejected: %s"
                msg
        else
          match Testfd.test ?strict db qc with
          | Testfd.No reason ->
              Err.failf Err.Planner
                "forced placement rejected: the rewrite is not verified — \
                 TestFD says NO at cut {%s} (%s)"
                (String.concat ", " below) reason
          | Testfd.Yes -> (Placement.lower_full db qc, Eager_group, Some Testfd.Yes)
      in
      let plan = Placement.restore_order ~like:q qc plan in
      let cost =
        match Err.protect ~kind:Err.Planner (fun () -> Cost.cost ?io db plan) with
        | Ok c -> Some c
        | Error _ -> None (* cost is advisory under force *)
      in
      let cand =
        { Placement.mode =
            (if partial then Placement.Eager_partial else Placement.Eager_full);
          below; verdict = cand_verdict; plan;
          cost = Option.value cost ~default:Float.infinity }
      in
      {
        verdict;
        plan_lazy;
        cost_lazy;
        plan_eager = None;
        cost_eager = None;
        chosen = plan;
        chosen_kind;
        expanded_atoms;
        fallback = !fallback;
        forced = force;
        candidates = rank [ lazy_cand; cand ];
      }
  | None, _ when !fallback <> None -> lazy_decision verdict
  | None, _ -> (
      match
        let ( let* ) = Result.bind in
        let* () = Fault.check "opt.cost" in
        Governor.check governor
      with
      | Error e ->
          (* enumeration or costing unavailable: budget breach or
             injected fault — demote to E1 *)
          demote
            (Printf.sprintf "eager plan abandoned: %s" (Err.to_string e));
          lazy_decision verdict
      | Ok () ->
          let ranked = rank (lazy_cand :: enumerate ()) in
          let best = List.hd ranked in
          let chosen_kind =
            match best.Placement.mode with
            | Placement.Lazy -> Lazy_group
            | Placement.Eager_full -> Eager_group
            | Placement.Eager_partial -> Eager_partial_group
          in
          let dflt = default_full ranked in
          {
            verdict;
            plan_lazy;
            cost_lazy;
            plan_eager = Option.map (fun (p : Placement.t) -> p.plan) dflt;
            cost_eager = Option.map (fun (p : Placement.t) -> p.cost) dflt;
            chosen = best.Placement.plan;
            chosen_kind;
            expanded_atoms;
            fallback = !fallback;
            forced = None;
            candidates = ranked;
          })

(* the planner itself can die on a malformed query (unknown tables on
   both plan shapes); this boundary turns even that into a value *)
let decide ?strict ?expand ?governor ?force ?partial_cap ?max_cuts ?io db q =
  Err.protect ~kind:Err.Planner (fun () ->
      decide_raw ?strict ?expand ?governor ?force ?partial_cap ?max_cuts ?io db
        q)
