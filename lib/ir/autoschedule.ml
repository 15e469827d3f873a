open Var
module Trace = Taco_support.Trace
module Memo = Taco_support.Memo

type step =
  | Reordered of Index_var.t * Index_var.t
  | Precomputed of Heuristics.suggestion * Tensor_var.t
  | Parallelized of Index_var.t

let step_to_string = function
  | Reordered (a, b) ->
      Printf.sprintf "reorder(%s, %s)" (Index_var.name a) (Index_var.name b)
  | Precomputed (s, w) ->
      Printf.sprintf "precompute(%s, {%s}, %s)  [%s]"
        (Stdlib.Format.asprintf "%a" Cin.pp_expr s.Heuristics.expr)
        (String.concat "," (List.map Index_var.name s.Heuristics.over))
        (Tensor_var.name w)
        (Heuristics.reason_to_string s.Heuristics.reason)
  | Parallelized v -> Printf.sprintf "parallelize(%s)" (Index_var.name v)

(* Workspace names are derived from the statement and the suggestion, so
   two searches over the same statement — on any domain, in any order —
   produce identical names. A global counter here raced under
   concurrent service compiles and leaked nondeterministic names into
   structural cache keys. *)
let fresh_workspace stmt (s : Heuristics.suggestion) =
  let tag =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [
              Cin.to_string stmt;
              Stdlib.Format.asprintf "%a" Cin.pp_expr s.Heuristics.expr;
              String.concat "," (List.map Index_var.name s.Heuristics.over);
            ]))
  in
  let over = s.Heuristics.over in
  Tensor_var.workspace
    (Printf.sprintf "ws_%s" (String.sub tag 0 8))
    ~order:(List.length over)
    ~format:(Taco_tensor.Format.dense (List.length over))

(* Candidate moves from a statement: workspace heuristics first (they
   remove scatters, which reorders cannot), then loop interchanges.
   Each candidate is a child statement plus the steps that reach it
   (outermost-applied first). *)
let candidates stmt =
  let from_heuristics =
    List.filter_map
      (fun (s : Heuristics.suggestion) ->
        let w = fresh_workspace stmt s in
        match
          Workspace.precompute stmt ~expr:s.Heuristics.expr ~over:s.Heuristics.over
            ~workspace:w
        with
        | Ok stmt' -> Some (stmt', [ Precomputed (s, w) ])
        | Error _ -> None)
      (Heuristics.suggest stmt)
  in
  let vars = Cin.stmt_vars stmt in
  let from_reorders =
    List.concat_map
      (fun v1 ->
        List.filter_map
          (fun v2 ->
            if Index_var.compare v1 v2 >= 0 then None
            else
              match Reorder.reorder v1 v2 stmt with
              | Ok stmt' -> Some (stmt', [ Reordered (v1, v2) ])
              | Error _ -> None)
          vars)
      vars
  in
  from_heuristics @ from_reorders

(* Composite moves: sink one loop variable to the innermost position of
   its nest by successive pairwise swaps. Pairwise interchange alone
   needs several search levels to move a variable far, and the
   workspace heuristics (notably Hoist_invariant) only fire once the
   invariant variable is innermost — sinking as a single candidate
   brings those states within a shallow search horizon. *)
let sink_candidates stmt =
  let vars, _ = Cin.peel_foralls stmt in
  List.filter_map
    (fun v ->
      let rec sink s steps =
        let order, _ = Cin.peel_foralls s in
        match List.exists (Index_var.equal v) order with
        | false -> None
        | true -> (
            let rec after = function
              | [] -> None
              | x :: tl -> if Index_var.equal x v then List.nth_opt tl 0 else after tl
            in
            match after order with
            | None -> if steps = [] then None else Some (s, List.rev steps)
            | Some next -> (
                match Reorder.reorder v next s with
                | Ok s' -> sink s' (Reordered (v, next) :: steps)
                | Error _ ->
                    if steps = [] then None else Some (s, List.rev steps)))
      in
      sink stmt [])
    vars

(* ------------------------------------------------------------------ *)
(* Legacy policy: first lowerable schedule, breadth-first               *)
(* ------------------------------------------------------------------ *)

let bfs_first ~lowerable stmt =
  (* Breadth-first search over schedules, bounded and deduplicated. *)
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  let budget = ref 500 in
  Queue.add (stmt, []) queue;
  Hashtbl.replace visited (Cin.to_string stmt) ();
  let first_error = ref None in
  let rec search () =
    if Queue.is_empty queue || !budget <= 0 then
      Error
        (Printf.sprintf "autoschedule: no lowerable schedule found%s"
           (match !first_error with
           | Some e -> " (first lowering error: " ^ e ^ ")"
           | None -> ""))
    else begin
      let s, steps = Queue.pop queue in
      decr budget;
      match lowerable s with
      | Ok () -> Ok (s, List.rev steps)
      | Error e ->
          if !first_error = None then first_error := Some e;
          if List.length steps < 6 then
            List.iter
              (fun (s', new_steps) ->
                let key = Cin.to_string s' in
                if not (Hashtbl.mem visited key) then begin
                  Hashtbl.replace visited key ();
                  Queue.add (s', List.rev_append new_steps steps) queue
                end)
              (candidates s);
          search ()
    end
  in
  search ()

let run ~lowerable stmt =
  Trace.with_span ~cat:"schedule" "autoschedule" @@ fun () ->
  match Cin.validate stmt with
  | Error e -> Error e
  | Ok () -> bfs_first ~lowerable stmt

(* ------------------------------------------------------------------ *)
(* Cost-ranked search                                                  *)
(* ------------------------------------------------------------------ *)

type plan = {
  p_stmt : Cin.stmt;
  p_steps : step list;
  p_par : Index_var.t option;
  p_cost : float;
}

type explain = {
  e_considered : int;
  e_lowerable : int;
  e_default_cost : float;
  e_chosen_cost : float;
  e_search_ns : int64;
  e_cache_hit : bool;
  e_top : (string * float) list;
}

let plans : plan Memo.t = Memo.create ~name:"plan" ~capacity:256

let cache_stats () = Memo.stats plans

let cache_clear () = Memo.clear plans

(* Keep the cost-chosen plan only when it is decisively cheaper than
   the baseline. Estimates within the margin are noise — ties between
   pure reorders of dense loops, model error on unknown fills — and
   the baseline plan has the advantage of being the known-good
   behavior. *)
let margin = 0.8

(* Parallelization is advisory and only proposed for genuinely large
   plans: below this estimated operation count, domain spawn/join
   overheads dominate any win. *)
let parallel_threshold = 1e8

let search_budget = 300

let max_depth = 6

(* The cost-based search proper, timed from [t0]. *)
let plan_search ~stats ~lowerable ~t0 stmt =
  match bfs_first ~lowerable stmt with
  | Error e -> Error e
  | Ok (default_stmt, default_steps) ->
      let env = Cost.env stats in
      let cost_memo = Hashtbl.create 64 in
      let cost_of s =
        let k = Cin.to_string s in
        match Hashtbl.find_opt cost_memo k with
        | Some c -> c
        | None ->
            let c = Cost.estimate env s in
            Hashtbl.replace cost_memo k c;
            c
      in
      let default_cost = cost_of default_stmt in
      (* Best-first over schedule space, cheapest estimate
         expanded next. Lowerable states are collected rather
         than returned eagerly: the cheapest plan may sit behind
         a more expensive intermediate. *)
      let visited = Hashtbl.create 64 in
      let frontier = ref [ (cost_of stmt, stmt, []) ] in
      let pool = ref [] in
      let considered = ref 0 in
      Hashtbl.replace visited (Cin.to_string stmt) ();
      let push (s, new_steps) steps =
        let k = Cin.to_string s in
        if not (Hashtbl.mem visited k) then begin
          Hashtbl.replace visited k ();
          let entry = (cost_of s, s, List.rev_append new_steps steps) in
          let rec insert = function
            | [] -> [ entry ]
            | ((c', _, _) as hd) :: tl ->
                let (c, _, _) = entry in
                if c < c' then entry :: hd :: tl else hd :: insert tl
          in
          frontier := insert !frontier
        end
      in
      let budget = ref search_budget in
      while !frontier <> [] && !budget > 0 do
        match !frontier with
        | [] -> ()
        | (c, s, steps) :: rest ->
            frontier := rest;
            decr budget;
            incr considered;
            (* Lowering is the expensive probe, so only states
               that could actually displace the baseline (cost
               under the margin) are tested; the rest are just
               expanded. *)
            if c < margin *. default_cost && lowerable s = Ok () then
              pool := (c, s, steps) :: !pool;
            if List.length steps < max_depth then
              List.iter
                (fun child -> push child steps)
                (candidates s @ sink_candidates s)
      done;
      let pool =
        (default_cost, default_stmt, List.rev default_steps) :: List.rev !pool
      in
      let best =
        List.fold_left
          (fun ((bc, _, _) as b) ((c, _, _) as x) ->
            if c < bc then x else b)
          (List.hd pool) (List.tl pool)
      in
      let chosen_cost, chosen_stmt, chosen_rev_steps =
        let (bc, _, _) = best in
        if bc < margin *. default_cost then best
        else (default_cost, default_stmt, List.rev default_steps)
      in
      let chosen_steps = List.rev chosen_rev_steps in
      (* Advisory parallelization of the outermost loop, only
         for plans big enough to amortize domain startup and
         only when it is provably race-free. *)
      let par, chosen_steps =
        if stats <> [] && chosen_cost >= parallel_threshold then
          match chosen_stmt with
          | Cin.Forall (v, _) -> (
              match Schedule.parallelize v (Schedule.of_stmt chosen_stmt) with
              | Ok _ -> (Some v, chosen_steps @ [ Parallelized v ])
              | Error _ -> (None, chosen_steps))
          | _ -> (None, chosen_steps)
        else (None, chosen_steps)
      in
      let plan =
        {
          p_stmt = chosen_stmt;
          p_steps = chosen_steps;
          p_par = par;
          p_cost = chosen_cost;
        }
      in
      let top =
        List.sort
          (fun (a, _, _) (b, _, _) -> Float.compare a b)
          pool
        |> List.filteri (fun i _ -> i < 3)
        |> List.map (fun (c, s, _) -> (Cin.to_string s, c))
      in
      Ok
        ( plan,
          {
            e_considered = !considered;
            e_lowerable = List.length pool;
            e_default_cost = default_cost;
            e_chosen_cost = chosen_cost;
            e_search_ns = Int64.sub (Trace.now_ns ()) t0;
            e_cache_hit = false;
            e_top = top;
          } )

let search ?(stats = []) ?key ~lowerable stmt =
  Trace.with_span ~cat:"schedule" "autoschedule.search" @@ fun () ->
  match Cin.validate stmt with
  | Error e -> Error e
  | Ok () -> (
      let t0 = Trace.now_ns () in
      match key with
      | None -> plan_search ~stats ~lowerable ~t0 stmt
      | Some key ->
          (* A cached plan counts only while its statement still lowers.
             Only the domain that ran the search sees its explain. *)
          let searched = ref None in
          Memo.find_or_build_result
            ~valid:(fun plan -> lowerable plan.p_stmt = Ok ())
            plans key
            (fun () ->
              Result.map
                (fun (plan, ex) ->
                  searched := Some ex;
                  plan)
                (plan_search ~stats ~lowerable ~t0 stmt))
          |> Result.map (fun plan ->
                 match !searched with
                 | Some ex -> (plan, ex)
                 | None ->
                     ( plan,
                       {
                         e_considered = 0;
                         e_lowerable = 0;
                         e_default_cost = plan.p_cost;
                         e_chosen_cost = plan.p_cost;
                         e_search_ns = Int64.sub (Trace.now_ns ()) t0;
                         e_cache_hit = true;
                         e_top = [];
                       } )))
