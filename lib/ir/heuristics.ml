open Var
module F = Taco_tensor.Format
module L = Taco_tensor.Level

type reason = Simplify_merge | Avoid_insert | Hoist_invariant

type suggestion = {
  reason : reason;
  expr : Cin.expr;
  over : Index_var.t list;
  description : string;
}

let reason_to_string = function
  | Simplify_merge -> "simplify merges"
  | Avoid_insert -> "avoid expensive inserts"
  | Hoist_invariant -> "hoist loop-invariant code"

(* Is the access's level for index variable [v] compressed? *)
let compressed_at (a : Cin.access) v =
  match Taco_support.Util.list_index_of v a.indices with
  | None -> false
  | Some mode ->
      let fmt = Tensor_var.format a.tensor in
      L.equal (F.level fmt (F.level_of_mode fmt mode)) L.Compressed

(* Find every assignment together with its enclosing forall variables,
   outermost first. *)
let rec assignments enclosing = function
  | Cin.Assignment { lhs; op; rhs } -> [ (List.rev enclosing, lhs, op, rhs) ]
  | Cin.Forall (v, s) -> assignments (v :: enclosing) s
  | Cin.Where (c, p) -> assignments enclosing c @ assignments enclosing p
  | Cin.Sequence (a, b) -> assignments enclosing a @ assignments enclosing b

let rec flatten_mul = function
  | Cin.Mul (a, b) -> flatten_mul a @ flatten_mul b
  | (Cin.Literal _ | Cin.Access _ | Cin.Neg _ | Cin.Add _ | Cin.Sub _ | Cin.Div _) as e ->
      [ e ]

let rebuild_mul = function
  | [] -> invalid_arg "Heuristics.rebuild_mul: empty"
  | x :: rest -> List.fold_left (fun a b -> Cin.Mul (a, b)) x rest

let mem v vars = List.exists (Index_var.equal v) vars

let suggest_for_assignment ~sparse_threshold (enclosing, (lhs : Cin.access), op, rhs) =
  let suggestions = ref [] in
  let innermost =
    match List.rev enclosing with [] -> None | v :: _ -> Some v
  in
  let reduction_vars = List.filter (fun v -> not (mem v lhs.indices)) enclosing in
  (* Avoid expensive inserts: an incrementing assignment into a result
     whose innermost written mode is compressed, under a reduction loop. *)
  (match (op, reduction_vars) with
  | Cin.Accumulate, _ :: _ ->
      let scattered = List.exists (compressed_at lhs) lhs.indices in
      if scattered then begin
        (* Workspace over the result variables bound inside the first
           reduction loop (a low-dimensional slice, e.g. one row). *)
        let rec below_reduction = function
          | [] -> []
          | v :: rest ->
              if mem v reduction_vars then
                List.filter (fun w -> mem w lhs.indices) rest
              else below_reduction rest
        in
        let over = below_reduction enclosing in
        if over <> [] then
          suggestions :=
            {
              reason = Avoid_insert;
              expr = rhs;
              over;
              description =
                Printf.sprintf
                  "scatter into compressed result %s: accumulate into a dense \
                   workspace over %s instead"
                  (Tensor_var.name lhs.tensor)
                  (String.concat "," (List.map Index_var.name over));
            }
            :: !suggestions
      end
  | Cin.Accumulate, [] | Cin.Assign, _ -> ());
  (* Simplify merges: more than [sparse_threshold] operands compressed at
     the innermost variable, with a compressed result. *)
  (match innermost with
  | Some v ->
      let sparse_operands =
        List.filter (fun a -> compressed_at a v) (Cin.expr_accesses rhs)
      in
      if
        List.length sparse_operands > sparse_threshold
        && List.exists (compressed_at lhs) lhs.indices
      then
        suggestions :=
          {
            reason = Simplify_merge;
            expr = rhs;
            over = [ v ];
            description =
              Printf.sprintf
                "%d sparse operands merge at %s into a compressed result: \
                 scatter into a dense workspace"
                (List.length sparse_operands) (Index_var.name v);
          }
          :: !suggestions
  | None -> ());
  (* Hoist loop-invariant code: a proper sub-product uses an inner
     reduction variable the rest does not; precompute it to lift the rest
     out of that loop. *)
  (match (flatten_mul rhs, innermost) with
  | (_ :: _ :: _ as factors), Some inner ->
      let candidates =
        List.filter (fun v -> (not (Index_var.equal v inner)) && mem v reduction_vars) enclosing
      in
      List.iter
        (fun v ->
          let using, not_using =
            List.partition (fun f -> mem v (Cin.expr_vars f)) factors
          in
          if using <> [] && not_using <> [] then begin
            let sub = rebuild_mul using in
            let over =
              List.filter
                (fun w -> mem w (Cin.expr_vars sub) && not (mem w reduction_vars))
                enclosing
              |> List.filter (fun w ->
                     (* only variables bound inside v *)
                     let rec after = function
                       | [] -> false
                       | x :: rest ->
                           if Index_var.equal x v then mem w rest else after rest
                     in
                     after enclosing)
            in
            if over <> [] then
              suggestions :=
                {
                  reason = Hoist_invariant;
                  expr = sub;
                  over;
                  description =
                    Printf.sprintf
                      "precompute %s over %s to hoist the remaining factors \
                       out of the %s loop"
                      (Stdlib.Format.asprintf "%a" Cin.pp_expr sub)
                      (String.concat "," (List.map Index_var.name over))
                      (Index_var.name v);
                }
                :: !suggestions
          end)
        candidates
  | ([] | [ _ ]), _ | _, None -> ());
  List.rev !suggestions

let suggest ?(sparse_threshold = 3) stmt =
  List.concat_map (suggest_for_assignment ~sparse_threshold) (assignments [] stmt)

let workspace_counter = ref 0

let apply_all ?(max_rounds = 4) stmt =
  let rec go stmt applied round =
    if round >= max_rounds then (stmt, List.rev applied)
    else
      match suggest stmt with
      | [] -> (stmt, List.rev applied)
      | s :: _ -> (
          incr workspace_counter;
          let workspace =
            Tensor_var.workspace
              (Printf.sprintf "w%d" !workspace_counter)
              ~order:(List.length s.over)
              ~format:(F.dense (List.length s.over))
          in
          match Workspace.precompute stmt ~expr:s.expr ~over:s.over ~workspace with
          | Ok stmt' ->
              if Cin.equal_stmt stmt stmt' then (stmt, List.rev applied)
              else go stmt' (s :: applied) (round + 1)
          | Error _ -> (stmt, List.rev applied))
  in
  go stmt [] 0
