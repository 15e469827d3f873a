(* Asymptotic cost model over concrete index notation, driven by
   per-tensor sparsity statistics (Taco_stats.Stats). See cost.mli. *)

open Var
module S = Taco_stats.Stats
module F = Taco_tensor.Format
module L = Taco_tensor.Level

type env = {
  stats : (string * S.t) list;
  default_dim : int;
  default_density : float;
}

let env ?(default_dim = 1000) ?(default_density = 0.05) stats =
  { stats; default_dim; default_density }

let lookup e tv = List.assoc_opt (Tensor_var.name tv) e.stats

(* ------------------------------------------------------------------ *)
(* Access collection and variable ranges                               *)
(* ------------------------------------------------------------------ *)

(* Variable ranges, inferred from the accesses whose tensors carry
   stats: index var [v] at logical mode [m] of tensor [t] ranges over
   [dims t].(m). Workspaces are dense over vars that also appear in
   stats-carrying accesses, so their extents come out of the same
   table. Unconstrained vars fall back to [default_dim]. *)
let ranges e stmt =
  let tbl : (Index_var.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : Cin.access) ->
      match lookup e a.Cin.tensor with
      | None -> ()
      | Some st ->
          List.iteri
            (fun m v ->
              if m < Array.length st.S.dims then
                let d = st.S.dims.(m) in
                let prev = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
                Hashtbl.replace tbl v (max prev d))
            a.Cin.indices)
    (Cin.stmt_accesses stmt);
  tbl

let var_range e tbl v =
  match Hashtbl.find_opt tbl v with
  | Some d -> max 1 d
  | None -> e.default_dim

(* ------------------------------------------------------------------ *)
(* Trip counts                                                         *)
(* ------------------------------------------------------------------ *)

let index_position v indices =
  let rec go i = function
    | [] -> None
    | x :: tl -> if Index_var.equal x v then Some i else go (i + 1) tl
  in
  go 0 indices

(* How many iterations loop [v] performs, given the accesses in its
   body and the set of already-bound vars. Each access constrains the
   trip count; the tightest (smallest) constraint wins, because
   lowering co-iterates intersections over the sparsest operand.

   - dense level: the full dimension;
   - compressed level whose outer storage levels are all bound: the
     average segment fill (children per bound parent position);
   - compressed level with an unbound parent: the kernel cannot use
     the hierarchy, so at best it scans all stored positions of the
     level (capped by the dimension);
   - tensors without stats use format structure with defaults. *)
let trips e tbl bound accesses v =
  let range_v = var_range e tbl v in
  let constraints =
    List.filter_map
      (fun (a : Cin.access) ->
        match index_position v a.Cin.indices with
        | None -> None
        | Some m ->
            let fmt = Tensor_var.format a.Cin.tensor in
            if m >= F.order fmt then None
            else
              let l = F.level_of_mode fmt m in
              let parents_bound =
                let ok = ref true in
                for l' = 0 to l - 1 do
                  let m' = F.mode_of_level fmt l' in
                  match List.nth_opt a.Cin.indices m' with
                  | Some v' when List.exists (Index_var.equal v') bound -> ()
                  | _ -> ok := false
                done;
                !ok
              in
              match (F.level fmt l, lookup e a.Cin.tensor) with
              | L.Dense, Some st when m < Array.length st.S.dims ->
                  Some (float_of_int st.S.dims.(m))
              | L.Dense, _ -> Some (float_of_int range_v)
              | L.Compressed, Some st ->
                  if parents_bound then Some (Float.max 1. st.S.fill.(l))
                  else Some (float_of_int (min st.S.n_positions.(l) range_v))
              | L.Compressed, None ->
                  if parents_bound then
                    Some
                      (Float.max 1.
                         (e.default_density *. float_of_int range_v))
                  else Some (float_of_int range_v))
      accesses
  in
  match constraints with
  | [] -> float_of_int range_v
  | cs -> Float.max 1. (List.fold_left Float.min Float.infinity cs)

(* ------------------------------------------------------------------ *)
(* Statement cost                                                      *)
(* ------------------------------------------------------------------ *)

let rec n_ops = function
  | Cin.Literal _ | Cin.Access _ -> 0
  | Cin.Neg e -> 1 + n_ops e
  | Cin.Add (a, b) | Cin.Sub (a, b) | Cin.Mul (a, b) | Cin.Div (a, b) ->
      1 + n_ops a + n_ops b

let has_compressed fmt = List.exists (L.equal L.Compressed) (F.levels fmt)

(* Relative penalty for accumulating out of order into compressed
   storage (the scatter the workspace transformation exists to avoid):
   each such update is an insertion, not a streaming append. *)
let scatter_penalty = 16.

(* Cost of zeroing + materializing the workspaces a producer writes:
   proportional to their dense extents, paid per surrounding iteration. *)
let workspace_extent e tbl producer =
  let ws =
    List.filter Tensor_var.is_workspace (Cin.tensors_written producer)
  in
  List.fold_left
    (fun acc w ->
      let indices =
        List.find_map
          (fun (a : Cin.access) ->
            if Tensor_var.equal a.Cin.tensor w then Some a.Cin.indices else None)
          (Cin.stmt_accesses producer)
      in
      match indices with
      | None -> acc
      | Some idx ->
          acc
          +. List.fold_left
               (fun p v -> p *. float_of_int (var_range e tbl v))
               1. idx)
    0. ws

let estimate e stmt =
  let tbl = ranges e stmt in
  let rec go mult bound = function
    | Cin.Forall (v, s) ->
        let t = trips e tbl bound (Cin.stmt_accesses s) v in
        let mult' = mult *. t in
        mult' +. go mult' (v :: bound) s
    | Cin.Assignment { lhs; op; rhs } ->
        let flops = float_of_int (max 1 (n_ops rhs)) in
        let scatter =
          if
            op = Cin.Accumulate
            && has_compressed (Tensor_var.format lhs.Cin.tensor)
            && List.exists
                 (fun v ->
                   not (List.exists (Index_var.equal v) lhs.Cin.indices))
                 bound
          then scatter_penalty
          else 0.
        in
        mult *. (flops +. 1. +. scatter)
    | Cin.Where (c, p) ->
        go mult bound p +. go mult bound c
        +. (mult *. workspace_extent e tbl p)
    | Cin.Sequence (a, b) -> go mult bound a +. go mult bound b
  in
  go 1. [] stmt

(* ------------------------------------------------------------------ *)
(* Cardinality estimation                                              *)
(* ------------------------------------------------------------------ *)

(* Bernoulli independence: every component of a tensor is nonzero with
   the tensor's density, independently. Products intersect, sums
   unite, and a reduction over [n] terms is nonzero when any term is:
   1 - (1-p)^n, computed in log space to survive tiny p and large n. *)
let rec expr_density e = function
  | Cin.Literal v -> if v = 0. then 0. else 1.
  | Cin.Access a ->
      if Tensor_var.is_workspace a.Cin.tensor then 1.
      else (
        match lookup e a.Cin.tensor with
        | Some st -> S.density st
        | None -> e.default_density)
  | Cin.Neg x -> expr_density e x
  | Cin.Mul (a, b) -> expr_density e a *. expr_density e b
  | Cin.Div (a, _) -> expr_density e a
  | Cin.Add (a, b) | Cin.Sub (a, b) ->
      let da = expr_density e a and db = expr_density e b in
      da +. db -. (da *. db)

let union_over_terms ~terms p =
  if p >= 1. then 1.
  else if p <= 0. then 0.
  else -.Float.expm1 (terms *. Float.log1p (-.p))

(* The statement's principal assignment: the innermost write to a
   non-workspace tensor (the consumer side of any Where). *)
let rec principal = function
  | Cin.Assignment { lhs; op = _; rhs } ->
      if Tensor_var.is_workspace lhs.Cin.tensor then None else Some (lhs, rhs)
  | Cin.Forall (_, s) -> principal s
  | Cin.Where (c, _) -> principal c
  | Cin.Sequence (a, b) -> (
      match principal b with Some x -> Some x | None -> principal a)

let estimate_nnz e stmt =
  match principal stmt with
  | None -> None
  | Some (lhs, rhs) ->
      let tbl = ranges e stmt in
      let out = lhs.Cin.indices in
      let reduction =
        List.filter
          (fun v -> not (List.exists (Index_var.equal v) out))
          (Cin.expr_vars rhs)
      in
      let terms =
        List.fold_left
          (fun p v -> p *. float_of_int (var_range e tbl v))
          1. reduction
      in
      let p = union_over_terms ~terms (expr_density e rhs) in
      let positions =
        List.fold_left
          (fun p v -> p *. float_of_int (var_range e tbl v))
          1. out
      in
      Some (positions *. p)
