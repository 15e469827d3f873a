open Var
module Diag = Taco_support.Diag

type member = { tensor : Tensor_var.t; mode : int; var : Index_var.t }

type t = member list list

let same_mode a b = Tensor_var.equal a.tensor b.tensor && a.mode = b.mode

(* Two members share an extent when they share an index variable or a
   tensor mode. Each member merges every group it touches, in place of
   the first; a repeated access adds no member. *)
let add groups m =
  let touches g = List.exists (fun n -> Index_var.equal n.var m.var || same_mode n m) g in
  match List.filter touches groups with
  | [] -> groups @ [ [ m ] ]
  | first :: _ as touching ->
      let merged = List.concat touching in
      let repeat n = same_mode n m && Index_var.equal n.var m.var in
      let merged = if List.exists repeat merged then merged else merged @ [ m ] in
      List.filter_map
        (fun g -> if g == first then Some merged else if touches g then None else Some g)
        groups

let of_stmt stmt =
  Cin.stmt_accesses stmt
  |> List.concat_map (fun (a : Cin.access) ->
         List.mapi (fun mode var -> { tensor = a.tensor; mode; var }) a.indices)
  |> List.fold_left add []
  |> List.filter_map (fun g ->
         match List.filter (fun m -> not (Tensor_var.is_workspace m.tensor)) g with
         | [] -> None
         | g -> Some g)

let extent_of bound m =
  match List.find_opt (fun (tv, _) -> Tensor_var.equal tv m.tensor) bound with
  | Some (_, d) when m.mode < Array.length d -> Some d.(m.mode)
  | Some _ | None -> None

let mismatch a da b db =
  let vars =
    if Index_var.equal a.var b.var then Index_var.name a.var
    else Index_var.name a.var ^ "/" ^ Index_var.name b.var
  in
  Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_DIMS"
    ~context:[ ("index", vars) ]
    "index variable %s ranges over %d in %s (mode %d) but over %d in %s (mode %d)" vars da
    (Tensor_var.name a.tensor) (a.mode + 1) db (Tensor_var.name b.tensor) (b.mode + 1)

let check t bound =
  List.iter
    (fun g ->
      match List.filter_map (fun m -> Option.map (fun d -> (m, d)) (extent_of bound m)) g with
      | [] -> ()
      | (a, da) :: rest -> List.iter (fun (m, d) -> if d <> da then mismatch a da m d) rest)
    t

let dims t bound tv =
  Array.init (Tensor_var.order tv) (fun mode ->
      let here m = Tensor_var.equal m.tensor tv && m.mode = mode in
      match List.find_opt (List.exists here) t with
      | Some g -> List.find_map (extent_of bound) g
      | None -> None)

let infer t bound tv =
  check t bound;
  Array.mapi
    (fun mode -> function
      | Some d -> d
      | None ->
          Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_DIMS"
            ~context:[ ("tensor", Tensor_var.name tv) ]
            "cannot infer mode %d of %s: no bound tensor shares its index variable's extent"
            (mode + 1) (Tensor_var.name tv))
    (dims t bound tv)
