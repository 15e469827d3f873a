module Cin = Taco_ir.Cin

type point = int list

type t = { points : point list; needs_full : bool }

let norm p = List.sort_uniq compare p

let union a b = norm (a @ b)

(* Lattice of a sub-expression: the list of iterator sets under which it
   can contribute a nonzero value. The empty set means "contributes even
   when every sparse iterator is exhausted" (a dense term). *)
let rec lattice_of ~sparse_id = function
  | Cin.Literal 0. -> []
  | Cin.Literal _ -> [ [] ]
  | Cin.Access a -> (
      match sparse_id a with Some id -> [ [ id ] ] | None -> [ [] ])
  | Cin.Neg e -> lattice_of ~sparse_id e
  | Cin.Mul (a, b) | Cin.Div (a, b) ->
      let la = lattice_of ~sparse_id a and lb = lattice_of ~sparse_id b in
      List.concat_map (fun pa -> List.map (union pa) lb) la
  | Cin.Add (a, b) | Cin.Sub (a, b) ->
      let la = lattice_of ~sparse_id a and lb = lattice_of ~sparse_id b in
      List.concat_map (fun pa -> List.map (union pa) lb) la @ la @ lb

let build ~sparse_id expr =
  let raw = lattice_of ~sparse_id expr in
  let dedup = Taco_support.Util.dedup_stable (List.map norm raw) in
  let needs_full = List.mem [] dedup in
  let points = List.filter (fun p -> p <> []) dedup in
  let points =
    List.stable_sort (fun a b -> compare (List.length b) (List.length a)) points
  in
  { points; needs_full }

let is_subset a b = List.for_all (fun x -> List.mem x b) a

let sub_points t p =
  List.filter (fun q -> is_subset q p) t.points

let pp fmt t =
  Format.fprintf fmt "{%s%s}"
    (String.concat "; "
       (List.map
          (fun p -> "{" ^ String.concat "," (List.map string_of_int p) ^ "}")
          t.points))
    (if t.needs_full then "; full" else "")
