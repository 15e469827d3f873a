(* Index arrays are int32 Bigarrays ({!Ivec}); naming the type gives
   inline element access. *)
let geti (a : Ivec.t) i = Int32.to_int (Bigarray.Array1.get a i)

let binary_search (a : Ivec.t) lo hi x =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = lo + ((hi - lo) / 2) in
      let v = geti a mid in
      if v = x then Some mid else if v < x then go (mid + 1) hi else go lo mid
  in
  go lo hi

let sort_paired (keys : Ivec.t) payload lo hi =
  let n = hi - lo in
  if n > 1 then begin
    let perm = Array.init n (fun i -> lo + i) in
    Array.sort (fun i j -> compare (geti keys i) (geti keys j)) perm;
    let ks = Array.init n (fun i -> Bigarray.Array1.get keys perm.(i)) in
    let vs = Array.init n (fun i -> payload.(perm.(i))) in
    Array.iteri (fun i k -> Bigarray.Array1.set keys (lo + i) k) ks;
    Array.blit vs 0 payload lo n
  end

let time f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let median xs =
  match xs with
  | [] -> invalid_arg "Util.median: empty"
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let string_of_list f sep xs = String.concat sep (List.map f xs)

let list_index_of x xs =
  let rec go i = function
    | [] -> None
    | y :: ys -> if x = y then Some i else go (i + 1) ys
  in
  go 0 xs

let dedup_stable xs =
  let rec go seen = function
    | [] -> []
    | x :: rest -> if List.mem x seen then go seen rest else x :: go (x :: seen) rest
  in
  go [] xs

let subsets xs =
  List.fold_right (fun x acc -> List.map (fun s -> x :: s) acc @ acc) xs [ [] ]

let map_lefts f xs =
  let rec refill xs ys =
    match (xs, ys) with
    | [], _ -> []
    | Either.Right b :: xs, ys -> b :: refill xs ys
    | Either.Left _ :: xs, y :: ys -> y :: refill xs ys
    | Either.Left _ :: _, [] -> invalid_arg "Util.map_lefts: too few results"
  in
  refill xs (f (List.filter_map Either.find_left xs))
