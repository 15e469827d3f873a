(* Sparsity statistics: one pass over the packed level arrays. See
   stats.mli for the model. *)

module T = Taco_tensor.Tensor
module Metrics = Taco_support.Metrics
module Ivec = Taco_support.Ivec

type t = {
  dims : int array;
  nnz : int;
  n_positions : int array;
  fill : float array;
  row_hist : int array;
  hist_level : int option;
}

let of_tensor tensor =
  let dims = T.dims tensor in
  let order = Array.length dims in
  let n_positions = Array.make (max order 1) 0 in
  let fill = Array.make (max order 1) 0. in
  let row_hist = Array.make Metrics.n_buckets 0 in
  let hist_level = ref None in
  let parents = ref 1 in
  for l = 0 to order - 1 do
    (match T.level_data tensor l with
    | T.Dense_data { size } ->
        n_positions.(l) <- !parents * size;
        fill.(l) <- float_of_int size
    | T.Compressed_data { pos; crd } ->
        let stored = Ivec.length crd in
        n_positions.(l) <- stored;
        fill.(l) <-
          (if !parents > 0 then float_of_int stored /. float_of_int !parents
           else 0.);
        if !hist_level = None then begin
          hist_level := Some l;
          for p = 0 to Bigarray.Array1.dim pos - 2 do
            let seg = Int32.to_int (Int32.sub pos.{p + 1} pos.{p}) in
            let b = Metrics.bucket_of seg in
            row_hist.(b) <- row_hist.(b) + 1
          done
        end);
    parents := n_positions.(l)
  done;
  { dims; nnz = T.nnz tensor; n_positions; fill; row_hist; hist_level = !hist_level }

(* ------------------------------------------------------------------ *)
(* Memoized collection (service hot path)                              *)
(* ------------------------------------------------------------------ *)

(* Keyed on physical identity: a [T.t] is an immutable record, so the
   same record always has the same statistics. Only its values can be
   written in place; that changes the hash, which costs a miss. *)
module By_tensor = Taco_support.Memo.Make (struct
  type t = T.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let memo : t By_tensor.t = By_tensor.create ~name:"stats" ~capacity:64

let of_tensor_memo tensor = By_tensor.find_or_build memo tensor (fun () -> of_tensor tensor)

(* ------------------------------------------------------------------ *)
(* Derived quantities                                                  *)
(* ------------------------------------------------------------------ *)

let volume dims = Array.fold_left (fun acc d -> acc * d) 1 dims

let density t =
  let v = volume t.dims in
  if v <= 0 then 0. else Float.min 1. (float_of_int t.nnz /. float_of_int v)

let avg_fill t =
  match t.hist_level with
  | Some l -> t.fill.(l)
  | None ->
      if Array.length t.dims <= 1 then density t *. float_of_int (volume t.dims)
      else
        let inner = volume (Array.sub t.dims 1 (Array.length t.dims - 1)) in
        density t *. float_of_int inner

let hist_quantile t q =
  match t.hist_level with
  | None -> None
  | Some _ ->
      let total = Array.fold_left ( + ) 0 t.row_hist in
      if total = 0 then Some 0.
      else begin
        let q = Float.max 0. (Float.min 1. q) in
        let target = Float.max 1. (q *. float_of_int total) in
        let cum = ref 0. and res = ref 0. and found = ref false in
        Array.iteri
          (fun i c ->
            if (not !found) && c > 0 then begin
              let before = !cum in
              cum := !cum +. float_of_int c;
              if !cum >= target then begin
                let lower, width = Metrics.bucket_bounds i in
                res := lower +. ((target -. before) /. float_of_int c *. width);
                found := true
              end
            end)
          t.row_hist;
        Some !res
      end

(* ------------------------------------------------------------------ *)
(* Cache-key bucketing                                                 *)
(* ------------------------------------------------------------------ *)

(* ceil(log2 n) for n >= 1; 0 for n <= 1. Power-of-two quantization
   keeps the key cardinality low while bounding the trip-count error a
   cached plan can hide to 2x. *)
let log2_ceil n =
  if n <= 1 then 0
  else begin
    let e = ref 0 and x = ref (n - 1) in
    while !x > 0 do
      incr e;
      x := !x lsr 1
    done;
    !e
  end

let bucket t =
  let dims =
    t.dims |> Array.to_list
    |> List.map (fun d -> string_of_int (log2_ceil d))
    |> String.concat "x"
  in
  Printf.sprintf "d%s:n%d" dims (log2_ceil t.nnz)

let to_string t =
  Printf.sprintf "dims=[%s] nnz=%d fill=%.2f density=%.2e"
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.dims)))
    t.nnz (avg_fill t) (density t)
