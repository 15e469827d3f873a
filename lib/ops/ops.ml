module Tensor = Taco_tensor.Tensor
module Format = Taco_tensor.Format
module Level = Taco_tensor.Level
module I = Taco_ir.Index_notation
module Cin = Taco_ir.Cin
module Schedule = Taco_ir.Schedule
open Taco_ir.Var

let ( let* ) = Result.bind

(* Ops keep the historical string-error API; structured diagnostics from
   the facade are flattened at this boundary. *)
let dflat r = Taco_support.Diag.flatten r

let vi = Index_var.make "i"

let vj = Index_var.make "j"

let vk = Index_var.make "k"

let vl = Index_var.make "l"

let has_sparse t = not (Format.is_all_dense (Tensor.format t))

let default_matrix_out a b =
  if has_sparse a || has_sparse b then Format.csr else Format.dense_matrix

(* Compiled-kernel cache keyed by operation and formats. *)
let cache : Taco.compiled Taco.Memo.t = Taco.Memo.create ~name:"ops" ~capacity:64

let cache_key op fmts = op ^ "|" ^ String.concat "|" (List.map Format.to_string fmts)

let compiled ~key build = Taco.Memo.find_or_build_result cache key build

let cache_clear () = Taco.Memo.clear cache

(* Build, auto-compile and run a binary matrix operation. *)
let binary_matrix_op ~opname ~rhs ?out b c =
  let fmt_b = Tensor.format b and fmt_c = Tensor.format c in
  let out = match out with Some f -> f | None -> default_matrix_out b c in
  let av = Tensor_var.make "A" ~order:2 ~format:out in
  let bv = Tensor_var.make "B" ~order:2 ~format:fmt_b in
  let cv = Tensor_var.make "C" ~order:2 ~format:fmt_c in
  let key = cache_key opname [ out; fmt_b; fmt_c ] in
  let* kern =
    compiled ~key (fun () ->
        let stmt = I.assign av [ vi; vj ] (rhs bv cv) in
        let* sched = Schedule.of_index_notation stmt in
        let* c, _steps = dflat (Taco.auto_compile ~name:opname sched) in
        Ok c)
  in
  dflat (Taco.run kern ~inputs:[ (bv, b); (cv, c) ])

let matmul ?out b c =
  binary_matrix_op ~opname:"matmul"
    ~rhs:(fun bv cv -> I.sum vk (I.Mul (I.access bv [ vi; vk ], I.access cv [ vk; vj ])))
    ?out b c

let add ?out b c =
  binary_matrix_op ~opname:"add"
    ~rhs:(fun bv cv -> I.Add (I.access bv [ vi; vj ], I.access cv [ vi; vj ]))
    ?out b c

let mul ?out b c =
  binary_matrix_op ~opname:"mul"
    ~rhs:(fun bv cv -> I.Mul (I.access bv [ vi; vj ], I.access cv [ vi; vj ]))
    ?out b c

let spmv b x =
  if Tensor.order b <> 2 || Tensor.order x <> 1 then Error "spmv: expected a matrix and a vector"
  else begin
    let fmt_b = Tensor.format b and fmt_x = Tensor.format x in
    let yv = Tensor_var.make "y" ~order:1 ~format:Format.dense_vector in
    let bv = Tensor_var.make "B" ~order:2 ~format:fmt_b in
    let xv = Tensor_var.make "x" ~order:1 ~format:fmt_x in
    let key = cache_key "spmv" [ fmt_b; fmt_x ] in
    let* kern =
      compiled ~key (fun () ->
          let stmt =
            I.assign yv [ vi ] (I.sum vj (I.Mul (I.access bv [ vi; vj ], I.access xv [ vj ])))
          in
          let* sched = Schedule.of_index_notation stmt in
          let* c, _ = dflat (Taco.auto_compile ~name:"spmv" sched) in
          Ok c)
    in
    dflat (Taco.run kern ~inputs:[ (bv, b); (xv, x) ])
  end

(* Scaling touches every stored value once and cannot change the pattern;
   it is a library-level map rather than a compiled kernel. *)
let scale alpha t =
  let vals = Array.map (fun v -> alpha *. v) (Tensor.vals t) in
  let levels =
    Array.init (Tensor.order t) (fun l -> Tensor.level_data t l)
  in
  match
    Tensor.of_parts ~dims:(Tensor.dims t) ~format:(Tensor.format t) ~levels ~vals
  with
  | t -> Ok t
  | exception Invalid_argument e -> Error e

let inner a b =
  let order = Tensor.order a in
  let vars = List.filteri (fun q _ -> q < order) [ vi; vj; vk; vl ] in
  if Tensor.order b <> order then Error "inner: orders differ"
  else if List.length vars < order then Error "inner: order > 4 not supported"
  else begin
    let alpha = Tensor_var.make "alpha" ~order:0 ~format:(Format.of_levels []) in
    let av = Tensor_var.make "B" ~order ~format:(Tensor.format a) in
    let bv = Tensor_var.make "C" ~order ~format:(Tensor.format b) in
    let key = cache_key (Printf.sprintf "inner%d" order) [ Tensor.format a; Tensor.format b ] in
    let* kern =
      compiled ~key (fun () ->
          let rhs =
            List.fold_right (fun v e -> I.sum v e) vars (I.Mul (I.access av vars, I.access bv vars))
          in
          let stmt = I.assign alpha [] rhs in
          let* sched = Schedule.of_index_notation stmt in
          let* c, _ = dflat (Taco.auto_compile ~name:"inner" sched) in
          Ok c)
    in
    let* result = dflat (Taco.run kern ~inputs:[ (av, a); (bv, b) ]) in
    Ok (Tensor.vals result).(0)
  end

let mttkrp x c d =
  if Tensor.order x <> 3 then Error "mttkrp: expected an order-3 tensor"
  else begin
    let av = Tensor_var.make "A" ~order:2 ~format:Format.dense_matrix in
    let xv = Tensor_var.make "X" ~order:3 ~format:(Tensor.format x) in
    let cv = Tensor_var.make "C" ~order:2 ~format:(Tensor.format c) in
    let dv = Tensor_var.make "D" ~order:2 ~format:(Tensor.format d) in
    let key = cache_key "mttkrp" [ Tensor.format x; Tensor.format c; Tensor.format d ] in
    let* kern =
      compiled ~key (fun () ->
          (* The §VII schedule: loop order i,k,l,j with X·C hoisted into
             a row workspace. *)
          let stmt =
            I.assign av [ vi; vj ]
              (I.sum vk
                 (I.sum vl
                    (I.Mul
                       ( I.Mul (I.access xv [ vi; vk; vl ], I.access cv [ vl; vj ]),
                         I.access dv [ vk; vj ] ))))
          in
          let* sched = Schedule.of_index_notation stmt in
          let* sched = Schedule.reorder vj vk sched in
          let* sched = Schedule.reorder vj vl sched in
          let w = Taco.workspace "w" Format.dense_vector in
          let e =
            Cin.Mul
              (Cin.Access (Cin.access xv [ vi; vk; vl ]), Cin.Access (Cin.access cv [ vl; vj ]))
          in
          let* sched = Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched in
          dflat (Taco.compile ~name:"mttkrp" sched))
    in
    dflat (Taco.run kern ~inputs:[ (xv, x); (cv, c); (dv, d) ])
  end

let sddmm b c d =
  if Tensor.order b <> 2 || Tensor.order c <> 2 || Tensor.order d <> 2 then
    Error "sddmm: expected three matrices"
  else begin
    let av = Tensor_var.make "A" ~order:2 ~format:(Tensor.format b) in
    let bv = Tensor_var.make "B" ~order:2 ~format:(Tensor.format b) in
    let cv = Tensor_var.make "C" ~order:2 ~format:(Tensor.format c) in
    let dv = Tensor_var.make "D" ~order:2 ~format:(Tensor.format d) in
    let key =
      cache_key "sddmm" [ Tensor.format b; Tensor.format c; Tensor.format d ]
    in
    let* kern =
      compiled ~key (fun () ->
          (* The reduction over k nests inside the sparse j loop; the
             scalar-temporary concretization (§VI) keeps the sparse
             result appendable. *)
          let stmt =
            I.assign av [ vi; vj ]
              (I.Mul
                 ( I.access bv [ vi; vj ],
                   I.sum vk (I.Mul (I.access cv [ vi; vk ], I.access dv [ vk; vj ])) ))
          in
          let* sched = Schedule.of_index_notation stmt in
          let* c, _ = dflat (Taco.auto_compile ~name:"sddmm" sched) in
          Ok c)
    in
    dflat (Taco.run kern ~inputs:[ (bv, b); (cv, c); (dv, d) ])
  end

let transpose t =
  if Tensor.order t <> 2 then invalid_arg "Ops.transpose: order-2 only";
  let dims = Tensor.dims t in
  let coo = Taco_tensor.Coo.create [| dims.(1); dims.(0) |] in
  Tensor.iteri_stored
    (fun c v -> if v <> 0. then Taco_tensor.Coo.push coo [| c.(1); c.(0) |] v)
    t;
  Tensor.pack coo (Tensor.format t)
