(* Regenerates the C code of every listing in the paper and prints it,
   labeled by figure. Useful for eyeballing fidelity against the paper.

   Run with: dune exec examples/show_kernels.exe *)

open Taco
module I = Index_notation

let get = function Ok x -> x | Error e -> failwith e

let vi = ivar "i" and vj = ivar "j" and vk = ivar "k" and vl = ivar "l"

let section title cin info =
  Printf.printf "// %s\n// %s\n%s\n" title cin (Kernel.c_source (Kernel.prepare info));
  print_endline "// ------------------------------------------------------------------"

let compute = Lower.Compute

let fused = Lower.Assemble { emit_values = true; sorted = true }

let assembly_only = Lower.Assemble { emit_values = false; sorted = true }

let () =
  let a_dense = tensor "A" Format.dense_matrix in
  let a_csr = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let w = workspace "w" Format.dense_vector in
  let mul = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in

  (* Fig 1c: matmul with dense result. *)
  let s = I.assign a_dense [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = get (Schedule.of_index_notation s) in
  let sched = get (Schedule.reorder vk vj sched) in
  let info = get (Lower.lower ~name:"fig1c_matmul_dense" ~mode:compute (Schedule.stmt sched)) in
  section "Fig. 1c: A(i,j) = sum(k, B(i,k)*C(k,j)), dense A"
    (Cin.to_string (Schedule.stmt sched)) info;

  (* Fig 1d / Fig 8: sparse result with a row workspace. *)
  let s = I.assign a_csr [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = get (Schedule.of_index_notation s) in
  let sched = get (Schedule.reorder vk vj sched) in
  let sched = get (Schedule.precompute_simple ~expr:mul ~over:[ vj ] ~workspace:w sched) in
  let info = get (Lower.lower ~name:"fig1d_matmul_sparse_compute" ~mode:compute (Schedule.stmt sched)) in
  section "Fig. 1d: sparse A, compute kernel (pre-assembled index)"
    (Cin.to_string (Schedule.stmt sched)) info;
  let info =
    get
      (Lower.lower ~name:"fig8_matmul_assembly"
         ~mode:(Lower.Assemble { emit_values = false; sorted = false })
         (Schedule.stmt sched))
  in
  section "Fig. 8: sparse A, assembly kernel (rowlist + guard, unsorted)"
    (Cin.to_string (Schedule.stmt sched)) info;
  let info =
    get (Lower.lower ~name:"fig8_matmul_assembly_sorted" ~mode:assembly_only (Schedule.stmt sched))
  in
  section "Fig. 8, sorted: the rowlist as an occupancy bitmap drained in order"
    (Cin.to_string (Schedule.stmt sched)) info;

  (* Fig 4: inner products of rows, before and after. *)
  let av = tensor "a" Format.dense_vector in
  let s = I.assign av [ vi ] (I.sum vj (I.Mul (I.access b [ vi; vj ], I.access c [ vi; vj ]))) in
  let sched = get (Schedule.of_index_notation s) in
  let info = get (Lower.lower ~name:"fig4a_inner_products" ~mode:compute (Schedule.stmt sched)) in
  section "Fig. 4a: a(i) = sum(j, B(i,j)*C(i,j)), merge loop"
    (Cin.to_string (Schedule.stmt sched)) info;
  let bij = Cin.Access (Cin.access b [ vi; vj ]) in
  let sched_w = get (Schedule.precompute_simple ~expr:bij ~over:[ vj ] ~workspace:w sched) in
  let info = get (Lower.lower ~name:"fig4b_inner_products_ws" ~mode:compute (Schedule.stmt sched_w)) in
  section "Fig. 4b: after precomputing B into a workspace"
    (Cin.to_string (Schedule.stmt sched_w)) info;

  (* Fig 5: sparse addition, merge and workspace versions. *)
  let s = I.assign a_csr [ vi; vj ] (I.Add (I.access b [ vi; vj ], I.access c [ vi; vj ])) in
  let sched = get (Schedule.of_index_notation s) in
  let info = get (Lower.lower ~name:"fig5a_add_merge" ~mode:compute (Schedule.stmt sched)) in
  section "Fig. 5a: A(i,j) = B(i,j) + C(i,j), merge loops"
    (Cin.to_string (Schedule.stmt sched)) info;
  let whole = Cin.Add (Cin.Access (Cin.access b [ vi; vj ]), Cin.Access (Cin.access c [ vi; vj ])) in
  let sched_w = get (Schedule.precompute_simple ~expr:whole ~over:[ vj ] ~workspace:w sched) in
  let sched_w = get (Schedule.precompute_simple ~expr:bij ~over:[ vj ] ~workspace:w sched_w) in
  let info = get (Lower.lower ~name:"fig5b_add_workspace" ~mode:compute (Schedule.stmt sched_w)) in
  section "Fig. 5b: workspace version with result reuse"
    (Cin.to_string (Schedule.stmt sched_w)) info;

  (* Fig 7: sparse tensor-vector multiplication. *)
  let b3 = tensor "B" (Format.csf 3) in
  let cv = tensor "c" Format.sparse_vector in
  let s = I.assign a_dense [ vi; vj ] (I.sum vk (I.Mul (I.access b3 [ vi; vj; vk ], I.access cv [ vk ]))) in
  let sched = get (Schedule.of_index_notation s) in
  let info = get (Lower.lower ~name:"fig7_tensor_vector" ~mode:compute (Schedule.stmt sched)) in
  section "Fig. 7: A(i,j) = sum(k, B(i,j,k)*c(k)), CSF B, sparse c"
    (Cin.to_string (Schedule.stmt sched)) info;

  (* Fig 9: MTTKRP with dense matrices, workspace transform. *)
  let cd = tensor "C" Format.dense_matrix in
  let dd = tensor "D" Format.dense_matrix in
  let s =
    I.assign a_dense [ vi; vj ]
      (I.sum vk (I.sum vl (I.Mul (I.Mul (I.access b3 [ vi; vk; vl ], I.access cd [ vl; vj ]), I.access dd [ vk; vj ]))))
  in
  let sched = get (Schedule.of_index_notation s) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let bc = Cin.Mul (Cin.Access (Cin.access b3 [ vi; vk; vl ]), Cin.Access (Cin.access cd [ vl; vj ])) in
  let sched_w = get (Schedule.precompute_simple ~expr:bc ~over:[ vj ] ~workspace:w sched) in
  let info = get (Lower.lower ~name:"fig9_mttkrp_workspace" ~mode:compute (Schedule.stmt sched_w)) in
  section "Fig. 9: MTTKRP, B*C hoisted into a workspace"
    (Cin.to_string (Schedule.stmt sched_w)) info;

  (* Fig 10: MTTKRP with sparse matrices and sparse output. *)
  let cs = tensor "C" Format.csr in
  let ds = tensor "D" Format.csr in
  let s =
    I.assign a_csr [ vi; vj ]
      (I.sum vk (I.sum vl (I.Mul (I.Mul (I.access b3 [ vi; vk; vl ], I.access cs [ vl; vj ]), I.access ds [ vk; vj ]))))
  in
  let sched = get (Schedule.of_index_notation s) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let bc = Cin.Mul (Cin.Access (Cin.access b3 [ vi; vk; vl ]), Cin.Access (Cin.access cs [ vl; vj ])) in
  let sched_w = get (Schedule.precompute_simple ~expr:bc ~over:[ vj ] ~workspace:w sched) in
  let v = workspace "v" Format.dense_vector in
  let wd = Cin.Mul (Cin.Access (Cin.access w [ vj ]), Cin.Access (Cin.access ds [ vk; vj ])) in
  let sched_w = get (Schedule.precompute_simple ~expr:wd ~over:[ vj ] ~workspace:v sched_w) in
  let info = get (Lower.lower ~name:"fig10_mttkrp_sparse" ~mode:fused (Schedule.stmt sched_w)) in
  section "Fig. 10: MTTKRP, sparse matrices and sparse output (fused)"
    (Cin.to_string (Schedule.stmt sched_w)) info
