open Taco_ir
open Taco_ir.Var
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module I = Index_notation
module Lower = Taco_lower.Lower
module Kernel = Taco_exec.Kernel
module Spgemm = Taco_kernels.Spgemm
module Spadd = Taco_kernels.Spadd
module Mttkrp = Taco_kernels.Mttkrp

let vi = Helpers.vi and vj = Helpers.vj and vk = Helpers.vk and vl = Helpers.vl

let a = Helpers.csr_tv "A"
let b = Helpers.csr_tv "B"
let c = Helpers.csr_tv "C"
let fused = Lower.Assemble { emit_values = true; sorted = true }

(* ------------------------------------------------------------------ *)
(* Generated kernels against the interpreter (compute & fused modes)   *)
(* ------------------------------------------------------------------ *)

let spgemm_sched () =
  let stmt = I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let w = Helpers.ws_vec "w" in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in
  Helpers.get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched)

let test_spgemm_fused () =
  let sched = spgemm_sched () in
  let ins =
    [
      (b, Helpers.random_tensor 81 [| 9; 10 |] 0.25 F.csr);
      (c, Helpers.random_tensor 82 [| 10; 8 |] 0.25 F.csr);
    ]
  in
  Helpers.check_lowered ~mode:fused (Schedule.stmt sched) ins [| 9; 8 |]

let test_spgemm_unsorted () =
  let sched = spgemm_sched () in
  let ins =
    [
      (b, Helpers.random_tensor 83 [| 9; 10 |] 0.25 F.csr);
      (c, Helpers.random_tensor 84 [| 10; 8 |] 0.25 F.csr);
    ]
  in
  let info =
    Helpers.get
      (Lower.lower ~mode:(Lower.Assemble { emit_values = true; sorted = false })
         (Schedule.stmt sched))
  in
  let kern = Kernel.prepare info in
  let result = Kernel.run_assemble kern ~inputs:ins ~dims:[| 9; 8 |] in
  (* Unsorted assembly fails structural validation (crd not sorted), but
     values must be logically correct; compare via a dense reconstruction
     of the raw arrays. *)
  let oracle = Helpers.eval_cin (Schedule.stmt sched) ins in
  Helpers.check_dense "unsorted result correct" oracle (T.to_dense result)

let test_spgemm_symbolic_numeric_split () =
  let sched = spgemm_sched () in
  let ins =
    [
      (b, Helpers.random_tensor 85 [| 7; 7 |] 0.3 F.csr);
      (c, Helpers.random_tensor 86 [| 7; 7 |] 0.3 F.csr);
    ]
  in
  (* Assembly pass: structure only. *)
  let asm =
    Kernel.prepare
      (Helpers.get
         (Lower.lower ~mode:(Lower.Assemble { emit_values = false; sorted = true })
            (Schedule.stmt sched)))
  in
  let structure = Kernel.run_assemble asm ~inputs:ins ~dims:[| 7; 7 |] in
  Alcotest.(check int) "assembled structure has no values" 0 (T.nnz structure);
  (* Compute pass into the pre-assembled structure. *)
  let cmp = Kernel.prepare (Helpers.get (Lower.lower ~mode:Lower.Compute (Schedule.stmt sched))) in
  Kernel.run_compute cmp ~inputs:ins ~output:structure;
  let oracle = Helpers.eval_cin (Schedule.stmt sched) ins in
  Helpers.check_dense "symbolic+numeric equals oracle" oracle (T.to_dense structure)

let test_csc_matmul_via_reorder () =
  (* CSC output needs column-major loops: A^T in CSR terms. Use CSC
     operands with loop order j,i: A(i,j) = Bc(i,j) requires reorder. *)
  let bcsc = Tensor_var.make "B" ~order:2 ~format:F.csc in
  let acsc = Tensor_var.make "A" ~order:2 ~format:F.csc in
  let stmt = I.assign acsc [ vi; vj ] (I.access bcsc [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vi vj sched) in
  let bt = T.repack (Helpers.random_tensor 87 [| 6; 5 |] 0.3 F.csr) F.csc in
  Helpers.check_lowered ~mode:fused (Schedule.stmt sched) [ (bcsc, bt) ] [| 6; 5 |]

let test_spmv () =
  let x = Helpers.dense_vec_tv "x" in
  let y = Helpers.dense_vec_tv "y" in
  let stmt = I.assign y [ vi ] (I.sum vj (I.Mul (I.access b [ vi; vj ], I.access x [ vj ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ins =
    [
      (b, Helpers.random_tensor 88 [| 8; 6 |] 0.3 F.csr);
      (x, Helpers.random_tensor 89 [| 6 |] 1.0 F.dense_vector);
    ]
  in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) ins [| 8 |]

let test_sparse_vector_output () =
  (* y(i) = u(i) * s(i), sparse inputs, sparse output, fused assembly. *)
  let u = Tensor_var.make "u" ~order:1 ~format:F.sparse_vector in
  let s = Tensor_var.make "s" ~order:1 ~format:F.sparse_vector in
  let y = Tensor_var.make "y" ~order:1 ~format:F.sparse_vector in
  let stmt = I.assign y [ vi ] (I.Mul (I.access u [ vi ], I.access s [ vi ])) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ins =
    [
      (u, Helpers.random_tensor 90 [| 20 |] 0.4 F.sparse_vector);
      (s, Helpers.random_tensor 91 [| 20 |] 0.4 F.sparse_vector);
    ]
  in
  Helpers.check_lowered ~mode:fused (Schedule.stmt sched) ins [| 20 |]

let test_three_way_union () =
  (* A = B + C + D exercises a 7-point merge lattice. *)
  let d = Helpers.csr_tv "D" in
  let stmt =
    I.assign a [ vi; vj ]
      (I.Add (I.Add (I.access b [ vi; vj ], I.access c [ vi; vj ]), I.access d [ vi; vj ]))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ins =
    [
      (b, Helpers.random_tensor 92 [| 7; 9 |] 0.15 F.csr);
      (c, Helpers.random_tensor 93 [| 7; 9 |] 0.15 F.csr);
      (d, Helpers.random_tensor 94 [| 7; 9 |] 0.15 F.csr);
    ]
  in
  Helpers.check_lowered ~mode:fused (Schedule.stmt sched) ins [| 7; 9 |]

let test_mixed_add_mul () =
  (* Ad = B*C + D: sum-of-products lattice. Dense result. *)
  let ad = Helpers.dense_mat_tv "Ad" in
  let d = Helpers.csr_tv "D" in
  let stmt =
    I.assign ad [ vi; vj ]
      (I.Add (I.Mul (I.access b [ vi; vj ], I.access c [ vi; vj ]), I.access d [ vi; vj ]))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ins =
    [
      (b, Helpers.random_tensor 95 [| 6; 6 |] 0.3 F.csr);
      (c, Helpers.random_tensor 96 [| 6; 6 |] 0.3 F.csr);
      (d, Helpers.random_tensor 97 [| 6; 6 |] 0.3 F.csr);
    ]
  in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) ins [| 6; 6 |]

let test_sparse_plus_dense () =
  (* Dense operand in a union: dense-driven loop with tracked operands. *)
  let ad = Helpers.dense_mat_tv "Ad" in
  let dd = Helpers.dense_mat_tv "Dd" in
  let stmt = I.assign ad [ vi; vj ] (I.Add (I.access b [ vi; vj ], I.access dd [ vi; vj ])) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ins =
    [
      (b, Helpers.random_tensor 98 [| 6; 7 |] 0.3 F.csr);
      (dd, Helpers.random_tensor 99 [| 6; 7 |] 1.0 F.dense_matrix);
    ]
  in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) ins [| 6; 7 |]

let test_residual_scalar_alpha () =
  (* y(i) = 2.5 * B(i,j) * x(j) with literal scaling. *)
  let x = Helpers.dense_vec_tv "x" in
  let y = Helpers.dense_vec_tv "y" in
  let stmt =
    I.assign y [ vi ]
      (I.sum vj (I.Mul (I.Mul (I.Literal 2.5, I.access b [ vi; vj ]), I.access x [ vj ])))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ins =
    [
      (b, Helpers.random_tensor 100 [| 5; 5 |] 0.4 F.csr);
      (x, Helpers.random_tensor 101 [| 5 |] 1.0 F.dense_vector);
    ]
  in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) ins [| 5 |]

let test_scalar_temps_lowering () =
  (* The §VI literal rule: reduction into a scalar temporary, lowered. *)
  let ad = Helpers.dense_mat_tv "Ad" in
  let stmt = I.assign ad [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let cin = Helpers.get (Concretize.run ~scalar_temps:true stmt) in
  (* This yields ∀ij (Ad = t) where (∀k t += B(i,k)*C(k,j)); the inner
     forall over k accesses C at level 0 (dense) and B at level 1
     (compressed) — requires k-loop iterating B's row: loop order i,j,k
     conflicts with C's storage (k before j needed)... use dense C. *)
  let cd = Helpers.dense_mat_tv "Cd" in
  let stmt2 = I.assign ad [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access cd [ vk; vj ]))) in
  let cin2 = Helpers.get (Concretize.run ~scalar_temps:true stmt2) in
  ignore cin;
  let ins =
    [
      (b, Helpers.random_tensor 102 [| 5; 6 |] 0.4 F.csr);
      (cd, Helpers.random_tensor 103 [| 6; 4 |] 1.0 F.dense_matrix);
    ]
  in
  Helpers.check_lowered ~mode:Lower.Compute cin2 ins [| 5; 4 |]

(* ------------------------------------------------------------------ *)
(* Hand-written baseline kernels vs oracles                            *)
(* ------------------------------------------------------------------ *)

let test_gustavson_oracle () =
  let bt = Helpers.random_tensor 111 [| 12; 10 |] 0.2 F.csr in
  let ct = Helpers.random_tensor 112 [| 10; 11 |] 0.2 F.csr in
  let result = Spgemm.gustavson bt ct in
  let sched = spgemm_sched () in
  let oracle = Helpers.eval_cin (Schedule.stmt sched) [ (b, bt); (c, ct) ] in
  Helpers.check_dense "pure-OCaml gustavson" oracle (T.to_dense result)

let test_eigen_like_spgemm () =
  let bt = Helpers.random_tensor 113 [| 12; 10 |] 0.2 F.csr in
  let ct = Helpers.random_tensor 114 [| 10; 11 |] 0.2 F.csr in
  let kern = Kernel.prepare Spgemm.eigen_like in
  let result =
    Kernel.run_assemble kern
      ~inputs:[ (Spgemm.b_var, bt); (Spgemm.c_var, ct) ]
      ~dims:[| 12; 11 |]
  in
  Helpers.get (T.validate result) |> ignore;
  Helpers.check_dense "eigen-like" (T.to_dense (Spgemm.gustavson bt ct)) (T.to_dense result)

let test_mkl_like_spgemm () =
  let bt = Helpers.random_tensor 115 [| 12; 10 |] 0.2 F.csr in
  let ct = Helpers.random_tensor 116 [| 10; 11 |] 0.2 F.csr in
  let kern = Kernel.prepare Spgemm.mkl_like in
  let result =
    Kernel.run_assemble kern
      ~inputs:[ (Spgemm.b_var, bt); (Spgemm.c_var, ct) ]
      ~dims:[| 12; 11 |]
  in
  Helpers.check_dense "mkl-like (unsorted)" (T.to_dense (Spgemm.gustavson bt ct))
    (T.to_dense result)

let test_spadd_baselines () =
  let bt = Helpers.random_tensor 117 [| 15; 12 |] 0.15 F.csr in
  let ct = Helpers.random_tensor 118 [| 15; 12 |] 0.15 F.csr in
  let oracle = T.to_dense (Spadd.merge_add bt ct) in
  let expected = D.map2 ( +. ) (T.to_dense bt) (T.to_dense ct) in
  Helpers.check_dense "merge_add oracle" expected oracle;
  List.iter
    (fun (name, info) ->
      let kern = Kernel.prepare info in
      let result =
        Kernel.run_assemble kern
          ~inputs:[ (Spadd.b_var, bt); (Spadd.c_var, ct) ]
          ~dims:[| 15; 12 |]
      in
      Helpers.check_dense name expected (T.to_dense result))
    [ ("eigen-like add", Spadd.eigen_like); ("mkl-like add", Spadd.mkl_like) ]

let test_splatt_like_mttkrp () =
  let bt = Helpers.random_tensor 119 [| 6; 7; 8 |] 0.1 (F.csf 3) in
  let cd = Helpers.random_tensor 120 [| 8; 4 |] 1.0 F.dense_matrix in
  let dd = Helpers.random_tensor 121 [| 7; 4 |] 1.0 F.dense_matrix in
  let oracle = Mttkrp.reference bt (T.to_dense cd) (T.to_dense dd) in
  let kern = Kernel.prepare Mttkrp.splatt_like in
  let result =
    Kernel.run_dense kern
      ~inputs:[ (Mttkrp.b_var, bt); (Mttkrp.c_var, cd); (Mttkrp.d_var, dd) ]
      ~dims:[| 6; 4 |]
  in
  Helpers.check_dense "splatt-like" oracle (T.to_dense result)

(* ------------------------------------------------------------------ *)
(* Taco user API                                                       *)
(* ------------------------------------------------------------------ *)

let test_taco_einsum () =
  let bt = Helpers.random_tensor 131 [| 6; 7 |] 0.3 F.csr in
  let ct = Helpers.random_tensor 132 [| 7; 5 |] 0.3 F.csr in
  let stmt = I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  (* Direct einsum fails (scatter); with schedule it works. *)
  (match Taco.einsum stmt ~inputs:[ (b, bt); (c, ct) ] with
  | Error e -> Alcotest.(check bool) "suggests precompute" true
      (String.length (Taco.Diag.to_string e) > 0)
  | Ok _ -> Alcotest.fail "expected scatter error");
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let w = Helpers.ws_vec "w" in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in
  let sched = Helpers.get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  let compiled = Helpers.getd (Taco.compile sched) in
  let result = Helpers.getd (Taco.run compiled ~inputs:[ (b, bt); (c, ct) ]) in
  Helpers.check_dense "taco api spgemm"
    (T.to_dense (Spgemm.gustavson bt ct)) (T.to_dense result);
  Alcotest.(check bool) "c source available" true
    (String.length (Taco.c_source compiled) > 100)

let test_taco_dense_einsum () =
  let ad = Helpers.dense_mat_tv "Ad" in
  let bt = Helpers.random_tensor 133 [| 6; 7 |] 0.3 F.csr in
  let ct = Helpers.random_tensor 134 [| 7; 5 |] 0.3 F.csr in
  let stmt = I.assign ad [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let compiled = Helpers.getd (Taco.compile sched) in
  let result = Helpers.getd (Taco.run compiled ~inputs:[ (b, bt); (c, ct) ]) in
  Helpers.check_dense "dense out" (T.to_dense (Spgemm.gustavson bt ct)) (T.to_dense result)

let test_run_with_renamed_vars () =
  (* Regression: after precompute with renaming triplets (Fig. 2's
     jc/jp), the consumer variable indexes only the result and the
     workspace; dimension inference must propagate through the workspace
     mode. *)
  let stmt = I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let w = Helpers.ws_vec "w" in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in
  let jc = Index_var.make "jc" and jp = Index_var.make "jp" in
  let sched = Helpers.get (Schedule.precompute ~expr:e ~vars:[ (vj, jc, jp) ] ~workspace:w sched) in
  let compiled = Helpers.getd (Taco.compile sched) in
  let bt = Helpers.random_tensor 175 [| 6; 7 |] 0.3 F.csr in
  let ct = Helpers.random_tensor 176 [| 7; 5 |] 0.3 F.csr in
  let result = Helpers.getd (Taco.run compiled ~inputs:[ (b, bt); (c, ct) ]) in
  Helpers.check_dense "renamed pipeline"
    (T.to_dense (Spgemm.gustavson bt ct)) (T.to_dense result)

let test_infer_result_dims () =
  let stmt = I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let cin = Helpers.get (Concretize.run stmt) in
  let bt = T.zero [| 4; 5 |] F.csr and ct = T.zero [| 5; 9 |] F.csr in
  let dims = Helpers.getd (Taco.infer_result_dims cin ~inputs:[ (b, bt); (c, ct) ]) in
  Alcotest.(check (array int)) "inferred" [| 4; 9 |] dims

(* ------------------------------------------------------------------ *)
(* Autoscheduling (the paper's future-work policy system)              *)
(* ------------------------------------------------------------------ *)

let test_autoschedule_spgemm () =
  (* From the raw statement, the policy must find reorder(k,j) +
     precompute — the paper's Fig. 2 schedule. *)
  let stmt = I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let compiled, steps = Helpers.getd (Taco.auto_compile sched) in
  Alcotest.(check bool) "took at least two steps" true (List.length steps >= 2);
  let bt = Helpers.random_tensor 141 [| 7; 8 |] 0.3 F.csr in
  let ct = Helpers.random_tensor 142 [| 8; 6 |] 0.3 F.csr in
  let result = Helpers.getd (Taco.run compiled ~inputs:[ (b, bt); (c, ct) ]) in
  Helpers.check_dense "auto spgemm" (T.to_dense (Spgemm.gustavson bt ct)) (T.to_dense result)

let test_autoschedule_noop_when_lowerable () =
  let ad = Helpers.dense_mat_tv "Ad" in
  let stmt = I.assign ad [ vi; vj ] (I.access b [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let _, steps = Helpers.getd (Taco.auto_compile sched) in
  Alcotest.(check int) "already lowerable, no steps" 0 (List.length steps)

let test_autoschedule_csc_copy () =
  (* CSC result needs a reorder; the policy must find it. *)
  let bcsc = Tensor_var.make "B" ~order:2 ~format:F.csc in
  let acsc = Tensor_var.make "A" ~order:2 ~format:F.csc in
  let stmt = I.assign acsc [ vi; vj ] (I.access bcsc [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let compiled, steps = Helpers.getd (Taco.auto_compile sched) in
  Alcotest.(check bool) "reordered" true
    (List.exists (function Taco.Autoschedule.Reordered _ -> true | _ -> false) steps);
  let bt = T.repack (Helpers.random_tensor 143 [| 6; 5 |] 0.3 F.csr) F.csc in
  let result = Helpers.getd (Taco.run compiled ~inputs:[ (bcsc, bt) ]) in
  Helpers.check_dense "csc copy" (T.to_dense bt) (T.to_dense result)

let test_autoschedule_reports_failure () =
  (* An unlowerable statement (sequence feeding a CSF-assembled result)
     must fail with the first lowering error attached, not loop. *)
  let a3 = Tensor_var.make "A3" ~order:3 ~format:(F.csf 3) in
  let b3 = Tensor_var.make "B" ~order:3 ~format:(F.csf 3) in
  let acc = Cin.access in
  let stmt =
    Cin.foralls [ vi; vj; vk ]
      (Cin.accumulate (acc a3 [ vi; vj; vk ]) (Cin.Access (acc b3 [ vk; vj; vi ])))
  in
  let lowerable s =
    Result.map (fun (_ : Lower.kernel_info) -> ())
      (Lower.lower ~mode:(Lower.Assemble { emit_values = true; sorted = true }) s)
  in
  match Taco.Autoschedule.run ~lowerable stmt with
  | Error e ->
      Alcotest.(check bool) "mentions lowering error" true (String.length e > 20)
  | Ok _ -> Alcotest.fail "expected autoschedule failure"

let test_auto_einsum_mttkrp_sparse () =
  (* Sparse-output MTTKRP needs two precomputes; auto_einsum must find a
     working schedule end to end. *)
  let am = Helpers.csr_tv "A" in
  let b3 = Tensor_var.make "B" ~order:3 ~format:(F.csf 3) in
  let cs = Helpers.csr_tv "C" in
  let ds = Helpers.csr_tv "D" in
  let stmt =
    I.assign am [ vi; vj ]
      (I.sum vk (I.sum vl (I.Mul (I.Mul (I.access b3 [ vi; vk; vl ], I.access cs [ vl; vj ]), I.access ds [ vk; vj ]))))
  in
  let bt = Helpers.random_tensor 144 [| 4; 5; 6 |] 0.15 (F.csf 3) in
  let ct = Helpers.random_tensor 145 [| 6; 3 |] 0.4 F.csr in
  let dt = Helpers.random_tensor 146 [| 5; 3 |] 0.4 F.csr in
  let inputs = [ (b3, bt); (cs, ct); (ds, dt) ] in
  let result = Helpers.getd (Taco.auto_einsum stmt ~inputs) in
  let plain = Helpers.get (Concretize.run stmt) in
  Helpers.check_dense "auto mttkrp sparse" (Helpers.eval_cin plain inputs) (T.to_dense result)

(* ------------------------------------------------------------------ *)
(* Less common shapes                                                  *)
(* ------------------------------------------------------------------ *)

let test_dot_product_scalar_output () =
  (* alpha = sum(i, b(i) * c(i)) with an order-0 result. *)
  let alpha = Tensor_var.make "alpha" ~order:0 ~format:(F.of_levels []) in
  let bv = Tensor_var.make "bv" ~order:1 ~format:F.sparse_vector in
  let cv = Tensor_var.make "cv" ~order:1 ~format:F.sparse_vector in
  let stmt = I.assign alpha [] (I.sum vi (I.Mul (I.access bv [ vi ], I.access cv [ vi ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let bt = Helpers.random_tensor 147 [| 30 |] 0.4 F.sparse_vector in
  let ct = Helpers.random_tensor 148 [| 30 |] 0.4 F.sparse_vector in
  let inputs = [ (bv, bt); (cv, ct) ] in
  let info = Helpers.get (Lower.lower ~mode:Lower.Compute (Schedule.stmt sched)) in
  let kern = Kernel.prepare info in
  let out = Kernel.run_dense kern ~inputs ~dims:[||] in
  let expected = Helpers.eval_cin (Schedule.stmt sched) inputs in
  Helpers.check_dense "dot product" expected (T.to_dense out)

let test_order2_workspace () =
  (* Precompute C wholesale into an order-2 workspace: the where hoists
     out of the i loop entirely (loop-invariant caching). *)
  let ad = Helpers.dense_mat_tv "Ad" in
  let cd = Helpers.dense_mat_tv "Cd" in
  let stmt = I.assign ad [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access cd [ vk; vj ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let w2 = Tensor_var.workspace "w2" ~order:2 ~format:F.dense_matrix in
  let e = Cin.Access (Cin.access cd [ vk; vj ]) in
  let sched = Helpers.get (Schedule.precompute_simple ~expr:e ~over:[ vk; vj ] ~workspace:w2 sched) in
  (* The producer must sit outside the i loop. *)
  (match Schedule.stmt sched with
  | Cin.Where (_, _) -> ()
  | s -> Alcotest.failf "expected a top-level where, got %s" (Cin.to_string s));
  let bt = Helpers.random_tensor 149 [| 5; 6 |] 0.4 F.csr in
  let ct = Helpers.random_tensor 150 [| 6; 4 |] 1.0 F.dense_matrix in
  let inputs = [ (b, bt); (cd, ct) ] in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) inputs [| 5; 4 |]

let test_nested_sum_in_expression () =
  (* a(i) = b(i) + sum(k, Cd(i,k)): the reduction is nested inside a
     larger expression, so concretization introduces a scalar-temporary
     where statement (§VI), which then lowers and runs. *)
  let av = Helpers.dense_vec_tv "a" in
  let bv = Helpers.dense_vec_tv "bvec" in
  let cd = Helpers.dense_mat_tv "Cd" in
  let stmt =
    I.assign av [ vi ] (I.Add (I.access bv [ vi ], I.sum vk (I.access cd [ vi; vk ])))
  in
  let cin = Helpers.get (Concretize.run stmt) in
  (* The statement must contain a where with a scalar workspace. *)
  let rec has_scalar_where = function
    | Cin.Where (_, p) ->
        List.exists
          (fun tv -> Tensor_var.is_workspace tv && Tensor_var.order tv = 0)
          (Cin.tensors_written p)
    | Cin.Forall (_, s) -> has_scalar_where s
    | Cin.Assignment _ -> false
    | Cin.Sequence (x, y) -> has_scalar_where x || has_scalar_where y
  in
  Alcotest.(check bool) "scalar temporary introduced" true (has_scalar_where cin);
  let ins =
    [
      (bv, Helpers.random_tensor 173 [| 8 |] 1.0 F.dense_vector);
      (cd, Helpers.random_tensor 174 [| 8; 5 |] 1.0 F.dense_matrix);
    ]
  in
  Helpers.check_lowered ~mode:Lower.Compute cin ins [| 8 |]

let test_subtraction_union () =
  (* Subtraction unions like addition (lattice over Sub). *)
  let ad = Helpers.dense_mat_tv "Ad" in
  let stmt = I.assign ad [ vi; vj ] (I.Sub (I.access b [ vi; vj ], I.access c [ vi; vj ])) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ins =
    [
      (b, Helpers.random_tensor 164 [| 7; 8 |] 0.25 F.csr);
      (c, Helpers.random_tensor 165 [| 7; 8 |] 0.25 F.csr);
    ]
  in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) ins [| 7; 8 |]

let test_negation_and_division () =
  (* Ad = -B / Cd with a dense divisor: intersection driven by B. *)
  let ad = Helpers.dense_mat_tv "Ad" in
  let cd = Helpers.dense_mat_tv "Cd" in
  let stmt =
    I.assign ad [ vi; vj ] (I.Div (I.Neg (I.access b [ vi; vj ]), I.access cd [ vi; vj ]))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let prng = Taco_support.Prng.create 166 in
  (* Divisor bounded away from zero. *)
  let cdt =
    T.of_dense
      (D.init [| 6; 6 |] (fun _ -> 0.5 +. Taco_support.Prng.float prng))
      F.dense_matrix
  in
  let ins = [ (b, Helpers.random_tensor 167 [| 6; 6 |] 0.3 F.csr); (cd, cdt) ] in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) ins [| 6; 6 |]

let test_csc_output_spgemm () =
  (* §II: CSC is CSR's column-major sibling. A_csc = B_csc · C_csc via
     the linear-combination-of-COLUMNS schedule: loop order j,k,i with a
     column workspace. *)
  let acsc = Tensor_var.make "A" ~order:2 ~format:F.csc in
  let bcsc = Tensor_var.make "B" ~order:2 ~format:F.csc in
  let ccsc = Tensor_var.make "C" ~order:2 ~format:F.csc in
  let stmt =
    I.assign acsc [ vi; vj ] (I.sum vk (I.Mul (I.access bcsc [ vi; vk ], I.access ccsc [ vk; vj ])))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  (* ijk -> jki *)
  let sched = Helpers.get (Schedule.reorder vi vj sched) in
  let sched = Helpers.get (Schedule.reorder vi vk sched) in
  let w = Helpers.ws_vec "w" in
  let e = Cin.Mul (Cin.Access (Cin.access bcsc [ vi; vk ]), Cin.Access (Cin.access ccsc [ vk; vj ])) in
  let sched = Helpers.get (Schedule.precompute_simple ~expr:e ~over:[ vi ] ~workspace:w sched) in
  let bt = T.repack (Helpers.random_tensor 168 [| 7; 8 |] 0.25 F.csr) F.csc in
  let ct = T.repack (Helpers.random_tensor 169 [| 8; 6 |] 0.25 F.csr) F.csc in
  Helpers.check_lowered ~mode:fused (Schedule.stmt sched) [ (bcsc, bt); (ccsc, ct) ] [| 7; 6 |]

let test_inner_product_matmul_csr_csc () =
  (* §II: inner-products matmul needs the second operand column-major.
     With C in CSC the natural ijk order lowers to a two-way merge of
     B's row against C's column (the Fig. 4a pattern). *)
  let ad = Helpers.dense_mat_tv "Ad" in
  let ccsc = Tensor_var.make "C" ~order:2 ~format:F.csc in
  let stmt =
    I.assign ad [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access ccsc [ vk; vj ])))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let bt = Helpers.random_tensor 170 [| 6; 9 |] 0.3 F.csr in
  let ct = T.repack (Helpers.random_tensor 171 [| 9; 5 |] 0.3 F.csr) F.csc in
  (* Structural check: the generated code coiterates (while + min). *)
  let info = Helpers.get (Lower.lower ~mode:Lower.Compute (Schedule.stmt sched)) in
  let src = Taco_lower.Codegen_c.emit info.Lower.kernel in
  let has pat =
    let lh = String.length src and ln = String.length pat in
    let rec go i = i + ln <= lh && (String.sub src i ln = pat || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "merge loop present" true (has "TACO_MIN(kB, kC)");
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched)
    [ (b, bt); (ccsc, ct) ] [| 6; 5 |]

let test_order3_addition () =
  (* Union merges at two compressed levels simultaneously. *)
  let b3 = Tensor_var.make "B" ~order:3 ~format:(F.csf 3) in
  let c3 = Tensor_var.make "C" ~order:3 ~format:(F.csf 3) in
  let a3 = Tensor_var.make "Ad" ~order:3 ~format:(F.dense 3) in
  let stmt = I.assign a3 [ vi; vj; vk ] (I.Add (I.access b3 [ vi; vj; vk ], I.access c3 [ vi; vj; vk ])) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let bt = Helpers.random_tensor 156 [| 5; 6; 7 |] 0.08 (F.csf 3) in
  let ct = Helpers.random_tensor 157 [| 5; 6; 7 |] 0.08 (F.csf 3) in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) [ (b3, bt); (c3, ct) ] [| 5; 6; 7 |]

let test_sparse_outer_product () =
  (* A(i,j) = u(i) * s(j) with sparse vectors, fused sparse assembly. *)
  let u = Tensor_var.make "u" ~order:1 ~format:F.sparse_vector in
  let s = Tensor_var.make "s" ~order:1 ~format:F.sparse_vector in
  let stmt = I.assign a [ vi; vj ] (I.Mul (I.access u [ vi ], I.access s [ vj ])) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let ut = Helpers.random_tensor 158 [| 12 |] 0.4 F.sparse_vector in
  let st = Helpers.random_tensor 159 [| 9 |] 0.4 F.sparse_vector in
  Helpers.check_lowered ~mode:fused (Schedule.stmt sched) [ (u, ut); (s, st) ] [| 12; 9 |]

let test_order4_mttkrp () =
  (* §VII: the 4-order MTTKRP A(i,j) = Σ_{k,l,m} B(i,k,l,m) C(m,j) D(l,j) E(k,j),
     with the workspace transformation hoisting B·C out of the l and k loops. *)
  let vm = Index_var.make "m" in
  let b4 = Tensor_var.make "B" ~order:4 ~format:(F.csf 4) in
  let cm = Helpers.dense_mat_tv "C" in
  let dm = Helpers.dense_mat_tv "D" in
  let em = Helpers.dense_mat_tv "E" in
  let am = Helpers.dense_mat_tv "A" in
  let stmt =
    I.assign am [ vi; vj ]
      (I.sum vk
         (I.sum vl
            (I.sum vm
               (I.Mul
                  ( I.Mul
                      (I.Mul (I.access b4 [ vi; vk; vl; vm ], I.access cm [ vm; vj ]),
                       I.access dm [ vl; vj ]),
                    I.access em [ vk; vj ] )))))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  (* Loop order i,k,l,m,j. *)
  let sched = Helpers.get (Schedule.reorder vj vk sched) in
  let sched = Helpers.get (Schedule.reorder vj vl sched) in
  let sched = Helpers.get (Schedule.reorder vj vm sched) in
  let w = Helpers.ws_vec "w" in
  let bc = Cin.Mul (Cin.Access (Cin.access b4 [ vi; vk; vl; vm ]), Cin.Access (Cin.access cm [ vm; vj ])) in
  let sched_w = Helpers.get (Schedule.precompute_simple ~expr:bc ~over:[ vj ] ~workspace:w sched) in
  (* The m loop must move into the producer (hoisting D and E out). *)
  Alcotest.(check string) "4-order hoist"
    "∀i,k,l ((∀j A(i,j) += w(j) * D(l,j) * E(k,j)) where (∀m,j w(j) += B(i,k,l,m) * C(m,j)))"
    (Cin.to_string (Schedule.stmt sched_w));
  let bt = Helpers.random_tensor 160 [| 4; 5; 4; 6 |] 0.05 (F.csf 4) in
  let ct = Helpers.random_tensor 161 [| 6; 3 |] 1.0 F.dense_matrix in
  let dt = Helpers.random_tensor 162 [| 4; 3 |] 1.0 F.dense_matrix in
  let et = Helpers.random_tensor 163 [| 5; 3 |] 1.0 F.dense_matrix in
  let inputs = [ (b4, bt); (cm, ct); (dm, dt); (em, et) ] in
  let oracle = Helpers.eval_cin (Schedule.stmt sched) inputs in
  Helpers.check_dense "4-order mttkrp with workspace" oracle
    (Helpers.eval_cin (Schedule.stmt sched_w) inputs);
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched_w) inputs [| 4; 3 |]

let test_dcsr_input () =
  let bd = Tensor_var.make "B" ~order:2 ~format:F.dcsr in
  let ad = Helpers.dense_mat_tv "Ad" in
  let stmt = I.assign ad [ vi; vj ] (I.access bd [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let bt = Helpers.random_tensor 151 [| 7; 8 |] 0.2 F.dcsr in
  Helpers.check_lowered ~mode:Lower.Compute (Schedule.stmt sched) [ (bd, bt) ] [| 7; 8 |]

(* ------------------------------------------------------------------ *)
(* Property: full pipeline on random matmuls and additions             *)
(* ------------------------------------------------------------------ *)

let prop_pipeline_spgemm =
  Helpers.qcheck_case ~count:20 "fused spgemm pipeline equals interpreter"
    QCheck.(0 -- 10000)
    (fun seed ->
      let sched = spgemm_sched () in
      let ins =
        [
          (b, Helpers.random_tensor seed [| 8; 9 |] 0.2 F.csr);
          (c, Helpers.random_tensor (seed + 1) [| 9; 7 |] 0.2 F.csr);
        ]
      in
      let oracle = Helpers.eval_cin (Schedule.stmt sched) ins in
      let result = Helpers.run_lowered ~mode:fused (Schedule.stmt sched) ins [| 8; 7 |] in
      D.equal ~eps:1e-9 oracle (T.to_dense result))

let prop_pipeline_add =
  Helpers.qcheck_case ~count:20 "fused addition pipeline equals interpreter"
    QCheck.(0 -- 10000)
    (fun seed ->
      let stmt = I.assign a [ vi; vj ] (I.Add (I.access b [ vi; vj ], I.access c [ vi; vj ])) in
      let sched = Helpers.get (Schedule.of_index_notation stmt) in
      let ins =
        [
          (b, Helpers.random_tensor seed [| 8; 9 |] 0.2 F.csr);
          (c, Helpers.random_tensor (seed + 1) [| 8; 9 |] 0.2 F.csr);
        ]
      in
      let oracle = Helpers.eval_cin (Schedule.stmt sched) ins in
      let result = Helpers.run_lowered ~mode:fused (Schedule.stmt sched) ins [| 8; 9 |] in
      D.equal ~eps:1e-9 oracle (T.to_dense result))

(* Differential fuzzing: random expression shapes and operand formats
   through concretize → (auto)schedule → lower → execute, checked against
   the reference interpreter. Lowering may reject a configuration (with
   an error), but it must never produce a wrong answer or crash. *)
let fuzz_formats = [| F.csr; F.dcsr; F.dense_matrix |]

let prop_differential_fuzz =
  Helpers.qcheck_case ~count:60 "random expression/format pipeline fuzz"
    QCheck.(pair (0 -- 100000) (pair (0 -- 3) (pair (0 -- 2) (pair (0 -- 2) (0 -- 1)))))
    (fun (seed, (shape, (fmt_b, (fmt_c, fmt_a)))) ->
      let fb = fuzz_formats.(fmt_b) and fc = fuzz_formats.(fmt_c) in
      let fa = if fmt_a = 0 then F.dense_matrix else F.csr in
      let aT = Tensor_var.make "A" ~order:2 ~format:fa in
      let bT = Tensor_var.make "B" ~order:2 ~format:fb in
      let cT = Tensor_var.make "C" ~order:2 ~format:fc in
      let dT = Tensor_var.make "D" ~order:2 ~format:F.csr in
      let open I in
      let rhs, extra =
        match shape with
        | 0 -> (Add (access bT [ vi; vj ], access cT [ vi; vj ]), [])
        | 1 -> (Mul (access bT [ vi; vj ], access cT [ vi; vj ]), [])
        | 2 ->
            ( Add
                (Mul (access bT [ vi; vj ], access cT [ vi; vj ]), access dT [ vi; vj ]),
              [ `D ] )
        | _ -> (sum vk (Mul (access bT [ vi; vk ], access cT [ vk; vj ])), [])
      in
      let stmt = assign aT [ vi; vj ] rhs in
      let dims_b = if shape = 3 then [| 6; 7 |] else [| 6; 8 |] in
      let dims_c = if shape = 3 then [| 7; 8 |] else [| 6; 8 |] in
      let inputs =
        [
          (bT, Helpers.random_tensor seed dims_b 0.3 fb);
          (cT, Helpers.random_tensor (seed + 1) dims_c 0.3 fc);
        ]
        @
        match extra with
        | [ `D ] -> [ (dT, Helpers.random_tensor (seed + 2) [| 6; 8 |] 0.3 F.csr) ]
        | _ -> []
      in
      match Schedule.of_index_notation stmt with
      | Error _ -> false
      | Ok sched -> (
          match Taco.auto_compile sched with
          | Error _ -> true (* graceful rejection is allowed *)
          | Ok (compiled, _) -> (
              match Taco.run compiled ~inputs with
              | Error _ -> true
              | Ok result ->
                  let oracle =
                    Helpers.eval_cin (Helpers.get (Concretize.run stmt)) inputs
                  in
                  D.equal ~eps:1e-9 oracle (T.to_dense result))))

let () =
  ignore vl;
  Alcotest.run "pipeline"
    [
      ( "generated kernels",
        [
          Alcotest.test_case "spgemm fused sorted" `Quick test_spgemm_fused;
          Alcotest.test_case "spgemm fused unsorted" `Quick test_spgemm_unsorted;
          Alcotest.test_case "symbolic/numeric split" `Quick test_spgemm_symbolic_numeric_split;
          Alcotest.test_case "csc via reorder" `Quick test_csc_matmul_via_reorder;
          Alcotest.test_case "spmv" `Quick test_spmv;
          Alcotest.test_case "sparse vector output" `Quick test_sparse_vector_output;
          Alcotest.test_case "three-way union" `Quick test_three_way_union;
          Alcotest.test_case "sum of products" `Quick test_mixed_add_mul;
          Alcotest.test_case "sparse plus dense" `Quick test_sparse_plus_dense;
          Alcotest.test_case "literal scaling" `Quick test_residual_scalar_alpha;
          Alcotest.test_case "scalar temporaries" `Quick test_scalar_temps_lowering;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "gustavson oracle" `Quick test_gustavson_oracle;
          Alcotest.test_case "eigen-like spgemm" `Quick test_eigen_like_spgemm;
          Alcotest.test_case "mkl-like spgemm" `Quick test_mkl_like_spgemm;
          Alcotest.test_case "spadd baselines" `Quick test_spadd_baselines;
          Alcotest.test_case "splatt-like mttkrp" `Quick test_splatt_like_mttkrp;
        ] );
      ( "autoschedule",
        [
          Alcotest.test_case "finds the fig 2 schedule" `Quick test_autoschedule_spgemm;
          Alcotest.test_case "no-op when lowerable" `Quick test_autoschedule_noop_when_lowerable;
          Alcotest.test_case "csc copy reorder" `Quick test_autoschedule_csc_copy;
          Alcotest.test_case "auto_einsum sparse mttkrp" `Quick test_auto_einsum_mttkrp_sparse;
          Alcotest.test_case "reports unlowerable statements" `Quick test_autoschedule_reports_failure;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "scalar dot product" `Quick test_dot_product_scalar_output;
          Alcotest.test_case "order-2 workspace hoist" `Quick test_order2_workspace;
          Alcotest.test_case "dcsr input" `Quick test_dcsr_input;
          Alcotest.test_case "nested sum scalar temporary" `Quick test_nested_sum_in_expression;
          Alcotest.test_case "subtraction union" `Quick test_subtraction_union;
          Alcotest.test_case "negation and division" `Quick test_negation_and_division;
          Alcotest.test_case "csc-output spgemm (column workspace)" `Quick test_csc_output_spgemm;
          Alcotest.test_case "inner-product matmul CSR x CSC" `Quick test_inner_product_matmul_csr_csc;
          Alcotest.test_case "order-3 addition" `Quick test_order3_addition;
          Alcotest.test_case "sparse outer product" `Quick test_sparse_outer_product;
          Alcotest.test_case "4-order mttkrp" `Quick test_order4_mttkrp;
        ] );
      ( "taco api",
        [
          Alcotest.test_case "sparse pipeline with schedule" `Quick test_taco_einsum;
          Alcotest.test_case "dense pipeline" `Quick test_taco_dense_einsum;
          Alcotest.test_case "result dim inference" `Quick test_infer_result_dims;
          Alcotest.test_case "renamed variables (jc/jp) run" `Quick test_run_with_renamed_vars;
        ] );
      ("properties", [ prop_pipeline_spgemm; prop_pipeline_add; prop_differential_fuzz ]);
    ]
