open Taco_ir
open Taco_ir.Var
module F = Taco_tensor.Format
module ML = Taco_lower.Merge_lattice
module Lower = Taco_lower.Lower
module Imp = Taco_lower.Imp
module C = Taco_lower.Codegen_c

let vi = Helpers.vi and vj = Helpers.vj and vk = Helpers.vk

let a = Helpers.csr_tv "A"
let b = Helpers.csr_tv "B"
let c = Helpers.csr_tv "C"
let d = Helpers.csr_tv "D"
let ad = Helpers.dense_mat_tv "Ad"
let dd = Helpers.dense_mat_tv "Dd"
let w = Helpers.ws_vec "w"
let acc = Cin.access
let av tv vars = Cin.Access (acc tv vars)
let av_e = av

(* Iterator ids: B -> 0, C -> 1, D -> 2; dense tensors have no id. *)
let sparse_id (x : Cin.access) =
  match Tensor_var.name x.Cin.tensor with
  | "B" -> Some 0
  | "C" -> Some 1
  | "D" -> Some 2
  | _ -> None

let test_lattice_mul () =
  let l = ML.build ~sparse_id (Cin.Mul (av b [ vi; vj ], av c [ vi; vj ])) in
  Alcotest.(check bool) "no full" false l.ML.needs_full;
  Alcotest.(check (list (list int))) "single intersection point" [ [ 0; 1 ] ] l.ML.points

let test_lattice_add () =
  let l = ML.build ~sparse_id (Cin.Add (av b [ vi; vj ], av c [ vi; vj ])) in
  Alcotest.(check bool) "no full" false l.ML.needs_full;
  Alcotest.(check (list (list int))) "union closure" [ [ 0; 1 ]; [ 0 ]; [ 1 ] ] l.ML.points

let test_lattice_mixed () =
  (* B*C + D: points {B,C,D}? no — product of sums: {BC} x {D} ∪ {BC} ∪ {D}. *)
  let l =
    ML.build ~sparse_id
      (Cin.Add (Cin.Mul (av b [ vi; vj ], av c [ vi; vj ]), av d [ vi; vj ]))
  in
  Alcotest.(check (list (list int))) "sum of product"
    [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 2 ] ] l.ML.points

let test_lattice_dense_union () =
  (* B + dense: dense contributes the empty point -> needs_full. *)
  let l = ML.build ~sparse_id (Cin.Add (av b [ vi; vj ], av ad [ vi; vj ])) in
  Alcotest.(check bool) "needs full" true l.ML.needs_full;
  Alcotest.(check (list (list int))) "sparse points remain" [ [ 0 ] ] l.ML.points

let test_lattice_dense_mul () =
  (* B * dense: intersection with a dense operand iterates B only. *)
  let l = ML.build ~sparse_id (Cin.Mul (av b [ vi; vj ], av ad [ vi; vj ])) in
  Alcotest.(check bool) "no full" false l.ML.needs_full;
  Alcotest.(check (list (list int))) "B only" [ [ 0 ] ] l.ML.points

let test_lattice_sub_points () =
  let l = ML.build ~sparse_id (Cin.Add (av b [ vi; vj ], av c [ vi; vj ])) in
  Alcotest.(check (list (list int))) "subs of {0,1}"
    [ [ 0; 1 ]; [ 0 ]; [ 1 ] ] (ML.sub_points l [ 0; 1 ]);
  Alcotest.(check (list (list int))) "subs of {0}" [ [ 0 ] ] (ML.sub_points l [ 0 ])

(* ------------------------------------------------------------------ *)
(* Lowering structure                                                  *)
(* ------------------------------------------------------------------ *)

let lower_ok ?(mode = Lower.Compute) stmt = Helpers.get (Lower.lower ~mode stmt)

let csource ?mode stmt = C.emit (lower_ok ?mode stmt).Lower.kernel

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let index_of hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i =
    if i + ln > lh then Alcotest.failf "pattern %S not found" needle
    else if String.sub hay i ln = needle then i
    else go (i + 1)
  in
  go 0

let check_contains src pats =
  List.iter
    (fun p -> if not (contains src p) then Alcotest.failf "missing pattern %S in:\n%s" p src)
    pats

(* Positions advanced by a guarded statement of their own,
   [if (c) { p = (p + 1); }], anywhere in the kernel. *)
let guarded_advances (k : Imp.kernel) =
  let rec go acc = function
    | Imp.If (_, [ Imp.Assign (p, Imp.Binop (Imp.Add, Imp.Var p', Imp.Int_lit 1)) ], [])
      when p = p' ->
        p :: acc
    | Imp.If (_, t, e) -> List.fold_left go (List.fold_left go acc t) e
    | Imp.For (_, _, _, b) | Imp.ParallelFor (_, _, _, b, _) | Imp.While (_, b) ->
        List.fold_left go acc b
    | _ -> acc
  in
  List.rev (List.fold_left go [] k.Imp.k_body)

let test_scatter_rejected () =
  let s =
    Cin.foralls [ vi; vk; vj ]
      (Cin.accumulate (acc a [ vi; vj ]) (Cin.Mul (av b [ vi; vk ], av c [ vk; vj ])))
  in
  let e = Helpers.get_err "scatter" (Lower.lower ~mode:Lower.Compute s) in
  Alcotest.(check bool) "mentions precompute" true (contains e "precompute")

let test_wrong_loop_order_rejected () =
  (* CSC matrix iterated row-major without reorder. *)
  let bcsc = Tensor_var.make "B" ~order:2 ~format:F.csc in
  let s = Cin.foralls [ vi; vj ] (Cin.assign (acc ad [ vi; vj ]) (av bcsc [ vi; vj ])) in
  let e = Helpers.get_err "format order" (Lower.lower ~mode:Lower.Compute s) in
  Alcotest.(check bool) "mentions reorder" true (contains e "reorder")

let test_fig1c_structure () =
  (* Dense-result matmul: memset + dense i loop + two sparse loops + +=. *)
  let s =
    Cin.foralls [ vi; vk; vj ]
      (Cin.accumulate (acc ad [ vi; vj ]) (Cin.Mul (av b [ vi; vk ], av c [ vk; vj ])))
  in
  check_contains (csource s)
    [
      "memset(Ad_vals";
      "for (int32_t i = 0; i < Ad1_dimension; i++)";
      "for (int32_t pB2 = B2_pos[i]; pB2 < B2_pos[(i + 1)]; pB2++)";
      "int32_t k = B2_crd[pB2];";
      "int32_t pAd2_base = (i * Ad2_dimension);";
      "double B_val = B_vals[pB2];";
      "Ad_vals[(pAd2_base + j)] += (B_val * C_vals[pC2]);";
    ]

let test_fig4a_merge_structure () =
  (* Inner product of rows: while loop with min and all-match test. *)
  let avec = Helpers.dense_vec_tv "a" in
  let s =
    Cin.foralls [ vi; vj ]
      (Cin.accumulate (acc avec [ vi ]) (Cin.Mul (av b [ vi; vj ], av c [ vi; vj ])))
  in
  let info = lower_ok s in
  check_contains (C.emit info.Lower.kernel)
    [
      "int32_t pB2_end = B2_pos[(i + 1)];";
      "int32_t pC2_end = C2_pos[(i + 1)];";
      "while (((pB2 < pB2_end) && (pC2 < pC2_end)))";
      "int32_t j = TACO_MIN(jB, jC);";
      "if (((jB == j) && (jC == j)))";
      "if ((jB == j))";
      "if ((jC == j))";
    ];
  (* The intersection's fall-through leaves both iterators open, so
     each keeps its guarded advance after the case. *)
  Alcotest.(check (list string)) "guarded advances" [ "pB2"; "pC2" ]
    (guarded_advances info.Lower.kernel)

let test_fig5a_union_structure () =
  let s =
    Cin.foralls [ vi; vj ]
      (Cin.assign (acc a [ vi; vj ]) (Cin.Add (av b [ vi; vj ], av c [ vi; vj ])))
  in
  let info = lower_ok s in
  check_contains (C.emit info.Lower.kernel)
    [
      "while (((pB2 < pB2_end) && (pC2 < pC2_end)))";
      "A_vals[pA2] = (B_vals[pB2] + C_vals[pC2]);";
      "while ((pB2 < pB2_end))";
      "while ((pC2 < pC2_end))";
    ];
  (* Every arm of the union's case decides both iterators: the advances
     sit inside the arms and none follows the case. *)
  Alcotest.(check (list string)) "no guarded advance" [] (guarded_advances info.Lower.kernel)

let test_workspace_memset_hoisting () =
  (* Fig 5b: a covered workspace is zeroed once above the row loop, by
     its allocation; the copy loop restores zeros. *)
  let s =
    Cin.forall vi
      (Cin.where
         ~consumer:(Cin.forall vj (Cin.assign (acc a [ vi; vj ]) (av w [ vj ])))
         ~producer:
           (Cin.sequence
              (Cin.forall vj (Cin.assign (acc w [ vj ]) (av b [ vi; vj ])))
              (Cin.forall vj (Cin.accumulate (acc w [ vj ]) (av c [ vi; vj ])))))
  in
  let src = csource s in
  check_contains src [ "double* w_vals = (double*)calloc("; "w_vals[j] = 0.0;" ];
  Alcotest.(check bool) "no memset of w" false (contains src "memset(w_vals");
  Alcotest.(check bool) "allocated above the row loop" true
    (index_of src "w_vals = (double*)calloc(" < index_of src "for (int32_t i");
  (* Min-plus zeroes with +inf, which allocation does not write: its
     fill stays, above the row loop. *)
  let k = (Helpers.get (Lower.lower ~semiring:Semiring.min_plus ~mode:Lower.Compute s)).Lower.kernel in
  let top_index p =
    let rec go n = function
      | [] -> Alcotest.fail "statement not found at the kernel top"
      | st :: rest -> if p st then n else go (n + 1) rest
    in
    go 0 k.Imp.k_body
  in
  Alcotest.(check bool) "min-plus fill above the row loop" true
    (top_index (function Imp.Fill ("w_vals", _, _) -> true | _ -> false)
    < top_index (function Imp.For ("i", _, _, _) -> true | _ -> false))

let test_workspace_memset_inside () =
  (* Fig 10: a consumer that multiplies the workspace with another sparse
     operand does not cover it; the memset stays inside the loops. *)
  let v_ws = Tensor_var.workspace "v" ~order:1 ~format:F.dense_vector in
  let s =
    Cin.forall vi
      (Cin.forall vk
         (Cin.where
            ~consumer:
              (Cin.forall vj
                 (Cin.accumulate (acc v_ws [ vj ]) (Cin.Mul (av w [ vj ], av d [ vk; vj ]))))
            ~producer:(Cin.forall vj (Cin.accumulate (acc w [ vj ]) (av b [ vi; vj ])))))
  in
  (* v is the result here? No: v is a workspace; make a dense result read v. *)
  let s =
    Cin.forall vi
      (Cin.where
         ~consumer:(Cin.forall vj (Cin.assign (acc ad [ vi; vj ]) (av v_ws [ vj ])))
         ~producer:(match s with Cin.Forall (_, inner) -> inner | _ -> assert false))
  in
  let src = csource s in
  (* memset of w must be inside the k loop *)
  let k_at = index_of src "for (int32_t k" in
  let w_memset_at = index_of src "memset(w_vals" in
  Alcotest.(check bool) "w memset inside the k loop" true (w_memset_at > k_at)

let test_assembly_kernel_structure () =
  (* Fig 8's assembly with realloc doubling. Sorted, the workspace's
     coordinates go into an occupancy bitmap whose drain visits them in
     ascending order: no guard, no list, no sort. Unsorted keeps the
     paper's guard array and coordinate list. *)
  let s =
    Cin.forall vi
      (Cin.where
         ~consumer:(Cin.forall vj (Cin.assign (acc a [ vi; vj ]) (av w [ vj ])))
         ~producer:
           (Cin.foralls [ vk; vj ]
              (Cin.accumulate (acc w [ vj ]) (Cin.Mul (av b [ vi; vk ], av c [ vk; vj ])))))
  in
  let src sorted = csource ~mode:(Lower.Assemble { emit_values = true; sorted }) s in
  let growth =
    [ "A2_crd_capacity = (A2_crd_capacity * 2);"; "A2_crd = realloc("; "A2_pos[(i + 1)] = pA2;" ]
  in
  check_contains (src true)
    ([
       "w_set[j >> 6] |= (uint64_t)1 << (j & 63);";
       "w_set[w_set_words + (j >> 12)] |= (uint64_t)1 << ((j >> 6) & 63);";
       "for (int32_t w_set_s = w_set_lo; w_set_s < w_set_hi; w_set_s++) {";
       "int32_t j = (w_set_wi << 6) | __builtin_ctzll(w_set_ww);";
       "w_set[w_set_wi] = 0;";
     ]
    @ growth);
  List.iter
    (fun absent ->
      Alcotest.(check bool) ("sorted: no " ^ absent) false (contains (src true) absent))
    [ "sort"; "w_seen"; "w_list" ];
  check_contains (src false)
    ([ "if (!(w_seen[j]))"; "w_list[w_list_size] = j;"; "int32_t j = w_list[pw_list];" ] @ growth);
  List.iter
    (fun absent ->
      Alcotest.(check bool) ("unsorted: no " ^ absent) false (contains (src false) absent))
    [ "sort"; "w_set" ]

let test_assembly_only_kernel () =
  (* emit_values:false must not touch A_vals. *)
  let s =
    Cin.forall vi
      (Cin.where
         ~consumer:(Cin.forall vj (Cin.assign (acc a [ vi; vj ]) (av w [ vj ])))
         ~producer:
           (Cin.foralls [ vk; vj ]
              (Cin.accumulate (acc w [ vj ]) (Cin.Mul (av b [ vi; vk ], av c [ vk; vj ])))))
  in
  let src = csource ~mode:(Lower.Assemble { emit_values = false; sorted = true }) s in
  Alcotest.(check bool) "no value stores" false (contains src "A_vals[pA2] =")

let test_fig7_csf_structure () =
  let a3 = Helpers.dense_mat_tv "Ad" in
  let b3 = Tensor_var.make "B" ~order:3 ~format:(F.csf 3) in
  let cv = Tensor_var.make "c" ~order:1 ~format:F.sparse_vector in
  let s =
    Cin.foralls [ vi; vj; vk ]
      (Cin.accumulate (acc a3 [ vi; vj ]) (Cin.Mul (av b3 [ vi; vj; vk ], av cv [ vk ])))
  in
  check_contains (csource s)
    [
      "for (int32_t pB1 = B1_pos[0]; pB1 < B1_pos[1]; pB1++)";
      "int32_t i = B1_crd[pB1];";
      "int32_t pB3_end = B3_pos[(pB2 + 1)];";
      "while (((pB3 < pB3_end) && (pc1 < pc1_end)))";
      "int32_t k = TACO_MIN(kB, kc);";
    ]

let test_kernel_params () =
  let s =
    Cin.foralls [ vi; vj ] (Cin.assign (acc ad [ vi; vj ]) (av b [ vi; vj ]))
  in
  let info = lower_ok s in
  let names = List.map (fun p -> p.Imp.p_name) info.Lower.kernel.Imp.k_params in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then Alcotest.failf "missing param %s" expected)
    [ "Ad1_dimension"; "Ad2_dimension"; "Ad_vals"; "B1_dimension"; "B2_dimension"; "B2_pos"; "B2_crd"; "B_vals" ];
  Alcotest.(check string) "naming helpers" "B2_pos" (Lower.pos_var b 1);
  Alcotest.(check string) "crd helper" "B2_crd" (Lower.crd_var b 1);
  Alcotest.(check string) "dim helper" "B1_dimension" (Lower.dimension_var b 0);
  Alcotest.(check string) "vals helper" "B_vals" (Lower.vals_var b)

let test_imp_check_catches_undeclared () =
  let k =
    {
      Imp.k_name = "bad";
      k_params = [];
      k_body = [ Imp.Assign ("x", Imp.Int_lit 1) ];
    }
  in
  match Imp.check k with Error _ -> () | Ok () -> Alcotest.fail "expected check failure"

let test_imp_smart_constructors () =
  Alcotest.(check bool) "0+x" true (Imp.add (Imp.Int_lit 0) (Imp.Var "x") = Imp.Var "x");
  Alcotest.(check bool) "x*1" true (Imp.mul (Imp.Var "x") (Imp.Int_lit 1) = Imp.Var "x");
  Alcotest.(check bool) "0*x" true (Imp.mul (Imp.Int_lit 0) (Imp.Var "x") = Imp.Int_lit 0);
  Alcotest.(check bool) "const fold" true (Imp.add (Imp.Int_lit 2) (Imp.Int_lit 3) = Imp.Int_lit 5)

let test_strip_mining () =
  (* Dense-result matmul with the j loop split by 4: the generated code
     has the outer/inner loop pair with a bounds guard, and computes the
     same values. *)
  let s =
    Cin.foralls [ vi; vk; vj ]
      (Cin.accumulate (acc ad [ vi; vj ]) (Cin.Mul (av b [ vi; vk ], av dd [ vk; vj ])))
  in
  let info = Helpers.get (Lower.lower ~splits:[ (vj, 4) ] ~mode:Lower.Compute s) in
  let src = C.emit info.Lower.kernel in
  check_contains src
    [ "for (int32_t j_o = 0;"; "for (int32_t j_i = 0; j_i < 4; j_i++)"; "if ((j <" ];
  (* Same values as the unsplit kernel (dimension 6 is not a multiple of
     4, exercising the guard). *)
  let bt = Helpers.random_tensor 171 [| 5; 7 |] 0.4 Taco_tensor.Format.csr in
  let dt = Helpers.random_tensor 172 [| 7; 6 |] 1.0 Taco_tensor.Format.dense_matrix in
  let inputs = [ (b, bt); (dd, dt) ] in
  let kern = Taco_exec.Kernel.prepare info in
  let split_result = Taco_exec.Kernel.run_dense kern ~inputs ~dims:[| 5; 6 |] in
  let oracle = Helpers.eval_cin s inputs in
  Helpers.check_dense "strip-mined result" oracle (Taco_tensor.Tensor.to_dense split_result)

let test_strip_mining_rejects_sparse () =
  let avec = Helpers.dense_vec_tv "a" in
  let s = Cin.foralls [ vi; vj ] (Cin.accumulate (acc avec [ vi ]) (av b [ vi; vj ])) in
  let e = Helpers.get_err "sparse split" (Lower.lower ~splits:[ (vj, 8) ] ~mode:Lower.Compute s) in
  Alcotest.(check bool) "mentions strip-mine" true (contains e "strip-mine")

let test_strip_mining_bad_factor () =
  let s = Cin.foralls [ vi; vj ] (Cin.assign (acc ad [ vi; vj ]) (av dd [ vi; vj ])) in
  ignore (Helpers.get_err "bad factor" (Lower.lower ~splits:[ (vj, 0) ] ~mode:Lower.Compute s))

let test_mixed_precision_workspace () =
  (* §III: the workspace's component type can differ from operands and
     result. Accumulating a long sum in a single-precision workspace
     loses digits that a double workspace keeps. *)
  let av = Helpers.dense_vec_tv "a" in
  let w0 = Tensor_var.workspace "t" ~order:0 ~format:(Taco_tensor.Format.of_levels []) in
  let s =
    Cin.forall vi
      (Cin.where
         ~consumer:(Cin.assign (acc av [ vi ]) (Cin.Access (acc w0 [])))
         ~producer:(Cin.forall vj (Cin.accumulate (acc w0 []) (av_e dd [ vi; vj ]))))
  in
  (* Values chosen so single-precision accumulation visibly drifts. *)
  let n = 400 in
  let d =
    Taco_tensor.Dense.init [| 2; n |] (fun c ->
        if c.(1) = 0 then 1e8 else 0.0625 +. (1e-4 *. float_of_int c.(1)))
  in
  let dt = Taco_tensor.Tensor.of_dense d Taco_tensor.Format.dense_matrix in
  let run ~single =
    let single_precision = if single then [ w0 ] else [] in
    let info = Helpers.get (Lower.lower ~single_precision ~mode:Lower.Compute s) in
    let kern = Taco_exec.Kernel.prepare info in
    Taco_tensor.Tensor.vals (Taco_exec.Kernel.run_dense kern ~inputs:[ (dd, dt) ] ~dims:[| 2 |])
  in
  let double_result = (run ~single:false).(0) in
  let single_result = (run ~single:true).(0) in
  let exact = Taco_tensor.Dense.buffer d |> Array.to_list |> List.filteri (fun q _ -> q < n) |> List.fold_left ( +. ) 0. in
  Alcotest.(check (float 1e-6)) "double accumulation is exact enough" exact double_result;
  Alcotest.(check bool) "single accumulation drifts" true
    (Float.abs (single_result -. exact) > Float.abs (double_result -. exact));
  (* And the emitted C shows the rounding cast. *)
  let info = Helpers.get (Lower.lower ~single_precision:[ w0 ] ~mode:Lower.Compute s) in
  check_contains (C.emit info.Lower.kernel) [ "(double)(float)(" ]

let test_two_results_rejected () =
  let s =
    Cin.forall vi
      (Cin.sequence
         (Cin.assign (acc (Helpers.dense_vec_tv "x") [ vi ]) (Cin.Literal 1.))
         (Cin.assign (acc (Helpers.dense_vec_tv "y") [ vi ]) (Cin.Literal 2.)))
  in
  ignore (Helpers.get_err "two results" (Lower.lower ~mode:Lower.Compute s))

(* --- the lowered form: positions and operand values declared once --- *)

(* The body of the loop that binds [v]: a dense [for v], or a position
   loop whose first statement declares [v]. *)
let rec loop_binding v ss =
  List.find_map
    (function
      | Imp.For (x, _, _, b) when x = v -> Some b
      | Imp.For (_, _, _, (Imp.Decl (Imp.Int, x, _) :: _ as b)) when x = v -> Some b
      | Imp.For (_, _, _, b) | Imp.ParallelFor (_, _, _, b, _) | Imp.While (_, b) -> loop_binding v b
      | Imp.If (_, t, e) -> (
          match loop_binding v t with Some b -> Some b | None -> loop_binding v e)
      | _ -> None)
    ss

let loop_body (k : Imp.kernel) v =
  match loop_binding v k.Imp.k_body with
  | Some b -> b
  | None -> Alcotest.failf "no loop binds %s" v

(* Occurrences of expressions satisfying [p] anywhere in the kernel. *)
let count_exprs p (k : Imp.kernel) =
  let rec e acc x =
    let acc = if p x then acc + 1 else acc in
    match x with
    | Imp.Var _ | Imp.Int_lit _ | Imp.Float_lit _ | Imp.Bool_lit _ -> acc
    | Imp.Load (_, i) | Imp.Not i | Imp.Round_single i -> e acc i
    | Imp.Binop (_, a, b) -> e (e acc a) b
    | Imp.Ternary (c, a, b) -> e (e (e acc c) a) b
  in
  let rec s acc = function
    | Imp.Decl (_, _, x) | Imp.Assign (_, x) | Imp.Alloc (_, _, x) | Imp.Realloc (_, x)
    | Imp.Memset (_, x) | Imp.Set_alloc (_, x) | Imp.Set_insert (_, x) ->
        e acc x
    | Imp.Store (_, i, x) | Imp.Store_add (_, i, x) | Imp.Store_reduce (_, _, i, x)
    | Imp.Fill (_, i, x) ->
        e (e acc i) x
    | Imp.Set_drain (_, _, b) -> List.fold_left s acc b
    | Imp.For (_, lo, hi, b) | Imp.ParallelFor (_, lo, hi, b, _) ->
        List.fold_left s (e (e acc lo) hi) b
    | Imp.While (c, b) -> List.fold_left s (e acc c) b
    | Imp.If (c, t, f) -> List.fold_left s (List.fold_left s (e acc c) t) f
    | Imp.Comment _ -> acc
  in
  List.fold_left s 0 k.Imp.k_body

let declares body x = List.exists (function Imp.Decl (_, _, y) -> y = x | _ -> false) body

let test_mttkrp_positions_once () =
  let k = (Helpers.mttkrp_info ()).Lower.kernel in
  List.iter
    (fun (v, dim) ->
      let scaled = Imp.Binop (Imp.Mul, Imp.Var v, Imp.Var dim) in
      Alcotest.(check int) (v ^ " * " ^ dim ^ " once") 1 (count_exprs (( = ) scaled) k);
      Alcotest.(check bool)
        (v ^ " * " ^ dim ^ " declared in its parent loop") true
        (declares (loop_body k v) scaled))
    [ ("i", "A2_dimension"); ("k", "D2_dimension"); ("l", "C2_dimension") ];
  let load = Imp.Load ("B_vals", Imp.Var "pB3") in
  Alcotest.(check int) "B_vals loaded once" 1
    (count_exprs (function Imp.Load ("B_vals", _) -> true | _ -> false) k);
  Alcotest.(check bool) "B_vals[pB3] bound once per pB3" true (declares (loop_body k "l") load)

let test_spgemm_operand_value_once () =
  let k = (Helpers.spgemm_info ()).Lower.kernel in
  let load = Imp.Load ("B_vals", Imp.Var "pB2") in
  Alcotest.(check int) "B_vals[pB2] read once" 1 (count_exprs (( = ) load) k);
  Alcotest.(check bool) "bound in the k loop, outside the j loop" true
    (declares (loop_body k "k") load)

(* A tail loop iterates one operand: [while (pX < pX_end)]. Every
   coordinate it visits matches, so its body tests no coordinate. *)
let test_tail_loops_unguarded () =
  List.iter
    (fun names ->
      let k = (Helpers.merge_info names).Lower.kernel in
      let rec tails acc = function
        | Imp.While (Imp.Binop (Imp.Lt, Imp.Var _, Imp.Var _), b) -> b :: acc
        | Imp.For (_, _, _, b) | Imp.While (_, b) -> List.fold_left tails acc b
        | Imp.If (_, t, e) -> List.fold_left tails (List.fold_left tails acc t) e
        | _ -> acc
      in
      let bodies = List.fold_left tails [] k.Imp.k_body in
      let n = List.length names in
      Alcotest.(check int) (Printf.sprintf "%d tail loops" n) n (List.length bodies);
      List.iter
        (List.iter (function
          | Imp.If (Imp.Binop (Imp.Eq, _, _), _, _) -> Alcotest.fail "tail loop tests its coordinate"
          | _ -> ()))
        bodies)
    [ [ "B"; "C" ]; [ "B"; "C"; "D" ] ]

let test_assembly_allocations () =
  let k = (Helpers.spgemm_info ()).Lower.kernel in
  List.iter
    (fun alloc ->
      if not (List.mem alloc k.Imp.k_body) then
        Alcotest.failf "missing %s" (Format.asprintf "%a" Imp.pp_stmt alloc))
    [
      Imp.Alloc (Imp.Int, "A2_crd", Imp.Int_lit 1024);
      Imp.Alloc (Imp.Float, "A_vals", Imp.Int_lit 1024);
      Imp.Alloc (Imp.Float, "w_vals", Imp.Var "A2_dimension");
    ]

let () =
  ignore dd;
  Alcotest.run "lower"
    [
      ( "merge_lattice",
        [
          Alcotest.test_case "multiplication intersects" `Quick test_lattice_mul;
          Alcotest.test_case "addition unions" `Quick test_lattice_add;
          Alcotest.test_case "sum of products" `Quick test_lattice_mixed;
          Alcotest.test_case "dense operand in a union" `Quick test_lattice_dense_union;
          Alcotest.test_case "dense operand in a product" `Quick test_lattice_dense_mul;
          Alcotest.test_case "sub points" `Quick test_lattice_sub_points;
        ] );
      ( "errors",
        [
          Alcotest.test_case "scatter into sparse result" `Quick test_scatter_rejected;
          Alcotest.test_case "loop order vs format order" `Quick test_wrong_loop_order_rejected;
          Alcotest.test_case "two results" `Quick test_two_results_rejected;
        ] );
      ( "paper listings",
        [
          Alcotest.test_case "fig 1c dense-result matmul" `Quick test_fig1c_structure;
          Alcotest.test_case "fig 4a merge loop" `Quick test_fig4a_merge_structure;
          Alcotest.test_case "fig 5a union merge" `Quick test_fig5a_union_structure;
          Alcotest.test_case "fig 5b memset hoisting" `Quick test_workspace_memset_hoisting;
          Alcotest.test_case "fig 10 memset placement" `Quick test_workspace_memset_inside;
          Alcotest.test_case "fig 8 assembly kernel" `Quick test_assembly_kernel_structure;
          Alcotest.test_case "assembly-only kernels" `Quick test_assembly_only_kernel;
          Alcotest.test_case "fig 7 csf tensor-vector" `Quick test_fig7_csf_structure;
        ] );
      ( "imp",
        [
          Alcotest.test_case "parameter naming" `Quick test_kernel_params;
          Alcotest.test_case "check catches undeclared" `Quick test_imp_check_catches_undeclared;
          Alcotest.test_case "smart constructors fold" `Quick test_imp_smart_constructors;
        ] );
      ( "lowered form",
        [
          Alcotest.test_case "MTTKRP positions and value once" `Quick test_mttkrp_positions_once;
          Alcotest.test_case "SpGEMM value outside j loop" `Quick test_spgemm_operand_value_once;
          Alcotest.test_case "tail loops unguarded" `Quick test_tail_loops_unguarded;
          Alcotest.test_case "assembly allocations literal" `Quick test_assembly_allocations;
        ] );
      ( "mixed precision",
        [ Alcotest.test_case "single vs double workspace" `Quick test_mixed_precision_workspace ] );
      ( "strip mining",
        [
          Alcotest.test_case "splits dense loops" `Quick test_strip_mining;
          Alcotest.test_case "rejects sparse loops" `Quick test_strip_mining_rejects_sparse;
          Alcotest.test_case "rejects bad factors" `Quick test_strip_mining_bad_factor;
        ] );
    ]
