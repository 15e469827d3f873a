(* Ablations of the design choices the paper discusses:

   1. Dense vs hash-map workspace for SpGEMM (§III notes hash maps also
      give O(1) access without storing zeros; Patwary et al., cited by
      the paper, report they underperform — measured here).
   2. Result reuse (sequence statement) vs a fresh nested workspace for
      sparse addition (§V-B presents both forms).
   3. Sorted vs unsorted result assembly for SpGEMM (the two variants of
      Fig. 11).

   Ablations 1 and 3 run on the closures and, when a C compiler is
   available, on tier-1 native builds. *)

open Taco
module K = Taco_kernels

let hash_vs_dense ~seed ~scale ~reps native =
  Harness.header
    (Printf.sprintf "Ablation 1: dense vs hash-map workspace (SpGEMM, %s)"
       (Harness.executor_label native));
  let ws_kernel, b, c = Harness.spgemm_kernel ~native ~sorted:true () in
  Harness.row "%-12s %10s | %10s %10s %7s" "matrix" "nnz" "dense(s)" "hash(s)" "ratio";
  let ratios = ref [] in
  List.iter
    (fun ((entry : Suite.matrix_entry), bt) ->
      let ct =
        Inputs.uniform_matrix ~seed:(seed + entry.Suite.id) ~rows:entry.Suite.cols
          ~cols:entry.Suite.cols ~density:4e-4
      in
      (* Hash capacity: power of two comfortably above the densest row. *)
      let cap = max 1024 (1 lsl (int_of_float (Float.log2 (float_of_int entry.Suite.cols)) + 1)) in
      let hash = Harness.prepare ~native (K.Spgemm.hash_workspace ~capacity:cap) in
      let dims = [| entry.Suite.rows; entry.Suite.cols |] in
      let t_dense =
        Harness.time_median ~reps (fun () ->
            ignore (Kernel.run_assemble ws_kernel ~inputs:[ (b, bt); (c, ct) ] ~dims))
      in
      let t_hash =
        Harness.time_median ~reps (fun () ->
            ignore
              (Kernel.run_assemble hash
                 ~inputs:[ (K.Spgemm.b_var, bt); (K.Spgemm.c_var, ct) ]
                 ~dims))
      in
      ratios := (t_hash /. t_dense) :: !ratios;
      Harness.row "%-12s %10d | %10.3f %10.3f %6.2fx" entry.Suite.name (Tensor.stored bt)
        t_dense t_hash (t_hash /. t_dense))
    (Inputs.matrices ~seed ~scale);
  Printf.printf "\nhash / dense workspace geomean = %.2fx (Patwary et al.: hash underperforms)\n"
    (Harness.geomean !ratios)

let sorted_vs_unsorted ~seed ~scale ~reps native =
  Harness.header
    (Printf.sprintf "Ablation 3: sorted vs unsorted result assembly (SpGEMM, %s)"
       (Harness.executor_label native));
  let ws_kernel, b, c = Harness.spgemm_kernel ~native ~sorted:true () in
  let ws_unsorted, _, _ = Harness.spgemm_kernel ~native ~sorted:false () in
  Harness.row "%-12s | %10s %10s %8s" "matrix" "sorted(s)" "unsort(s)" "overhead";
  List.iter
    (fun ((entry : Suite.matrix_entry), bt) ->
      let ct =
        Inputs.uniform_matrix ~seed:(seed + entry.Suite.id) ~rows:entry.Suite.cols
          ~cols:entry.Suite.cols ~density:4e-4
      in
      let dims = [| entry.Suite.rows; entry.Suite.cols |] in
      let t_sorted =
        Harness.time_median ~reps (fun () ->
            Kernel.run_assemble_raw ws_kernel ~inputs:[ (b, bt); (c, ct) ] ~dims)
      in
      let t_unsorted =
        Harness.time_median ~reps (fun () ->
            Kernel.run_assemble_raw ws_unsorted ~inputs:[ (b, bt); (c, ct) ] ~dims)
      in
      Harness.row "%-12s | %10.3f %10.3f %7.1f%%" entry.Suite.name t_sorted t_unsorted
        (Harness.pct t_sorted t_unsorted))
    (List.filteri (fun q _ -> q < 4) (Inputs.matrices ~seed ~scale))

let run ~seed ~scale ~reps =
  List.iter (hash_vs_dense ~seed ~scale ~reps) (Harness.executors ());
  Harness.header "Ablation 2: result reuse vs fresh nested workspace (sparse addition)";
  (* A = B + C with (a) result reuse: ∀j w=B ; ∀j w+=C, and (b) a fresh
     workspace for the addend: (∀j w = v + C) where (∀j v = B). *)
  let a = tensor "A" Format.csr in
  let bv = tensor "B" Format.csr and cv = tensor "C" Format.csr in
  let vi = ivar "i" and vj = ivar "j" in
  let stmt =
    Index_notation.assign a [ vi; vj ]
      (Index_notation.Add (Index_notation.access bv [ vi; vj ], Index_notation.access cv [ vi; vj ]))
  in
  let sched = Harness.get (Schedule.of_index_notation stmt) in
  let w = workspace "w" Format.dense_vector in
  let whole =
    Cin.Add (Cin.Access (Cin.access bv [ vi; vj ]), Cin.Access (Cin.access cv [ vi; vj ]))
  in
  let first = Harness.get (Schedule.precompute_simple ~expr:whole ~over:[ vj ] ~workspace:w sched) in
  let bij = Cin.Access (Cin.access bv [ vi; vj ]) in
  let reuse = Harness.get (Schedule.precompute_simple ~expr:bij ~over:[ vj ] ~workspace:w first) in
  let v = workspace "v" Format.dense_vector in
  let nested = Harness.get (Schedule.precompute_simple ~expr:bij ~over:[ vj ] ~workspace:v first) in
  Printf.printf "reuse:  %s\n" (Cin.to_string (Schedule.stmt reuse));
  Printf.printf "nested: %s\n\n" (Cin.to_string (Schedule.stmt nested));
  let fused = Lower.Assemble { emit_values = true; sorted = true } in
  let k_reuse = Kernel.prepare (Harness.get (Lower.lower ~mode:fused (Schedule.stmt reuse))) in
  let k_nested = Kernel.prepare (Harness.get (Lower.lower ~mode:fused (Schedule.stmt nested))) in
  let dim = 4000 in
  let ops = Inputs.addition_operands ~seed ~n:2 ~dim in
  let bindings = List.combine [ bv; cv ] ops in
  let t_reuse =
    Harness.time_median ~reps (fun () ->
        ignore (Kernel.run_assemble k_reuse ~inputs:bindings ~dims:[| dim; dim |]))
  in
  let t_nested =
    Harness.time_median ~reps (fun () ->
        ignore (Kernel.run_assemble k_nested ~inputs:bindings ~dims:[| dim; dim |]))
  in
  Harness.row "result reuse:      %.3f s" t_reuse;
  Harness.row "nested workspaces: %.3f s (%.2fx)" t_nested (t_nested /. t_reuse);
  List.iter (sorted_vs_unsorted ~seed ~scale ~reps) (Harness.executors ())

let tiling ~seed ~reps =
  Harness.header "Ablation 4: strip-mining the dense j loop (SpMM, dense operand)";
  (* A(i,j) = Σ_k B(i,k) · Cd(k,j): sparse B, dense C and A. *)
  let a = tensor "A" Format.dense_matrix in
  let bv = tensor "B" Format.csr in
  let cd = tensor "Cd" Format.dense_matrix in
  let vi = ivar "i" and vj = ivar "j" and vk = ivar "k" in
  let stmt =
    Index_notation.assign a [ vi; vj ]
      (Index_notation.sum vk
         (Index_notation.Mul (Index_notation.access bv [ vi; vk ], Index_notation.access cd [ vk; vj ])))
  in
  let sched = Harness.get (Schedule.of_index_notation stmt) in
  let sched = Harness.get (Schedule.reorder vk vj sched) in
  let bt = Inputs.uniform_matrix ~seed ~rows:3000 ~cols:3000 ~density:2e-3 in
  let prng = Taco_support.Prng.create (seed + 1) in
  let ct = Tensor.of_dense (Gen.random_dense prng [| 3000; 64 |]) Format.dense_matrix in
  let inputs = [ (bv, bt); (cd, ct) ] in
  List.iter
    (fun factor ->
      let splits = if factor = 0 then [] else [ (vj, factor) ] in
      let kern =
        Kernel.prepare
          (Harness.get (Lower.lower ~splits ~mode:Lower.Compute (Schedule.stmt sched)))
      in
      let t =
        Harness.time_median ~reps (fun () ->
            ignore (Kernel.run_dense kern ~inputs ~dims:[| 3000; 64 |]))
      in
      Harness.row "split %-4s: %.3f s" (if factor = 0 then "none" else string_of_int factor) t)
    [ 0; 8; 16; 32 ];
  print_endline
    "(under the closure executor, tiling adds guard overhead without cache benefit —\n\
    \ the transformation is demonstrated for completeness of the scheduling language)"

let inner_vs_gustavson ~seed ~reps =
  Harness.header "Ablation 5: inner-products vs linear-combination-of-rows matmul (§II)";
  (* Inner products coiterate every (row of B, column of C) pair and touch
     values that are nonzero in only one matrix — asymptotically slower
     than Gustavson's row combinations, as §II argues. Dense output for
     both so only the iteration strategy differs. *)
  let ad = tensor "A" Format.dense_matrix in
  let bv = tensor "B" Format.csr in
  let ccsc = tensor "C" Format.csc in
  let ccsr = tensor "C" Format.csr in
  let vi = ivar "i" and vj = ivar "j" and vk = ivar "k" in
  let stmt cv =
    Index_notation.assign ad [ vi; vj ]
      (Index_notation.sum vk
         (Index_notation.Mul (Index_notation.access bv [ vi; vk ], Index_notation.access cv [ vk; vj ])))
  in
  (* Inner products: ijk with CSC C (two-way merge per output). *)
  let inner_sched = Harness.get (Schedule.of_index_notation (stmt ccsc)) in
  let inner = Kernel.prepare (Harness.get (Lower.lower ~mode:Lower.Compute (Schedule.stmt inner_sched))) in
  (* Row combinations: ikj with CSR C. *)
  let rows_sched = Harness.get (Schedule.of_index_notation (stmt ccsr)) in
  let rows_sched = Harness.get (Schedule.reorder vk vj rows_sched) in
  let rows = Kernel.prepare (Harness.get (Lower.lower ~mode:Lower.Compute (Schedule.stmt rows_sched))) in
  Harness.row "%-6s | %12s %12s %8s" "n" "inner(s)" "rows(s)" "ratio";
  List.iter
    (fun n ->
      let bt = Inputs.uniform_matrix ~seed ~rows:n ~cols:n ~density:(4. /. float_of_int n) in
      let ct_csr = Inputs.uniform_matrix ~seed:(seed + 1) ~rows:n ~cols:n ~density:(4. /. float_of_int n) in
      let ct_csc = Tensor.repack ct_csr Format.csc in
      let dims = [| n; n |] in
      let t_inner =
        Harness.time_median ~reps (fun () ->
            ignore (Kernel.run_dense inner ~inputs:[ (bv, bt); (ccsc, ct_csc) ] ~dims))
      in
      let t_rows =
        Harness.time_median ~reps (fun () ->
            ignore (Kernel.run_dense rows ~inputs:[ (bv, bt); (ccsr, ct_csr) ] ~dims))
      in
      Harness.row "%-6d | %12.3f %12.3f %7.1fx" n t_inner t_rows (t_inner /. t_rows))
    [ 500; 1000; 2000 ];
  print_endline
    "(inner products pay a merge per output pair — O(m*n) merges regardless of nnz —\n\
    \ while row combinations scale with the flops: an order-of-magnitude gap, §II)"
