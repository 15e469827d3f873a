(* Fig. 13: chained sparse matrix additions.

   Left plot: total time to assemble and compute n additions (n+1
   operands) with
   - taco-binop: the generated pairwise kernel applied n times with
     temporaries (how a library is used);
   - taco: one generated fused multi-way merge kernel;
   - workspace: the dense-row-accumulator kernel (Fig. 5b generalized);
   - eigen-like and mkl-like: the hand-written pairwise baselines.

   Right table: assembly/compute breakdown when adding 7 operands. *)

open Taco
module K = Taco_kernels

let fused_mode = Lower.Assemble { emit_values = true; sorted = true }

let assemble_mode = Lower.Assemble { emit_values = false; sorted = true }

let pairwise_chain kern bvar cvar ops dims =
  match ops with
  | [] -> invalid_arg "no operands"
  | first :: rest ->
      List.fold_left
        (fun acc op -> Kernel.run_assemble kern ~inputs:[ (bvar, acc); (cvar, op) ] ~dims)
        first rest

let run ?json ~seed ~dim ~reps () =
  Harness.header "Fig. 13 (left): chained sparse additions";
  Printf.printf
    "(%dx%d operands, densities uniform in [1e-4, 0.01]; total seconds for n additions)\n\n"
    dim dim;
  (* Pairwise kernels (prepared once). *)
  let bv = tensor "B" Format.csr and cv = tensor "C" Format.csr in
  let pair_stmt = Harness.addition_merge_stmt [ bv; cv ] in
  let pair = Kernel.prepare (Harness.get (Lower.lower ~mode:fused_mode pair_stmt)) in
  let eigen = Kernel.prepare K.Spadd.eigen_like in
  let mkl = Kernel.prepare K.Spadd.mkl_like in
  let max_ops = 7 in
  let all_ops = Inputs.addition_operands ~seed ~n:max_ops ~dim in
  let dims = [| dim; dim |] in
  Harness.row "%-4s | %10s %10s %10s %10s %10s" "n" "taco-binop" "taco" "workspace"
    "eigen-like" "mkl-like";
  let left =
    List.concat_map
      (fun n ->
        let ops = List.filteri (fun q _ -> q <= n) all_ops in
        let op_vars = Harness.addition_vars (n + 1) in
        let bindings = List.combine op_vars ops in
        let merge_kernel =
          Kernel.prepare
            (Harness.get (Lower.lower ~mode:fused_mode (Harness.addition_merge_stmt op_vars)))
        in
        let ws_kernel =
          Kernel.prepare
            (Harness.get (Lower.lower ~mode:fused_mode (Harness.addition_workspace_stmt op_vars)))
        in
        let rs =
          Harness.medians ~reps
            ~workload:(Printf.sprintf "%d_additions" n)
            ~equal:Harness.close_to
            (List.map
               (fun (name, run) -> (name, run, run))
               [
                 ("taco_binop", fun () -> pairwise_chain pair bv cv ops dims);
                 ("taco", fun () -> Kernel.run_assemble merge_kernel ~inputs:bindings ~dims);
                 ("workspace", fun () -> Kernel.run_assemble ws_kernel ~inputs:bindings ~dims);
                 ( "eigen_like",
                   fun () -> pairwise_chain eigen K.Spadd.b_var K.Spadd.c_var ops dims );
                 ("mkl_like", fun () -> pairwise_chain mkl K.Spadd.b_var K.Spadd.c_var ops dims);
               ])
        in
        Harness.row "%-4d | %s" n
          (String.concat " " (List.map (fun r -> Printf.sprintf "%10.3f" r.Harness.time_s) rs));
        rs)
      (List.init (max_ops - 1) (fun q -> q + 1))
  in
  print_endline
    "\n(paper: workspace overtakes the merge codes beyond ~4 additions; taco beats";
  print_endline " MKL by 2.8x on average; Eigen and taco are competitive)";

  (* Right table: assembly/compute breakdown for 7 operands, each phase
     timed once. *)
  Harness.header "Fig. 13 (right): assembly/compute breakdown, 7 operands";
  let op_vars = Harness.addition_vars max_ops in
  let bindings = List.combine op_vars all_ops in
  let asm_phase = "assembly_7_operands" and cmp_phase = "compute_7_operands" in
  (* taco-binop: sum of per-step assembly and compute. *)
  let pair_asm = Kernel.prepare (Harness.get (Lower.lower ~mode:assemble_mode pair_stmt)) in
  let pair_cmp = Kernel.prepare (Harness.get (Lower.lower ~mode:Lower.Compute pair_stmt)) in
  let binop_split phase =
    List.fold_left
      (fun acc op ->
        let inputs = [ (bv, acc); (cv, op) ] in
        let structure = phase asm_phase (fun () -> Kernel.run_assemble pair_asm ~inputs ~dims) in
        phase cmp_phase (fun () ->
            Kernel.run_compute pair_cmp ~inputs ~output:structure;
            structure))
      (List.hd all_ops) (List.tl all_ops)
  in
  let split stmt phase =
    let asm = Kernel.prepare (Harness.get (Lower.lower ~mode:assemble_mode stmt)) in
    let cmp = Kernel.prepare (Harness.get (Lower.lower ~mode:Lower.Compute stmt)) in
    let structure = phase asm_phase (fun () -> Kernel.run_assemble asm ~inputs:bindings ~dims) in
    phase cmp_phase (fun () ->
        Kernel.run_compute cmp ~inputs:bindings ~output:structure;
        structure)
  in
  let right =
    Harness.once ~equal:Harness.close_to ~phases:[ asm_phase; cmp_phase ]
      [
        ("taco_binop", binop_split);
        ("taco", split (Harness.addition_merge_stmt op_vars));
        ("workspace", split (Harness.addition_workspace_stmt op_vars));
      ]
  in
  (* Milliseconds of [v]'s record in [workload]. The pairwise baselines
     have no split: their totals are the last row of the left table,
     which adds the same 7 operands. *)
  let ms records workload v =
    1000. *. Harness.time_of (List.filter (fun r -> r.Harness.workload = workload) records) v
  in
  let last = Printf.sprintf "%d_additions" (max_ops - 1) in
  Harness.row "%-11s %12s %12s" "code" "assembly(ms)" "compute(ms)";
  List.iter
    (fun v -> Harness.row "%-11s %12.1f %12.1f" v (ms right asm_phase v) (ms right cmp_phase v))
    [ "taco_binop"; "taco"; "workspace" ];
  List.iter
    (fun v -> Harness.row "%-11s %12s %12.1f" v "-" (ms left last v))
    [ "eigen_like"; "mkl_like" ];
  print_endline
    "\n(paper, ms: taco bin 247/211, taco 190/182, workspace 190/93, Eigen 436, MKL 1141;";
  print_endline " assembly dominates, and the workspace halves compute time)";
  Harness.report ?path:json ~bench:"fig13" ~agreement:Harness.within_eps
    ~config:[ ("seed", Json.Int seed); ("dim", Json.Int dim); ("reps", Json.Int reps) ]
    (left @ right)
