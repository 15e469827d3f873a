(* Fig. 12 left: MTTKRP with dense output on the FROSTT stand-ins —
   merge-based taco kernel vs the workspace kernel vs the hand-written
   SPLATT-style baseline, normalized to taco.

   Fig. 12 right: MTTKRP with sparse output and sparse matrix operands,
   relative to MTTKRP with dense output and dense operands, as operand
   density sweeps — reproducing the ~25% crossover of §VIII-D.

   With [?json] the raw measurements (wall clock + GC work) are also
   written as JSON. *)

open Taco
module K = Taco_kernels

let factor_rank = 16

let left ?json ~seed ~scale ~reps () =
  Harness.header "Fig. 12 (left): MTTKRP, dense output";
  Printf.printf "(FROSTT stand-ins at extra scale 1/%d, J = %d; normalized to taco)\n\n" scale
    factor_rank;
  let taco_kernel, tb, tc, td = Harness.mttkrp_kernel ~use_workspace:false in
  let ws_kernel, _, _, _ = Harness.mttkrp_kernel ~use_workspace:true in
  let splatt = Kernel.prepare K.Mttkrp.splatt_like in
  Harness.row "%-10s %9s | %9s %9s %9s | %8s %8s" "tensor" "nnz" "taco(s)" "ws(s)"
    "splatt(s)" "ws/taco" "spl/taco";
  let records =
    List.concat_map
      (fun ((entry : Suite.tensor_entry), bt) ->
        let dims = entry.Suite.t_dims in
        let c = Inputs.dense_factor ~seed:(seed + 1) ~rows:dims.(2) ~cols:factor_rank in
        let d = Inputs.dense_factor ~seed:(seed + 2) ~rows:dims.(1) ~cols:factor_rank in
        let out_dims = [| dims.(0); factor_rank |] in
        let variant name kern inputs =
          let run () = Kernel.run_dense kern ~inputs ~dims:out_dims in
          (name, run, run)
        in
        let rs =
          Harness.medians ~reps ~workload:entry.Suite.t_name ~equal:Harness.close_to
            [
              variant "taco" taco_kernel [ (tb, bt); (tc, c); (td, d) ];
              variant "workspace" ws_kernel [ (tb, bt); (tc, c); (td, d) ];
              variant "splatt_like" splatt
                [ (K.Mttkrp.b_var, bt); (K.Mttkrp.c_var, c); (K.Mttkrp.d_var, d) ];
            ]
        in
        let t = Harness.time_of rs in
        Harness.row "%-10s %9d | %9.3f %9.3f %9.3f | %8.2f %8.2f" entry.Suite.t_name
          (Tensor.stored bt) (t "taco") (t "workspace") (t "splatt_like")
          (t "workspace" /. t "taco")
          (t "splatt_like" /. t "taco");
        rs)
      (Inputs.tensors ~seed ~scale)
  in
  print_endline
    "\n(paper: workspace beats taco by 12-35% on the large NELL tensors and loses on";
  print_endline " the small Facebook tensor; SPLATT within ~5% of the workspace kernel)";
  Harness.report ?path:json ~bench:"fig12left" ~agreement:Harness.within_eps
    ~config:
      [
        ("seed", Json.Int seed);
        ("scale", Json.Int scale);
        ("reps", Json.Int reps);
      ]
    records

let densities = [ 1.0; 0.25; 0.02; 0.01; 2.5e-3; 1e-4 ]

let right ?json ~seed ~scale ~reps () =
  Harness.header "Fig. 12 (right): MTTKRP sparse output / dense output";
  Printf.printf
    "(relative compute time, sparse-operand sparse-output vs dense MTTKRP, J = %d)\n\n"
    factor_rank;
  let dense_kernel, tb, tc, td = Harness.mttkrp_kernel ~use_workspace:true in
  let sparse_kernel, sb, sc, sd = Harness.mttkrp_sparse_kernel () in
  Harness.row "%-10s | %s" "tensor"
    (String.concat "  " (List.map (fun d -> Printf.sprintf "%8.0e" d) densities));
  (* The dense-output run and each operand density compute different
     products, so each is its own workload with one variant. *)
  let per_tensor =
    List.map
      (fun ((entry : Suite.tensor_entry), bt) ->
        let name = entry.Suite.t_name in
        let dims = entry.Suite.t_dims in
        let out_dims = [| dims.(0); factor_rank |] in
        let cd = Inputs.dense_factor ~seed:(seed + 1) ~rows:dims.(2) ~cols:factor_rank in
        let dd = Inputs.dense_factor ~seed:(seed + 2) ~rows:dims.(1) ~cols:factor_rank in
        let dense =
          let run () =
            Kernel.run_dense dense_kernel ~inputs:[ (tb, bt); (tc, cd); (td, dd) ] ~dims:out_dims
          in
          Harness.medians ~reps ~workload:name ~equal:Harness.close_to [ ("dense", run, run) ]
        in
        let t_dense = Harness.time_of dense "dense" in
        let sparse =
          List.concat_map
            (fun density ->
              let c =
                Inputs.sparse_factor ~seed:(seed + 3) ~rows:dims.(2) ~cols:factor_rank ~density
              in
              let d =
                Inputs.sparse_factor ~seed:(seed + 4) ~rows:dims.(1) ~cols:factor_rank ~density
              in
              let run () =
                Kernel.run_assemble sparse_kernel ~inputs:[ (sb, bt); (sc, c); (sd, d) ]
                  ~dims:out_dims
              in
              Harness.medians ~reps
                ~workload:(Printf.sprintf "%s@%g" name density)
                ~equal:Harness.close_to
                ~info:(fun _ -> [ ("operand_density", Json.Float density) ])
                [ ("sparse", run, run) ])
            densities
        in
        let rels = List.map (fun r -> r.Harness.time_s /. t_dense) sparse in
        Harness.row "%-10s | %s" name
          (String.concat "  " (List.map (fun r -> Printf.sprintf "%8.2f" r) rels));
        (* Report the crossover density (first density where sparse wins). *)
        (match List.find_opt (fun (_, r) -> r < 1.) (List.combine densities rels) with
        | Some (d, _) -> Printf.printf "  -> sparse wins from density %.0e downward\n" d
        | None -> Printf.printf "  -> sparse never wins at these densities\n");
        (dense @ sparse, (name, Json.List (List.map (fun r -> Json.Float r) rels))))
      (Inputs.tensors ~seed ~scale)
  in
  print_endline "\n(paper: crossover around 25% density; 4.5-11x speedups at density 1e-4)";
  Harness.report ?path:json ~bench:"fig12right" ~agreement:Harness.within_eps
    ~config:
      [
        ("seed", Json.Int seed);
        ("scale", Json.Int scale);
        ("reps", Json.Int reps);
        ("densities", Json.List (List.map (fun d -> Json.Float d) densities));
      ]
    ~summary:[ ("sparse_over_dense", Json.Obj (List.map snd per_tensor)) ]
    (List.concat_map fst per_tensor)
