(* Fig. 11: sparse matrix multiplication against the library baselines.

   Each Table I matrix is multiplied by a uniform synthetic operand of
   density 4e-4 and 1e-4. Left plot: sorted algorithms (generated
   workspace kernel vs the Eigen-like baseline, sorting time included).
   Right plot: unsorted algorithms (generated workspace kernel vs the
   MKL-like two-pass baseline). Reported numbers are runtimes normalized
   to the workspace kernel, as in the paper. Every kernel, the baselines
   included, runs on the closures and, when a C compiler is available,
   again as a tier-1 native build (variants suffixed "_t1").

   With [?json] the raw measurements (wall clock + GC work) are also
   written as JSON. *)

open Taco
module K = Taco_kernels

(* One executor's table: the per-workload records and its two geomeans. *)
let sweep ~seed ~scale ~reps native =
  Harness.header (Printf.sprintf "Fig. 11 on %s" (Harness.executor_label native));
  let suffix = if native then "_t1" else "" in
  let ws_sorted, bs, cs = Harness.spgemm_kernel ~native ~sorted:true () in
  let ws_unsorted, _, _ = Harness.spgemm_kernel ~native ~sorted:false () in
  let eigen = Harness.prepare ~native K.Spgemm.eigen_like in
  let mkl = Harness.prepare ~native K.Spgemm.mkl_like in
  let name v = v ^ suffix in
  Harness.row "%-3s %-11s %8s | %10s %10s %7s | %10s %10s %7s" "#" "matrix" "nnz"
    "ws-sort(s)" "eigen(s)" "ratio" "ws-uns(s)" "mkl(s)" "ratio";
  let per_workload =
    List.concat_map
      (fun ((entry : Suite.matrix_entry), bt) ->
        List.map
          (fun density ->
            let ct =
              Inputs.uniform_matrix ~seed:(seed + entry.Suite.id) ~rows:entry.Suite.cols
                ~cols:entry.Suite.cols ~density
            in
            let dims = [| entry.Suite.rows; entry.Suite.cols |] in
            (* The clock times the kernel alone: [run_assemble] sorts an
               unsorted kernel's rows at read-back, so its tensor feeds
               only the agreement check. *)
            let variant v k (b, c) =
              let inputs = [ (b, bt); (c, ct) ] in
              ( name v,
                (fun () -> Kernel.run_assemble k ~inputs ~dims),
                fun () -> Kernel.run_assemble_raw k ~inputs ~dims )
            in
            let generated = (bs, cs) and baseline = (K.Spgemm.b_var, K.Spgemm.c_var) in
            let rs =
              Harness.medians ~reps
                ~workload:(Printf.sprintf "%s@%g" entry.Suite.name density)
                ~equal:Harness.close_to
                [
                  variant "ws_sorted" ws_sorted generated;
                  variant "eigen_like" eigen baseline;
                  variant "ws_unsorted" ws_unsorted generated;
                  variant "mkl_like" mkl baseline;
                ]
            in
            let t v = Harness.time_of rs (name v) in
            let r_eigen = t "eigen_like" /. t "ws_sorted" in
            let r_mkl = t "mkl_like" /. t "ws_unsorted" in
            Harness.row "%-3d %-11s %8d | %10.3f %10.3f %6.2fx | %10.3f %10.3f %6.2fx"
              entry.Suite.id entry.Suite.name (Tensor.stored bt) (t "ws_sorted")
              (t "eigen_like") r_eigen (t "ws_unsorted") (t "mkl_like") r_mkl;
            (rs, (r_eigen, r_mkl)))
          [ 4e-4; 1e-4 ])
      (Inputs.matrices ~seed ~scale)
  in
  let geo_eigen = Harness.geomean (List.map (fun (_, (r, _)) -> r) per_workload) in
  let geo_mkl = Harness.geomean (List.map (fun (_, (_, r)) -> r) per_workload) in
  Printf.printf
    "\nsummary: eigen-like / workspace (sorted) geomean = %.2fx  (paper: 4x and 3.6x)\n"
    geo_eigen;
  Printf.printf
    "         mkl-like / workspace (unsorted) geomean = %.2fx  (paper: 1.28x and 1.16x)\n"
    geo_mkl;
  ( List.concat_map fst per_workload,
    [
      ("geomean_eigen_over_ws" ^ suffix, Json.Float geo_eigen);
      ("geomean_mkl_over_ws" ^ suffix, Json.Float geo_mkl);
    ] )

let run ?json ~seed ~scale ~reps () =
  Harness.header "Fig. 11: SpGEMM vs library baselines";
  Printf.printf "(Table I stand-ins at scale 1/%d; operand densities 4e-4 and 1e-4;\n" scale;
  Printf.printf " times are medians of %d runs, normalized to the workspace kernel)\n" reps;
  let sweeps =
    List.map (sweep ~seed ~scale ~reps) (Harness.executors ())
  in
  Harness.report ?path:json ~bench:"fig11" ~agreement:Harness.within_eps
    ~config:[ ("seed", Json.Int seed); ("scale", Json.Int scale); ("reps", Json.Int reps) ]
    ~summary:(List.concat_map snd sweeps)
    (List.concat_map fst sweeps)
