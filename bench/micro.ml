(* Bechamel micro-benchmarks: one Test.make per reproduced table/figure,
   on small fixed inputs, with OLS estimation of per-run time. These give
   statistically sampled timings for the individual kernels; the figure
   harnesses (fig11/fig12/fig13) run the full-scale sweeps. *)

open Bechamel
open Toolkit
open Taco
module K = Taco_kernels

let get = Harness.get

let make_spgemm_test () =
  let kern, b, c = Harness.spgemm_kernel ~sorted:true () in
  let bt = Inputs.uniform_matrix ~seed:1 ~rows:800 ~cols:800 ~density:5e-3 in
  let ct = Inputs.uniform_matrix ~seed:2 ~rows:800 ~cols:800 ~density:5e-3 in
  Test.make ~name:"fig11/spgemm_workspace"
    (Staged.stage (fun () ->
         ignore (Kernel.run_assemble kern ~inputs:[ (b, bt); (c, ct) ] ~dims:[| 800; 800 |])))

let make_spgemm_eigen_test () =
  let kern = Kernel.prepare K.Spgemm.eigen_like in
  let bt = Inputs.uniform_matrix ~seed:1 ~rows:800 ~cols:800 ~density:5e-3 in
  let ct = Inputs.uniform_matrix ~seed:2 ~rows:800 ~cols:800 ~density:5e-3 in
  Test.make ~name:"fig11/spgemm_eigen_like"
    (Staged.stage (fun () ->
         ignore
           (Kernel.run_assemble kern
              ~inputs:[ (K.Spgemm.b_var, bt); (K.Spgemm.c_var, ct) ]
              ~dims:[| 800; 800 |])))

let make_mttkrp_tests () =
  let taco_kernel, tb, tc, td = Harness.mttkrp_kernel ~use_workspace:false in
  let ws_kernel, _, _, _ = Harness.mttkrp_kernel ~use_workspace:true in
  let prng = Taco_support.Prng.create 3 in
  let bt = Gen.random prng ~dims:[| 200; 150; 180 |] ~nnz:40_000 (Format.csf 3) in
  let c = Inputs.dense_factor ~seed:4 ~rows:180 ~cols:16 in
  let d = Inputs.dense_factor ~seed:5 ~rows:150 ~cols:16 in
  let dims = [| 200; 16 |] in
  [
    Test.make ~name:"fig12/mttkrp_merge"
      (Staged.stage (fun () ->
           ignore
             (Kernel.run_dense taco_kernel ~inputs:[ (tb, bt); (tc, c); (td, d) ] ~dims)));
    Test.make ~name:"fig12/mttkrp_workspace"
      (Staged.stage (fun () ->
           ignore (Kernel.run_dense ws_kernel ~inputs:[ (tb, bt); (tc, c); (td, d) ] ~dims)));
  ]

let make_addition_tests () =
  let ops = Inputs.addition_operands ~seed:6 ~n:5 ~dim:1000 in
  let op_vars = Harness.addition_vars 5 in
  let bindings = List.combine op_vars ops in
  let fused_mode = Lower.Assemble { emit_values = true; sorted = true } in
  let merge =
    Kernel.prepare (get (Lower.lower ~mode:fused_mode (Harness.addition_merge_stmt op_vars)))
  in
  let ws =
    Kernel.prepare
      (get (Lower.lower ~mode:fused_mode (Harness.addition_workspace_stmt op_vars)))
  in
  [
    Test.make ~name:"fig13/add5_merge"
      (Staged.stage (fun () ->
           ignore (Kernel.run_assemble merge ~inputs:bindings ~dims:[| 1000; 1000 |])));
    Test.make ~name:"fig13/add5_workspace"
      (Staged.stage (fun () ->
           ignore (Kernel.run_assemble ws ~inputs:bindings ~dims:[| 1000; 1000 |])));
  ]

(* The workspace SpGEMM as a tier-1 native call (read-back included) at
   the serve_warm benchmark's shape: 400x400 operands at 2 %, ~23.6k
   result entries. Left out when the kernel cannot be built natively. *)
let make_spgemm_tier1_test () =
  if not (Native.available ()) then []
  else
    let kern, b, c = Harness.spgemm_kernel ~native:true ~sorted:true () in
    let inputs =
      [
        (b, Inputs.uniform_matrix ~seed:1 ~rows:400 ~cols:400 ~density:0.02);
        (c, Inputs.uniform_matrix ~seed:2 ~rows:400 ~cols:400 ~density:0.02);
      ]
    in
    [
      Test.make ~name:"serve/spgemm_tier1"
        (Staged.stage (fun () -> ignore (Kernel.run_assemble kern ~inputs ~dims:[| 400; 400 |])));
    ]

(* The structural check alone: [Tensor.of_parts] (which runs
   [Tensor.validate]) on a 400x400 SpGEMM result of 2%-dense operands,
   ~23.6k nonzeros, the size the serve_warm benchmark's SpGEMM hands back
   on every request. *)
let make_validate_test () =
  let kern, b, c = Harness.spgemm_kernel ~sorted:true () in
  let bt = Inputs.uniform_matrix ~seed:1 ~rows:400 ~cols:400 ~density:0.02 in
  let ct = Inputs.uniform_matrix ~seed:2 ~rows:400 ~cols:400 ~density:0.02 in
  let a = Kernel.run_assemble kern ~inputs:[ (b, bt); (c, ct) ] ~dims:[| 400; 400 |] in
  let dims = Tensor.dims a and format = Tensor.format a and vals = Tensor.vals a in
  let levels = Array.init (Tensor.order a) (Tensor.level_data a) in
  Test.make ~name:"tensor/validate_csr"
    (Staged.stage (fun () -> ignore (Tensor.of_parts ~dims ~format ~levels ~vals)))

let run () =
  Harness.header "Bechamel micro-benchmarks (small fixed inputs)";
  let tests =
    Test.make_grouped ~name:"taco-workspaces" ~fmt:"%s %s"
      ([ make_spgemm_test (); make_spgemm_eigen_test () ]
      @ make_mttkrp_tests () @ make_addition_tests () @ [ make_validate_test () ]
      @ make_spgemm_tier1_test ())
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.3f ms/run" (t /. 1e6)
        | Some [] | None -> "(no estimate)"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "r²=%.4f" r
        | None -> ""
      in
      Printf.printf "%-45s %s %s\n" name est r2)
    (List.sort compare rows)
