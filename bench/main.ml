(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (§VIII). See DESIGN.md for the per-experiment index and
   EXPERIMENTS.md for recorded paper-vs-measured results.

   Usage:
     dune exec bench/main.exe                 # everything, default scales
     dune exec bench/main.exe -- fig11        # one experiment
     dune exec bench/main.exe -- fig11 --scale 16 --reps 1
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 2019 & info [ "seed" ] ~doc:"PRNG seed for all synthetic inputs.")

let scale_arg =
  Arg.(
    value & opt int 8
    & info [ "scale" ]
        ~doc:"Divide Table I matrix dimensions by this factor (nnz by its square).")

let tensor_scale_arg =
  Arg.(
    value & opt int 2
    & info [ "tensor-scale" ]
        ~doc:"Extra scaling of the FROSTT stand-ins (dims / s, nnz / s^2).")

let reps_arg =
  Arg.(value & opt int 3 & info [ "reps" ] ~doc:"Repetitions per measurement (median).")

let add_dim_arg =
  Arg.(
    value & opt int 4000
    & info [ "add-dim" ] ~doc:"Matrix dimension for the Fig. 13 addition chains.")

let json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Also write the raw measurements (wall clock, GC work) as JSON to PATH.")

let table1_cmd =
  let run seed scale tensor_scale = Table1.run ~seed ~scale ~tensor_scale in
  Cmd.v (Cmd.info "table1" ~doc:"Print the Table I input inventory.")
    Term.(const run $ seed_arg $ scale_arg $ tensor_scale_arg)

let fig11_cmd =
  let run seed scale reps json = Fig11.run ?json ~seed ~scale ~reps () in
  Cmd.v (Cmd.info "fig11" ~doc:"SpGEMM vs Eigen-like and MKL-like baselines.")
    Term.(const run $ seed_arg $ scale_arg $ reps_arg $ json_arg)

let fig12left_cmd =
  let run seed tensor_scale reps json = Fig12.left ?json ~seed ~scale:tensor_scale ~reps () in
  Cmd.v (Cmd.info "fig12left" ~doc:"MTTKRP with dense output vs SPLATT-like baseline.")
    Term.(const run $ seed_arg $ tensor_scale_arg $ reps_arg $ json_arg)

let fig12right_cmd =
  let run seed tensor_scale reps json = Fig12.right ?json ~seed ~scale:tensor_scale ~reps () in
  Cmd.v
    (Cmd.info "fig12right" ~doc:"MTTKRP sparse vs dense output across operand densities.")
    Term.(const run $ seed_arg $ tensor_scale_arg $ reps_arg $ json_arg)

let fig13_cmd =
  let run seed dim reps json = Fig13.run ?json ~seed ~dim ~reps () in
  Cmd.v (Cmd.info "fig13" ~doc:"Chained sparse matrix additions.")
    Term.(const run $ seed_arg $ add_dim_arg $ reps_arg $ json_arg)

let ablation_cmd =
  let run seed scale reps =
    Ablation.run ~seed ~scale ~reps;
    Ablation.tiling ~seed ~reps;
    Ablation.inner_vs_gustavson ~seed ~reps
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Design-choice ablations: hash vs dense workspace, result reuse, sorting.")
    Term.(const run $ seed_arg $ scale_arg $ reps_arg)

let micro_cmd =
  Cmd.v (Cmd.info "micro" ~doc:"Bechamel micro-benchmarks of the individual kernels.")
    Term.(const Micro.run $ const ())

let cback_dim_arg =
  Arg.(
    value & opt int 1000
    & info [ "dim" ] ~doc:"Base matrix dimension for the backend-comparison workloads.")

let cback_reps_arg =
  Arg.(
    value & opt int 7
    & info [ "reps" ]
        ~doc:"Repetitions per measurement (best of batches; the batch-cost curve reports their median and quartiles).")

let cback_out_arg =
  Arg.(
    value & opt string "BENCH_cbackend.json"
    & info [ "out" ] ~doc:"Where to write the machine-readable backend comparison.")

let cback_smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "CI mode: one micro SpGEMM built natively, exit 1 if the result is not \
           bit-identical to the closure executor or a warm native run allocates \
           more than 1.25x the result's words on the major heap (exit 0 with no C \
           compiler). Writes no JSON.")

let cbackend_cmd =
  let run seed reps dim out smoke =
    if smoke then Cbackend.smoke () else Cbackend.run ~seed ~reps ~dim ~out
  in
  Cmd.v
    (Cmd.info "cbackend"
       ~doc:
         "Closure executor vs the native C backend (kernels compiled to shared objects \
          with the system compiler) on the paper's workspace kernels, with a hard \
          bit-identity gate.")
    Term.(const run $ seed_arg $ cback_reps_arg $ cback_dim_arg $ cback_out_arg
          $ cback_smoke_arg)

let autosched_dim_arg =
  Arg.(
    value & opt int 1000
    & info [ "dim" ] ~doc:"Base matrix dimension for the autoscheduler workloads.")

let autosched_reps_arg =
  Arg.(
    value & opt int 5
    & info [ "reps" ] ~doc:"Repetitions per measurement (median).")

let autosched_out_arg =
  Arg.(
    value & opt string "BENCH_autoschedule.json"
    & info [ "out" ] ~doc:"Where to write the machine-readable plan comparison.")

let autosched_smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "CI mode: one micro SpGEMM, exit 1 if the cost-chosen plan is estimated \
           costlier than the breadth-first plan or its result diverges. Writes no JSON.")

let autosched_cmd =
  let run seed reps dim out smoke =
    if smoke then Autosched_bench.smoke () else Autosched_bench.run ~seed ~reps ~dim ~out
  in
  Cmd.v
    (Cmd.info "autosched"
       ~doc:
         "Cost-based autoscheduler vs the breadth-first policy on unscheduled \
          statements (SpGEMM, SpMV over CSC, MTTKRP, 3-matrix chain), with real \
          per-tensor statistics driving the cost model and a result-identity gate.")
    Term.(const run $ seed_arg $ autosched_reps_arg $ autosched_dim_arg
          $ autosched_out_arg $ autosched_smoke_arg)

let graph_nodes_arg =
  Arg.(
    value & opt int 1500
    & info [ "nodes" ] ~doc:"Node count of the random benchmark graphs (average degree ~8).")

let graph_reps_arg =
  Arg.(
    value & opt int 5 & info [ "reps" ] ~doc:"Repetitions per measurement (best of batches).")

let graph_out_arg =
  Arg.(
    value & opt string "BENCH_graph.json"
    & info [ "out" ] ~doc:"Where to write the machine-readable workload results.")

let graph_cmd =
  let run seed reps nodes out = Graph.run ~seed ~reps ~nodes ~out in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Graph workloads (PageRank, BFS, Bellman-Ford, triangle counting) built on \
          semiring-generalized kernels iterated to fixpoint, closure executor vs the \
          native C backend, with a bit-identity gate between the two.")
    Term.(const run $ seed_arg $ graph_reps_arg $ graph_nodes_arg $ graph_out_arg)

let par_max_domains_arg =
  Arg.(
    value & opt int 4
    & info [ "max-domains" ] ~doc:"Sweep chunk-domain counts 1..N for the parallel kernels.")

let par_out_arg =
  Arg.(
    value & opt string "BENCH_parallel.json"
    & info [ "out" ] ~doc:"Where to write the machine-readable scaling results.")

let par_smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "CI mode: tiny inputs, a 2-domain sweep, exit 1 if any chunked run diverges \
           from the sequential one. Writes no JSON.")

let par_cmd =
  let run seed scale reps max_domains out smoke =
    if smoke then Parallel_scaling.smoke ()
    else Parallel_scaling.run ~seed ~scale ~reps ~max_domains ~out
  in
  Cmd.v
    (Cmd.info "par"
       ~doc:
         "Scaling sweep of the parallelize-scheduled kernels over OCaml domains, with \
          per-point bit-identity checks against the sequential run.")
    Term.(const run $ seed_arg $ scale_arg $ reps_arg $ par_max_domains_arg $ par_out_arg
          $ par_smoke_arg)

let all ~seed ~scale ~tensor_scale ~reps ~add_dim =
  Table1.run ~seed ~scale ~tensor_scale;
  Fig11.run ~seed ~scale ~reps ();
  Fig12.left ~seed ~scale:tensor_scale ~reps ();
  Fig12.right ~seed ~scale:tensor_scale ~reps ();
  Fig13.run ~seed ~dim:add_dim ~reps ()

let all_cmd =
  let run seed scale tensor_scale reps add_dim =
    all ~seed ~scale ~tensor_scale ~reps ~add_dim
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment (the default).")
    Term.(const run $ seed_arg $ scale_arg $ tensor_scale_arg $ reps_arg $ add_dim_arg)

let default =
  let run seed scale tensor_scale reps add_dim =
    all ~seed ~scale ~tensor_scale ~reps ~add_dim
  in
  Term.(const run $ seed_arg $ scale_arg $ tensor_scale_arg $ reps_arg $ add_dim_arg)

let () =
  Taco_support.Obs.setup ();
  let info =
    Cmd.info "taco-workspaces-bench"
      ~doc:"Reproduce the evaluation of 'Tensor Algebra Compilation with Workspaces'."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            table1_cmd;
            fig11_cmd;
            fig12left_cmd;
            fig12right_cmd;
            fig13_cmd;
            ablation_cmd;
            cbackend_cmd;
            autosched_cmd;
            graph_cmd;
            par_cmd;
            micro_cmd;
            all_cmd;
          ]))
