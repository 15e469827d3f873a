(* Ablation of the Imp optimizer pipeline (Taco_lower.Opt): each paper
   workspace kernel is timed with no optimization, with each pass
   enabled alone, and with the full pipeline, attributing speedup per
   pass. Every variant's result must be bit-identical to the
   unoptimized one. Results go to stdout as a table and to
   BENCH_opt.json for machine consumption.

   The [smoke] entry point is the @perf-smoke alias: one micro SpGEMM
   config, failing (exit 1) if the fully optimized kernel is slower
   than the unoptimized one. *)

open Taco

let variants =
  [
    ("none", Opt.none);
    ("simplify", { Opt.none with Opt.simplify = true });
    ("memset_fusion", { Opt.none with Opt.memset_fusion = true });
    ("while_to_for", { Opt.none with Opt.while_to_for = true });
    ("branch_fusion", { Opt.none with Opt.branch_fusion = true });
    ("cse", { Opt.none with Opt.cse = true });
    ("licm", { Opt.none with Opt.licm = true });
    ("dce", { Opt.none with Opt.dce = true });
    ("full", Opt.all);
  ]

(* One workload: a lowered kernel plus runners for a prepared kernel
   (the preparation — and thus the optimizer configuration — is the
   variable; inputs stay fixed): [w_run] for the clock, [w_result] for
   the agreement check. *)
type workload = {
  w_name : string;
  w_info : Lower.kernel_info;
  w_run : Kernel.t -> unit;
  w_result : Kernel.t -> Tensor.t;
}

let fused = Lower.Assemble { emit_values = true; sorted = true }

let spgemm_workload ~seed ~dim =
  let stmt, b, c = Harness.spgemm_stmt () in
  let info = Harness.get (Lower.lower ~name:"spgemm_ws" ~mode:fused stmt) in
  let bt = Inputs.uniform_matrix ~seed ~rows:dim ~cols:dim ~density:(32. /. float_of_int dim) in
  let ct = Inputs.uniform_matrix ~seed:(seed + 1) ~rows:dim ~cols:dim ~density:(32. /. float_of_int dim) in
  let inputs = [ (b, bt); (c, ct) ] and dims = [| dim; dim |] in
  {
    w_name = "spgemm_ws";
    w_info = info;
    w_run = (fun k -> Kernel.run_assemble_raw k ~inputs ~dims);
    w_result = (fun k -> Kernel.run_assemble k ~inputs ~dims);
  }

let spadd_workload ~seed ~dim =
  let ops = Harness.addition_vars 2 in
  let stmt = Harness.addition_merge_stmt ops in
  let name = "spadd_merge" in
  let info = Harness.get (Lower.lower ~name ~mode:fused stmt) in
  let inputs = List.combine ops (Inputs.addition_operands ~seed ~n:2 ~dim) in
  let dims = [| dim; dim |] in
  {
    w_name = name;
    w_info = info;
    w_run = (fun k -> Kernel.run_assemble_raw k ~inputs ~dims);
    w_result = (fun k -> Kernel.run_assemble k ~inputs ~dims);
  }

let mttkrp_workload ~seed ~dim =
  let stmt, b, c, d = Harness.mttkrp_sched ~use_workspace:true in
  let info = Harness.get (Lower.lower ~name:"mttkrp_ws" ~mode:Lower.Compute stmt) in
  let prng = Taco_support.Prng.create seed in
  let bt =
    Gen.random_density prng ~dims:[| dim; dim / 2; dim / 2 |]
      ~density:(32. /. float_of_int (dim * dim)) (Format.csf 3)
  in
  let cols = 32 in
  let ct = Inputs.dense_factor ~seed:(seed + 1) ~rows:(dim / 2) ~cols in
  let dt = Inputs.dense_factor ~seed:(seed + 2) ~rows:(dim / 2) ~cols in
  let inputs = [ (b, bt); (c, ct); (d, dt) ] and dims = [| dim; cols |] in
  {
    w_name = "mttkrp_ws";
    w_info = info;
    w_run = (fun k -> ignore (Kernel.run_dense k ~inputs ~dims : Tensor.t));
    w_result = (fun k -> Kernel.run_dense k ~inputs ~dims);
  }

(* Every variant's result must be bit-identical to the first's (the
   optimizer's exact-bits contract), then all are timed together. *)
let ablate ?(variants = variants) ?info ~reps w =
  Harness.best_of_batches ~reps ~workload:w.w_name ~equal:Harness.tensors_identical ?info
    (List.map
       (fun (n, cfg) ->
         let k = Kernel.prepare ~opt:cfg w.w_info in
         (n, (fun () -> w.w_result k), fun () -> w.w_run k))
       variants)

let run ~seed ~reps ~dim ~out =
  Harness.header "Optimizer ablation: unoptimized vs per-pass vs full pipeline";
  let workloads =
    [
      spgemm_workload ~seed ~dim;
      spadd_workload ~seed ~dim:(dim * 5);
      mttkrp_workload ~seed ~dim;
    ]
  in
  Harness.row "%-12s | %s %9s" "kernel"
    (String.concat " "
       (List.map (fun (n, _) -> Printf.sprintf "%13s" (n ^ "(s)")) variants))
    "speedup";
  let per_workload =
    List.map
      (fun w ->
        (* GC work of the fully optimized kernel (prepared again by
           [ablate] — the kernel cache makes that a hit) and the
           per-pass optimizer statistics go with the "full" record. *)
        let full = Kernel.prepare ~opt:Opt.all w.w_info in
        let gc = Harness.gc_info (Harness.measure ~reps:(max 3 reps) (fun () -> w.w_run full)) in
        let extras = [ gc; ("pass_stats", Harness.pass_stats_json w.w_info) ] in
        let records = ablate ~info:(function "full" -> extras | _ -> []) ~reps w in
        let speedup = Harness.time_of records "none" /. Harness.time_of records "full" in
        Harness.row "%-12s | %s %8.2fx" w.w_name
          (String.concat " "
             (List.map (fun r -> Printf.sprintf "%13.4f" r.Harness.time_s) records))
          speedup;
        (records, speedup))
      workloads
  in
  let geomean = Harness.geomean (List.map snd per_workload) in
  Printf.printf "\nfull-pipeline geomean speedup = %.2fx\n%!" geomean;
  Harness.report ~path:out ~bench:"opt_ablation" ~agreement:Harness.bit_identical
    ~config:
      [
        ("seed", Report.Int seed);
        ("reps", Report.Int reps);
        ("dim", Report.Int dim);
        ("variants", Report.List (List.map (fun (n, _) -> Report.Str n) variants));
      ]
    ~summary:
      [
        ( "full_speedup",
          Report.Obj
            (List.map2
               (fun w (_, s) -> (w.w_name, Report.Float s))
               workloads per_workload) );
        ("geomean_full_speedup", Report.Float geomean);
      ]
    (List.concat_map fst per_workload)

(* Tiny SpGEMM config for CI: the full pipeline must not lose to the
   unoptimized kernel. *)
let smoke () =
  let w = spgemm_workload ~seed:2019 ~dim:600 in
  let times =
    ablate ~variants:[ ("none", Opt.none); ("full", Opt.all) ] ~reps:5 w
  in
  Harness.report ~bench:"perf-smoke" ~agreement:Harness.bit_identical ~config:[] times;
  let t_none = Harness.time_of times "none" in
  let t_full = Harness.time_of times "full" in
  Printf.printf "perf-smoke spgemm_ws: unoptimized %.4fs, optimized %.4fs (%.2fx)\n%!"
    t_none t_full (t_none /. t_full);
  if t_full > t_none then begin
    Taco_support.Obs.Log.err (fun m ->
        m "perf-smoke FAILED: optimized kernel is slower than unoptimized (%.4fs > %.4fs)"
          t_full t_none);
    exit 1
  end
