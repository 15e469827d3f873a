(* Leave-one-out ablation of the Imp optimizer pipeline (Taco_lower.Opt)
   on the paper's workspace kernels, on every executor that runs them:
   the closures, native tier 1 (after Kernel.promote) and native tier 0
   (what a compile-cache miss builds, timed inside its tier-0 phase over
   fresh builds until each cell has Harness.tier0_min_runs runs); each
   executor is labelled by its flags (Harness.tier_label). The variants
   are no pass, the full pipeline, the full pipeline built again as a
   kernel of its own (the identical-kernel floor: how far two builds of
   the same code read apart), and the full pipeline minus each pass,
   which measures that pass's marginal worth. A pass earns its lines
   where removing it costs more than the floor. Every result is bit-identical to the
   closures' unoptimized one. Results go to stdout as one table per
   executor, times relative to "full", and to BENCH_opt.json.

   The [smoke] entry point is the @perf-smoke alias: one micro SpGEMM
   config, failing (exit 1) if the fully optimized kernel is slower
   than the unoptimized one. *)

open Taco

let floor = "full_again"

let variants =
  [
    ("none", Opt.none);
    ("full", Opt.all);
    (floor, Opt.all);
    ("full-simplify", { Opt.all with Opt.simplify = false });
    ("full-memset_fusion", { Opt.all with Opt.memset_fusion = false });
    ("full-branch_fusion", { Opt.all with Opt.branch_fusion = false });
    ("full-cse", { Opt.all with Opt.cse = false });
    ("full-licm", { Opt.all with Opt.licm = false });
  ]

(* The floor variant is renamed, so it is built on its own. *)
let prepare ?backend (w : Harness.workload) (name, opt) =
  Kernel.prepare ?backend ~opt (if name = floor then Harness.renamed w.w_info else w.w_info)

(* Best of batches over prepared kernels, in [variants] order; each
   result must be bit-identical to the first's. *)
let timed ?info ~reps ~workload (w : Harness.workload) kernels =
  Harness.best_of_batches ~reps ~workload ~equal:Harness.tensors_identical ?info
    (List.map2
       (fun (n, _) k -> (n, (fun () -> w.w_result k), fun () -> w.w_time k))
       variants kernels)

(* Native tier 0, in rounds interleaved across variants: the first
   round times the kernels [kns] themselves inside their tier-0 phase,
   checks them against [reference] and promotes them; each later round
   times a fresh renamed build of every variant still short of
   [Harness.tier0_min_runs] runs. A cell is its best run. *)
let tier0_records ~workload (w : Harness.workload) ~reference kns =
  let phase k =
    match Kernel.native_phases k with
    | Some p -> Harness.tier0_phase w k ~cc_ns:p.Native.cc_ns
    | None -> failwith (Printf.sprintf "%s: a native build was downgraded" w.w_name)
  in
  let cells =
    Array.of_list
      (List.map
         (fun k ->
           let best, runs = phase k in
           let agrees = Harness.tensors_identical reference (w.w_result k) in
           Kernel.promote k;
           if Kernel.native_tier k <> Some 1 then
             failwith (Printf.sprintf "%s: promotion to tier 1 failed" w.w_name);
           (best, runs, 1, agrees))
         kns)
  in
  let short (_, runs, _, _) = runs < Harness.tier0_min_runs in
  while Array.exists short cells do
    List.iteri
      (fun q (_, opt) ->
        if short cells.(q) then
          let best, runs, builds, agrees = cells.(q) in
          let t, n = phase (Kernel.prepare ~backend:`Native ~opt (Harness.renamed w.w_info)) in
          cells.(q) <- (Float.min best t, runs + n, builds + 1, agrees))
      variants
  done;
  List.mapi
    (fun q (variant, _) ->
      let time_s, reps, builds, agrees = cells.(q) in
      {
        Harness.workload;
        variant;
        estimator = "best_run";
        time_s;
        reps;
        agrees;
        info = [ ("builds", Report.Int builds) ];
      })
    variants

(* Each variant's time over "full"'s. *)
let relative records =
  let full = Harness.time_of records "full" in
  List.map (fun r -> (r.Harness.variant, r.Harness.time_s /. full)) records

(* One row per variant, one column per workload: "full" in
   milliseconds, every other variant relative to it. *)
let print_table title rows =
  Harness.row "\n%s (full in ms, the rest relative to full)" title;
  Harness.row "%-18s | %s" "variant"
    (String.concat " " (List.map (fun (name, _) -> Printf.sprintf "%11s" name) rows));
  List.iter
    (fun (variant, _) ->
      Harness.row "%-18s | %s" variant
        (String.concat " "
           (List.map
              (fun (_, records) ->
                if variant = "full" then Printf.sprintf "%11.3f" (1e3 *. Harness.time_of records "full")
                else Printf.sprintf "%11.3f" (List.assoc variant (relative records)))
              rows)))
    variants

let executors = [ "closure"; Harness.tier_label 1; Harness.tier_label 0 ]

(* One workload on every executor: its records by executor. *)
let run_workload ~reps (w : Harness.workload) =
  let workload e = w.w_name ^ "/" ^ e in
  (* GC work of the fully optimized closure kernel and the per-pass
     optimizer statistics go with the closures' "full" record. *)
  let full = Kernel.prepare ~opt:Opt.all w.w_info in
  let gc = Harness.gc_info (Harness.measure ~reps:(max 3 reps) (fun () -> w.w_time full)) in
  let extras = [ gc; ("pass_stats", Harness.pass_stats_json w.w_info) ] in
  let kcs = List.map (prepare w) variants in
  let closure =
    timed ~info:(function "full" -> extras | _ -> []) ~reps ~workload:(workload "closure") w kcs
  in
  let kns = List.map (prepare ~backend:`Native w) variants in
  if not (List.for_all (fun k -> Kernel.backend k = `Native) kns) then [ ("closure", closure) ]
  else
    let reference = w.w_result (List.hd kcs) in
    let t0 = Harness.tier_label 0 and t1 = Harness.tier_label 1 in
    let tier0 = tier0_records ~workload:(workload t0) w ~reference kns in
    let tier1 = timed ~reps ~workload:(workload t1) w kns in
    [ ("closure", closure); (t1, tier1); (t0, tier0) ]

let run ~seed ~reps ~dim ~out =
  Harness.header "Optimizer ablation: none, full, full again, and full minus each pass";
  let workloads = Harness.paper_workloads ~seed ~dim in
  let per_workload = List.map (fun w -> (w, run_workload ~reps w)) workloads in
  let by_executor e =
    List.filter_map
      (fun ((w : Harness.workload), rs) -> Option.map (fun r -> (w.w_name, r)) (List.assoc_opt e rs))
      per_workload
  in
  List.iter (fun e -> print_table e (by_executor e)) executors;
  let summary e =
    ( e,
      Report.Obj
        (List.map
           (fun (name, records) ->
             ( name,
               Report.Obj (List.map (fun (n, rel) -> (n, Report.Float rel)) (relative records)) ))
           (by_executor e)) )
  in
  Harness.report ~path:out ~bench:"opt_ablation" ~agreement:Harness.bit_identical
    ~config:
      [
        ("seed", Report.Int seed);
        ("reps", Report.Int reps);
        ("dim", Report.Int dim);
        ("tier0_min_runs", Report.Int Harness.tier0_min_runs);
        ("variants", Report.List (List.map (fun (n, _) -> Report.Str n) variants));
      ]
    ~summary:[ ("relative_to_full", Report.Obj (List.map summary executors)) ]
    (List.concat_map (fun (_, rs) -> List.concat_map snd rs) per_workload)

(* Tiny SpGEMM config for CI: the full pipeline must not lose to the
   unoptimized kernel. *)
let smoke () =
  let w = Harness.spgemm_workload ~seed:2019 ~dim:600 in
  let times =
    Harness.best_of_batches ~reps:5 ~workload:w.w_name ~equal:Harness.tensors_identical
      (List.map
         (fun (n, opt) ->
           let k = Kernel.prepare ~opt w.w_info in
           (n, (fun () -> w.w_result k), fun () -> w.w_time k))
         [ ("none", Opt.none); ("full", Opt.all) ])
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
