(* Closure executor vs the native C backend on the paper's workspace
   kernels (SpGEMM, SpAdd, MTTKRP). Each workload is prepared twice —
   once per backend — from the same lowered kernel and run on the same
   inputs; the bit-identity of the two results is a hard gate (the
   native build pins -ffp-contract=off exactly so this holds). The
   native kernel is timed at both compiler tiers, each labelled with its
   flags (Native.tier_flags): at tier 0, what a compile-cache miss
   builds, within the tier-0 phases of Harness.tier0_min_runs or more
   runs over fresh builds, then promoted to tier 1, built for the host's
   instruction set, and timed against the closures. Times go to stdout
   as a table and to BENCH_cbackend.json, one record per backend and
   tier, with the native build pipeline broken out per phase (emit /
   cc / dlopen) and the size of the C translation unit the cc phase
   compiled. Then the batch-cost curve: 1, 2, 4, 8 and 16 fresh kernels of
   the three, built at tier 0 singly and as one translation unit (one
   cc, one dlopen), the one-unit results bit-identical to the single
   builds'.

   The [smoke] entry point is the @cback-smoke alias: skipped cleanly
   (exit 0) when no C compiler is around; with one, a micro SpGEMM must
   build natively, match the closure result bit for bit at both tiers,
   count the same profile counters as the closures when profiled, and
   allocate per warm run at most [alloc_gate] times the words of the
   arrays it returns. *)

open Taco

(* --- allocation per warm run ------------------------------------------ *)

(* Words of a tensor's own arrays: vals on the heap (one header word)
   and the int32 pos and crd outside it, 4 bytes an element, 8 bytes a
   word. *)
let result_words t =
  let index a = float_of_int (4 * Taco_support.Ivec.length a) /. 8. in
  List.fold_left
    (fun acc l ->
      match Tensor.level_data t l with
      | Tensor.Dense_data _ -> acc
      | Tensor.Compressed_data { pos; crd } -> acc +. index pos +. index crd)
    (float_of_int (Array.length (Tensor.vals t) + 1))
    (List.init (Tensor.order t) Fun.id)

(* Words one warm wrapped run allocates, averaged over [runs] runs:
   major-heap words (direct allocations plus promotions), which
   [Gc.quick_stat] sees, plus the index arrays' out-of-heap bytes,
   which it does not ([taco_index_bytes_total]; the registry must be
   enabled), 8 bytes a word. *)
let words_per_run ?(runs = 20) (w : Harness.workload) k =
  ignore (w.w_result k : Tensor.t);
  let allocated () =
    (Gc.quick_stat ()).Gc.major_words
    +. (float_of_int (Metrics.counter "taco_index_bytes_total") /. 8.)
  in
  let before = allocated () in
  for _ = 1 to runs do
    ignore (w.w_result k : Tensor.t)
  done;
  (allocated () -. before) /. float_of_int runs

(* The smoke gate: a result read back at capacity, or copied twice,
   lands well above this. *)
let alloc_gate = 1.25

(* --- one workload, both backends -------------------------------------- *)

let phases_info (p : Native.phases) =
  [
    ("emit_ns", Report.Int (Int64.to_int p.Native.emit_ns));
    ("cc_ns", Report.Int (Int64.to_int p.Native.cc_ns));
    ("dlopen_ns", Report.Int (Int64.to_int p.Native.dlopen_ns));
  ]

(* The closure and native variants of a workload for best_of_batches:
   (name, wrapped result, raw run). *)
let variants (w : Harness.workload) kc kn =
  [
    ("closure", (fun () -> w.w_result kc), fun () -> w.w_time kc);
    ("native", (fun () -> w.w_result kn), fun () -> w.w_time kn);
  ]

(* Records: closures and tier 1 by best_of_batches, then tier 0
   (Harness.tier_label 0) by its best run inside the tier-0 phases of
   its builds. Each agrees when its result is bit-identical to the
   closures'. Prints the workload's table row; returns the records and,
   when the kernel ran natively, the tier-1 speedup. *)
let run_workload ~reps (w : Harness.workload) =
  let kc = Kernel.prepare w.w_info in
  let kn = Kernel.prepare ~backend:`Native w.w_info in
  let native_ok = Kernel.backend kn = `Native in
  let tier0, rn0 = Harness.promote_after_tier0 w kn in
  if native_ok && Kernel.native_tier kn <> Some 1 then
    failwith (Printf.sprintf "%s: promotion to tier 1 failed" w.w_name);
  let tier0_agrees = Harness.tensors_identical (w.w_result kc) rn0 in
  let alloc_ratio = words_per_run w kn /. result_words rn0 in
  let c_bytes = String.length (Codegen_c.emit_exec [ Kernel.imp kn ]) in
  let phases = Kernel.native_phases kn in
  let native_info =
    ("flags", Report.Str (Harness.tier_flags 1))
    :: ("native_backend", Report.Bool native_ok)
    :: ("alloc_per_result_word", Report.Float alloc_ratio)
    :: ("exec_c_bytes", Report.Int c_bytes)
    :: (match phases with Some p -> phases_info p | None -> [])
  in
  let records =
    Harness.best_of_batches ~reps ~workload:w.w_name ~equal:Harness.tensors_identical
      ~info:(function "native" -> native_info | _ -> [])
      (variants w kc kn)
  in
  let closure_s = Harness.time_of records "closure" in
  let native_s = Harness.time_of records "native" in
  let cc_ms (p : Native.phases) = Int64.to_float p.Native.cc_ns /. 1e6 in
  Harness.row "%-12s | %12.4f %12.4f %8.2fx %5s %8.2fx %8d %7.1f %12.4f %7.1f" w.w_name
    closure_s native_s (closure_s /. native_s)
    (if not (tier0_agrees && List.for_all (fun r -> r.Harness.agrees) records) then "DIFF"
     else if not native_ok then "degr"
     else "bit=")
    alloc_ratio c_bytes
    (match phases with Some p -> cc_ms p | None -> Float.nan)
    (match tier0 with Some (_, (t, _, _)) -> t | None -> Float.nan)
    (match tier0 with Some (p, _) -> cc_ms p | None -> Float.nan);
  let tier0_records =
    match tier0 with
    | None -> []
    | Some (p, (best, runs, builds)) ->
        [
          {
            Harness.workload = w.w_name;
            variant = Harness.tier_label 0;
            estimator = "best_run";
            time_s = best;
            reps = runs;
            agrees = tier0_agrees;
            info =
              ("flags", Report.Str (Harness.tier_flags 0))
              :: ("builds", Report.Int builds)
              :: phases_info p;
          };
        ]
  in
  (records @ tier0_records, if native_ok then Some (closure_s /. native_s) else None)

(* --- batch-cost curve ----------------------------------------------------- *)

(* Kernels per translation unit on the curve. The service's batch cap
   (Service.batch_cap, 8) is read off it: 16 shows what a larger cap
   would buy. *)
let curve_sizes = [ 1; 2; 4; 8; 16 ]

(* [n] fresh kernels cycling through the workloads (the service
   benchmark's SpGEMM/SpAdd/MTTKRP mix), built as one batch — one
   translation unit, one cc — or as [n] batches of one. Builds are at
   tier 0, the only tier anything builds a batch at. *)
let build_curve ~batched (ws : Harness.workload list) n =
  let requests =
    List.init n (fun i ->
        Kernel.request ~backend:`Native (Harness.renamed (List.nth ws (i mod List.length ws)).w_info))
  in
  let prepared =
    if batched then Kernel.prepare_batch requests
    else List.concat_map (fun r -> Kernel.prepare_batch [ r ]) requests
  in
  List.map
    (function
      | Ok k when Kernel.backend k = `Native -> k
      | Ok _ -> failwith "batch curve: a native build was downgraded"
      | Error d -> failwith ("batch curve: " ^ Diag.to_string d))
    prepared

(* Records per size: the builds timed singly and as one unit, each cell
   the median of [reps] interleaved builds with its quartiles, the
   one-unit kernels' results checked bit for bit against the single
   builds'. *)
let batch_curve ~reps (ws : Harness.workload list) =
  Harness.row "\n%-8s | %22s %22s %8s %14s" "kernels" "singly(ms) [q1-q3]"
    "one unit(ms) [q1-q3]" "ratio" "per kernel(ms)";
  List.concat_map
    (fun n ->
      let results batched =
        List.mapi
          (fun i k -> (List.nth ws (i mod List.length ws)).w_result k)
          (build_curve ~batched ws n)
      in
      let variant name batched =
        (name, (fun () -> results batched), fun () -> ignore (build_curve ~batched ws n))
      in
      let records =
        Harness.median_quartiles ~reps
          ~workload:(Printf.sprintf "cc_batch_n%d" n)
          ~equal:(List.for_all2 Harness.tensors_identical)
          ~info:(fun _ -> [ ("kernels", Report.Int n) ])
          [ variant "singly" false; variant "one_unit" true ]
      in
      let cell v =
        let r = List.find (fun (r : Harness.record) -> r.variant = v) records in
        let q k = match List.assoc k r.info with Report.Float x -> x *. 1e3 | _ -> nan in
        (r.time_s *. 1e3, Printf.sprintf "%.1f [%.1f-%.1f]" (r.time_s *. 1e3) (q "q1_s") (q "q3_s"))
      in
      let singly, singly_s = cell "singly" and one, one_s = cell "one_unit" in
      Harness.row "%-8d | %22s %22s %7.2fx %14.1f" n singly_s one_s (singly /. one)
        (one /. float_of_int n);
      records)
    curve_sizes

let run ~seed ~reps ~dim ~out =
  Harness.header "C backend: closure executor vs gcc-compiled shared objects";
  (* The backend_stats summary reads the metrics registry. *)
  Metrics.enable ();
  let cc = Native.compiler () in
  let available = Native.available () in
  Printf.printf "compiler: %s (%s); tier 0: %s, tier 1: %s\n\n" cc
    (if available then "available" else "NOT available - native runs degrade to closures")
    (Harness.tier_flags 0) (Harness.tier_flags 1);
  let workloads = Harness.paper_workloads ~seed ~dim in
  Harness.row "%-12s | %12s %12s %9s %5s %9s %8s %7s %12s %7s" "kernel" "closure(s)"
    "native(s)" "speedup" "ok" "alloc/res" "C bytes" "cc(ms)" "t0 run(s)" "t0 cc";
  let per_workload = List.map (run_workload ~reps) workloads in
  let speedups = List.filter_map snd per_workload in
  let curve = if available then batch_curve ~reps workloads else [] in
  (match speedups with
  | [] -> print_endline "\nno native runs (compiler unavailable); no geomean"
  | _ ->
      Printf.printf "\nnative geomean speedup = %.2fx over %d kernels\n%!"
        (Harness.geomean speedups) (List.length speedups));
  let stats = Compile.backend_stats () in
  Harness.report ~path:out ~bench:"cbackend" ~agreement:Harness.bit_identical
    ~config:
      [
        ("seed", Report.Int seed);
        ("reps", Report.Int reps);
        ("dim", Report.Int dim);
        ( "compiler",
          Report.Obj [ ("command", Report.Str cc); ("available", Report.Bool available) ] );
        ("tier0_min_runs", Report.Int Harness.tier0_min_runs);
      ]
    ~summary:
      [
        ( "geomean_native_speedup",
          match speedups with [] -> Report.Null | s -> Report.Float (Harness.geomean s) );
        ( "backend_stats",
          Report.Obj
            [
              ("native_builds", Report.Int stats.Compile.native_builds);
              ("native_runs", Report.Int stats.Compile.native_runs);
              ("closure_runs", Report.Int stats.Compile.closure_runs);
              ("downgrades", Report.Int stats.Compile.downgrades);
            ] );
      ]
    (List.concat_map fst per_workload @ curve)

(* CI gate: build one native kernel and hold it to bit-identity. Exits
   0 without a compiler — machines without gcc must stay green. *)
let smoke () =
  Harness.header "C backend smoke (build one kernel natively, assert bit-identity)";
  (* The allocation gate reads taco_index_bytes_total. *)
  Metrics.enable ();
  if not (Native.available ()) then begin
    Printf.printf "cback-smoke skipped: C compiler %S unavailable\n%!" (Native.compiler ());
    exit 0
  end;
  let w = Harness.spgemm_workload ~seed:2019 ~dim:400 in
  let kc = Kernel.prepare w.w_info in
  let kn = Kernel.prepare ~backend:`Native w.w_info in
  if Kernel.backend kn <> `Native then begin
    Taco_support.Obs.Log.err (fun m ->
        m "cback-smoke FAILED: compiler present but native build was downgraded");
    exit 1
  end;
  let rn0 = w.w_result kn in
  Kernel.promote kn;
  if Kernel.native_tier kn <> Some 1 then begin
    Taco_support.Obs.Log.err (fun m -> m "cback-smoke FAILED: promotion to tier 1 failed");
    exit 1
  end;
  let rn = w.w_result kn in
  if not (Harness.tensors_identical rn0 rn) then begin
    Taco_support.Obs.Log.err (fun m ->
        m "cback-smoke FAILED: the tier-1 result diverges from the tier-0 build");
    exit 1
  end;
  Printf.printf "cback-smoke spgemm_ws: tier 1 (%s) bit-identical to tier 0 (%s)\n%!"
    (Harness.tier_flags 1) (Harness.tier_flags 0);
  let times =
    Harness.best_of_batches ~reps:3 ~workload:w.w_name ~equal:Harness.tensors_identical
      (variants w kc kn)
  in
  let identical = List.for_all (fun r -> r.Harness.agrees) times in
  let closure_s = Harness.time_of times "closure" and native_s = Harness.time_of times "native" in
  Printf.printf "cback-smoke spgemm_ws: closure %.4fs, native %.4fs (%.2fx), %s\n%!" closure_s
    native_s (closure_s /. native_s)
    (if identical then "bit-identical" else "DIVERGED");
  if not identical then begin
    Taco_support.Obs.Log.err (fun m ->
        m "cback-smoke FAILED: native result diverges from the closure executor");
    exit 1
  end;
  (* Profiled, both backends run the same instrumented kernel, so their
     counters must agree exactly. *)
  let counters backend =
    let k = Kernel.prepare ~profile:true ~backend w.w_info in
    ignore (w.w_result k : Tensor.t);
    (Kernel.backend k, Kernel.profile_stats k)
  in
  let _, pc = counters `Closure and pbk, pn = counters `Native in
  (match pc with
  | Some s when pbk = `Native && pn = pc ->
      Printf.printf
        "cback-smoke spgemm_ws: profiled native counters equal the closure's (%d iterations)\n%!"
        s.Compile.iterations
  | _ ->
      Taco_support.Obs.Log.err (fun m ->
          m "cback-smoke FAILED: profiled native counters differ from the closure's");
      exit 1);
  let words = words_per_run w kn and res = result_words rn in
  Printf.printf
    "cback-smoke spgemm_ws native: %.0f words (major heap and index arrays) per warm run, \
     result %.0f words (%.2fx, gate %.2fx)\n%!"
    words res (words /. res) alloc_gate;
  if words > alloc_gate *. res then begin
    Taco_support.Obs.Log.err (fun m ->
        m "cback-smoke FAILED: native read-back allocates %.2fx the result's words"
          (words /. res));
    exit 1
  end
