(* Closure executor vs the native C backend on the paper's workspace
   kernels (SpGEMM, SpAdd, MTTKRP). Each workload is prepared twice —
   once per backend — from the same lowered kernel and run on the same
   inputs; the bit-identity of the two results is a hard gate (the
   native build pins -ffp-contract=off exactly so this holds). The
   native kernel is timed at both compiler tiers: at tier 0 (-O0, what
   a compile-cache miss builds) within its tier-0 phase, then promoted
   to tier 1 (-O3) and timed against the closures. Times go to stdout
   as a table and to BENCH_cbackend.json, with the native build
   pipeline broken out per phase (emit / cc / dlopen / run), the cc and
   run times of each tier, and the size of the C translation unit the
   cc phase compiled.

   The [smoke] entry point is the @cback-smoke alias: skipped cleanly
   (exit 0) when no C compiler is around; with one, a micro SpGEMM must
   build natively, match the closure result bit for bit at both tiers,
   count the same profile counters as the closures when profiled, and
   allocate on the major heap per warm run at most [alloc_gate] times
   the words of the arrays it returns. *)

open Taco

type workload = {
  w_name : string;
  w_info : Lower.kernel_info;
  w_time : Kernel.t -> unit;  (* raw runner for the clock *)
  w_result : Kernel.t -> Tensor.t;  (* wrapped runner for the identity gate *)
}

let fused = Lower.Assemble { emit_values = true; sorted = true }

let spgemm_workload ~seed ~dim =
  let stmt, b, c = Harness.spgemm_stmt () in
  let info = Harness.get (Lower.lower ~name:"spgemm_ws" ~mode:fused stmt) in
  let density = 32. /. float_of_int dim in
  let bt = Inputs.uniform_matrix ~seed ~rows:dim ~cols:dim ~density in
  let ct = Inputs.uniform_matrix ~seed:(seed + 1) ~rows:dim ~cols:dim ~density in
  let inputs = [ (b, bt); (c, ct) ] in
  let dims = [| dim; dim |] in
  {
    w_name = "spgemm_ws";
    w_info = info;
    w_time = (fun k -> Kernel.run_assemble_raw k ~inputs ~dims);
    w_result = (fun k -> Kernel.run_assemble k ~inputs ~dims);
  }

let spadd_workload ~seed ~dim =
  let ops = Harness.addition_vars 2 in
  let stmt = Harness.addition_merge_stmt ops in
  let info = Harness.get (Lower.lower ~name:"spadd_merge" ~mode:fused stmt) in
  let inputs = List.combine ops (Inputs.addition_operands ~seed ~n:2 ~dim) in
  let dims = [| dim; dim |] in
  {
    w_name = "spadd_merge";
    w_info = info;
    w_time = (fun k -> Kernel.run_assemble_raw k ~inputs ~dims);
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
  let inputs = [ (b, bt); (c, ct); (d, dt) ] in
  let dims = [| dim; cols |] in
  {
    w_name = "mttkrp_ws";
    w_info = info;
    w_time = (fun k -> ignore (Kernel.run_dense k ~inputs ~dims : Tensor.t));
    w_result = (fun k -> Kernel.run_dense k ~inputs ~dims);
  }

(* --- bit identity ---------------------------------------------------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun q x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(q) then ok := false)
        a;
      !ok)

let tensors_identical t1 t2 =
  Tensor.dims t1 = Tensor.dims t2
  && Tensor.nnz t1 = Tensor.nnz t2
  && bits_equal (Tensor.vals t1) (Tensor.vals t2)

(* --- allocation per warm run ------------------------------------------ *)

(* Heap words of a tensor's own arrays (pos, crd, vals; one header
   word each). *)
let result_words t =
  let words a = float_of_int (Array.length a + 1) in
  List.fold_left
    (fun acc l ->
      match Tensor.level_data t l with
      | Tensor.Dense_data _ -> acc
      | Tensor.Compressed_data { pos; crd } -> acc +. words pos +. words crd)
    (words (Tensor.vals t))
    (List.init (Tensor.order t) Fun.id)

(* Major-heap words (direct allocations plus promotions) one warm
   wrapped run allocates, averaged over [runs] runs. *)
let major_words_per_run ?(runs = 20) w k =
  ignore (w.w_result k : Tensor.t);
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to runs do
    ignore (w.w_result k : Tensor.t)
  done;
  ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int runs

(* The smoke gate: a result read back at capacity, or copied twice,
   lands well above this. *)
let alloc_gate = 1.25

(* --- timing ----------------------------------------------------------- *)

(* Best-of-[reps] over ~60ms batches with the backends interleaved
   round-robin, same estimator as the optimizer ablation: noise is
   strictly additive and interleaving keeps a sustained slow phase from
   landing on one backend. *)
let time_backends ~reps w kerns =
  Gc.compact ();
  let t0 =
    List.fold_left
      (fun acc (_, k) ->
        let _, t = Taco_support.Util.time (fun () -> w.w_time k) in
        Float.max acc t)
      1e-6 kerns
  in
  let batch = max 1 (int_of_float (0.06 /. t0)) in
  let run_batch k =
    Gc.full_major ();
    let _, t =
      Taco_support.Util.time (fun () ->
          for _ = 1 to batch do
            w.w_time k
          done)
    in
    t /. float_of_int batch
  in
  let best = Array.make (List.length kerns) infinity in
  for _ = 1 to max 1 reps do
    List.iteri (fun q (_, k) -> best.(q) <- Float.min best.(q) (run_batch k)) kerns
  done;
  List.mapi (fun q (n, _) -> (n, best.(q))) kerns

(* Best single run of a kernel still at tier 0, sampled only inside its
   tier-0 phase: sampling stops before the runs' total could reach the
   kernel's tier-0 cc time, the break-even at which it tiers up. *)
let time_tier0 w k ~cc_s =
  let rec go ~best ~worst ~total =
    if Kernel.native_tier k <> Some 0 || (total > 0. && total +. worst > cc_s) then best
    else
      let _, t = Taco_support.Util.time (fun () -> w.w_time k) in
      go ~best:(Float.min best t) ~worst:(Float.max worst t) ~total:(total +. t)
  in
  go ~best:infinity ~worst:0. ~total:0.

(* The native kernel's tier-0 numbers, its tier-0 result, and then the
   kernel promoted to tier 1. *)
let promote_after_tier0 w k =
  let phases = Kernel.native_phases k in
  let run_s =
    Option.map (fun p -> time_tier0 w k ~cc_s:(Int64.to_float p.Native.cc_ns /. 1e9)) phases
  in
  let result = w.w_result k in
  Kernel.promote k;
  (phases, run_s, result)

(* --- one workload, both backends -------------------------------------- *)

type row = {
  r_name : string;
  r_closure_s : float;
  r_native_s : float;  (* tier 1 *)
  r_native_backend : bool;  (* false: the `Native request was downgraded *)
  r_identical : bool;  (* closures, tier 0 and tier 1 agree bit for bit *)
  r_phases : Native.phases option;  (* tier 1 *)
  r_tier0 : (Native.phases * float) option;  (* tier-0 build phases and best run *)
  r_c_bytes : int;  (* size of the exec C the native build compiled *)
  r_alloc_ratio : float;  (* native major words per warm run / result words *)
}

let run_workload ~reps w =
  let kc = Kernel.prepare w.w_info in
  let kn = Kernel.prepare ~backend:`Native w.w_info in
  let native_ok = Kernel.backend kn = `Native in
  let phases0, run0_s, rn0 = promote_after_tier0 w kn in
  if native_ok && Kernel.native_tier kn <> Some 1 then
    failwith (Printf.sprintf "%s: promotion to tier 1 failed" w.w_name);
  let rn = w.w_result kn in
  let identical = tensors_identical (w.w_result kc) rn && tensors_identical rn0 rn in
  let times = time_backends ~reps w [ ("closure", kc); ("native", kn) ] in
  {
    r_name = w.w_name;
    r_closure_s = List.assoc "closure" times;
    r_native_s = List.assoc "native" times;
    r_native_backend = native_ok;
    r_identical = identical;
    r_phases = Kernel.native_phases kn;
    r_tier0 = Option.bind phases0 (fun p -> Option.map (fun t -> (p, t)) run0_s);
    r_c_bytes = String.length (Codegen_c.emit_exec (Kernel.imp kn));
    r_alloc_ratio = major_words_per_run w kn /. result_words rn;
  }

let row_json r =
  let measurement backend_name t =
    Report.Obj
      ([
         Report.backend_field backend_name;
         ("best_s", Report.Float t);
       ]
      @
      if backend_name = "native" then
        match r.r_phases with
        | Some p ->
            [
              Report.phases_field ~emit_ns:p.Native.emit_ns ~cc_ns:p.Native.cc_ns
                ~dlopen_ns:p.Native.dlopen_ns
                ~run_ns:(Int64.of_float (t *. 1e9));
              ("exec_c_bytes", Report.Int r.r_c_bytes);
              ( "tiers",
                Report.List
                  (List.map
                     (fun (tier, (p : Native.phases), run_s) ->
                       Report.Obj
                         [
                           ("tier", Report.Int tier);
                           ("cc_ms", Report.Float (Int64.to_float p.Native.cc_ns /. 1e6));
                           ("run_s", Report.Float run_s);
                         ])
                     ((match r.r_tier0 with Some (p0, t0) -> [ (0, p0, t0) ] | None -> [])
                     @ [ (1, p, t) ])) );
            ]
        | None -> [ ("downgraded", Report.Bool true) ]
      else [])
  in
  Report.Obj
    [
      ("name", Report.Str r.r_name);
      ( "measurements",
        Report.List
          [ measurement "closure" r.r_closure_s; measurement "native" r.r_native_s ] );
      ("speedup_native", Report.Float (r.r_closure_s /. r.r_native_s));
      ("bit_identical", Report.Bool r.r_identical);
      ("native_backend", Report.Bool r.r_native_backend);
    ]

let run ~seed ~reps ~dim ~out =
  Harness.header "C backend: closure executor vs gcc-compiled shared objects";
  let cc = Native.compiler () in
  let available = Native.available () in
  Printf.printf "compiler: %s (%s)\n\n" cc
    (if available then "available" else "NOT available - native runs degrade to closures");
  let workloads =
    [
      spgemm_workload ~seed ~dim;
      spadd_workload ~seed ~dim:(dim * 5);
      mttkrp_workload ~seed ~dim;
    ]
  in
  Harness.row "%-12s | %12s %12s %9s %5s %9s %8s %7s %12s %7s" "kernel" "closure(s)"
    "native(s)" "speedup" "ok" "alloc/res" "C bytes" "cc(ms)" "-O0 run(s)" "-O0 cc";
  let rows =
    List.map
      (fun w ->
        let r = run_workload ~reps w in
        Harness.row "%-12s | %12.4f %12.4f %8.2fx %5s %8.2fx %8d %7.1f %12.4f %7.1f" r.r_name
          r.r_closure_s
          r.r_native_s
          (r.r_closure_s /. r.r_native_s)
          (if not r.r_identical then "DIFF"
           else if not r.r_native_backend then "degr"
           else "bit=")
          r.r_alloc_ratio r.r_c_bytes
          (match r.r_phases with
          | Some p -> Int64.to_float p.Native.cc_ns /. 1e6
          | None -> Float.nan)
          (match r.r_tier0 with Some (_, t) -> t | None -> Float.nan)
          (match r.r_tier0 with
          | Some (p, _) -> Int64.to_float p.Native.cc_ns /. 1e6
          | None -> Float.nan);
        if not r.r_identical then
          failwith
            (Printf.sprintf "%s: native result diverges from the closure executor" r.r_name);
        r)
      workloads
  in
  let native_rows = List.filter (fun r -> r.r_native_backend) rows in
  (match native_rows with
  | [] -> print_endline "\nno native runs (compiler unavailable); no geomean"
  | _ ->
      let geomean =
        Harness.geomean (List.map (fun r -> r.r_closure_s /. r.r_native_s) native_rows)
      in
      Printf.printf "\nnative geomean speedup = %.2fx over %d kernels\n%!" geomean
        (List.length native_rows));
  let stats = Compile.backend_stats () in
  Report.write out
    (Report.Obj
       [
         ("bench", Report.Str "cbackend");
         ("seed", Report.Int seed);
         ("reps", Report.Int reps);
         ("dim", Report.Int dim);
         ( "compiler",
           Report.Obj
             [ ("command", Report.Str cc); ("available", Report.Bool available) ] );
         ("workloads", Report.List (List.map row_json rows));
         ( "geomean_native_speedup",
           match native_rows with
           | [] -> Report.Null
           | rs -> Report.Float (Harness.geomean (List.map (fun r -> r.r_closure_s /. r.r_native_s) rs))
         );
         ( "backend_stats",
           Report.Obj
             [
               ("native_builds", Report.Int stats.Compile.native_builds);
               ("native_runs", Report.Int stats.Compile.native_runs);
               ("closure_runs", Report.Int stats.Compile.closure_runs);
               ("downgrades", Report.Int stats.Compile.downgrades);
             ] );
       ])

(* CI gate: build one native kernel and hold it to bit-identity. Exits
   0 without a compiler — machines without gcc must stay green. *)
let smoke () =
  Harness.header "C backend smoke (build one kernel natively, assert bit-identity)";
  if not (Native.available ()) then begin
    Printf.printf "cback-smoke skipped: C compiler %S unavailable\n%!" (Native.compiler ());
    exit 0
  end;
  let w = spgemm_workload ~seed:2019 ~dim:400 in
  let kc = Kernel.prepare w.w_info in
  let kn = Kernel.prepare ~backend:`Native w.w_info in
  if Kernel.backend kn <> `Native then begin
    Taco_support.Obs.Log.err (fun m ->
        m "cback-smoke FAILED: compiler present but native build was downgraded");
    exit 1
  end;
  let _, _, rn0 = promote_after_tier0 w kn in
  if Kernel.native_tier kn <> Some 1 then begin
    Taco_support.Obs.Log.err (fun m -> m "cback-smoke FAILED: promotion to tier 1 failed");
    exit 1
  end;
  let rn = w.w_result kn in
  if not (tensors_identical rn0 rn) then begin
    Taco_support.Obs.Log.err (fun m ->
        m "cback-smoke FAILED: the tier-1 result diverges from the tier-0 build");
    exit 1
  end;
  Printf.printf "cback-smoke spgemm_ws: tier 1 (-O3) bit-identical to tier 0 (-O0)\n%!";
  let identical = tensors_identical (w.w_result kc) rn in
  let times = time_backends ~reps:3 w [ ("closure", kc); ("native", kn) ] in
  Printf.printf "cback-smoke spgemm_ws: closure %.4fs, native %.4fs (%.2fx), %s\n%!"
    (List.assoc "closure" times) (List.assoc "native" times)
    (List.assoc "closure" times /. List.assoc "native" times)
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
  let words = major_words_per_run w kn and res = result_words rn in
  Printf.printf
    "cback-smoke spgemm_ws native: %.0f major-heap words per warm run, result %.0f words \
     (%.2fx, gate %.2fx)\n%!"
    words res (words /. res) alloc_gate;
  if words > alloc_gate *. res then begin
    Taco_support.Obs.Log.err (fun m ->
        m "cback-smoke FAILED: native read-back allocates %.2fx the result's words"
          (words /. res));
    exit 1
  end
