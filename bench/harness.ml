(* Shared benchmark machinery: the timing estimators, the agreement
   check, the one record schema every bench writes, schedules for the
   benchmarked kernels, and table printing. *)

open Taco
module Util = Taco_support.Util

let get = function Ok x -> x | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Agreement                                                           *)
(* ------------------------------------------------------------------ *)

(* What a report's [agrees] means, for its [agreement]: results
   [bit_identical] to the first variant's, or [close_to] it within
   [eps]. *)
let bit_identical = "bit-identical"

let eps = 1e-9

let within_eps = "eps 1e-9"

(* [t] holds the nonzeros of [reference] to a relative [eps], in any
   storage order: for variants that reassociate sums or leave rows
   unsorted. [t] is walked and each entry looked up in [reference], so
   [reference]'s compressed levels must be sorted; nothing is densified,
   which the Table I stand-ins could not afford. *)
let close_to reference t =
  Tensor.dims reference = Tensor.dims t
  &&
  let unmatched = ref 0 and ok = ref true in
  Tensor.iteri_stored (fun _ r -> if Float.abs r > eps then incr unmatched) reference;
  Tensor.iteri_stored
    (fun c v ->
      let r = Tensor.get reference c in
      if Float.abs (r -. v) > eps *. Float.max 1. (Float.max (Float.abs r) (Float.abs v))
      then ok := false
      else if Float.abs r > eps then decr unmatched)
    t;
  !ok && !unmatched = 0

(* Whether each variant's result equals the first variant's. Each result
   is dropped once compared, so none is retained across a timing. *)
let agreement ~equal = function
  | [] -> []
  | first :: rest ->
      let r0 = first () in
      true :: List.map (fun f -> equal r0 (f ())) rest

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

(* One timed variant of one workload. [estimator] names how [time_s]
   was taken: "best_batch" and "median" below, "best_run" and "once"
   for runs that cannot repeat. [agrees]: the variant's result equals
   the workload's first variant's, in the sense the report's
   [agreement] names. *)
type record = {
  workload : string;
  variant : string;
  estimator : string;
  time_s : float;
  reps : int;
  agrees : bool;
  info : (string * Json.t) list;
}

let time_of records variant = (List.find (fun r -> r.variant = variant) records).time_s

let record_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("variant", Json.Str r.variant);
      ("estimator", Json.Str r.estimator);
      ("time_s", Json.Float r.time_s);
      ("reps", Json.Int r.reps);
      ("agrees", Json.Bool r.agrees);
      ("info", Json.Obj r.info);
    ]

(* Every bench ends here. A variant that disagrees with its workload's
   first variant fails the run before anything is written, so a
   divergent run never replaces a good baseline; otherwise the records
   go to [path] as {bench, config, records, summary}. *)
let report ?path ~bench ~agreement ~config ?(summary = []) records =
  List.iter
    (fun r ->
      if not r.agrees then
        failwith
          (Printf.sprintf "%s: %s/%s disagrees with the workload's first variant (%s)" bench
             r.workload r.variant agreement))
    records;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Json.to_string_pretty
               (Json.Obj
                  [
                    ("bench", Json.Str bench);
                    ("config", Json.Obj (("agreement", Json.Str agreement) :: config));
                    ("records", Json.List (List.map record_json records));
                    ("summary", Json.Obj summary);
                  ])));
      Printf.printf "\nwrote %s\n%!" path)
    path

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)
(* ------------------------------------------------------------------ *)

(* Best-of-[reps] over batches sized to ~60ms of work, with the
   variants interleaved round-robin: the benches compare variants that
   differ by a few percent, which the median of single ~10ms runs
   cannot resolve under scheduler and GC noise, and timing each variant
   in a contiguous block would let a sustained slow phase (CPU
   contention, thermal throttling) land entirely on one variant.
   Interleaving spreads any such phase across all variants and the
   minimum of batched runs is the standard estimator for the
   noise-free cost (noise is strictly additive). *)
let batch_s = 0.06

(* Each variant is (name, result, run): [result] feeds the agreement
   check, [run] is what the clock times; [info] adds per-variant
   extras. *)
let best_of_batches ~reps ~workload ~equal ?(info = fun _ -> []) variants =
  let agrees = agreement ~equal (List.map (fun (_, result, _) -> result) variants) in
  Gc.compact ();
  (* Warm each variant once outside the clock (also populates the
     kernel caches) and size batches off the slowest warm run so every
     variant runs the same batch length. *)
  let t0 =
    List.fold_left (fun acc (_, _, f) -> Float.max acc (snd (Util.time f))) 1e-6 variants
  in
  let batch = max 1 (int_of_float (batch_s /. t0)) in
  let run_batch f =
    (* Collect the previous run's garbage outside the clock: the runs
       allocate identically, so without this the major-GC slices they
       trigger land deterministically on the same variants every round
       and min-of-reps cannot average the bias away. *)
    Gc.full_major ();
    let (), t =
      Util.time (fun () ->
          for _ = 1 to batch do
            f ()
          done)
    in
    t /. float_of_int batch
  in
  let best = Array.make (List.length variants) infinity in
  for _ = 1 to max 1 reps do
    List.iteri (fun q (_, _, f) -> best.(q) <- Float.min best.(q) (run_batch f)) variants
  done;
  List.mapi
    (fun q ((variant, _, _), agrees) ->
      {
        workload;
        variant;
        estimator = "best_batch";
        time_s = best.(q);
        reps = max 1 reps;
        agrees;
        info = ("batch", Json.Int batch) :: info variant;
      })
    (List.combine variants agrees)

(* First quartile, median and third quartile of a non-empty sample,
   interpolating between order statistics. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let at p =
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    let frac = x -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)
  in
  (at 0.25, at 0.5, at 0.75)

(* Median of [reps] single runs per variant, the variants interleaved
   round-robin as in [best_of_batches], with the quartiles in [info]
   ([q1_s], [q3_s]): for runs too long to batch (fresh kernel builds of
   40–700 ms), where the minimum of a few runs moves by more than the
   differences asked about and the spread is worth reporting. *)
let median_quartiles ~reps ~workload ~equal ?(info = fun _ -> []) variants =
  let agrees = agreement ~equal (List.map (fun (_, result, _) -> result) variants) in
  let reps = max 1 reps in
  let samples = Array.make (List.length variants) [] in
  for _ = 1 to reps do
    List.iteri
      (fun q (_, _, f) ->
        Gc.full_major ();
        let (), t = Util.time f in
        samples.(q) <- t :: samples.(q))
      variants
  done;
  List.mapi
    (fun q ((variant, _, _), agrees) ->
      let q1, median, q3 = quartiles samples.(q) in
      {
        workload;
        variant;
        estimator = "median";
        time_s = median;
        reps;
        agrees;
        info = ("q1_s", Json.Float q1) :: ("q3_s", Json.Float q3) :: info variant;
      })
    (List.combine variants agrees)

(* One measurement: median wall-clock of [reps] runs plus the GC work
   the runs did, as per-run means over the whole batch (Gc.quick_stat
   deltas; [m_major_words] includes promotions, as Gc reports it).
   Minor words come from [Gc.minor_words], which counts the current
   minor heap's allocations too: on OCaml 5, [quick_stat]'s
   [minor_words] moves only at a minor collection. *)
type measurement = {
  m_median_s : float;
  m_reps : int;
  m_minor_words : float;
  m_major_words : float;
  m_promoted_words : float;
  m_minor_collections : float;
  m_major_collections : float;
}

let measure ~reps f =
  let reps = max 1 reps in
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let runs =
    List.init reps (fun _ ->
        let _, t = Util.time f in
        t)
  in
  let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let per x = x /. float_of_int reps in
  let peri x = float_of_int x /. float_of_int reps in
  {
    m_median_s = Util.median runs;
    m_reps = reps;
    m_minor_words = per (w1 -. w0);
    m_major_words = per (g1.Gc.major_words -. g0.Gc.major_words);
    m_promoted_words = per (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    m_minor_collections = peri (g1.Gc.minor_collections - g0.Gc.minor_collections);
    m_major_collections = peri (g1.Gc.major_collections - g0.Gc.major_collections);
  }

let gc_info m =
  ( "gc",
    Json.Obj
      [
        ("minor_words", Json.Float m.m_minor_words);
        ("major_words", Json.Float m.m_major_words);
        ("promoted_words", Json.Float m.m_promoted_words);
        ("minor_collections", Json.Float m.m_minor_collections);
        ("major_collections", Json.Float m.m_major_collections);
      ] )

(* Median wall-clock seconds of [reps] runs. *)
let time_median ~reps f = (measure ~reps f).m_median_s

(* One workload's variants by [measure]. Each variant is (name, result,
   run), as in [best_of_batches]: [result] is checked against the first
   variant's, [run] is what the clock times (often [result] itself);
   [info] adds per-variant extras. *)
let medians ~reps ~workload ~equal ?(info = fun _ -> []) variants =
  let agrees = agreement ~equal (List.map (fun (_, result, _) -> result) variants) in
  List.map2
    (fun (variant, _, run) agrees ->
      let m = measure ~reps run in
      {
        workload;
        variant;
        estimator = "median";
        time_s = m.m_median_s;
        reps = m.m_reps;
        agrees;
        info = gc_info m :: info variant;
      })
    variants agrees

(* Single timed runs, for phases that cannot be repeated in place
   (Fig. 13's assembly/compute split). Each variant runs once, given a
   [phase] function that times one step and adds it to the named
   phase's total. One "once" record per phase in [phases] (the phase
   is its workload) and variant, agreeing when the variant's result
   equals the first variant's. *)
let once ~equal ~phases variants =
  let first = ref None in
  let runs =
    List.map
      (fun (variant, f) ->
        let totals = Hashtbl.create 2 in
        let phase name step =
          let r, t = Util.time step in
          Hashtbl.replace totals name
            (t +. Option.value ~default:0. (Hashtbl.find_opt totals name));
          r
        in
        let r = f phase in
        let agrees =
          match !first with
          | None ->
              first := Some r;
              true
          | Some r0 -> equal r0 r
        in
        (variant, totals, agrees))
      variants
  in
  List.concat_map
    (fun workload ->
      List.map
        (fun (variant, totals, agrees) ->
          {
            workload;
            variant;
            estimator = "once";
            time_s =
              (match Hashtbl.find_opt totals workload with
              | Some t -> t
              | None -> failwith (Printf.sprintf "%s ran no %s phase" variant workload));
            reps = 1;
            agrees;
            info = [];
          })
        runs)
    phases

let pct a b = 100. *. ((a /. b) -. 1.)

let header title =
  Printf.printf "\n==== %s ====\n%!" title

let row fmt = Printf.printf (fmt ^^ "\n%!")

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Benchmark schedules (shared between figures)                        *)
(* ------------------------------------------------------------------ *)

let vi = ivar "i"

let vj = ivar "j"

let vk = ivar "k"

let vl = ivar "l"

(* SpGEMM: A = B·C, all CSR, workspace transformation applied. *)
let spgemm_stmt () =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (sum vk (Mul (access b [ vi; vk ], access c [ vk; vj ]))) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vk vj sched) in
  let w = workspace "w" Format.dense_vector in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  (Schedule.stmt sched, b, c)

(* A kernel on the closures or, with [~native:true], built natively and
   promoted to tier 1; a native build that downgrades fails the run. *)
let prepare ?(native = false) info =
  if not native then Kernel.prepare info
  else begin
    let k = Kernel.prepare ~backend:`Native info in
    Kernel.promote k;
    if Kernel.native_tier k <> Some 1 then
      failwith (info.Lower.kernel.Taco_lower.Imp.k_name ^ ": no tier-1 native build");
    k
  end

let spgemm_kernel ?native ~sorted () =
  let stmt, b, c = spgemm_stmt () in
  let info =
    get (Lower.lower ~name:"spgemm_ws" ~mode:(Lower.Assemble { emit_values = true; sorted }) stmt)
  in
  (prepare ?native info, b, c)

(* MTTKRP with dense A, C, D: merge ("taco") and workspace variants. *)
let mttkrp_vars () =
  let a = tensor "A" Format.dense_matrix in
  let b = tensor "B" (Format.csf 3) in
  let c = tensor "C" Format.dense_matrix in
  let d = tensor "D" Format.dense_matrix in
  (a, b, c, d)

let mttkrp_sched ~use_workspace =
  let a, b, c, d = mttkrp_vars () in
  let open Index_notation in
  let stmt =
    assign a [ vi; vj ]
      (sum vk (sum vl (Mul (Mul (access b [ vi; vk; vl ], access c [ vl; vj ]), access d [ vk; vj ]))))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let sched =
    if use_workspace then begin
      let w = workspace "w" Format.dense_vector in
      let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk; vl ]), Cin.Access (Cin.access c [ vl; vj ])) in
      get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched)
    end
    else sched
  in
  (Schedule.stmt sched, b, c, d)

let mttkrp_kernel ~use_workspace =
  let stmt, b, c, d = mttkrp_sched ~use_workspace in
  (Kernel.prepare (get (Lower.lower ~name:"mttkrp" ~mode:Lower.Compute stmt)), b, c, d)

(* MTTKRP with sparse A, C, D (paper §VIII-D): both precomputes, fused. *)
let mttkrp_sparse_kernel () =
  let a = tensor "A" Format.csr in
  let b = tensor "B" (Format.csf 3) in
  let c = tensor "C" Format.csr in
  let d = tensor "D" Format.csr in
  let open Index_notation in
  let stmt =
    assign a [ vi; vj ]
      (sum vk (sum vl (Mul (Mul (access b [ vi; vk; vl ], access c [ vl; vj ]), access d [ vk; vj ]))))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let w = workspace "w" Format.dense_vector in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk; vl ]), Cin.Access (Cin.access c [ vl; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  let v = workspace "v" Format.dense_vector in
  let e2 = Cin.Mul (Cin.Access (Cin.access w [ vj ]), Cin.Access (Cin.access d [ vk; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e2 ~over:[ vj ] ~workspace:v sched) in
  let info =
    get
      (Lower.lower ~name:"mttkrp_sparse"
         ~mode:(Lower.Assemble { emit_values = true; sorted = true })
         (Schedule.stmt sched))
  in
  (Kernel.prepare info, b, c, d)

(* n-operand addition statement A = B0 + ... + B(n-1). *)
let addition_vars n = List.init n (fun q -> tensor (Printf.sprintf "B%d" q) Format.csr)

let addition_merge_stmt ops =
  let a = tensor "A" Format.csr in
  let rhs =
    match List.map (fun tv -> Index_notation.access tv [ vi; vj ]) ops with
    | [] -> invalid_arg "no operands"
    | e :: rest -> List.fold_left (fun x y -> Index_notation.Add (x, y)) e rest
  in
  Schedule.stmt (get (Schedule.of_index_notation (Index_notation.assign a [ vi; vj ] rhs)))

(* Workspace addition: ∀i (∀j A = w) where (∀j w = B0 ; ∀j w += Bq ; …) —
   the n-operand generalization of Fig. 5b via result reuse. *)
let addition_workspace_stmt ops =
  let a = tensor "A" Format.csr in
  let w = workspace "w" Format.dense_vector in
  let acc tv = Cin.Access (Cin.access tv [ vi; vj ]) in
  let producer =
    match ops with
    | [] -> invalid_arg "no operands"
    | first :: rest ->
        List.fold_left
          (fun s tv ->
            Cin.Sequence (s, Cin.Forall (vj, Cin.accumulate (Cin.access w [ vj ]) (acc tv))))
          (Cin.Forall (vj, Cin.assign (Cin.access w [ vj ]) (acc first)))
          rest
  in
  let consumer =
    Cin.Forall (vj, Cin.assign (Cin.access a [ vi; vj ]) (Cin.Access (Cin.access w [ vj ])))
  in
  Cin.Forall (vi, Cin.Where (consumer, producer))

(* ------------------------------------------------------------------ *)
(* The paper's workspace kernels as timed workloads                    *)
(* ------------------------------------------------------------------ *)

(* A lowered kernel plus runners for a prepared one on fixed inputs:
   [w_time] for the clock (no read-back), [w_result] for the agreement
   check. The preparation (backend, tier) is the variable. *)
type workload = {
  w_name : string;
  w_info : Lower.kernel_info;
  w_time : Kernel.t -> unit;
  w_result : Kernel.t -> Tensor.t;
}

let fused = Lower.Assemble { emit_values = true; sorted = true }

let spgemm_workload ~seed ~dim =
  let stmt, b, c = spgemm_stmt () in
  let info = get (Lower.lower ~name:"spgemm_ws" ~mode:fused stmt) in
  let density = 32. /. float_of_int dim in
  let bt = Inputs.uniform_matrix ~seed ~rows:dim ~cols:dim ~density in
  let ct = Inputs.uniform_matrix ~seed:(seed + 1) ~rows:dim ~cols:dim ~density in
  let inputs = [ (b, bt); (c, ct) ] and dims = [| dim; dim |] in
  {
    w_name = "spgemm_ws";
    w_info = info;
    w_time = (fun k -> Kernel.run_assemble_raw k ~inputs ~dims);
    w_result = (fun k -> Kernel.run_assemble k ~inputs ~dims);
  }

let spadd_workload ~seed ~dim =
  let ops = addition_vars 2 in
  let info = get (Lower.lower ~name:"spadd_merge" ~mode:fused (addition_merge_stmt ops)) in
  let inputs = List.combine ops (Inputs.addition_operands ~seed ~n:2 ~dim) in
  let dims = [| dim; dim |] in
  {
    w_name = "spadd_merge";
    w_info = info;
    w_time = (fun k -> Kernel.run_assemble_raw k ~inputs ~dims);
    w_result = (fun k -> Kernel.run_assemble k ~inputs ~dims);
  }

let mttkrp_workload ~seed ~dim =
  let stmt, b, c, d = mttkrp_sched ~use_workspace:true in
  let info = get (Lower.lower ~name:"mttkrp_ws" ~mode:Lower.Compute stmt) in
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
    w_time = (fun k -> ignore (Kernel.run_dense k ~inputs ~dims : Tensor.t));
    w_result = (fun k -> Kernel.run_dense k ~inputs ~dims);
  }

(* SpGEMM and MTTKRP at [dim], SpAdd at [5 * dim]. *)
let paper_workloads ~seed ~dim =
  [
    spgemm_workload ~seed ~dim;
    spadd_workload ~seed ~dim:(dim * 5);
    mttkrp_workload ~seed ~dim;
  ]

(* The kernel under a name no earlier build used: a new compile-cache
   key, as a request naming a new result tensor is in the service, so
   preparing it builds the same code again. *)
let renamed =
  let n = ref 0 in
  fun (info : Lower.kernel_info) ->
    incr n;
    let k = info.Lower.kernel in
    { info with Lower.kernel = { k with Imp.k_name = Printf.sprintf "%s_%d" k.Imp.k_name !n } }

(* A native tier's label, from the flags it compiles with
   ({!Native.tier_flags}): "native_O0" for tier 0. *)
let tier_label tier =
  let word f = String.concat "" (String.split_on_char '-' f) in
  String.concat "_" ("native" :: List.map word (Native.tier_flags tier))

(* The executors the figure benches run a kernel on: the closures
   ([false]), and tier-1 native builds ([true]) when a C compiler is
   available. *)
let executors () = false :: (if Native.available () then [ true ] else [])

let executor_label native = if native then tier_label 1 else "the closures"

(* The flags of a tier as one string, "-O0" for tier 0. *)
let tier_flags tier = String.concat " " (Native.tier_flags tier)

(* The fewest runs a tier-0 time is taken over. One build's tier-0 phase
   holds only a few (one to five for SpGEMM at 1000^2), so a cell pools
   the phases of several builds of its kernel. *)
let tier0_min_runs = 20

(* The best single run of a native kernel's tier-0 phase and the number
   of runs, sampled only inside that phase: sampling stops before the
   runs' total could reach the kernel's tier-0 cc time [cc_ns], the
   break-even at which it tiers up. *)
let tier0_phase w k ~cc_ns =
  let cc_s = Int64.to_float cc_ns /. 1e9 in
  let rec go ~best ~worst ~total ~runs =
    if Kernel.native_tier k <> Some 0 || (total > 0. && total +. worst > cc_s) then (best, runs)
    else
      let _, t = Util.time (fun () -> w.w_time k) in
      go ~best:(Float.min best t) ~worst:(Float.max worst t) ~total:(total +. t) ~runs:(runs + 1)
  in
  go ~best:infinity ~worst:0. ~total:0. ~runs:0

(* A native kernel [k] of [w]: its build phases and the best tier-0 run
   ([None] for a closure kernel), pooled over [k]'s tier-0 phase and
   then those of fresh tier-0 builds of the same kernel ({!renamed})
   until there are at least {!tier0_min_runs} runs. Returns [k]'s
   phases, the best run, the number of runs and the number of builds. *)
let time_tier0 w k =
  Option.map
    (fun p ->
      let rec pool k ~best ~runs ~builds =
        match Kernel.native_phases k with
        | None -> failwith (w.w_name ^ ": a fresh tier-0 build was downgraded")
        | Some q ->
            let b, n = tier0_phase w k ~cc_ns:q.Native.cc_ns in
            let best = Float.min best b and runs = runs + n and builds = builds + 1 in
            if runs >= tier0_min_runs then (best, runs, builds)
            else
              pool (Kernel.prepare ~backend:`Native (renamed w.w_info)) ~best ~runs ~builds
      in
      (p, pool k ~best:infinity ~runs:0 ~builds:0))
    (Kernel.native_phases k)

(* {!time_tier0}, the kernel's tier-0 result, and then the kernel
   promoted to tier 1. *)
let promote_after_tier0 w k =
  let tier0 = time_tier0 w k in
  let result = w.w_result k in
  Kernel.promote k;
  (tier0, result)
