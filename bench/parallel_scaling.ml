(* Parallel scaling of the parallelize-scheduled paper kernels.

   The three workspace kernels (SpGEMM, SpAdd, MTTKRP) are compiled with
   the outer loop parallelized and run at 1..N chunk domains. For every
   point the result is checked bit-identical against the sequential run
   — the sweep doubles as a determinism gate — and the wall-clock
   medians and speedups land in BENCH_parallel.json.

   The domain budget is temporarily raised to the sweep's width so the
   chunks really run on their own domains even when the machine
   recommends fewer; the machine's recommended domain count is recorded
   in the JSON so single-core results (where every "parallel" point
   measures chunk-and-merge overhead, not speedup) read as what they
   are. *)

open Taco
module Prng = Taco_support.Prng

let get = Harness.get

let getd = function Ok x -> x | Error d -> failwith (Diag.to_string d)

let vi = Harness.vi

let vj = Harness.vj

let vk = Harness.vk

let vl = Harness.vl

(* --- the three kernels, parallelized over the outer index ------------ *)

let spgemm_compiled () =
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
  let sched = getd (parallelize vi sched) in
  (b, c, getd (compile ~name:"spgemm_par" sched))

let spadd_compiled () =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (Add (access b [ vi; vj ], access c [ vi; vj ])) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = getd (parallelize vi sched) in
  (b, c, getd (compile ~name:"spadd_par" sched))

let mttkrp_compiled () =
  let a = tensor "A" Format.dense_matrix in
  let b = tensor "B" (Format.csf 3) in
  let c = tensor "C" Format.dense_matrix in
  let d = tensor "D" Format.dense_matrix in
  let open Index_notation in
  let stmt =
    assign a [ vi; vj ]
      (sum vk
         (sum vl (Mul (Mul (access b [ vi; vk; vl ], access c [ vl; vj ]), access d [ vk; vj ]))))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let w = workspace "w" Format.dense_vector in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk; vl ]), Cin.Access (Cin.access c [ vl; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  let sched = getd (parallelize vi sched) in
  (b, c, d, getd (compile ~name:"mttkrp_par" sched))

(* --- the sweep -------------------------------------------------------- *)

(* One record per domain count, each checked bit-identical against the
   sequential (1-domain) run. Returns the records and the speedups over
   the sequential median. *)
let sweep ~reps ~domain_counts name compiled inputs =
  if List.hd domain_counts <> 1 then invalid_arg "sweep: domain_counts must start at 1";
  let records =
    Harness.medians ~reps ~workload:name ~equal:Tensor.bit_identical
      (List.map
         (fun k ->
           let run () = getd (run ~domains:k compiled ~inputs) in
           (Printf.sprintf "%d_domains" k, run, run))
         domain_counts)
  in
  let seq_s = (List.hd records).Harness.time_s in
  List.map2
    (fun k r ->
      let speedup = seq_s /. r.Harness.time_s in
      Harness.row "  %-8s %2d domains  %10.6fs  speedup %5.2fx  %s" name k r.Harness.time_s
        speedup
        (if r.Harness.agrees then "bit-identical" else "DIVERGED");
      (r, speedup))
    domain_counts records

let with_budget ~extra f =
  let old = Budget.capacity () in
  Budget.set_capacity (max old extra);
  Fun.protect ~finally:(fun () -> Budget.set_capacity old) f

let run_points ~seed ~scale ~reps ~domain_counts =
  let prng = Prng.create seed in
  let dim = max 128 (2000 / scale) in
  let density = 0.02 in
  let spgemm_b = Gen.random_density prng ~dims:[| dim; dim |] ~density Format.csr in
  let spgemm_c = Gen.random_density prng ~dims:[| dim; dim |] ~density Format.csr in
  let add_dim = max 256 (4000 / scale) in
  let spadd_b = Gen.random_density prng ~dims:[| add_dim; add_dim |] ~density Format.csr in
  let spadd_c = Gen.random_density prng ~dims:[| add_dim; add_dim |] ~density Format.csr in
  let di = max 64 (800 / scale) and dk = max 16 (200 / scale) in
  let dl = max 16 (200 / scale) and dj = 32 in
  let mtt_b = Gen.random_density prng ~dims:[| di; dk; dl |] ~density:0.05 (Format.csf 3) in
  let mtt_c = Tensor.of_dense (Gen.random_dense prng [| dl; dj |]) Format.dense_matrix in
  let mtt_d = Tensor.of_dense (Gen.random_dense prng [| dk; dj |]) Format.dense_matrix in
  with_budget ~extra:(List.fold_left max 1 domain_counts - 1) @@ fun () ->
  let b, c, spgemm = spgemm_compiled () in
  let spgemm_pts =
    sweep ~reps ~domain_counts "spgemm" spgemm [ (b, spgemm_b); (c, spgemm_c) ]
  in
  let b, c, spadd = spadd_compiled () in
  let spadd_pts = sweep ~reps ~domain_counts "spadd" spadd [ (b, spadd_b); (c, spadd_c) ] in
  let b, c, d, mttkrp = mttkrp_compiled () in
  let mttkrp_pts =
    sweep ~reps ~domain_counts "mttkrp" mttkrp [ (b, mtt_b); (c, mtt_c); (d, mtt_d) ]
  in
  [ ("spgemm", spgemm_pts); ("spadd", spadd_pts); ("mttkrp", mttkrp_pts) ]

let run ~seed ~scale ~reps ~max_domains ~out =
  Harness.header "Parallel scaling: parallelize-scheduled kernels over OCaml domains";
  let recommended = Budget.recommended () in
  Printf.printf
    "(chunked outer loop, per-domain workspaces; machine recommends %d domain%s —\n\
    \ on a single core the sweep measures chunk-and-merge overhead, not speedup)\n\n"
    recommended
    (if recommended = 1 then "" else "s");
  let domain_counts = List.init max_domains (fun q -> q + 1) in
  let results = run_points ~seed ~scale ~reps ~domain_counts in
  Harness.report ~path:out ~bench:"parallel_scaling" ~agreement:Harness.bit_identical
    ~config:
      [
        ("seed", Json.Int seed);
        ("scale", Json.Int scale);
        ("reps", Json.Int reps);
        ("recommended_domains", Json.Int recommended);
        ("swept_domains", Json.Int max_domains);
      ]
    ~summary:
      [
        ( "speedup_vs_1_domain",
          Json.Obj
            (List.map
               (fun (n, pts) -> (n, Json.List (List.map (fun (_, s) -> Json.Float s) pts)))
               results) );
      ]
    (List.concat_map (fun (_, pts) -> List.map fst pts) results)

(* CI gate: tiny inputs, a 2-domain sweep, no JSON. Fails if any
   chunked run diverges from the sequential one. *)
let smoke () =
  Harness.header "Parallel scaling smoke (2 domains, determinism gate)";
  let results = run_points ~seed:2019 ~scale:64 ~reps:1 ~domain_counts:[ 1; 2 ] in
  Harness.report ~bench:"par-smoke" ~agreement:Harness.bit_identical ~config:[]
    (List.concat_map (fun (_, pts) -> List.map fst pts) results);
  print_endline "parallel smoke OK: every chunked result bit-identical to sequential"
