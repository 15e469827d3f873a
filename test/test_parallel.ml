(* Determinism battery for the parallelize scheduling directive: every
   kernel scheduled with parallelize must produce bit-identical results
   for every requested domain count — the executor's contract is that
   the chunk count fixes the merge, so 1, 2, 3, 4 and 8 domains (and
   more domains than rows) all reproduce the sequential run exactly.

   The battery also covers the negative space: illegal parallelize
   directives must fail with structured E_PAR_ILLEGAL diagnostics, not
   silently race. *)

open Helpers
open Taco
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module F = Taco_tensor.Format
module Budget = Taco_exec.Budget

let domain_counts = [ 2; 3; 4; 8 ]

(* --- the three paper kernels, scheduled with parallelize ------------- *)

let spgemm_par () =
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

let spadd_par () =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (Add (access b [ vi; vj ], access c [ vi; vj ])) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = getd (parallelize vi sched) in
  (b, c, getd (compile ~name:"spadd_par" sched))

let mttkrp_par () =
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

(* Run a compiled kernel at every domain count and compare against the
   sequential (domains = 1) run bit for bit. *)
let check_deterministic what compiled inputs =
  let reference = getd (run ~domains:1 compiled ~inputs) in
  List.iter
    (fun k ->
      let r = getd (run ~domains:k compiled ~inputs) in
      if not (tensors_bit_identical reference r) then
        Alcotest.failf "%s: %d domains diverge from sequential" what k)
    domain_counts;
  reference

(* --- qcheck properties ----------------------------------------------- *)

let test_spgemm_deterministic =
  qcheck_case ~count:40 "SpGEMM bit-identical across domain counts"
    QCheck.(pair (pair (1 -- 14) (pair (1 -- 12) (1 -- 12))) small_int)
    (fun ((rows, (inner, cols)), seed) ->
      let bt = random_tensor (seed + 11) [| rows; inner |] 0.35 F.csr in
      let ct = random_tensor (seed + 12) [| inner; cols |] 0.35 F.csr in
      let b, c, compiled = spgemm_par () in
      let r = check_deterministic "spgemm" compiled [ (b, bt); (c, ct) ] in
      (* Against the sequential oracle too, so the parallel battery can
         never drift from plain correctness. *)
      D.equal ~eps:1e-9
        (T.to_dense (Taco_kernels.Spgemm.gustavson bt ct))
        (T.to_dense r))

let test_spadd_deterministic =
  qcheck_case ~count:40 "SpAdd bit-identical across domain counts"
    QCheck.(pair (pair (1 -- 14) (1 -- 12)) small_int)
    (fun ((rows, cols), seed) ->
      let bt = random_tensor (seed + 21) [| rows; cols |] 0.3 F.csr in
      let ct = random_tensor (seed + 22) [| rows; cols |] 0.3 F.csr in
      let b, c, compiled = spadd_par () in
      let r = check_deterministic "spadd" compiled [ (b, bt); (c, ct) ] in
      D.equal ~eps:1e-9
        (T.to_dense (Taco_kernels.Spadd.merge_add bt ct))
        (T.to_dense r))

let test_mttkrp_deterministic =
  qcheck_case ~count:25 "MTTKRP bit-identical across domain counts"
    QCheck.(pair (pair (1 -- 8) (pair (1 -- 6) (1 -- 6))) (pair (1 -- 8) small_int))
    (fun ((di, (dk, dl)), (dj, seed)) ->
      let bt = random_tensor (seed + 31) [| di; dk; dl |] 0.3 (F.csf 3) in
      let ct = random_tensor (seed + 32) [| dl; dj |] 1.0 F.dense_matrix in
      let dt = random_tensor (seed + 33) [| dk; dj |] 1.0 F.dense_matrix in
      let b, c, d, compiled = mttkrp_par () in
      let r = check_deterministic "mttkrp" compiled [ (b, bt); (c, ct); (d, dt) ] in
      D.equal ~eps:1e-9
        (Taco_kernels.Mttkrp.reference bt (T.to_dense ct) (T.to_dense dt))
        (T.to_dense r))

(* --- degenerate shapes ----------------------------------------------- *)

let test_degenerate_empty_rows () =
  (* Every row empty: all chunks append nothing. *)
  let bt = T.of_dense (D.create [| 7; 5 |]) F.csr in
  let ct = T.of_dense (D.create [| 7; 5 |]) F.csr in
  let b, c, compiled = spadd_par () in
  ignore (check_deterministic "spadd empty" compiled [ (b, bt); (c, ct) ] : T.t)

let test_degenerate_zero_rows () =
  (* The tensor layer rejects zero-sized dimensions, so the empty
     iteration space is exercised at the executor level: a ParallelFor
     with an appending stage over [0, n) where n = 0 must run no chunks
     and leave the counter untouched, at every domain count. *)
  let module Imp = Taco_lower.Imp in
  let module Compile = Taco_exec.Compile in
  let kernel n_name =
    {
      Imp.k_name = "par_empty";
      k_params =
        [
          { Imp.p_name = n_name; p_dtype = Imp.Int; p_array = false; p_output = false };
        ];
      k_body =
        [
          Imp.Decl (Imp.Int, "c", Imp.Int_lit 0);
          Imp.Alloc (Imp.Int, "buf", Imp.Int_lit 8);
          Imp.ParallelFor
            ( "i",
              Imp.Int_lit 0,
              Imp.Var n_name,
              [
                Imp.Store ("buf", Imp.Var "c", Imp.Var "i");
                Imp.Assign ("c", Imp.add (Imp.Var "c") (Imp.Int_lit 1));
              ],
              {
                Imp.par_private = [];
                par_stage =
                  Some { Imp.pa_counter = "c"; pa_arrays = [ "buf" ]; pa_pos = None };
              } );
        ];
    }
  in
  let compiled = Compile.compile ~opt:Taco_lower.Opt.none (kernel "n") in
  let run_n n domains =
    let read = Compile.run ~domains compiled ~args:[ ("n", Compile.Aint n) ] in
    let c = match read "c" with Compile.Aint v -> v | _ -> Alcotest.fail "bad c" in
    let buf =
      match read "buf" with
      | Compile.Aint_array a -> Taco_support.Ivec.(to_array (sub a 0 c))
      | _ -> Alcotest.fail "bad buf"
    in
    (c, buf)
  in
  List.iter
    (fun domains ->
      Alcotest.(check bool) "empty range appends nothing" true (run_n 0 domains = (0, [||]));
      Alcotest.(check bool) "n=3 matches sequential" true
        (run_n 3 domains = run_n 3 1);
      Alcotest.(check bool) "n=7 matches sequential" true
        (run_n 7 domains = run_n 7 1))
    (1 :: domain_counts)

let test_degenerate_more_domains_than_rows () =
  (* domains far beyond the row count: chunking clamps to the iteration
     count and the spare domains see no work. *)
  let bt = random_tensor 601 [| 2; 9 |] 0.5 F.csr in
  let ct = random_tensor 602 [| 9; 7 |] 0.5 F.csr in
  let b, c, compiled = spgemm_par () in
  let reference = getd (run ~domains:1 compiled ~inputs:[ (b, bt); (c, ct) ]) in
  List.iter
    (fun k ->
      let r = getd (run ~domains:k compiled ~inputs:[ (b, bt); (c, ct) ]) in
      Alcotest.(check bool)
        (Printf.sprintf "identical at %d domains" k)
        true
        (tensors_bit_identical reference r))
    [ 3; 17; 64 ]

let test_single_row () =
  let bt = random_tensor 603 [| 1; 9 |] 0.8 F.csr in
  let ct = random_tensor 604 [| 9; 4 |] 0.5 F.csr in
  let b, c, compiled = spgemm_par () in
  ignore (check_deterministic "spgemm 1 row" compiled [ (b, bt); (c, ct) ] : T.t)

(* --- real multi-domain execution ------------------------------------- *)

let test_deterministic_with_forced_domains () =
  (* The machine running the suite may recommend a single domain, which
     makes the budget grant no extras and the chunk path run on the
     calling domain. Forcing capacity proves the merge also holds when
     chunks really do run on separate domains. *)
  with_budget 3 (fun () ->
      let bt = random_tensor 611 [| 24; 16 |] 0.4 F.csr in
      let ct = random_tensor 612 [| 16; 12 |] 0.4 F.csr in
      let b, c, compiled = spgemm_par () in
      ignore (check_deterministic "spgemm forced" compiled [ (b, bt); (c, ct) ] : T.t);
      let bt2 = random_tensor 613 [| 24; 12 |] 0.4 F.csr in
      let ct2 = random_tensor 614 [| 24; 12 |] 0.4 F.csr in
      let b2, c2, compiled2 = spadd_par () in
      ignore (check_deterministic "spadd forced" compiled2 [ (b2, bt2); (c2, ct2) ] : T.t))

(* --- profiled kernels take the sequential path ----------------------- *)

let test_profiled_parallel_agrees () =
  let bt = random_tensor 621 [| 10; 8 |] 0.4 F.csr in
  let ct = random_tensor 622 [| 8; 6 |] 0.4 F.csr in
  let a = tensor "A" Format.csr in
  ignore (a : Tensor_var.t);
  let b, c, compiled = spgemm_par () in
  let plain = getd (run ~domains:4 compiled ~inputs:[ (b, bt); (c, ct) ]) in
  (* Recompile the same schedule with profiling; parallel regions then
     execute sequentially but must produce the same tensor. *)
  let sched = schedule_of compiled in
  let prof = getd (compile ~name:"spgemm_par_prof" ~profile:true sched) in
  let profiled = getd (run ~domains:4 prof ~inputs:[ (b, bt); (c, ct) ]) in
  Alcotest.(check bool) "profiled matches unprofiled" true
    (tensors_bit_identical plain profiled);
  match Kernel.profile_stats (kernel prof) with
  | None -> Alcotest.fail "profiled kernel reports no stats"
  | Some st -> Alcotest.(check bool) "profiled run counted iterations" true (st.Compile.iterations > 0)

(* --- negative space: E_PAR_ILLEGAL ----------------------------------- *)

let check_par_illegal what result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected E_PAR_ILLEGAL" what
  | Error d ->
      Alcotest.(check string) (what ^ ": code") "E_PAR_ILLEGAL" d.Diag.code

let test_illegal_inner_index () =
  (* j is an inner loop (inner-of-compressed for the CSR operand):
     only the outermost forall can be parallelized. *)
  let a = tensor "A" Format.dense_matrix in
  let b = tensor "B" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (access b [ vi; vj ]) in
  let sched = get (Schedule.of_index_notation stmt) in
  check_par_illegal "inner index" (parallelize vj sched)

let test_illegal_reduction_without_workspace () =
  (* y(j) = Σ_i B(i,j): every i iteration writes the same y row slots —
     a reduction into shared output. Legal only after precompute. *)
  let y = tensor "y" Format.dense_vector in
  let b = tensor "B" Format.dense_matrix in
  let open Index_notation in
  let stmt = assign y [ vj ] (sum vi (access b [ vi; vj ])) in
  let sched = get (Schedule.of_index_notation stmt) in
  (* i is outermost after concretization of Σ_i? If not, reorder it out. *)
  let sched =
    match Schedule.reorder vi vj sched with Ok s -> s | Error _ -> sched
  in
  check_par_illegal "reduction" (parallelize vi sched)

let test_illegal_coiteration_backstop () =
  (* Sparse vector addition coiterates the operands with a while loop at
     the top of the kernel; the schedule-level check accepts i (it is
     outermost and indexes the result) but lowering cannot chunk a
     two-way merge, and reports it under the same code. *)
  let x = tensor "x" Format.sparse_vector in
  let u = tensor "u" Format.sparse_vector in
  let v = tensor "v" Format.sparse_vector in
  let open Index_notation in
  let stmt = assign x [ vi ] (Add (access u [ vi ], access v [ vi ])) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = getd (parallelize vi sched) in
  check_par_illegal "coiteration backstop" (compile ~name:"spvadd_par" sched)

let test_illegal_diag_structure () =
  (* The diagnostic is structured: stage, code, and the offending index
     in context. *)
  let a = tensor "A" Format.dense_matrix in
  let b = tensor "B" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (access b [ vi; vj ]) in
  let sched = get (Schedule.of_index_notation stmt) in
  match parallelize vj sched with
  | Ok _ -> Alcotest.fail "expected E_PAR_ILLEGAL"
  | Error d ->
      Alcotest.(check string) "code" "E_PAR_ILLEGAL" d.Diag.code;
      Alcotest.(check bool) "context names the index" true
        (List.mem ("index", "j") d.Diag.context)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          test_spgemm_deterministic;
          test_spadd_deterministic;
          test_mttkrp_deterministic;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "all rows empty" `Quick test_degenerate_empty_rows;
          Alcotest.test_case "zero rows" `Quick test_degenerate_zero_rows;
          Alcotest.test_case "domains exceed rows" `Quick
            test_degenerate_more_domains_than_rows;
          Alcotest.test_case "single row" `Quick test_single_row;
        ] );
      ( "multi-domain",
        [
          Alcotest.test_case "forced real domains" `Quick
            test_deterministic_with_forced_domains;
          Alcotest.test_case "profiled kernels agree" `Quick test_profiled_parallel_agrees;
        ] );
      ( "illegal",
        [
          Alcotest.test_case "inner index" `Quick test_illegal_inner_index;
          Alcotest.test_case "reduction without workspace" `Quick
            test_illegal_reduction_without_workspace;
          Alcotest.test_case "coiteration backstop" `Quick test_illegal_coiteration_backstop;
          Alcotest.test_case "diagnostic structure" `Quick test_illegal_diag_structure;
        ] );
    ]
