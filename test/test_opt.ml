(* Unit tests for the Imp optimizer pipeline (Taco_lower.Opt): one group
   per pass checking the rewrite fires (and refuses to fire) on small
   hand-built kernels, plus semantic equivalence through the executor,
   which passes fire on the paper kernels, the compiled-kernel cache,
   and the Parallel clamping/empty-partition edge cases. The fuzz
   differential in test_fuzz.ml covers the passes in combination on
   generated kernels. *)

open Taco_ir
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module Imp = Taco_lower.Imp
module Opt = Taco_lower.Opt
module Lower = Taco_lower.Lower
module Compile = Taco_exec.Compile
module Kernel = Taco_exec.Kernel
module Fault = Taco_support.Faultinject

let vi = Helpers.vi and vj = Helpers.vj

let v n = Imp.Var n

let i n = Imp.Int_lit n

let kernel ?(params = []) ?(name = "t") body = { Imp.k_name = name; k_params = params; k_body = body }

let only_simplify = { Opt.none with simplify = true }

let only_licm = { Opt.none with licm = true }

let opt ?config k = Opt.optimize_exn ?config k

let read_int reader name =
  match reader name with
  | Compile.Aint x -> x
  | _ -> Alcotest.fail "expected int"

let read_iarr reader name =
  match reader name with
  | Compile.Aint_array x -> Taco_support.Ivec.to_array x
  | _ -> Alcotest.fail "expected int array"

(* Run a kernel unoptimized and with [config], checking that the named
   scalars and arrays agree. *)
let check_equiv ?config k scalars arrays =
  let r0 = Compile.run (Compile.compile ~opt:Opt.none ~cache:false k) ~args:[] in
  let r1 = Compile.run (Compile.compile ?opt:config ~cache:false k) ~args:[] in
  List.iter
    (fun n -> Alcotest.(check int) n (read_int r0 n) (read_int r1 n))
    scalars;
  List.iter
    (fun n -> Alcotest.(check (array int)) n (read_iarr r0 n) (read_iarr r1 n))
    arrays

(* ------------------------------------------------------------------ *)
(* simplify                                                            *)
(* ------------------------------------------------------------------ *)

let test_simplify_folds () =
  let k =
    kernel
      [
        Imp.Decl (Imp.Int, "x", Imp.Binop (Imp.Add, i 2, Imp.Binop (Imp.Mul, i 3, i 4)));
        Imp.Decl (Imp.Int, "y", v "x");
        Imp.Decl (Imp.Int, "z", Imp.Binop (Imp.Add, v "y", i 0));
      ]
  in
  (match (opt ~config:only_simplify k).Imp.k_body with
  | [ Imp.Decl (_, "x", Imp.Int_lit 14); Imp.Decl (_, "y", Imp.Int_lit 14); Imp.Decl (_, "z", Imp.Int_lit 14) ] -> ()
  | _ -> Alcotest.fail "expected constants to fold and propagate");
  check_equiv ~config:only_simplify k [ "x"; "y"; "z" ] []

let test_simplify_kills_propagation () =
  (* y = x must stop propagating once x is reassigned. *)
  let k =
    kernel
      [
        Imp.Decl (Imp.Int, "x", i 1);
        Imp.Decl (Imp.Int, "y", v "x");
        Imp.Assign ("x", i 5);
        Imp.Decl (Imp.Int, "z", v "y");
      ]
  in
  let r = Compile.run (Compile.compile ~opt:only_simplify ~cache:false k) ~args:[] in
  Alcotest.(check int) "y keeps old x" 1 (read_int r "y");
  Alcotest.(check int) "z reads y" 1 (read_int r "z");
  Alcotest.(check int) "x reassigned" 5 (read_int r "x")

let test_simplify_preserves_float_zero_add () =
  (* x +. 0.0 must not fold: it would turn -0.0 into +0.0. *)
  let k =
    kernel
      ~params:[ { Imp.p_name = "p"; p_dtype = Imp.Float; p_array = false; p_output = false } ]
      [ Imp.Decl (Imp.Float, "x", Imp.Binop (Imp.Add, v "p", Imp.Float_lit 0.0)) ]
  in
  match (opt ~config:only_simplify k).Imp.k_body with
  | [ Imp.Decl (_, "x", Imp.Binop (Imp.Add, Imp.Var "p", Imp.Float_lit 0.0)) ] -> ()
  | _ -> Alcotest.fail "float + 0.0 must be left alone"

let test_simplify_static_branch () =
  let k =
    kernel
      [
        Imp.Decl (Imp.Int, "x", i 0);
        Imp.If (Imp.Binop (Imp.Lt, i 1, i 2), [ Imp.Assign ("x", i 7) ], [ Imp.Assign ("x", i 9) ]);
      ]
  in
  (match (opt ~config:only_simplify k).Imp.k_body with
  | [ Imp.Decl (_, "x", _); Imp.Assign ("x", Imp.Int_lit 7) ] -> ()
  | _ -> Alcotest.fail "statically-true branch should inline");
  check_equiv ~config:only_simplify k [ "x" ] []

(* ------------------------------------------------------------------ *)
(* licm                                                                *)
(* ------------------------------------------------------------------ *)

let count_hoisted body =
  List.length
    (List.filter (function Imp.Decl (_, n, _) -> String.length n > 2 && String.sub n 0 2 = "_h" | _ -> false) body)

let test_licm_hoists_invariant_load () =
  let k =
    kernel
      [
        Imp.Alloc (Imp.Int, "a", i 4);
        Imp.Store ("a", i 2, i 41);
        Imp.Alloc (Imp.Int, "out", i 8);
        Imp.For ("x", i 0, i 8, [ Imp.Store ("out", v "x", Imp.Binop (Imp.Add, Imp.Load ("a", i 2), v "x")) ]);
      ]
  in
  let k' = opt ~config:only_licm k in
  Alcotest.(check bool) "a load was hoisted" true (count_hoisted k'.Imp.k_body > 0);
  (match List.filter (function Imp.For _ -> true | _ -> false) k'.Imp.k_body with
  | [ Imp.For (_, _, _, body) ] ->
      Alcotest.(check bool) "loop body no longer loads" false
        (List.exists
           (function Imp.Store (_, _, Imp.Binop (_, Imp.Load _, _)) -> true | _ -> false)
           body)
  | _ -> Alcotest.fail "expected one for loop");
  check_equiv ~config:only_licm k [] [ "out" ]

let test_licm_keeps_variant_load () =
  let k =
    kernel
      [
        Imp.Alloc (Imp.Int, "a", i 8);
        Imp.Alloc (Imp.Int, "out", i 8);
        Imp.For ("x", i 0, i 8, [ Imp.Store ("out", v "x", Imp.Load ("a", v "x")) ]);
      ]
  in
  Alcotest.(check int) "nothing hoisted" 0 (count_hoisted (opt ~config:only_licm k).Imp.k_body)

let test_licm_zero_trip_guard () =
  (* The hoisted load's index is out of bounds when the loop runs zero
     times; the guard must keep the bounds-checked closures from
     faulting. *)
  let k =
    kernel
      [
        Imp.Decl (Imp.Int, "n", i 0);
        Imp.Alloc (Imp.Int, "a", i 1);
        Imp.Alloc (Imp.Int, "out", i 1);
        Imp.For ("x", i 0, v "n", [ Imp.Store ("out", v "x", Imp.Load ("a", i 5)) ]);
      ]
  in
  let c = Compile.compile ~opt:only_licm ~cache:false k in
  let r = Compile.run c ~args:[] in
  Alcotest.(check (array int)) "out untouched" [| 0 |] (read_iarr r "out")

(* ------------------------------------------------------------------ *)
(* pipeline + validate                                                 *)
(* ------------------------------------------------------------------ *)

let spgemm_info () =
  let a = Helpers.csr_tv "A" and b = Helpers.csr_tv "B" and c = Helpers.csr_tv "C" in
  let stmt =
    Index_notation.assign a [ vi; vj ]
      (Index_notation.sum Helpers.vk
         (Index_notation.Mul
            (Index_notation.access b [ vi; Helpers.vk ], Index_notation.access c [ Helpers.vk; vj ])))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder Helpers.vk vj sched) in
  let w = Helpers.ws_vec "w" in
  let e =
    Cin.Mul
      ( Cin.Access (Cin.access b [ vi; Helpers.vk ]),
        Cin.Access (Cin.access c [ Helpers.vk; vj ]) )
  in
  let sched = Helpers.get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  Helpers.get
    (Lower.lower ~name:"spgemm_ws"
       ~mode:(Lower.Assemble { emit_values = true; sorted = true })
       (Schedule.stmt sched))

let test_optimized_kernel_validates () =
  let info = spgemm_info () in
  let k = Opt.optimize_exn info.Lower.kernel in
  match Imp.validate k with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("optimized spgemm fails validate: " ^ e)

let test_kernel_exposes_optimized_imp () =
  let info = spgemm_info () in
  let kern = Kernel.prepare info in
  let unopt = Kernel.prepare ~opt:Opt.none info in
  Alcotest.(check bool) "optimizer changed the spgemm kernel" true
    (Kernel.imp kern <> Kernel.imp unopt);
  Alcotest.(check bool) "unopt imp is the lowered kernel" true
    (Kernel.imp unopt = info.Lower.kernel);
  Alcotest.(check bool) "c_source renders the optimized kernel" true
    (String.length (Kernel.c_source kern) > 0)

(* A(i,j) = B(i,j) + C(i,j) + ..., every operand CSR: SpAdd with two
   operands, a fused merge with more. *)
let merge_info names =
  let sum =
    match List.map (fun n -> Index_notation.access (Helpers.csr_tv n) [ vi; vj ]) names with
    | [] -> invalid_arg "merge_info"
    | x :: rest -> List.fold_left (fun acc y -> Index_notation.Add (acc, y)) x rest
  in
  let stmt = Index_notation.assign (Helpers.csr_tv "A") [ vi; vj ] sum in
  Helpers.get
    (Lower.lower ~mode:(Lower.Assemble { emit_values = true; sorted = true })
       (Schedule.stmt (Helpers.get (Schedule.of_index_notation stmt))))

(* MTTKRP with a dense workspace over j (paper §VIII-C). *)
let mttkrp_info () =
  let vk = Helpers.vk and vl = Var.Index_var.make "l" in
  let a = Helpers.dense_mat_tv "A" and c = Helpers.dense_mat_tv "C" and d = Helpers.dense_mat_tv "D" in
  let b = Var.Tensor_var.make "B" ~order:3 ~format:(F.csf 3) in
  let stmt =
    Index_notation.assign a [ vi; vj ]
      (Index_notation.sum vk
         (Index_notation.sum vl
            (Index_notation.Mul
               ( Index_notation.Mul
                   (Index_notation.access b [ vi; vk; vl ], Index_notation.access c [ vl; vj ]),
                 Index_notation.access d [ vk; vj ] ))))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vj vk sched) in
  let sched = Helpers.get (Schedule.reorder vj vl sched) in
  let e =
    Cin.Mul (Cin.Access (Cin.access b [ vi; vk; vl ]), Cin.Access (Cin.access c [ vl; vj ]))
  in
  let sched =
    Helpers.get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:(Helpers.ws_vec "w") sched)
  in
  Helpers.get (Lower.lower ~mode:Lower.Compute (Schedule.stmt sched))

let licm_fires (info : Lower.kernel_info) =
  match Opt.optimize_stats info.Lower.kernel with
  | Ok (_, stats) -> (List.find (fun st -> st.Opt.ps_pass = "licm") stats).Opt.ps_fires
  | Error e -> Alcotest.fail e

(* Lowering reads each segment end once, so LICM has nothing to hoist
   from merge loops; MTTKRP's dense-loop addresses and invariant
   operand load are still its work. *)
let test_licm_division_of_labour () =
  Alcotest.(check int) "licm fires on SpAdd" 0 (licm_fires (merge_info [ "B"; "C" ]));
  Alcotest.(check int) "licm fires on the 3-operand merge" 0
    (licm_fires (merge_info [ "B"; "C"; "D" ]));
  Alcotest.(check bool) "licm fires on MTTKRP" true (licm_fires (mttkrp_info ()) > 0)

(* ------------------------------------------------------------------ *)
(* compiled-kernel cache                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_hits () =
  Compile.cache_clear ();
  let k = kernel ~name:"cache_probe" [ Imp.Decl (Imp.Int, "x", i 1) ] in
  let _ = Compile.compile k in
  let s1 = Compile.cache_stats () in
  Alcotest.(check int) "first compile misses" 1 s1.Compile.misses;
  Alcotest.(check int) "one entry" 1 s1.Compile.entries;
  let _ = Compile.compile k in
  let s2 = Compile.cache_stats () in
  Alcotest.(check int) "second compile hits" 1 s2.Compile.hits;
  Alcotest.(check int) "still one entry" 1 s2.Compile.entries

let test_cache_keyed_on_kernel () =
  Compile.cache_clear ();
  let k = kernel ~name:"cache_probe2" [ Imp.Decl (Imp.Int, "x", i 1) ] in
  let _ = Compile.compile k in
  let k2 = kernel ~name:"cache_probe2" [ Imp.Decl (Imp.Int, "x", i 2) ] in
  let _ = Compile.compile k2 in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "two distinct keys" 2 s.Compile.misses;
  Alcotest.(check int) "no hits" 0 s.Compile.hits

let test_cache_bypass () =
  Compile.cache_clear ();
  let k = kernel ~name:"cache_probe3" [ Imp.Decl (Imp.Int, "x", i 1) ] in
  let _ = Compile.compile ~cache:false k in
  let _ = Compile.compile ~cache:false k in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "bypass records nothing" 0 (s.Compile.hits + s.Compile.misses + s.Compile.entries)

(* A hit does no optimizer work: with every optimizer pass armed to
   crash, a recompile still returns the cached kernel, while an uncached
   compile under the same rule crashes (the rule is live). *)
let test_cache_hit_skips_optimizer () =
  Compile.cache_clear ();
  let k = kernel ~name:"cache_probe4" [ Imp.Decl (Imp.Int, "x", i 1) ] in
  let c = Compile.compile k in
  Fault.configure ~seed:1 [ Fault.rule "opt.pass" Fault.Crash ];
  Fun.protect ~finally:Fault.disarm (fun () ->
      let c' = Compile.compile k in
      Alcotest.(check bool) "hit returns the cached kernel" true (c' == c);
      Alcotest.(check int) "hits + 1" 1 (Compile.cache_stats ()).Compile.hits;
      Alcotest.(check int) "opt.pass not fired" 0 (Fault.fires "opt.pass");
      match Compile.compile ~cache:false k with
      | _ -> Alcotest.fail "uncached compile ran the optimizer without crashing"
      | exception Taco_support.Diag.Error d ->
          Alcotest.(check string) "injected fault" "E_FAULT_INJECTED" d.Taco_support.Diag.code)

(* ------------------------------------------------------------------ *)
(* optimizer stats across domains                                      *)
(* ------------------------------------------------------------------ *)

let pass_fires k =
  match Opt.optimize_stats k with
  | Ok (_, stats) -> List.map (fun st -> (st.Opt.ps_pass, st.Opt.ps_fires)) stats
  | Error e -> Alcotest.fail e

(* Two domains optimizing at once each report exactly the per-pass
   rewrite counts of a sequential run. *)
let test_stats_domain_safe () =
  let k = (spgemm_info ()).Lower.kernel in
  let expected = pass_fires k in
  Alcotest.(check bool) "some pass fires" true (List.exists (fun (_, n) -> n > 0) expected);
  let worker () = List.init 40 (fun _ -> pass_fires k) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  List.iter
    (Alcotest.(check (list (pair string int))) "concurrent ps_fires match sequential" expected)
    (Domain.join d1 @ Domain.join d2)

(* ------------------------------------------------------------------ *)
(* Parallel clamping / empty partitions                                *)
(* ------------------------------------------------------------------ *)

let copy_kernel () =
  let b = Helpers.csr_tv "B" in
  let a = Helpers.dense_mat_tv "A" in
  let stmt = Index_notation.assign a [ vi; vj ] (Index_notation.access b [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  (b, Kernel.prepare (Helpers.get (Lower.lower ~mode:Lower.Compute (Schedule.stmt sched))))

let test_parallel_overclamped_domains () =
  (* More domains than rows (and than cores): must clamp and skip the
     padding partitions rather than spawn domains for empty work. *)
  let b, kern = copy_kernel () in
  let bt = Helpers.random_tensor 931 [| 3; 5 |] 0.5 F.csr in
  let seq = Kernel.run_dense kern ~inputs:[ (b, bt) ] ~dims:[| 3; 5 |] in
  let par =
    Taco_exec.Parallel.run_dense kern ~inputs:[ (b, bt) ] ~dims:[| 3; 5 |] ~split:b ~domains:64
  in
  Helpers.check_dense "clamped parallel equals sequential" (T.to_dense seq) (T.to_dense par)

let test_parallel_empty_split_tensor () =
  (* All partitions empty: falls back to a single sequential run. *)
  let b, kern = copy_kernel () in
  let bt = T.of_dense (D.create [| 4; 4 |]) F.csr in
  let par =
    Taco_exec.Parallel.run_dense kern ~inputs:[ (b, bt) ] ~dims:[| 4; 4 |] ~split:b ~domains:3
  in
  Helpers.check_dense "empty input gives zero result" (D.create [| 4; 4 |]) (T.to_dense par)

let () =
  Alcotest.run "opt"
    [
      ( "simplify",
        [
          Alcotest.test_case "constant folding and propagation" `Quick test_simplify_folds;
          Alcotest.test_case "propagation killed on reassignment" `Quick test_simplify_kills_propagation;
          Alcotest.test_case "float + 0.0 preserved" `Quick test_simplify_preserves_float_zero_add;
          Alcotest.test_case "static branch inlined" `Quick test_simplify_static_branch;
        ] );
      ( "licm",
        [
          Alcotest.test_case "invariant load hoisted" `Quick test_licm_hoists_invariant_load;
          Alcotest.test_case "variant load kept" `Quick test_licm_keeps_variant_load;
          Alcotest.test_case "zero-trip guard under checked mode" `Quick test_licm_zero_trip_guard;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "optimized spgemm validates" `Quick test_optimized_kernel_validates;
          Alcotest.test_case "Kernel.imp shows optimized IR" `Quick test_kernel_exposes_optimized_imp;
          Alcotest.test_case "licm only where lowering cannot hoist" `Quick test_licm_division_of_labour;
        ] );
      ( "cache",
        [
          Alcotest.test_case "second compile hits" `Quick test_cache_hits;
          Alcotest.test_case "keyed on structure" `Quick test_cache_keyed_on_kernel;
          Alcotest.test_case "cache:false bypasses" `Quick test_cache_bypass;
          Alcotest.test_case "hit skips the optimizer" `Quick test_cache_hit_skips_optimizer;
        ] );
      ( "stats",
        [ Alcotest.test_case "per-pass fires domain-safe" `Quick test_stats_domain_safe ] );
      ( "parallel",
        [
          Alcotest.test_case "domains clamped, padding skipped" `Quick test_parallel_overclamped_domains;
          Alcotest.test_case "empty split tensor" `Quick test_parallel_empty_split_tensor;
        ] );
    ]
