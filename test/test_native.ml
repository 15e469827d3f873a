(* The native C execution backend: kernels compiled by the system C
   compiler into shared objects must be bit-identical to the closure
   executor on the paper's three workspace kernels (sequential and
   parallelized), join the single-flight compilation cache, and
   downgrade to closures — counted, never a client error — when the
   compiler is broken.

   Everything that needs a real compiler is gated on
   [Native.available ()] and reports itself skipped on machines
   without one; the downgrade tests run everywhere (a bogus TACO_CC is
   exactly the point). *)

open Helpers
open Taco
module T = Taco_tensor.Tensor
module F = Taco_tensor.Format

let have_cc = Native.available ()

(* A gated test: a no-op (with a note) when there is no C compiler. *)
let cc_case name f =
  Alcotest.test_case name `Quick (fun () ->
      if have_cc then f ()
      else
        Printf.printf "  [skipped: C compiler %S unavailable]\n" (Native.compiler ()))

let float_bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))) then
            ok := false)
        a;
      !ok)

let tensors_bit_identical t1 t2 =
  T.dims t1 = T.dims t2
  && float_bits_equal (T.vals t1) (T.vals t2)
  && List.for_all
       (fun l ->
         match (T.level_data t1 l, T.level_data t2 l) with
         | T.Dense_data { size = s1 }, T.Dense_data { size = s2 } -> s1 = s2
         | T.Compressed_data c1, T.Compressed_data c2 ->
             c1.pos = c2.pos && c1.crd = c2.crd
         | T.Dense_data _, T.Compressed_data _ | T.Compressed_data _, T.Dense_data _ ->
             false)
       (List.init (T.order t1) Fun.id)

(* --- the three paper kernels, sequential and parallelized ------------ *)

let spgemm_sched ~parallel =
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
  let sched = if parallel then getd (parallelize vi sched) else sched in
  (b, c, sched)

let spadd_sched ~parallel =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (Add (access b [ vi; vj ], access c [ vi; vj ])) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = if parallel then getd (parallelize vi sched) else sched in
  (b, c, sched)

let mttkrp_sched ~parallel =
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
  let sched = if parallel then getd (parallelize vi sched) else sched in
  (a, b, c, d, sched)

let spgemm_inputs b c seed =
  [
    (b, random_tensor (seed + 11) [| 24; 18 |] 0.3 F.csr);
    (c, random_tensor (seed + 12) [| 18; 21 |] 0.3 F.csr);
  ]

(* Compile the same schedule under both backends and hold the native
   result to bit-identity with the closure one across several seeds. *)
let check_both ~name sched inputs_of =
  let closure = getd (compile ~name ~backend:`Closure sched) in
  let native = getd (compile ~name ~backend:`Native sched) in
  Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
  List.iter
    (fun seed ->
      let inputs = inputs_of seed in
      let rc = getd (run closure ~inputs) in
      let rn = getd (run native ~inputs) in
      if not (tensors_bit_identical rc rn) then
        Alcotest.failf "%s (seed %d): native result diverges from closures" name seed)
    [ 1; 2; 3 ]

let test_spgemm_identity ~parallel () =
  let b, c, sched = spgemm_sched ~parallel in
  check_both
    ~name:(if parallel then "spgemm_nat_par" else "spgemm_nat")
    sched (spgemm_inputs b c)

let test_spadd_identity ~parallel () =
  let b, c, sched = spadd_sched ~parallel in
  check_both
    ~name:(if parallel then "spadd_nat_par" else "spadd_nat")
    sched
    (fun seed ->
      [
        (b, random_tensor (seed + 21) [| 30; 25 |] 0.25 F.csr);
        (c, random_tensor (seed + 22) [| 30; 25 |] 0.25 F.csr);
      ])

let test_mttkrp_identity ~parallel () =
  let _, b, c, d, sched = mttkrp_sched ~parallel in
  check_both
    ~name:(if parallel then "mttkrp_nat_par" else "mttkrp_nat")
    sched
    (fun seed ->
      [
        (b, random_tensor (seed + 31) [| 9; 7; 6 |] 0.3 (F.csf 3));
        (c, random_tensor (seed + 32) [| 6; 8 |] 1.0 F.dense_matrix);
        (d, random_tensor (seed + 33) [| 7; 8 |] 1.0 F.dense_matrix);
      ])

(* Chunked closure runs and the native OpenMP run must still agree: the
   chunk count fixes the closure merge, and the native backend renders
   parallel loops with the same ordered-append semantics. *)
let test_parallel_domains_identity () =
  let b, c, sched = spgemm_sched ~parallel:true in
  let closure = getd (compile ~name:"spgemm_nat_par" ~backend:`Closure sched) in
  let native = getd (compile ~name:"spgemm_nat_par" ~backend:`Native sched) in
  let inputs = spgemm_inputs b c 7 in
  let rn = getd (run native ~inputs) in
  List.iter
    (fun domains ->
      let rc = getd (run ~domains closure ~inputs) in
      if not (tensors_bit_identical rc rn) then
        Alcotest.failf "native diverges from the %d-domain closure run" domains)
    [ 1; 2; 3 ]

(* --- result read-back: exact lengths, one contract on both backends --- *)

let assemble_kernel ~name ~sorted ~backend sched =
  kernel
    (getd
       (compile ~name ~backend
          ~mode:(Lower.Assemble { emit_values = true; sorted })
          sched))

(* Arguments [Kernel.run_assemble] binds for a CSR result of [dims]. *)
let assemble_args k ~inputs ~dims =
  let result = (Kernel.info k).Lower.result in
  List.init 2 (fun l -> (Lower.dimension_var result l, Compile.Aint dims.(l)))
  @ List.concat_map (fun (tv, t) -> Kernel.tensor_args tv t) inputs

let read_int_array read name =
  match read name with
  | Compile.Aint_array a -> a
  | Compile.Aint _ | Compile.Afloat _ | Compile.Afloat_array _ ->
      Alcotest.failf "%s: not an int array" name

(* The read-back as it used to be done: every assembled buffer handed
   back whole, then cut to pos[rows] entries (and unsorted rows sorted)
   on the OCaml side. *)
let capacity_read_back k ~backend ~sorted ~inputs ~dims =
  let info = Kernel.info k in
  let result = info.Lower.result in
  let read =
    Compile.run
      (Compile.compile ~backend info.Lower.kernel)
      ~args:(assemble_args k ~inputs ~dims)
  in
  let rows = dims.(0) in
  let pos = Array.sub (read_int_array read (Lower.pos_var result 1)) 0 (rows + 1) in
  let nnz = pos.(rows) in
  let crd = Array.sub (read_int_array read (Lower.crd_var result 1)) 0 nnz in
  let vals =
    match read (Lower.vals_var result) with
    | Compile.Afloat_array a -> Array.sub a 0 nnz
    | Compile.Aint _ | Compile.Afloat _ | Compile.Aint_array _ -> Alcotest.fail "vals"
  in
  if not sorted then
    for p = 0 to rows - 1 do
      Taco_support.Util.sort_paired crd vals pos.(p) pos.(p + 1)
    done;
  (pos, crd, vals)

let check_read_back ~name ~sorted sched inputs dims =
  let results =
    List.map
      (fun backend ->
        let k = assemble_kernel ~name ~sorted ~backend sched in
        Alcotest.(check bool) "backend as requested" true (Kernel.backend k = backend);
        let t = Kernel.run_assemble k ~inputs ~dims in
        let pos, crd =
          match T.level_data t 1 with
          | T.Compressed_data { pos; crd } -> (pos, crd)
          | T.Dense_data _ -> Alcotest.fail "expected a compressed level"
        in
        let rows = dims.(0) in
        Alcotest.(check int) (name ^ ": pos length") (rows + 1) (Array.length pos);
        Alcotest.(check int) (name ^ ": crd length") pos.(rows) (Array.length crd);
        Alcotest.(check int) (name ^ ": vals length") pos.(rows) (Array.length (T.vals t));
        let pos0, crd0, vals0 = capacity_read_back k ~backend ~sorted ~inputs ~dims in
        if not (pos = pos0 && crd = crd0 && float_bits_equal (T.vals t) vals0) then
          Alcotest.failf "%s: exact read-back differs from the capacity read-back" name;
        t)
      [ `Closure; `Native ]
  in
  match results with
  | [ rc; rn ] ->
      if not (tensors_bit_identical rc rn) then
        Alcotest.failf "%s: native read-back diverges from closures" name
  | _ -> assert false

let test_read_back_spgemm () =
  let b, c, sched = spgemm_sched ~parallel:false in
  check_read_back ~name:"spgemm_rb" ~sorted:true sched (spgemm_inputs b c 5) [| 24; 21 |]

let test_read_back_spadd () =
  let b, c, sched = spadd_sched ~parallel:false in
  check_read_back ~name:"spadd_rb" ~sorted:true sched
    [
      (b, random_tensor 51 [| 30; 25 |] 0.25 F.csr);
      (c, random_tensor 52 [| 30; 25 |] 0.25 F.csr);
    ]
    [| 30; 25 |]

let test_read_back_unsorted () =
  let b, c, sched = spgemm_sched ~parallel:false in
  check_read_back ~name:"spgemm_rb_unsorted" ~sorted:false sched (spgemm_inputs b c 6)
    [| 24; 21 |]

(* An out-of-range length is one stage-Execute diagnostic, the same on
   both backends: never a crash and never a short array. *)
let test_read_back_out_of_range () =
  let b, c, sched = spgemm_sched ~parallel:false in
  let inputs = spgemm_inputs b c 8 and dims = [| 24; 21 |] in
  let diag backend read =
    let k = assemble_kernel ~name:"spgemm_rb" ~sorted:true ~backend sched in
    let info = Kernel.info k in
    match
      Compile.run ~read (Compile.compile ~backend info.Lower.kernel)
        ~args:(assemble_args k ~inputs ~dims)
    with
    | (_ : string -> Compile.arg) -> Alcotest.fail "out-of-range read-back accepted"
    | exception Diag.Error d -> d
  in
  let result = tensor "A" Format.csr in
  let pos = Lower.pos_var result 1 and crd = Lower.crd_var result 1 in
  List.iter
    (fun (what, read) ->
      let dc = diag `Closure read and dn = diag `Native read in
      Alcotest.(check string) (what ^ ": stage") "execute" (Diag.stage_name dn.Diag.stage);
      Alcotest.(check string) (what ^ ": code") "E_EXEC_NATIVE" dn.Diag.code;
      Alcotest.(check string) (what ^ ": same diagnostic on both backends")
        (Diag.to_string dc) (Diag.to_string dn))
    [
      ("prefix past capacity", [ (crd, Compile.Len 1_000_000_000) ]);
      ("negative length", [ (crd, Compile.Len (-1)) ]);
      ("length index past its source", [ (crd, Compile.Len_at (pos, 1_000_000)) ]);
      ("negative length index", [ (crd, Compile.Len_at (pos, -1)) ]);
      ("nnz as the length of pos", [ (pos, Compile.Len_at (pos, dims.(0))) ]);
    ]

(* --- generated exec C compiles under -Wall -Werror ------------------- *)

let test_exec_c_warning_clean () =
  let kernels =
    let _, _, s1 = spgemm_sched ~parallel:false in
    let _, _, s2 = spgemm_sched ~parallel:true in
    let _, _, s3 = spadd_sched ~parallel:false in
    let _, _, _, _, s4 = mttkrp_sched ~parallel:true in
    List.map
      (fun (name, sched) -> (name, Kernel.imp (kernel (getd (compile ~name sched)))))
      [
        ("spgemm_wal", s1); ("spgemm_wal_par", s2); ("spadd_wal", s3); ("mttkrp_wal_par", s4);
      ]
  in
  List.iter
    (fun (name, k) ->
      let src = Codegen_c.emit_exec k in
      let cfile = Filename.temp_file ("taco_wal_" ^ name) ".c" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove cfile with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin cfile (fun oc -> Out_channel.output_string oc src);
          let cmd =
            Printf.sprintf "%s -O3 -Wall -Werror -fopenmp -x c -c -o /dev/null %s"
              (Filename.quote (Native.compiler ()))
              (Filename.quote cfile)
          in
          if Sys.command cmd <> 0 then
            Alcotest.failf "%s: emit_exec output does not compile under -Wall -Werror" name))
    kernels

(* --- cache: native builds are single-flighted across domains --------- *)

let test_single_flight () =
  Compile.cache_clear ();
  let _, _, sched = spgemm_sched ~parallel:false in
  let before = (Compile.cache_stats ()).Compile.misses in
  let compiled =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> getd (compile ~name:"spgemm_sf" ~backend:`Native sched)))
    |> List.map Domain.join
  in
  let after = (Compile.cache_stats ()).Compile.misses in
  Alcotest.(check int) "exactly one native build for four racing domains" 1
    (after - before);
  List.iter
    (fun c ->
      Alcotest.(check bool) "every domain got the native kernel" true
        (backend_of c = `Native))
    compiled

(* --- downgrade paths (run everywhere, no compiler needed) ------------ *)

let with_bogus_cc f =
  Unix.putenv "TACO_CC" "/definitely/not/a/compiler";
  (* An empty TACO_CC falls back to the default compiler. *)
  Fun.protect ~finally:(fun () -> Unix.putenv "TACO_CC" "") f

let test_bogus_compiler_falls_back () =
  with_bogus_cc @@ fun () ->
  let before = (Compile.backend_stats ()).Compile.downgrades in
  let b, c, sched = spadd_sched ~parallel:false in
  let native = getd (compile ~name:"spadd_fallback" ~backend:`Native sched) in
  Alcotest.(check bool) "served by closures" true (backend_of native = `Closure);
  let after = (Compile.backend_stats ()).Compile.downgrades in
  Alcotest.(check bool) "downgrade was counted" true (after > before);
  (* And it still computes: the fallback is a working executor, not a
     stub. *)
  let inputs =
    [
      (b, random_tensor 41 [| 12; 12 |] 0.3 F.csr);
      (c, random_tensor 42 [| 12; 12 |] 0.3 F.csr);
    ]
  in
  let closure = getd (compile ~name:"spadd_fallback" ~backend:`Closure sched) in
  let rc = getd (run closure ~inputs) in
  let rn = getd (run native ~inputs) in
  Alcotest.(check bool) "fallback result identical" true (tensors_bit_identical rc rn)

let test_compiler_id_in_cache_key () =
  (* The same structure under two TACO_CC values must not share a cache
     entry: a bogus-compiler downgrade must not be served back once a
     working compiler is configured. *)
  let _, _, sched = spadd_sched ~parallel:false in
  let k1 = with_bogus_cc (fun () -> getd (compile ~name:"spadd_key" ~backend:`Native sched)) in
  Alcotest.(check bool) "bogus entry downgraded" true (backend_of k1 = `Closure);
  if have_cc then
    let k2 = getd (compile ~name:"spadd_key" ~backend:`Native sched) in
    Alcotest.(check bool) "real compiler not served the stale downgrade" true
      (backend_of k2 = `Native)

let () =
  Alcotest.run "native"
    [
      ( "bit-identity",
        [
          cc_case "SpGEMM closure vs native" (test_spgemm_identity ~parallel:false);
          cc_case "SpAdd closure vs native" (test_spadd_identity ~parallel:false);
          cc_case "MTTKRP closure vs native" (test_mttkrp_identity ~parallel:false);
          cc_case "SpGEMM parallel (OpenMP) vs closure" (test_spgemm_identity ~parallel:true);
          cc_case "SpAdd parallel (OpenMP) vs closure" (test_spadd_identity ~parallel:true);
          cc_case "MTTKRP parallel (OpenMP) vs closure" (test_mttkrp_identity ~parallel:true);
          cc_case "native vs chunked closure runs" test_parallel_domains_identity;
        ] );
      ( "read-back",
        [
          cc_case "SpGEMM exact lengths" test_read_back_spgemm;
          cc_case "SpAdd exact lengths" test_read_back_spadd;
          cc_case "unsorted SpGEMM exact lengths" test_read_back_unsorted;
          cc_case "out-of-range length, both backends" test_read_back_out_of_range;
        ] );
      ("codegen", [ cc_case "exec C is -Wall -Werror clean" test_exec_c_warning_clean ]);
      ("cache", [ cc_case "native builds single-flight across domains" test_single_flight ]);
      ( "fallback",
        [
          Alcotest.test_case "bogus TACO_CC downgrades to closures" `Quick
            test_bogus_compiler_falls_back;
          Alcotest.test_case "compiler id is part of the cache key" `Quick
            test_compiler_id_in_cache_key;
        ] );
    ]
