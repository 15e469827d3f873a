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
module Ivec = Taco_support.Ivec

let have_cc = Native.available ()

(* A gated test: a no-op (with a note) when there is no C compiler. *)
let cc_case name f =
  Alcotest.test_case name `Quick (fun () ->
      if have_cc then f ()
      else
        Printf.printf "  [skipped: C compiler %S unavailable]\n" (Native.compiler ()))

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

(* Non-finite literals keep their bits on every backend. Opt folds
   [1e999 - 1e999] to the NaN x86 computes for inf - inf, which is
   negative with an empty payload; the exec C must render those bits,
   not [NAN]'s positive ones. *)
let test_nonfinite_literals () =
  let inf_minus_inf = Float.infinity -. Float.infinity in
  List.iter
    (fun (name, src, lit) ->
      let a = tensor "A" Format.dense_vector and b = tensor "B" Format.sparse_vector in
      let stmt =
        getd (Taco_frontend.Parser.parse_statement ~tensors:[ ("A", a); ("B", b) ] src)
      in
      let sched = get (Schedule.of_index_notation stmt) in
      let inputs = [ (b, random_tensor 81 [| 40 |] 0.3 F.sparse_vector) ] in
      let closure = getd (compile ~name ~backend:`Closure sched) in
      let native = getd (compile ~name ~backend:`Native sched) in
      Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
      let rc = getd (run closure ~inputs) in
      Alcotest.(check bool) (name ^ ": the literal reaches the result") true
        (Array.exists
           (fun v -> Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float lit))
           (T.vals rc));
      let k = Taco.kernel native in
      let r0 = getd (run native ~inputs) in
      Kernel.promote k;
      Alcotest.(check (option int)) (name ^ ": promoted") (Some 1) (Kernel.native_tier k);
      let r1 = getd (run native ~inputs) in
      List.iter
        (fun (tier, r) ->
          if not (tensors_bit_identical rc r) then
            Alcotest.failf "%s: tier %d diverges from closures" name tier)
        [ (0, r0); (1, r1) ])
    [
      ("nan_lit", "A(i) = B(i) * (1e999 - 1e999)", inf_minus_inf);
      ("inf_lit", "A(i) = B(i) * 1e999", Float.infinity);
    ]

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
  let pos = Ivec.sub (read_int_array read (Lower.pos_var result 1)) 0 (rows + 1) in
  let nnz = Ivec.get pos rows in
  let crd = Ivec.sub (read_int_array read (Lower.crd_var result 1)) 0 nnz in
  let vals =
    match read (Lower.vals_var result) with
    | Compile.Afloat_array a -> Array.sub a 0 nnz
    | Compile.Aint _ | Compile.Afloat _ | Compile.Aint_array _ -> Alcotest.fail "vals"
  in
  if not sorted then
    for p = 0 to rows - 1 do
      Taco_support.Util.sort_paired crd vals (Ivec.get pos p) (Ivec.get pos (p + 1))
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
        Alcotest.(check int) (name ^ ": pos length") (rows + 1) (Ivec.length pos);
        Alcotest.(check int) (name ^ ": crd length") (Ivec.get pos rows) (Ivec.length crd);
        Alcotest.(check int) (name ^ ": vals length") (Ivec.get pos rows) (Array.length (T.vals t));
        Alcotest.(check (result unit string)) (name ^ ": validates") (Ok ()) (T.validate t);
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

(* Edge-shape results: an all-zero operand (nnz = 0), 1 x n and n x 1
   operands, and operands with empty rows. [rows_kept] draws a CSR
   matrix whose rows failing [keep] stay empty. *)
let rows_kept seed dims ~keep =
  let prng = Taco_support.Prng.create seed in
  T.of_dense
    (Taco_tensor.Dense.init dims (fun c ->
         if keep c.(0) && Taco_support.Prng.bool prng 0.4 then 0.5 +. Taco_support.Prng.float prng
         else 0.))
    F.csr

let test_read_back_edge_shapes () =
  let all _ = true in
  let b, c, sched = spgemm_sched ~parallel:false in
  List.iter
    (fun (what, bt, ct) ->
      let dims = [| (T.dims bt).(0); (T.dims ct).(1) |] in
      check_read_back ~name:("spgemm_edge: " ^ what) ~sorted:true sched [ (b, bt); (c, ct) ] dims)
    [
      ("zero B", T.zero [| 24; 18 |] F.csr, rows_kept 61 [| 18; 21 |] ~keep:all);
      ("zero C", rows_kept 62 [| 24; 18 |] ~keep:all, T.zero [| 18; 21 |] F.csr);
      ("1 x n B", rows_kept 63 [| 1; 18 |] ~keep:all, rows_kept 64 [| 18; 21 |] ~keep:all);
      ("n x 1 C", rows_kept 65 [| 24; 18 |] ~keep:all, rows_kept 66 [| 18; 1 |] ~keep:all);
      ("outer product", rows_kept 67 [| 24; 1 |] ~keep:all, rows_kept 68 [| 1; 21 |] ~keep:all);
      ("1 x 1", rows_kept 69 [| 1; 1 |] ~keep:all, rows_kept 70 [| 1; 1 |] ~keep:all);
      ( "empty rows",
        rows_kept 71 [| 24; 18 |] ~keep:(fun i -> i mod 3 <> 1),
        rows_kept 72 [| 18; 21 |] ~keep:(fun i -> i mod 2 = 0) );
    ];
  let b, c, sched = spadd_sched ~parallel:false in
  List.iter
    (fun (what, bt, ct) ->
      check_read_back ~name:("spadd_edge: " ^ what) ~sorted:true sched [ (b, bt); (c, ct) ]
        (T.dims bt))
    [
      ("zero + zero", T.zero [| 30; 25 |] F.csr, T.zero [| 30; 25 |] F.csr);
      ("zero + B", T.zero [| 30; 25 |] F.csr, rows_kept 73 [| 30; 25 |] ~keep:all);
      ("1 x n", rows_kept 74 [| 1; 25 |] ~keep:all, rows_kept 75 [| 1; 25 |] ~keep:all);
      ("n x 1", rows_kept 76 [| 30; 1 |] ~keep:all, rows_kept 77 [| 30; 1 |] ~keep:all);
      ( "empty rows",
        rows_kept 78 [| 30; 25 |] ~keep:(fun i -> i mod 3 = 0),
        rows_kept 79 [| 30; 25 |] ~keep:(fun i -> i mod 4 = 1) );
    ]

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

(* ... and with -nostdinc, at both tiers: the exec C needs no header,
   so one that creeps back in fails here. The min-plus and max-times
   kernels cover the INFINITY prelude and min/max reduce-stores. The
   flags are each tier's own (Native.tier_flags). Each kernel is
   built optimized and unoptimized: what the optimizer leaves behind
   (copies, dead temporaries, names declared in several scopes) must
   not trip -Wunused-variable either way. *)
let test_exec_c_warning_clean () =
  let kernels =
    let _, _, s1 = spgemm_sched ~parallel:false in
    let _, _, s2 = spgemm_sched ~parallel:true in
    let _, _, s3 = spadd_sched ~parallel:false in
    let _, _, _, _, s4 = mttkrp_sched ~parallel:true in
    List.concat_map
      (fun (name, semiring, sched) ->
        List.map
          (fun (suffix, opt) ->
            let name = name ^ suffix in
            (name, Kernel.imp (kernel (getd (compile ~name ?semiring ~opt sched)))))
          [ ("", Opt.all); ("_unopt", Opt.none) ])
      [
        ("spgemm_wal", None, s1);
        ("spgemm_wal_par", None, s2);
        ("spadd_wal", None, s3);
        ("mttkrp_wal_par", None, s4);
        ("spgemm_wal_minplus", Some Semiring.min_plus, s1);
        ("spgemm_wal_maxtimes", Some Semiring.max_times, s1);
      ]
  in
  List.iter
    (fun (name, k) ->
      let src = Codegen_c.emit_exec [ k ] in
      let cfile = Filename.temp_file ("taco_wal_" ^ name) ".c" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove cfile with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin cfile (fun oc -> Out_channel.output_string oc src);
          List.iter
            (fun tier ->
              let flags = String.concat " " (Native.tier_flags tier) in
              let cmd =
                Printf.sprintf "%s %s -nostdinc -Wall -Werror -fopenmp -x c -c -o /dev/null %s"
                  (Filename.quote (Native.compiler ()))
                  flags (Filename.quote cfile)
              in
              if Sys.command cmd <> 0 then
                Alcotest.failf "%s: emit_exec output does not compile under %s -nostdinc -Wall -Werror"
                  name flags)
            [ 0; 1 ]))
    kernels

(* --- the kernel runtime table ----------------------------------------- *)

(* The kernels the runtime-table contract is checked on: the paper's
   three, sequential and OpenMP, plus SpGEMM under min-plus. *)
let contract_kernels () =
  let imp ?semiring name sched = (name, Kernel.imp (kernel (getd (compile ~name ?semiring sched)))) in
  let _, _, s_gemm = spgemm_sched ~parallel:false in
  let _, _, s_gemm_par = spgemm_sched ~parallel:true in
  let _, _, s_add = spadd_sched ~parallel:false in
  let _, _, s_add_par = spadd_sched ~parallel:true in
  let _, _, _, _, s_ttkrp = mttkrp_sched ~parallel:false in
  let _, _, _, _, s_ttkrp_par = mttkrp_sched ~parallel:true in
  [
    imp "spgemm_rt" s_gemm;
    imp "spgemm_rt_par" s_gemm_par;
    imp "spadd_rt" s_add;
    imp "spadd_rt_par" s_add_par;
    imp "mttkrp_rt" s_ttkrp;
    imp "mttkrp_rt_par" s_ttkrp_par;
    imp ~semiring:Semiring.min_plus "spgemm_rt_minplus" s_gemm;
  ]

let rec count_growth stmts =
  List.fold_left
    (fun n s ->
      n
      +
      match s with
      | Imp.Alloc _ | Imp.Realloc _ -> 1
      | Imp.For (_, _, _, b) | Imp.ParallelFor (_, _, _, b, _) | Imp.While (_, b) -> count_growth b
      | Imp.If (_, t, e) -> count_growth t + count_growth e
      | _ -> 0)
    0 stmts

let count_occurrences haystack needle =
  let ln = String.length needle in
  let rec go i n =
    if i + ln > String.length haystack then n
    else if String.sub haystack i ln = needle then go (i + ln) (n + 1)
    else go (i + 1) n
  in
  go 0 0

(* Exec C reaches libc only through the table: no allocator, string or
   time header, no inlined calloc/realloc/qsort, and one table call per
   Alloc/Realloc statement. *)
let test_exec_c_uses_table () =
  List.iter
    (fun (name, k) ->
      let src = Codegen_c.emit_exec [ k ] in
      List.iter
        (fun banned ->
          if contains src banned then Alcotest.failf "%s: exec C contains %S" name banned)
        [ "stdlib.h"; "string.h"; "time.h"; "calloc("; "realloc("; "qsort(" ];
      String.split_on_char '\n' src
      |> List.iter (fun l ->
             if String.starts_with ~prefix:"#include" (String.trim l) then
               Alcotest.failf "%s: exec C includes a header: %s" name l);
      Alcotest.(check int)
        (name ^ ": one table call per Alloc/Realloc")
        (count_growth k.Imp.k_body)
        (count_occurrences src "taco_rt->alloc(" + count_occurrences src "taco_rt->grow("))
    (contract_kernels ())

let diag_of = function
  | Ok _ -> None
  | Error d -> Some (d.Diag.code, Diag.stage_name d.Diag.stage)

(* Budget limits straddling every allocation of a SpGEMM whose output
   outgrows its initial 1024-entry capacity three times: the row
   pointer (rows + 1 = 61), the first crd/vals allocation (1024) and
   the growths to 2048 and 4096. At each limit both backends must fail
   with the same E_EXEC_MEM or succeed with bit-identical results. *)
let test_budget_boundary ?semiring ~parallel ~name () =
  let b, c, sched = spgemm_sched ~parallel in
  let inputs =
    [
      (b, random_tensor 91 [| 60; 60 |] 0.15 F.csr);
      (c, random_tensor 92 [| 60; 60 |] 0.15 F.csr);
    ]
  in
  let closure = getd (compile ~name ?semiring ~backend:`Closure sched) in
  let native = getd (compile ~name ?semiring ~backend:`Native sched) in
  Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
  let nnz = Array.length (T.vals (getd (run closure ~inputs))) in
  if nnz <= 2048 || nnz > 4096 then Alcotest.failf "%s: %d output entries, want 2049..4096" name nnz;
  List.iter
    (fun (elems, delta, ok) ->
      let limit = (8 * elems) + delta in
      Fun.protect
        ~finally:(fun () -> Budget.set_mem_limit 0)
        (fun () ->
          Budget.set_mem_limit limit;
          let rc = run closure ~inputs and rn = run native ~inputs in
          let what = Printf.sprintf "%s, limit %d bytes" name limit in
          Alcotest.(check (option (pair string string)))
            (what ^ ": same outcome on both backends")
            (diag_of rc) (diag_of rn);
          match (rc, rn) with
          | Ok tc, Ok tn ->
              if not ok then Alcotest.failf "%s: expected E_EXEC_MEM" what;
              if not (tensors_bit_identical tc tn) then
                Alcotest.failf "%s: native result diverges from closures" what
          | Error d, _ ->
              if ok then Alcotest.failf "%s: unexpected %s" what (Diag.to_string d);
              Alcotest.(check string) (what ^ ": code") "E_EXEC_MEM" d.Diag.code
          | Ok _, Error _ -> ()))
    [
      (61, -1, false);
      (61, 0, false);
      (1024, -1, false);
      (1024, 0, false);
      (2048, -1, false);
      (2048, 0, false);
      (4096, -1, false);
      (4096, 0, true);
    ]

(* The runtime table's alloc and grow at the memory limit, in a SpAdd
   assembly whose 1025..2048 result entries outgrow the initial
   1024-entry crd/vals once: the limit one element short of the first
   allocation, exactly at it (the grow to 2048 then crosses the limit),
   one element short of the grow, and exactly at it. Closures, tier 0
   and tier 1 must give bit-identical results, or the same E_EXEC_MEM
   with the same kernel, bytes and limit. *)
let test_budget_grow () =
  let b, c, sched = spadd_sched ~parallel:false in
  let inputs =
    [
      (b, random_tensor 95 [| 40; 40 |] 0.45 F.csr);
      (c, random_tensor 96 [| 40; 40 |] 0.45 F.csr);
    ]
  in
  let closure = getd (compile ~name:"spadd_budget" ~backend:`Closure sched) in
  let native = getd (compile ~name:"spadd_budget" ~backend:`Native sched) in
  let k = Taco.kernel native in
  let nnz = Array.length (T.vals (getd (run closure ~inputs))) in
  if nnz <= 1024 || nnz > 2048 then Alcotest.failf "%d output entries, want 1025..2048" nnz;
  (* (limit in bytes, the refused allocation's bytes, or None for success) *)
  let limits =
    [ ((8 * 1024) - 1, Some 8192); (8 * 1024, Some 16384); ((8 * 2048) - 1, Some 16384); (8 * 2048, None) ]
  in
  let at_limit c (limit, _) =
    Fun.protect
      ~finally:(fun () -> Budget.set_mem_limit 0)
      (fun () ->
        Budget.set_mem_limit limit;
        run c ~inputs)
  in
  let tier t = Alcotest.(check (option int)) "native tier" (Some t) (Kernel.native_tier k) in
  let closures = List.map (at_limit closure) limits in
  tier 0;
  let tier0 = List.map (at_limit native) limits in
  tier 0;
  Kernel.promote k;
  tier 1;
  let tier1 = List.map (at_limit native) limits in
  let fields d = List.map (fun f -> (f, List.assoc_opt f d.Diag.context)) [ "kernel"; "bytes"; "limit_bytes" ] in
  List.iteri
    (fun i (limit, refused) ->
      let what who = Printf.sprintf "limit %d bytes, %s" limit who in
      let reference = List.nth closures i in
      (match (reference, refused) with
      | Ok _, None -> ()
      | Error d, Some bytes ->
          Alcotest.(check string) (what "closures: code") "E_EXEC_MEM" d.Diag.code;
          Alcotest.(check (option string)) (what "closures: bytes") (Some (string_of_int bytes))
            (List.assoc_opt "bytes" d.Diag.context)
      | Ok _, Some _ -> Alcotest.failf "%s: expected E_EXEC_MEM" (what "closures")
      | Error d, None -> Alcotest.failf "%s: unexpected %s" (what "closures") (Diag.to_string d));
      List.iter
        (fun (who, outcome) ->
          match (reference, outcome) with
          | Ok tc, Ok tn ->
              if not (tensors_bit_identical tc tn) then
                Alcotest.failf "%s: result diverges from closures" (what who)
          | Error dc, Error dn ->
              Alcotest.(check (pair string string)) (what (who ^ ": diagnostic"))
                (dc.Diag.code, Diag.stage_name dc.Diag.stage)
                (dn.Diag.code, Diag.stage_name dn.Diag.stage);
              Alcotest.(check (list (pair string (option string))))
                (what (who ^ ": context")) (fields dc) (fields dn)
          | Ok _, Error d -> Alcotest.failf "%s: %s where closures succeed" (what who) (Diag.to_string d)
          | Error _, Ok _ -> Alcotest.failf "%s: succeeds where closures fail" (what who))
        [ ("tier 0", List.nth tier0 i); ("tier 1", List.nth tier1 i) ])
    limits

(* A kernel the native backend hands to OpenMP (MTTKRP parallelized
   over i, its workspace private to each thread) at limits one element
   short of its workspace and exactly at it: closures and tier 0 give
   the same E_EXEC_MEM with the same kernel, bytes and limit, or
   bit-identical results. The runtime table records a refusal in the
   call's own record, whichever thread makes it. *)
let test_budget_openmp () =
  let a, b, c, d, sched = mttkrp_sched ~parallel:true in
  let closure = kernel (getd (compile ~name:"mttkrp_budget_par" ~backend:`Closure sched)) in
  let native = kernel (getd (compile ~name:"mttkrp_budget_par" ~backend:`Native sched)) in
  Alcotest.(check bool) "native backend actually used" true (Kernel.backend native = `Native);
  let src = Codegen_c.emit_exec [ Kernel.imp native ] in
  Alcotest.(check bool) "an OpenMP region with private copies" true
    (Helpers.contains src "#pragma omp parallel reduction");
  let i = 9 and j = 40 in
  let inputs =
    [
      (b, random_tensor 97 [| i; 7; 6 |] 0.3 (F.csf 3));
      (c, random_tensor 98 [| 6; j |] 1.0 F.dense_matrix);
      (d, random_tensor 99 [| 7; j |] 1.0 F.dense_matrix);
    ]
  in
  (* Kernel.run_compute writes a given output: the workspace is the
     kernel's only allocation. *)
  let at_limit k limit =
    let output = T.zero [| i; j |] F.dense_matrix in
    Fun.protect
      ~finally:(fun () -> Budget.set_mem_limit 0)
      (fun () ->
        Budget.set_mem_limit limit;
        match Kernel.run_compute k ~inputs:((a, output) :: inputs) ~output with
        | () -> Ok output
        | exception Diag.Error e -> Error e)
  in
  let fields e = List.map (fun f -> List.assoc_opt f e.Diag.context) [ "kernel"; "bytes"; "limit_bytes" ] in
  List.iter
    (fun (limit, refused) ->
      let what = Printf.sprintf "limit %d bytes" limit in
      match (at_limit closure limit, at_limit native limit, refused) with
      | Error ec, Error en, true ->
          Alcotest.(check string) (what ^ ": code") "E_EXEC_MEM" en.Diag.code;
          Alcotest.(check (option string)) (what ^ ": closures' bytes") (Some (string_of_int (8 * j)))
            (List.assoc_opt "bytes" ec.Diag.context);
          Alcotest.(check (list (option string))) (what ^ ": same context") (fields ec) (fields en)
      | Ok tc, Ok tn, false ->
          if not (tensors_bit_identical tc tn) then Alcotest.failf "%s: results diverge" what
      | rc, rn, _ ->
          let show = function Ok _ -> "ok" | Error e -> Diag.to_string e in
          Alcotest.failf "%s: closures %s, native %s" what (show rc) (show rn))
    [ ((8 * j) - 1, true); (8 * j, false) ]

(* Int scalar arguments cross to native kernels as int32: at
   Int32.max_int both backends store the value unchanged, one past it
   both refuse with E_EXEC_RANGE naming the kernel and the variable. *)
let test_int32_args () =
  let kernel =
    {
      Imp.k_name = "store_n";
      k_params =
        [
          { Imp.p_name = "n"; p_dtype = Imp.Int; p_array = false; p_output = false };
          { Imp.p_name = "a"; p_dtype = Imp.Int; p_array = true; p_output = true };
        ];
      k_body = [ Imp.Store ("a", Imp.Int_lit 0, Imp.Var "n") ];
    }
  in
  let max32 = Int32.to_int Int32.max_int in
  List.iter
    (fun (who, c) ->
      let call n =
        let a = Ivec.create 1 in
        match Compile.run c ~args:[ ("n", Compile.Aint n); ("a", Compile.Aint_array a) ] with
        | (_ : string -> Compile.arg) -> Ok (Ivec.get a 0)
        | exception Diag.Error e -> Error (e.Diag.code, List.assoc_opt "variable" e.Diag.context)
      in
      Alcotest.(check (result int (pair string (option string))))
        (who ^ ": Int32.max_int") (Ok max32) (call max32);
      Alcotest.(check (result int (pair string (option string))))
        (who ^ ": one past it") (Error ("E_EXEC_RANGE", Some "n")) (call (max32 + 1)))
    [
      ("closures", Compile.compile ~cache:false ~backend:`Closure kernel);
      ("native", Compile.compile ~cache:false ~backend:`Native kernel);
    ]

(* A deadline already in the past is caught by the kernel's first poll,
   which reads the table's clock. *)
let test_native_deadline () =
  List.iter
    (fun (name, parallel) ->
      let b, c, sched = spgemm_sched ~parallel in
      let native = getd (compile ~name ~backend:`Native sched) in
      Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
      match run ~deadline_ns:0L native ~inputs:(spgemm_inputs b c 4) with
      | Ok _ -> Alcotest.failf "%s: expired deadline not enforced" name
      | Error d -> Alcotest.(check string) (name ^ ": code") "E_EXEC_CANCELLED" d.Diag.code)
    [ ("spgemm_deadline", false); ("spgemm_deadline_par", true) ]

(* SpGEMM rows whose workspace fills in reverse column order with 0, 1,
   16, 17 and 400 entries: the table's sort on both sides of its
   insertion-sort cutoff, bit-identical to the closure executor. *)
let test_sort_rows ?semiring ~parallel ~name () =
  let b, c, sched = spgemm_sched ~parallel in
  let counts = [| 0; 1; 16; 17; 400 |] and n = 400 in
  let rows = Array.length counts in
  let pos = Array.make (rows + 1) 0 in
  Array.iteri (fun r k -> pos.(r + 1) <- pos.(r) + k) counts;
  let crd = Array.concat (Array.to_list (Array.map (fun k -> Array.init k Fun.id) counts)) in
  let vals = Array.mapi (fun i k -> float_of_int ((i * 7) + k + 1) *. 0.5) crd in
  let bt = T.of_csr ~rows ~cols:n (Ivec.of_array pos) (Ivec.of_array crd) vals in
  (* C(k, n-1-k): ascending k inserts descending columns. *)
  let ct =
    T.of_csr ~rows:n ~cols:n
      (Ivec.of_array (Array.init (n + 1) Fun.id))
      (Ivec.of_array (Array.init n (fun k -> n - 1 - k)))
      (Array.init n (fun k -> 1. +. (float_of_int k *. 0.25)))
  in
  let inputs = [ (b, bt); (c, ct) ] in
  let closure = getd (compile ~name ?semiring ~backend:`Closure sched) in
  let native = getd (compile ~name ?semiring ~backend:`Native sched) in
  Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
  let rc = getd (run closure ~inputs) and rn = getd (run native ~inputs) in
  (match T.level_data rn 1 with
  | T.Compressed_data { pos; _ } ->
      Alcotest.(check (array int)) (name ^ ": row sizes") counts
        (Array.init rows (fun r -> Ivec.get pos (r + 1) - Ivec.get pos r))
  | T.Dense_data _ -> Alcotest.fail "expected a compressed level");
  if not (tensors_bit_identical rc rn) then
    Alcotest.failf "%s: native sorted rows diverge from closures" name

module Prng = Taco_support.Prng

(* [k] distinct values in a shuffled order whose least is [lo] and whose
   greatest is [lo + span - 1]. *)
let spanning prng ~lo ~span k =
  let inner = Prng.sample_without_replacement prng ~n:(span - 2) ~k:(k - 2) in
  let a = Array.append [| lo; lo + span - 1 |] (Array.map (fun x -> lo + 1 + x) inner) in
  Prng.shuffle prng a;
  a

(* A hand-built kernel holding one Imp.Sort of the slice a[lo, hi). *)
let sort_kernel =
  let param ?(array = false) p_name =
    { Imp.p_name; p_dtype = Imp.Int; p_array = array; p_output = array }
  in
  {
    Imp.k_name = "sort_slice";
    k_params = [ param ~array:true "a"; param "lo"; param "hi" ];
    k_body = [ Imp.Sort ("a", Imp.Var "lo", Imp.Var "hi") ];
  }

(* Slices on both sides of every cutoff of the table's sort: 16 and 17
   elements (insertion sort), a value range of at most 64 per element
   and at most 32768 values (the bitmap), a repeated value inside that
   range (the bitmap hands the slice to the introsort), and ranges just
   past either bound. *)
let sort_slices () =
  let prng = Prng.create 23 in
  let i32_min = Int32.(to_int min_int) and i32_max = Int32.(to_int max_int) in
  let with_repeat a =
    a.(Array.length a - 1) <- a.(0);
    a
  in
  [
    ("length 0", [||]);
    ("length 1", [| 42 |]);
    ("length 16", spanning prng ~lo:(-3) ~span:40 16);
    ("length 17", spanning prng ~lo:(-3) ~span:40 17);
    ("duplicates", Array.init 40 (fun _ -> Prng.int prng 20));
    ("one repeat, last", with_repeat (spanning prng ~lo:100 ~span:500 60));
    ("all equal", Array.make 30 7);
    ("negative", spanning prng ~lo:(-5000) ~span:1000 200);
    ("int32 extremes", spanning prng ~lo:i32_min ~span:(i32_max - i32_min + 1) 40);
    ("next to int32 min", spanning prng ~lo:i32_min ~span:100 50);
    ("next to int32 max", spanning prng ~lo:(i32_max - 99) ~span:100 50);
    ("ascending", Array.init 100 (fun i -> 3 * i));
    ("descending", Array.init 100 (fun i -> 300 - (3 * i)));
    ("range at the 32768 cap", spanning prng ~lo:(-1000) ~span:32768 600);
    ("range one past the cap", spanning prng ~lo:(-1000) ~span:32769 600);
    ("range at 64n", spanning prng ~lo:0 ~span:(64 * 20) 20);
    ("range above 64n", spanning prng ~lo:0 ~span:((64 * 20) + 1) 20);
  ]

(* Each slice, between elements it must not touch, sorted on the
   closures, at native tier 0 and at tier 1: all equal to the stdlib
   sort. *)
let test_sort_slices () =
  let native tier =
    let c = Compile.compile ~cache:false ~backend:`Native sort_kernel in
    if tier = 1 then Compile.promote c;
    Alcotest.(check (option int)) "native tier" (Some tier) (Compile.native_tier c);
    (Printf.sprintf "tier %d" tier, c)
  in
  let runners =
    [ ("closures", Compile.compile ~cache:false ~backend:`Closure sort_kernel); native 0; native 1 ]
  in
  let before = [| 9; -9 |] and after = [| -7; 7 |] in
  List.iter
    (fun (what, slice) ->
      let sorted = Array.copy slice in
      Array.sort compare sorted;
      let expected = Array.concat [ before; sorted; after ] in
      List.iter
        (fun (who, c) ->
          let a = Ivec.of_array (Array.concat [ before; slice; after ]) in
          let hi = Array.length before + Array.length slice in
          let (_ : string -> Compile.arg) =
            Compile.run c
              ~args:[ ("a", Compile.Aint_array a); ("lo", Compile.Aint 2); ("hi", Compile.Aint hi) ]
          in
          Alcotest.(check (array int)) (Printf.sprintf "%s on %s" what who) expected (Ivec.to_array a))
        runners)
    (sort_slices ())

(* A workspace SpGEMM whose result is 40000 columns wide. C is a
   permutation matrix, so each row of B picks its result columns and
   the workspace list reaches the sort in a shuffled order: an empty
   row, a row of 12 (insertion sort), rows spanning more than 32768
   columns (introsort), a row spanning more than 64 columns per entry
   (introsort), and bounded rows including one at the 32768 cap
   (bitmap). Closures, tier 0 and tier 1 agree bit for bit. *)
let test_wide_spgemm () =
  let b, c, sched = spgemm_sched ~parallel:false in
  let prng = Prng.create 40_000 in
  let n = 40_000 in
  let rows =
    [|
      [||];
      spanning prng ~lo:5 ~span:(n - 10) 12;
      spanning prng ~lo:0 ~span:n 40;
      spanning prng ~lo:0 ~span:n 2000;
      spanning prng ~lo:30_000 ~span:1000 40;
      spanning prng ~lo:100 ~span:((64 * 20) + 1) 20;
      spanning prng ~lo:7000 ~span:32_768 600;
    |]
  in
  (* C(k, perm.(k)): B(r, k) for k = inv.(j) puts column j in row r. *)
  let perm = Array.init n Fun.id in
  Prng.shuffle prng perm;
  let inv = Array.make n 0 in
  Array.iteri (fun k j -> inv.(j) <- k) perm;
  let value _ = 0.5 +. Prng.float prng in
  let pos = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun r cols -> pos.(r + 1) <- pos.(r) + Array.length cols) rows;
  let ks cols =
    let k = Array.map (fun j -> inv.(j)) cols in
    Array.sort compare k;
    k
  in
  let crd = Array.concat (Array.to_list (Array.map ks rows)) in
  let inputs =
    [
      ( b,
        T.of_csr ~rows:(Array.length rows) ~cols:n (Ivec.of_array pos) (Ivec.of_array crd)
          (Array.map value crd) );
      ( c,
        T.of_csr ~rows:n ~cols:n
          (Ivec.of_array (Array.init (n + 1) Fun.id))
          (Ivec.of_array perm) (Array.map value perm) );
    ]
  in
  let closure = getd (compile ~name:"spgemm_wide" ~backend:`Closure sched) in
  let t0 = getd (compile ~name:"spgemm_wide_t0" ~backend:`Native sched) in
  let t1 = getd (compile ~name:"spgemm_wide_t1" ~backend:`Native sched) in
  Kernel.promote (Taco.kernel t1);
  List.iter
    (fun (tier, c) ->
      Alcotest.(check (option int)) "native tier" (Some tier) (Kernel.native_tier (Taco.kernel c)))
    [ (0, t0); (1, t1) ];
  let reference = getd (run closure ~inputs) in
  (match T.level_data reference 1 with
  | T.Compressed_data { pos; crd } ->
      Array.iteri
        (fun r cols ->
          let s = Array.copy cols in
          Array.sort compare s;
          Alcotest.(check (array int)) (Printf.sprintf "row %d columns" r) s
            (Ivec.to_array (Ivec.sub crd (Ivec.get pos r) (Ivec.get pos (r + 1) - Ivec.get pos r))))
        rows
  | T.Dense_data _ -> Alcotest.fail "expected a compressed level");
  List.iter
    (fun (who, c) ->
      Alcotest.(check bool) (who ^ " runs natively") true (backend_of c = `Native);
      if not (tensors_bit_identical reference (getd (run c ~inputs))) then
        Alcotest.failf "wide SpGEMM: %s diverges from closures" who)
    [ ("tier 0", t0); ("tier 1", t1) ]

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

(* Uncached builds of one source racing on two domains: each build owns
   its artifacts, so none deletes another's input and none downgrades. *)
let test_concurrent_uncached_builds () =
  let b, c, sched = spadd_sched ~parallel:false in
  let k = assemble_kernel ~name:"spadd_race" ~sorted:true ~backend:`Closure sched in
  let imp = (Kernel.info k).Lower.kernel in
  let inputs =
    [
      (b, random_tensor 61 [| 30; 25 |] 0.25 F.csr);
      (c, random_tensor 62 [| 30; 25 |] 0.25 F.csr);
    ]
  and dims = [| 30; 25 |] in
  let result c =
    let read = Compile.run c ~args:(assemble_args k ~inputs ~dims) in
    let arr name =
      match read name with
      | Compile.Aint_array a -> Array.map Int64.of_int (Ivec.to_array a)
      | Compile.Afloat_array a -> Array.map Int64.bits_of_float a
      | Compile.Aint _ | Compile.Afloat _ -> Alcotest.failf "%s: not an array" name
    in
    let result = (Kernel.info k).Lower.result in
    List.map arr [ Lower.pos_var result 1; Lower.crd_var result 1; Lower.vals_var result ]
  in
  let reference = result (Compile.compile ~backend:`Closure imp) in
  let before = (Compile.backend_stats ()).Compile.downgrades in
  let builds =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            List.init 12 (fun _ -> Compile.compile ~cache:false ~backend:`Native imp)))
    |> List.concat_map Domain.join
  in
  Alcotest.(check int) "no downgrades" 0 ((Compile.backend_stats ()).Compile.downgrades - before);
  List.iter
    (fun c ->
      Alcotest.(check bool) "built natively" true (Compile.backend_of c = `Native);
      if result c <> reference then Alcotest.fail "native result diverges from closures")
    builds

(* --- compiler tiers ----------------------------------------------------- *)

(* A fresh native build runs at tier 0; [promote] builds the same C at
   tier 1 through the same start-and-wait path, and the two tiers (and
   the closures) agree bit for bit. *)
let test_promote_identity () =
  let b, c, sched = spgemm_sched ~parallel:false in
  let native = getd (compile ~name:"spgemm_promote" ~backend:`Native sched) in
  let closure = getd (compile ~name:"spgemm_promote" ~backend:`Closure sched) in
  let k = Taco.kernel native in
  Alcotest.(check (option int)) "a miss builds at tier 0" (Some 0) (Kernel.native_tier k);
  let inputs = spgemm_inputs b c 9 in
  let r0 = getd (run native ~inputs) in
  let builds = (Compile.backend_stats ()).Compile.native_builds in
  Kernel.promote k;
  Alcotest.(check (option int)) "promoted to tier 1" (Some 1) (Kernel.native_tier k);
  Alcotest.(check int) "one more build" (builds + 1) (Compile.backend_stats ()).Compile.native_builds;
  let r1 = getd (run native ~inputs) in
  if not (tensors_bit_identical r0 r1) then Alcotest.fail "tier 1 diverges from tier 0";
  if not (tensors_bit_identical r1 (getd (run closure ~inputs))) then
    Alcotest.fail "tier 1 diverges from closures";
  Kernel.promote k;
  Alcotest.(check int) "a second promote is a no-op" (builds + 1)
    (Compile.backend_stats ()).Compile.native_builds

(* [t] with its stored values replaced by [vals]. *)
let with_vals t vals =
  T.of_parts ~dims:(T.dims t) ~format:(T.format t)
    ~levels:(Array.init (T.order t) (T.level_data t))
    ~vals

(* [t] with every NaN replaced by one canonical NaN. When two NaNs meet
   in one operation, IEEE 754 leaves open whose sign and payload come
   back, and OCaml and gcc both may commute [a + b] and [a * b]: the
   executors agree on where a result is NaN, not on its bits. *)
let canonical_nans t =
  with_vals t (Array.map (fun v -> if Float.is_nan v then Float.nan else v) (T.vals t))

(* Closures, tier 0 and tier 1 on each of [cases] (label, inputs): the
   tier-0 runs first, then [Kernel.promote] and the tier-1 runs, every
   result bit-identical to the closures' once NaNs are canonical. *)
let check_tiers ~closure ~native cases =
  let k = Taco.kernel native in
  Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
  let r0 = List.map (fun (_, inputs) -> getd (run native ~inputs)) cases in
  Alcotest.(check (option int)) "the runs above were tier 0" (Some 0) (Kernel.native_tier k);
  Kernel.promote k;
  Alcotest.(check (option int)) "promoted" (Some 1) (Kernel.native_tier k);
  List.iter2
    (fun (label, inputs) r0 ->
      let rc = canonical_nans (getd (run closure ~inputs)) in
      List.iter
        (fun (tier, r) ->
          if not (tensors_bit_identical rc (canonical_nans r)) then
            Alcotest.failf "%s: tier %d diverges from closures" label tier)
        [ (0, r0); (1, getd (run native ~inputs)) ])
    cases r0

(* Values at the edges of IEEE arithmetic: NaN, both infinities, -0.0,
   subnormals of both signs and the smallest normal, among ordinary
   values. *)
let edge_values =
  [| Float.nan; Float.infinity; Float.neg_infinity; -0.; 0x1p-1074; -0x1.8p-1050; 0x1p-1022;
     1.5; -2.25; 1e300 |]

(* [t] with every third stored value replaced by an edge value. *)
let with_edges seed t =
  with_vals t
    (Array.mapi
       (fun i v ->
         if i mod 3 = 0 then edge_values.((seed + (i / 3)) mod Array.length edge_values) else v)
       (T.vals t))

(* Tier 1 vectorizes MTTKRP's dense j loops: ranks below, at and past
   the vector widths exercise the vector loop and its epilogues, with
   plain and edge-valued operands, sequential and OpenMP. *)
let test_vector_edges_mttkrp () =
  List.iter
    (fun parallel ->
      let _, b, c, d, sched = mttkrp_sched ~parallel in
      let name = if parallel then "mttkrp_edges_par" else "mttkrp_edges" in
      let closure = getd (compile ~name ~backend:`Closure sched) in
      let native = getd (compile ~name ~backend:`Native sched) in
      let cases =
        List.concat_map
          (fun rank ->
            let inputs edges =
              let edge t = if edges then with_edges rank t else t in
              [
                (b, edge (random_tensor (rank + 31) [| 9; 7; 6 |] 0.3 (F.csf 3)));
                (c, edge (random_tensor (rank + 32) [| 6; rank |] 1.0 F.dense_matrix));
                (d, edge (random_tensor (rank + 33) [| 7; rank |] 1.0 F.dense_matrix));
              ]
            in
            [
              (Printf.sprintf "%s rank %d" name rank, inputs false);
              (Printf.sprintf "%s rank %d, edge values" name rank, inputs true);
            ])
          [ 1; 2; 3; 5; 8; 13; 16; 17; 33 ]
      in
      check_tiers ~closure ~native cases)
    [ false; true ]

(* Min-plus and max-times SpGEMM, on plain and edge-valued operands:
   their reductions must pick between equal zeros, and between a NaN and
   a number, as the closures do. *)
let test_vector_edges_semirings () =
  List.iter
    (fun (name, semiring) ->
      let b, c, sched = spgemm_sched ~parallel:false in
      let closure = getd (compile ~name ~semiring ~backend:`Closure sched) in
      let native = getd (compile ~name ~semiring ~backend:`Native sched) in
      check_tiers ~closure ~native
        (List.concat_map
           (fun seed ->
             let inputs = spgemm_inputs b c seed in
             [
               (Printf.sprintf "%s seed %d" name seed, inputs);
               ( Printf.sprintf "%s seed %d, edge values" name seed,
                 List.map (fun (tv, t) -> (tv, with_edges seed t)) inputs );
             ])
           [ 1; 2; 3 ]))
    [ ("spgemm_edges_minplus", Semiring.min_plus); ("spgemm_edges_maxtimes", Semiring.max_times) ]

(* A kernel run past its own tier-0 cc time tiers up in the background,
   exactly once, without a run ever changing its result. *)
let test_hot_kernel_tiers_up () =
  let b, c, sched = spgemm_sched ~parallel:false in
  let native = getd (compile ~name:"spgemm_hot" ~backend:`Native sched) in
  let k = Taco.kernel native in
  let inputs =
    [
      (b, random_tensor 71 [| 200; 200 |] 0.1 F.csr);
      (c, random_tensor 72 [| 200; 200 |] 0.1 F.csr);
    ]
  in
  let builds () = (Compile.backend_stats ()).Compile.native_builds in
  let before = builds () in
  let first = getd (run native ~inputs) in
  let deadline = Unix.gettimeofday () +. 60. in
  while Kernel.native_tier k = Some 0 && Unix.gettimeofday () < deadline do
    if not (tensors_bit_identical first (getd (run native ~inputs))) then
      Alcotest.fail "a run during the tier-up diverged"
  done;
  Alcotest.(check (option int)) "tiered up" (Some 1) (Kernel.native_tier k);
  for _ = 1 to 20 do
    if not (tensors_bit_identical first (getd (run native ~inputs))) then
      Alcotest.fail "a tier-1 run diverged"
  done;
  Alcotest.(check int) "exactly one tier-up build" (before + 1) (builds ())

(* The native.cc span names the tier it built. *)
let test_cc_span_tier () =
  let _, _, sched = spadd_sched ~parallel:false in
  let module Trace = Taco_support.Trace in
  Trace.clear ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
    (fun () ->
      let native = getd (compile ~name:"spadd_span" ~backend:`Native sched) in
      Kernel.promote (Taco.kernel native);
      let cc_lines tier =
        String.split_on_char '\n' (Trace.to_chrome_json ())
        |> List.filter (fun l ->
               contains l "\"name\":\"native.cc\"" && contains l (Printf.sprintf "\"tier\":\"%d\"" tier))
        |> List.length
      in
      Alcotest.(check int) "one tier-0 cc span" 1 (cc_lines 0);
      Alcotest.(check int) "one tier-1 cc span" 1 (cc_lines 1))

(* --- batched builds ------------------------------------------------------ *)

(* A name no earlier build used, so the batch it joins misses the
   compile cache. *)
let fresh =
  let n = ref 0 in
  fun base ->
    incr n;
    Printf.sprintf "%s_b%d" base !n

(* The batch mix: the paper's three kernels, with SpGEMM also under
   OpenMP, each with its inputs. *)
let batch_mix () =
  let b1, c1, s_gemm = spgemm_sched ~parallel:false in
  let b2, c2, s_gemm_par = spgemm_sched ~parallel:true in
  let b3, c3, s_add = spadd_sched ~parallel:false in
  let _, b4, c4, d4, s_ttkrp = mttkrp_sched ~parallel:false in
  [
    ("spgemm", s_gemm, spgemm_inputs b1 c1 4);
    ("spgemm_par", s_gemm_par, spgemm_inputs b2 c2 5);
    ( "spadd",
      s_add,
      [
        (b3, random_tensor 61 [| 30; 25 |] 0.25 F.csr);
        (c3, random_tensor 62 [| 30; 25 |] 0.25 F.csr);
      ] );
    ( "mttkrp",
      s_ttkrp,
      [
        (b4, random_tensor 63 [| 9; 7; 6 |] 0.3 (F.csf 3));
        (c4, random_tensor 64 [| 6; 8 |] 1.0 F.dense_matrix);
        (d4, random_tensor 65 [| 7; 8 |] 1.0 F.dense_matrix);
      ] );
  ]

(* Compile the mix as one batch under fresh names. *)
let compile_mix_batch mix =
  Taco.compile_batch
    (List.map (fun (name, sched, _) -> getd (Taco.lower ~name:(fresh name) ~backend:`Native sched)) mix)
  |> List.map getd

let phases_of c =
  match Kernel.native_phases (Taco.kernel c) with
  | Some p -> p
  | None -> Alcotest.fail "no native phases: the kernel was downgraded"

(* Each kernel of [batch] against its closure build and [others]:
   bit-identical results. *)
let check_mix_identical what mix batch others =
  List.iteri
    (fun i ((name, sched, inputs), c) ->
      let closure = getd (compile ~name:(fresh name) ~backend:`Closure sched) in
      let reference = getd (run closure ~inputs) in
      List.iter
        (fun (who, c) ->
          if not (tensors_bit_identical reference (getd (run c ~inputs))) then
            Alcotest.failf "%s: %s %s diverges from closures" what name who)
        (("batched", c) :: List.map (fun o -> ("single", List.nth o i)) others))
    (List.combine mix batch)

(* One translation unit, one cc: every kernel reports the shared build,
   and each agrees bit for bit with its own single build and with the
   closures, at tier 0 and, promoted one by one, at tier 1. *)
let test_batch_identity () =
  let mix = batch_mix () in
  let batch = compile_mix_batch mix in
  let n = List.length mix in
  List.iter
    (fun c ->
      Alcotest.(check bool) "built natively" true (backend_of c = `Native);
      Alcotest.(check (option int)) "at tier 0" (Some 0) (Kernel.native_tier (Taco.kernel c));
      Alcotest.(check int) "one build for the whole batch" n (phases_of c).Native.kernels)
    batch;
  Alcotest.(check int) "one cc time shared" 1
    (List.length (List.sort_uniq compare (List.map (fun c -> (phases_of c).Native.cc_ns) batch)));
  let singles =
    List.map (fun (name, sched, _) -> getd (compile ~name:(fresh name) ~backend:`Native sched)) mix
  in
  List.iter
    (fun c -> Alcotest.(check int) "a single build" 1 (phases_of c).Native.kernels)
    singles;
  check_mix_identical "tier 0" mix batch [ singles ];
  List.iter (fun c -> Kernel.promote (Taco.kernel c)) batch;
  List.iter
    (fun c ->
      Alcotest.(check (option int)) "promoted" (Some 1) (Kernel.native_tier (Taco.kernel c));
      Alcotest.(check int) "a tier-up builds its kernel alone" 1 (phases_of c).Native.kernels)
    batch;
  check_mix_identical "tier 1" mix batch [ singles ]

(* A batch whose build fails ([native.build] crashes once) is rebuilt
   kernel by kernel: every kernel still loads, none is downgraded. *)
let test_batch_fallback () =
  let mix = batch_mix () in
  let downgrades () = (Compile.backend_stats ()).Compile.downgrades in
  let before = downgrades () in
  Taco_support.Faultinject.configure ~seed:41
    [ Taco_support.Faultinject.rule ~max_fires:1 "native.build" Taco_support.Faultinject.Crash ];
  let batch =
    Fun.protect ~finally:Taco_support.Faultinject.disarm (fun () ->
        let batch = compile_mix_batch mix in
        Alcotest.(check int) "the batch build failed once" 1
          (Taco_support.Faultinject.fires "native.build");
        batch)
  in
  Alcotest.(check int) "no downgrade" before (downgrades ());
  List.iter
    (fun c ->
      Alcotest.(check bool) "built natively" true (backend_of c = `Native);
      Alcotest.(check int) "rebuilt on its own" 1 (phases_of c).Native.kernels)
    batch;
  check_mix_identical "fallback" mix batch []

(* TACO_NATIVE_KEEP=1 keeps the sources past Service.shutdown, whose
   cleanup sweeps the build directory. *)
let test_keep_survives_shutdown () =
  let module Service = Taco_service.Service in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "taco_native_%d" (Unix.getpid ()))
  in
  let kept () =
    if Sys.file_exists dir then
      List.filter
        (fun f -> Filename.check_suffix f ".c" || Filename.check_suffix f ".so")
        (Array.to_list (Sys.readdir dir))
    else []
  in
  let before = kept () in
  Unix.putenv "TACO_NATIVE_KEEP" "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "TACO_NATIVE_KEEP" "";
      List.iter
        (fun f -> if not (List.mem f before) then Sys.remove (Filename.concat dir f))
        (kept ());
      Native.cleanup ())
    (fun () ->
      let svc = Service.create ~domains:1 () in
      let req =
        Service.request ~backend:`Native ~result_format:F.csr
          ~expr:(Printf.sprintf "%s(i,j) = B(i,j) + C(i,j)" (fresh "K"))
          ~inputs:
            [
              ("B", random_tensor 66 [| 8; 8 |] 0.3 F.csr);
              ("C", random_tensor 67 [| 8; 8 |] 0.3 F.csr);
            ]
          ()
      in
      (match Service.eval svc req with
      | Ok _ -> ()
      | Error d -> Alcotest.fail (Diag.to_string d));
      Service.shutdown svc;
      let files = List.filter (fun f -> not (List.mem f before)) (kept ()) in
      Alcotest.(check bool) "the .c survives shutdown" true
        (List.exists (fun f -> Filename.check_suffix f ".c") files);
      Alcotest.(check bool) "the .so survives shutdown" true
        (List.exists (fun f -> Filename.check_suffix f ".so") files))

(* --- compiler command ------------------------------------------------- *)

(* TACO_CC is split on whitespace into an argument prefix, with no
   shell: a compiler with flags builds natively. *)
let test_cc_with_arguments () =
  let cc = Native.compiler () in
  Unix.putenv "TACO_CC" (cc ^ "  -g0");
  Fun.protect
    ~finally:(fun () -> Unix.putenv "TACO_CC" "")
    (fun () ->
      Alcotest.(check string) "words joined" (cc ^ " -g0") (Native.compiler ());
      let before = (Compile.backend_stats ()).Compile.downgrades in
      let b, c, sched = spadd_sched ~parallel:false in
      let native = getd (compile ~name:"spadd_cc_args" ~backend:`Native sched) in
      Alcotest.(check bool) "built natively" true (backend_of native = `Native);
      Alcotest.(check int) "no downgrades" before (Compile.backend_stats ()).Compile.downgrades;
      let inputs =
        [
          (b, random_tensor 43 [| 12; 12 |] 0.3 F.csr);
          (c, random_tensor 44 [| 12; 12 |] 0.3 F.csr);
        ]
      in
      let closure = getd (compile ~name:"spadd_cc_args" ~backend:`Closure sched) in
      Alcotest.(check bool) "result identical" true
        (tensors_bit_identical (getd (run closure ~inputs)) (getd (run native ~inputs))))

(* A compiler that rejects a tier-1 flag builds tier 0 and fails the
   tier-up: the kernel stays on tier 0, counted once as a failed tier-1
   build, with no downgrade and no change in its results. *)
let test_tier1_flag_rejected () =
  let dir = Filename.temp_dir "taco_cc_wrapper" "" in
  let script = Filename.concat dir "cc" in
  Out_channel.with_open_bin script (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\nfor a in \"$@\"; do [ \"$a\" = -march=native ] && exit 1; done\nexec %s \"$@\"\n"
        (Native.compiler ()));
  Unix.chmod script 0o755;
  Unix.putenv "TACO_CC" script;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "TACO_CC" "";
      Sys.remove script;
      Sys.rmdir dir)
    (fun () ->
      let failed () =
        Metrics.counter ~labels:[ ("tier", "1"); ("outcome", "failed") ] "taco_native_builds_total"
      in
      let downgrades () = (Compile.backend_stats ()).Compile.downgrades in
      let failed0 = failed () and downgrades0 = downgrades () in
      let b, c, sched = spgemm_sched ~parallel:false in
      let native = getd (compile ~name:"spgemm_no_march" ~backend:`Native sched) in
      let closure = getd (compile ~name:"spgemm_no_march" ~backend:`Closure sched) in
      let k = Taco.kernel native in
      Alcotest.(check bool) "tier 0 builds natively" true (backend_of native = `Native);
      Alcotest.(check (option int)) "at tier 0" (Some 0) (Kernel.native_tier k);
      let inputs = spgemm_inputs b c 5 in
      let rc = getd (run closure ~inputs) in
      let r0 = getd (run native ~inputs) in
      Kernel.promote k;
      Alcotest.(check (option int)) "the failed tier-up keeps tier 0" (Some 0) (Kernel.native_tier k);
      Alcotest.(check int) "one failed tier-1 build" (failed0 + 1) (failed ());
      let r1 = getd (run native ~inputs) in
      Kernel.promote k;
      Alcotest.(check int) "a second promote does not retry" (failed0 + 1) (failed ());
      Alcotest.(check int) "nothing downgraded" downgrades0 (downgrades ());
      List.iter
        (fun (what, r) ->
          if not (tensors_bit_identical rc r) then Alcotest.failf "%s diverges from closures" what)
        [ ("the tier-0 run", r0); ("the run after the failed tier-up", r1) ])

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

(* The tier-up builds with the compiler named in the kernel's cache key,
   not whatever TACO_CC says by then. *)
let test_tierup_keeps_compiler () =
  let _, _, sched = spadd_sched ~parallel:false in
  let native = getd (compile ~name:"spadd_tier_cc" ~backend:`Native sched) in
  with_bogus_cc (fun () -> Kernel.promote (Taco.kernel native));
  Alcotest.(check (option int)) "promoted with the original compiler" (Some 1)
    (Kernel.native_tier (Taco.kernel native))

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
  (* Several cases read build, run and downgrade counts through
     [Compile.backend_stats], which reads the metrics registry: it counts
     only while enabled. *)
  Metrics.enable ();
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
          cc_case "non-finite literals, closures vs tier 0 vs tier 1" test_nonfinite_literals;
        ] );
      ( "read-back",
        [
          cc_case "SpGEMM exact lengths" test_read_back_spgemm;
          cc_case "SpAdd exact lengths" test_read_back_spadd;
          cc_case "unsorted SpGEMM exact lengths" test_read_back_unsorted;
          cc_case "edge shapes, SpGEMM and SpAdd" test_read_back_edge_shapes;
          cc_case "out-of-range length, both backends" test_read_back_out_of_range;
        ] );
      ("codegen", [ cc_case "exec C is -Wall -Werror clean" test_exec_c_warning_clean ]);
      ( "runtime table",
        [
          Alcotest.test_case "exec C calls the table, not libc" `Quick test_exec_c_uses_table;
          cc_case "E_EXEC_MEM boundary, sequential"
            (test_budget_boundary ~parallel:false ~name:"spgemm_budget");
          cc_case "E_EXEC_MEM boundary, OpenMP"
            (test_budget_boundary ~parallel:true ~name:"spgemm_budget_par");
          cc_case "E_EXEC_MEM boundary, min-plus"
            (test_budget_boundary ~semiring:Semiring.min_plus ~parallel:false
               ~name:"spgemm_budget_minplus");
          cc_case "alloc and grow at the limit, closures vs tier 0 vs tier 1" test_budget_grow;
          cc_case "E_EXEC_MEM bytes, OpenMP" test_budget_openmp;
          cc_case "int32 scalar arguments, both backends" test_int32_args;
          cc_case "expired deadline cancels natively" test_native_deadline;
          cc_case "sorted rows, sequential" (test_sort_rows ~parallel:false ~name:"spgemm_sort");
          cc_case "sorted rows, OpenMP" (test_sort_rows ~parallel:true ~name:"spgemm_sort_par");
          cc_case "sorted rows, min-plus"
            (test_sort_rows ~semiring:Semiring.min_plus ~parallel:false
               ~name:"spgemm_sort_minplus");
          cc_case "Imp.Sort edge cases, closures vs tier 0 vs tier 1" test_sort_slices;
          cc_case "wide hypersparse SpGEMM, closures vs tier 0 vs tier 1" test_wide_spgemm;
        ] );
      ( "cache",
        [
          cc_case "native builds single-flight across domains" test_single_flight;
          cc_case "uncached builds of one source on two domains" test_concurrent_uncached_builds;
        ] );
      ( "tiers",
        [
          cc_case "promote: tier 1 bit-identical to tier 0" test_promote_identity;
          cc_case "MTTKRP vector edges and IEEE values" test_vector_edges_mttkrp;
          cc_case "min-plus/max-times IEEE edge values" test_vector_edges_semirings;
          cc_case "tier-1 flag rejected: stays tier 0" test_tier1_flag_rejected;
          cc_case "a hot kernel tiers up once" test_hot_kernel_tiers_up;
          cc_case "native.cc spans name their tier" test_cc_span_tier;
          cc_case "TACO_CC with arguments builds natively" test_cc_with_arguments;
          cc_case "a tier-up keeps the kernel's compiler" test_tierup_keeps_compiler;
        ] );
      ( "batch",
        [
          cc_case "batched kernels bit-identical to single builds, both tiers"
            test_batch_identity;
          cc_case "a failed batch falls back to per-kernel builds" test_batch_fallback;
          cc_case "TACO_NATIVE_KEEP survives Service.shutdown" test_keep_survives_shutdown;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "bogus TACO_CC downgrades to closures" `Quick
            test_bogus_compiler_falls_back;
          Alcotest.test_case "compiler id is part of the cache key" `Quick
            test_compiler_id_in_cache_key;
        ] );
    ]
