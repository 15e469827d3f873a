module Imp = Taco_lower.Imp
module Compile = Taco_exec.Compile
module Ivec = Taco_support.Ivec

let kernel ?(params = []) body = { Imp.k_name = "t"; k_params = params; k_body = body }

let run ?(args = []) k = Compile.run (Compile.compile k) ~args

let read_int reader name =
  match reader name with
  | Compile.Aint v -> v
  | _ -> Alcotest.fail "expected int"

let read_iarr reader name =
  match reader name with
  | Compile.Aint_array v -> Ivec.to_array v
  | _ -> Alcotest.fail "expected int array"

let read_farr reader name =
  match reader name with
  | Compile.Afloat_array v -> v
  | _ -> Alcotest.fail "expected float array"

let v = fun n -> Imp.Var n
let i = fun n -> Imp.Int_lit n

let test_arithmetic () =
  let r =
    run
      (kernel
         [
           Imp.Decl (Imp.Int, "x", Imp.Binop (Imp.Add, i 2, Imp.Binop (Imp.Mul, i 3, i 4)));
           Imp.Decl (Imp.Int, "y", Imp.Binop (Imp.Min, v "x", i 10));
           Imp.Decl (Imp.Int, "z", Imp.Binop (Imp.Max, v "x", i 100));
           Imp.Decl (Imp.Int, "q", Imp.Binop (Imp.Div, v "x", i 5));
         ])
  in
  Alcotest.(check int) "x" 14 (read_int r "x");
  Alcotest.(check int) "min" 10 (read_int r "y");
  Alcotest.(check int) "max" 100 (read_int r "z");
  Alcotest.(check int) "div" 2 (read_int r "q")

let test_float_arithmetic () =
  let r =
    run
      (kernel
         [
           Imp.Decl (Imp.Float, "x", Imp.Binop (Imp.Sub, Imp.Float_lit 1.5, Imp.Float_lit 0.25));
           Imp.Decl (Imp.Float, "y", Imp.Binop (Imp.Div, v "x", Imp.Float_lit 2.));
         ])
  in
  (match r "y" with
  | Compile.Afloat f -> Alcotest.(check (float 1e-12)) "y" 0.625 f
  | _ -> Alcotest.fail "expected float")

let test_for_loop () =
  let r =
    run
      (kernel
         [
           Imp.Alloc (Imp.Int, "a", i 10);
           Imp.For ("x", i 0, i 10, [ Imp.Store ("a", v "x", Imp.Binop (Imp.Mul, v "x", v "x")) ]);
         ])
  in
  Alcotest.(check (array int)) "squares" (Array.init 10 (fun x -> x * x)) (read_iarr r "a")

let test_while_and_if () =
  let r =
    run
      (kernel
         [
           Imp.Decl (Imp.Int, "n", i 0);
           Imp.Decl (Imp.Int, "sum", i 0);
           Imp.While
             ( Imp.Binop (Imp.Lt, v "n", i 10),
               [
                 Imp.If
                   ( Imp.Binop (Imp.Eq, Imp.Binop (Imp.Sub, v "n", Imp.Binop (Imp.Mul, Imp.Binop (Imp.Div, v "n", i 2), i 2)), i 0),
                     [ Imp.Assign ("sum", Imp.Binop (Imp.Add, v "sum", v "n")) ],
                     [] );
                 Imp.Assign ("n", Imp.Binop (Imp.Add, v "n", i 1));
               ] );
         ])
  in
  Alcotest.(check int) "sum of evens below 10" 20 (read_int r "sum")

let test_realloc_preserves () =
  let r =
    run
      (kernel
         [
           Imp.Alloc (Imp.Int, "a", i 4);
           Imp.For ("x", i 0, i 4, [ Imp.Store ("a", v "x", v "x") ]);
           Imp.Realloc ("a", i 16);
           Imp.Store ("a", i 10, i 99);
         ])
  in
  let a = read_iarr r "a" in
  Alcotest.(check int) "grown" 16 (Array.length a);
  Alcotest.(check int) "content preserved" 3 a.(3);
  Alcotest.(check int) "new cell" 99 a.(10)

let test_memset () =
  let r =
    run
      (kernel
         [
           Imp.Alloc (Imp.Float, "a", i 5);
           Imp.For ("x", i 0, i 5, [ Imp.Store ("a", v "x", Imp.Float_lit 7.) ]);
           Imp.Memset ("a", i 3);
         ])
  in
  Alcotest.(check (array (float 0.))) "prefix zeroed" [| 0.; 0.; 0.; 7.; 7. |] (read_farr r "a")

let test_sort_range () =
  let r =
    run
      ~args:[ ("a", Compile.Aint_array (Ivec.of_array [| 5; 4; 3; 2; 1 |])) ]
      (kernel
         ~params:[ { Imp.p_name = "a"; p_dtype = Imp.Int; p_array = true; p_output = true } ]
         [ Imp.Sort ("a", i 1, i 4) ])
  in
  Alcotest.(check (array int)) "slice sorted" [| 5; 2; 3; 4; 1 |] (read_iarr r "a")

(* Int arrays are int32, as in the generated C: a store keeps the low
   32 bits of its (63-bit) value, and a load sign-extends them. *)
let test_int32_stores_wrap () =
  let two31 = Imp.Binop (Imp.Mul, i 65536, i 32768) in
  let r =
    run
      (kernel
         [
           Imp.Alloc (Imp.Int, "a", i 3);
           Imp.Store ("a", i 0, Imp.Binop (Imp.Add, two31, i 5));
           Imp.Store ("a", i 1, Imp.Binop (Imp.Sub, i 0, Imp.Binop (Imp.Add, two31, i 1)));
           Imp.Store_add ("a", i 2, Imp.Binop (Imp.Sub, two31, i 1));
           Imp.Store_add ("a", i 2, i 1);
         ])
  in
  Alcotest.(check (array int)) "low 32 bits" [| -2147483643; 2147483647; -2147483648 |]
    (read_iarr r "a")

let test_bool_arrays_and_ternary () =
  let r =
    run
      (kernel
         [
           Imp.Alloc (Imp.Bool, "seen", i 4);
           Imp.Store ("seen", i 2, Imp.Bool_lit true);
           Imp.Decl (Imp.Int, "x", Imp.Ternary (Imp.Load ("seen", i 2), i 1, i 0));
           Imp.Decl (Imp.Int, "y", Imp.Ternary (Imp.Not (Imp.Load ("seen", i 1)), i 1, i 0));
         ])
  in
  Alcotest.(check int) "ternary true" 1 (read_int r "x");
  Alcotest.(check int) "not false" 1 (read_int r "y")

let test_store_add () =
  let r =
    run
      (kernel
         [
           Imp.Alloc (Imp.Float, "a", i 2);
           Imp.For ("x", i 0, i 5, [ Imp.Store_add ("a", i 0, Imp.Float_lit 1.5) ]);
         ])
  in
  Alcotest.(check (float 1e-12)) "accumulated" 7.5 (read_farr r "a").(0)

let test_param_binding () =
  let k =
    kernel
      ~params:
        [
          { Imp.p_name = "n"; p_dtype = Imp.Int; p_array = false; p_output = false };
          { Imp.p_name = "xs"; p_dtype = Imp.Float; p_array = true; p_output = false };
        ]
      [
        Imp.Decl (Imp.Float, "sum", Imp.Float_lit 0.);
        Imp.For ("q", i 0, v "n", [ Imp.Assign ("sum", Imp.Binop (Imp.Add, v "sum", Imp.Load ("xs", v "q"))) ]);
      ]
  in
  let r = run ~args:[ ("n", Compile.Aint 3); ("xs", Compile.Afloat_array [| 1.; 2.; 3.; 100. |]) ] k in
  (match r "sum" with
  | Compile.Afloat f -> Alcotest.(check (float 1e-12)) "sum of first n" 6. f
  | _ -> Alcotest.fail "float expected")

let test_missing_binding () =
  let k =
    kernel ~params:[ { Imp.p_name = "n"; p_dtype = Imp.Int; p_array = false; p_output = false } ] []
  in
  Alcotest.(check bool) "missing binding raises" true
    (match (run k : string -> Compile.arg) with exception Invalid_argument _ -> true | _ -> false)

let test_type_errors_rejected () =
  let bad1 = kernel [ Imp.Decl (Imp.Int, "x", Imp.Float_lit 1.) ] in
  Alcotest.(check bool) "float in int context" true
    (match Compile.compile bad1 with exception Invalid_argument _ -> true | _ -> false);
  let bad2 = kernel [ Imp.Decl (Imp.Int, "x", Imp.Var "nope") ] in
  Alcotest.(check bool) "unknown variable" true
    (match Compile.compile bad2 with exception Invalid_argument _ -> true | _ -> false);
  let bad3 =
    kernel
      [ Imp.Alloc (Imp.Float, "a", i 2); Imp.Decl (Imp.Int, "x", Imp.Load ("a", i 0)) ]
  in
  Alcotest.(check bool) "float array in int load" true
    (match Compile.compile bad3 with exception Invalid_argument _ -> true | _ -> false)

let test_output_shared_inplace () =
  (* Arrays bound as args are mutated in place, not copied. *)
  let buf = [| 0.; 0. |] in
  let k =
    kernel
      ~params:[ { Imp.p_name = "out"; p_dtype = Imp.Float; p_array = true; p_output = true } ]
      [ Imp.Store ("out", i 1, Imp.Float_lit 42.) ]
  in
  ignore (run ~args:[ ("out", Compile.Afloat_array buf) ] k : string -> Compile.arg);
  Alcotest.(check (float 0.)) "written through" 42. buf.(1)

(* --- read-back contract ------------------------------------------------ *)

(* A hand-assembled two-row CSR level: pos is exactly 3 long, crd/vals
   grow to a capacity of 8 but hold 5 entries ([pos.(2)]). *)
let assembled =
  kernel
    [
      Imp.Alloc (Imp.Int, "pos", i 3);
      Imp.Alloc (Imp.Int, "crd", i 4);
      Imp.Alloc (Imp.Float, "vals", i 4);
      Imp.Alloc (Imp.Float, "w", i 6);
      Imp.Realloc ("crd", i 8);
      Imp.Realloc ("vals", i 8);
      Imp.Store ("pos", i 1, i 2);
      Imp.Store ("pos", i 2, i 5);
      Imp.For
        ( "q",
          i 0,
          i 5,
          [
            Imp.Store ("crd", v "q", Imp.Binop (Imp.Add, v "q", i 10));
            Imp.Store ("vals", v "q", Imp.Float_lit 0.5);
          ] );
    ]

let exact_reads =
  [
    ("pos", Compile.Len 3);
    ("crd", Compile.Len_at ("pos", 2));
    ("vals", Compile.Len_at ("pos", 2));
  ]

let test_read_exact_lengths () =
  let whole = run assembled in
  let r = Compile.run ~read:exact_reads (Compile.compile assembled) ~args:[] in
  Alcotest.(check int) "capacity without a read list" 8 (Array.length (read_iarr whole "crd"));
  Alcotest.(check (array int)) "pos" [| 0; 2; 5 |] (read_iarr r "pos");
  Alcotest.(check (array int)) "crd is the prefix" [| 10; 11; 12; 13; 14 |] (read_iarr r "crd");
  Alcotest.(check (array (float 0.))) "vals is the prefix" (Array.make 5 0.5) (read_farr r "vals");
  Alcotest.(check bool) "an unlisted allocated array is not read back" true
    (match r "w" with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "an array read twice is refused before the run" true
    (match Compile.run ~read:(("crd", Compile.Len 1) :: exact_reads) (Compile.compile assembled) ~args:[] with
    | exception Invalid_argument _ -> true
    | (_ : string -> Compile.arg) -> false);
  Alcotest.(check bool) "a parameter cannot be read back" true
    (match
       (Compile.run
          ~read:[ ("a", Compile.Len 1) ]
          (Compile.compile
             (kernel
                ~params:[ { Imp.p_name = "a"; p_dtype = Imp.Int; p_array = true; p_output = true } ]
                []))
          ~args:[ ("a", Compile.Aint_array (Ivec.of_array [| 1 |])) ]
         : string -> Compile.arg)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Every out-of-range length is the same stage-Execute diagnostic as on
   the native backend, never a crash or a silently short array. *)
let test_read_out_of_range () =
  let c = Compile.compile assembled in
  List.iter
    (fun (what, read) ->
      match Compile.run ~read c ~args:[] with
      | (_ : string -> Compile.arg) -> Alcotest.failf "%s: out-of-range read accepted" what
      | exception Taco_support.Diag.Error d ->
          Alcotest.(check string) (what ^ ": stage") "execute"
            (Taco_support.Diag.stage_name d.Taco_support.Diag.stage);
          Alcotest.(check string) (what ^ ": code") "E_EXEC_NATIVE" d.Taco_support.Diag.code)
    [
      ("past capacity", [ ("crd", Compile.Len 9) ]);
      ("negative", [ ("vals", Compile.Len (-1)) ]);
      ("index past source", [ ("crd", Compile.Len_at ("pos", 3)) ]);
      ("negative index", [ ("crd", Compile.Len_at ("pos", -1)) ]);
      ("length past the array it sizes", [ ("pos", Compile.Len_at ("pos", 2)) ]);
    ]

let () =
  Alcotest.run "exec"
    [
      ( "expressions",
        [
          Alcotest.test_case "integer arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "float arithmetic" `Quick test_float_arithmetic;
          Alcotest.test_case "bool arrays and ternary" `Quick test_bool_arrays_and_ternary;
        ] );
      ( "statements",
        [
          Alcotest.test_case "for loop" `Quick test_for_loop;
          Alcotest.test_case "while and if" `Quick test_while_and_if;
          Alcotest.test_case "realloc preserves contents" `Quick test_realloc_preserves;
          Alcotest.test_case "memset prefix" `Quick test_memset;
          Alcotest.test_case "sort range" `Quick test_sort_range;
          Alcotest.test_case "int32 stores wrap" `Quick test_int32_stores_wrap;
          Alcotest.test_case "store_add accumulates" `Quick test_store_add;
        ] );
      ( "binding",
        [
          Alcotest.test_case "parameters" `Quick test_param_binding;
          Alcotest.test_case "missing binding" `Quick test_missing_binding;
          Alcotest.test_case "type errors" `Quick test_type_errors_rejected;
          Alcotest.test_case "outputs written in place" `Quick test_output_shared_inplace;
        ] );
      ( "read-back",
        [
          Alcotest.test_case "exact lengths" `Quick test_read_exact_lengths;
          Alcotest.test_case "out-of-range lengths" `Quick test_read_out_of_range;
        ] );
    ]
