(* Matrix Market and FROSTT file I/O. *)

module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module Io = Taco_tensor.Io
module Coo = Taco_tensor.Coo

let temp_file = Filename.temp_file "taco_io" ".txt"

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_mtx_roundtrip () =
  let t = Helpers.random_tensor 301 [| 7; 9 |] 0.3 F.csr in
  Helpers.getd (Io.write_matrix_market temp_file t);
  let coo = Helpers.getd (Io.read_matrix_market temp_file) in
  Helpers.check_dense "roundtrip" (T.to_dense t) (Coo.to_dense coo)

let test_mtx_parse () =
  write temp_file
    "%%MatrixMarket matrix coordinate real general\n\
     % a comment\n\
     3 4 2\n\
     1 2 1.5\n\
     3 4 -2.5\n";
  let coo = Helpers.getd (Io.read_matrix_market temp_file) in
  let d = Coo.to_dense coo in
  Alcotest.(check (float 0.)) "entry 1" 1.5 (Taco_tensor.Dense.get d [| 0; 1 |]);
  Alcotest.(check (float 0.)) "entry 2" (-2.5) (Taco_tensor.Dense.get d [| 2; 3 |]);
  Alcotest.(check (array int)) "dims" [| 3; 4 |] (Coo.dims coo)

let test_mtx_symmetric () =
  write temp_file
    "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 7.0\n";
  let coo = Helpers.getd (Io.read_matrix_market temp_file) in
  let d = Coo.to_dense coo in
  Alcotest.(check (float 0.)) "lower" 5. (Taco_tensor.Dense.get d [| 1; 0 |]);
  Alcotest.(check (float 0.)) "mirrored" 5. (Taco_tensor.Dense.get d [| 0; 1 |]);
  Alcotest.(check (float 0.)) "diagonal not doubled" 7. (Taco_tensor.Dense.get d [| 2; 2 |])

let test_mtx_pattern () =
  write temp_file "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 2\n";
  let coo = Helpers.getd (Io.read_matrix_market temp_file) in
  Alcotest.(check (float 0.)) "pattern reads as 1" 1.
    (Taco_tensor.Dense.get (Coo.to_dense coo) [| 1; 1 |])

let test_mtx_errors () =
  write temp_file "not a matrix\n";
  (match Io.read_matrix_market temp_file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header accepted");
  write temp_file "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
  (match Io.read_matrix_market temp_file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "array format accepted");
  write temp_file "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops 1.0\n";
  (match Io.read_matrix_market temp_file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad entry accepted");
  (match Io.read_matrix_market "/nonexistent/file.mtx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted")

let test_frostt_roundtrip () =
  let prng = Taco_support.Prng.create 302 in
  let t = Taco_tensor.Gen.random prng ~dims:[| 4; 5; 6 |] ~nnz:12 (F.csf 3) in
  Helpers.getd (Io.write_frostt temp_file t);
  let coo = Helpers.getd (Io.read_frostt ~dims:[| 4; 5; 6 |] temp_file) in
  Helpers.check_dense "roundtrip" (T.to_dense t) (Coo.to_dense coo)

let test_frostt_infer_dims () =
  write temp_file "# comment\n1 1 1 2.0\n3 2 4 1.0\n";
  let coo = Helpers.getd (Io.read_frostt temp_file) in
  Alcotest.(check (array int)) "inferred dims" [| 3; 2; 4 |] (Coo.dims coo);
  Alcotest.(check (float 0.)) "value" 2. (Taco_tensor.Dense.get (Coo.to_dense coo) [| 0; 0; 0 |])

let test_frostt_errors () =
  write temp_file "1 2 not_a_number\n";
  (match Io.read_frostt temp_file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value accepted");
  write temp_file "1 1 1 2.0\n1 1 2.0\n";
  (match Io.read_frostt temp_file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inconsistent arity accepted")

(* Sizes and coordinates must fit int32, the index arrays' type: one
   at Int32.max_int reads and packs, one past it is refused naming its
   line and field. *)
let test_int32_range () =
  let refused what ~field ~line r =
    match r with
    | Ok _ -> Alcotest.failf "%s: read" what
    | Error d ->
        Alcotest.(check string) (what ^ ": code") "E_IO_RANGE" d.Taco_support.Diag.code;
        Alcotest.(check (list (option string)))
          (what ^ ": field and line") [ Some field; Some line ]
          (List.map (fun k -> List.assoc_opt k d.Taco_support.Diag.context) [ "field"; "line" ])
  in
  let packs what fmt r =
    let t = T.pack (Helpers.getd r) fmt in
    Alcotest.(check bool) (what ^ ": valid") true (T.validate t = Ok ());
    Alcotest.(check int) (what ^ ": entries") 1 (T.nnz t)
  in
  let mtx size entry =
    write temp_file ("%%MatrixMarket matrix coordinate real general\n" ^ size ^ "\n" ^ entry ^ "\n");
    Io.read_matrix_market temp_file
  in
  let tns line =
    write temp_file (line ^ "\n");
    Io.read_frostt temp_file
  in
  refused "cols past int32" ~field:"cols" ~line:"2" (mtx "3 2147483648 1" "1 1 1.0");
  refused "row past int32" ~field:"row" ~line:"3" (mtx "3 3 1" "2147483648 1 1.0");
  refused "coordinate past int32" ~field:"coordinate" ~line:"1" (tns "1 2147483648 1.0");
  packs ".mtx at Int32.max_int" F.dcsr (mtx "2147483647 2 1" "2147483647 1 1.0");
  packs ".tns at Int32.max_int" (F.csf 2) (tns "2147483647 1 2.0")

let test_pipeline_through_files () =
  (* Write two matrices, read them back, multiply with the compiled
     pipeline. *)
  let bt = Helpers.random_tensor 303 [| 6; 8 |] 0.3 F.csr in
  let ct = Helpers.random_tensor 304 [| 8; 5 |] 0.3 F.csr in
  let fb = Filename.temp_file "taco_b" ".mtx" and fc = Filename.temp_file "taco_c" ".mtx" in
  Helpers.getd (Io.write_matrix_market fb bt);
  Helpers.getd (Io.write_matrix_market fc ct);
  let bt' = T.pack (Helpers.getd (Io.read_matrix_market fb)) F.csr in
  let ct' = T.pack (Helpers.getd (Io.read_matrix_market fc)) F.csr in
  let result = Taco_kernels.Spgemm.gustavson bt' ct' in
  Helpers.check_dense "files preserve the product"
    (T.to_dense (Taco_kernels.Spgemm.gustavson bt ct))
    (T.to_dense result);
  Sys.remove fb;
  Sys.remove fc

let () =
  Alcotest.run "io"
    [
      ( "matrix market",
        [
          Alcotest.test_case "roundtrip" `Quick test_mtx_roundtrip;
          Alcotest.test_case "parsing" `Quick test_mtx_parse;
          Alcotest.test_case "symmetric expansion" `Quick test_mtx_symmetric;
          Alcotest.test_case "pattern values" `Quick test_mtx_pattern;
          Alcotest.test_case "errors" `Quick test_mtx_errors;
        ] );
      ( "frostt",
        [
          Alcotest.test_case "roundtrip" `Quick test_frostt_roundtrip;
          Alcotest.test_case "dimension inference" `Quick test_frostt_infer_dims;
          Alcotest.test_case "errors" `Quick test_frostt_errors;
          Alcotest.test_case "int32 range" `Quick test_int32_range;
        ] );
      ("integration", [ Alcotest.test_case "pipeline through files" `Quick test_pipeline_through_files ]);
    ]
