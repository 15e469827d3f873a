(* Fixture tests for the structured diagnostics: malformed inputs at
   every user-facing edge must be rejected with the exact stage and
   error code (and useful context), never with a crash. *)

module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module Io = Taco_tensor.Io
module I = Taco_ir.Index_notation
module Cin = Taco_ir.Cin
module Schedule = Taco_ir.Schedule
module Lower = Taco_lower.Lower
module Compile = Taco_exec.Compile
module Kernel = Taco_exec.Kernel
module P = Taco_frontend.Parser
module Diag = Taco_support.Diag
open Taco_ir.Var

let temp_file = Filename.temp_file "taco_diag" ".txt"

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Check that a result is an [Error] diagnostic with the given stage and
   code; returns it for further context checks. *)
let expect_diag what ~stage ~code = function
  | Ok _ -> Alcotest.fail (what ^ ": expected a diagnostic, got Ok")
  | Error (d : Diag.t) ->
      Alcotest.(check string)
        (what ^ ": stage") (Diag.stage_name stage) (Diag.stage_name d.Diag.stage);
      Alcotest.(check string) (what ^ ": code") code d.Diag.code;
      d

let context_value what key (d : Diag.t) =
  match List.assoc_opt key d.Diag.context with
  | Some v -> v
  | None ->
      Alcotest.fail
        (Printf.sprintf "%s: diagnostic carries no %S context (%s)" what key
           (Diag.to_string d))

(* ------------------------------------------------------------------ *)
(* Io fixtures                                                         *)
(* ------------------------------------------------------------------ *)

let test_mtx_garbage_header () =
  write temp_file "this is not\na matrix at all\n";
  let d =
    expect_diag "garbage header" ~stage:Diag.Io ~code:"E_IO_HEADER"
      (Io.read_matrix_market temp_file)
  in
  Alcotest.(check string) "line of the bad header" "1" (context_value "header" "line" d)

let test_mtx_truncated () =
  (* Size line promises two entries, the file ends after one. *)
  write temp_file "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n";
  ignore
    (expect_diag "truncated file" ~stage:Diag.Io ~code:"E_IO_EOF"
       (Io.read_matrix_market temp_file))

let test_mtx_bad_entry_line_number () =
  write temp_file
    "%%MatrixMarket matrix coordinate real general\n\
     % comment\n\
     3 3 2\n\
     1 1 1.0\n\
     2 oops 2.0\n";
  let d =
    expect_diag "bad entry" ~stage:Diag.Io ~code:"E_IO_FIELD"
      (Io.read_matrix_market temp_file)
  in
  Alcotest.(check string) "offending line number" "5" (context_value "entry" "line" d)

let test_mtx_bad_size_line () =
  write temp_file "%%MatrixMarket matrix coordinate real general\n3 3\n";
  ignore
    (expect_diag "bad size line" ~stage:Diag.Io ~code:"E_IO_SIZE_LINE"
       (Io.read_matrix_market temp_file))

let test_mtx_missing_file () =
  ignore
    (expect_diag "missing file" ~stage:Diag.Io ~code:"E_IO_SYS"
       (Io.read_matrix_market "/nonexistent/taco.mtx"))

let test_mtx_tolerant_reader () =
  (* CRLF endings, blank lines and comments between entries must all be
     accepted; only real data lines count toward nnz. *)
  write temp_file
    "%%MatrixMarket matrix coordinate real general\r\n\
     % a comment\r\n\
     \r\n\
     3 4 2\r\n\
     \r\n\
     1 2 1.5\r\n\
     % interleaved comment\r\n\
     # hash comment too\r\n\
     3 4 -2.5\r\n";
  match Io.read_matrix_market temp_file with
  | Error d -> Alcotest.fail ("tolerant reader rejected: " ^ Diag.to_string d)
  | Ok coo ->
      let d = Taco_tensor.Coo.to_dense coo in
      Alcotest.(check (float 0.)) "entry 1" 1.5 (Taco_tensor.Dense.get d [| 0; 1 |]);
      Alcotest.(check (float 0.)) "entry 2" (-2.5) (Taco_tensor.Dense.get d [| 2; 3 |])

let test_mtx_write_bad_order () =
  let t = T.zero [| 2; 2; 2 |] (F.dense 3) in
  ignore
    (expect_diag "order-3 write" ~stage:Diag.Io ~code:"E_IO_ORDER"
       (Io.write_matrix_market temp_file t))

let test_tns_garbage () =
  write temp_file "1 2 not_a_number\n";
  let d =
    expect_diag "garbage value" ~stage:Diag.Io ~code:"E_IO_FIELD"
      (Io.read_frostt temp_file)
  in
  Alcotest.(check string) "line" "1" (context_value "tns" "line" d)

let test_tns_inconsistent_arity () =
  write temp_file "1 1 1 2.0\n\n# comment\n1 1 2.0\n";
  let d =
    expect_diag "inconsistent arity" ~stage:Diag.Io ~code:"E_IO_ENTRY"
      (Io.read_frostt temp_file)
  in
  Alcotest.(check string) "line of the short entry" "4" (context_value "tns" "line" d)

(* ------------------------------------------------------------------ *)
(* Parser fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let env =
  [
    ("A", Tensor_var.make "A" ~order:2 ~format:F.csr);
    ("x", Tensor_var.make "x" ~order:1 ~format:F.dense_vector);
  ]

let test_parse_unknown_tensor () =
  let d =
    expect_diag "unknown tensor" ~stage:Diag.Parse ~code:"E_PARSE_UNKNOWN_TENSOR"
      (P.parse_statement ~tensors:env "Z(i) = x(i)")
  in
  Alcotest.(check string) "position" "0" (context_value "unknown" "position" d)

let test_parse_arity () =
  ignore
    (expect_diag "arity" ~stage:Diag.Parse ~code:"E_PARSE_ARITY"
       (P.parse_statement ~tensors:env "A(i) = x(i)"))

let test_parse_bad_char () =
  let d =
    expect_diag "bad char" ~stage:Diag.Parse ~code:"E_PARSE_CHAR"
      (P.parse_statement ~tensors:env "x(i) = x(i) ^ 2")
  in
  Alcotest.(check string) "position of ^" "12" (context_value "char" "position" d)

let test_parse_trailing () =
  ignore
    (expect_diag "trailing" ~stage:Diag.Parse ~code:"E_PARSE_TRAILING"
       (P.parse_statement ~tensors:env "x(i) = x(i) x"))

let test_parse_bad_number () =
  ignore
    (expect_diag "bad number" ~stage:Diag.Parse ~code:"E_PARSE_NUMBER"
       (P.parse_statement ~tensors:env "x(i) = 1.5ee3"))

let test_parse_syntax () =
  ignore
    (expect_diag "empty rhs" ~stage:Diag.Parse ~code:"E_PARSE_SYNTAX"
       (P.parse_statement ~tensors:env "x(i) = "));
  ignore
    (expect_diag "missing op" ~stage:Diag.Parse ~code:"E_PARSE_SYNTAX"
       (P.parse_statement ~tensors:env "x(i) x(i)"))

let test_parse_validate () =
  (* Well-formed syntax, ill-formed statement: the result tensor may not
     appear on its own right-hand side. *)
  ignore
    (expect_diag "validate" ~stage:Diag.Parse ~code:"E_PARSE_VALIDATE"
       (P.parse_statement ~tensors:env "A(i,j) = A(i,j)"))

(* ------------------------------------------------------------------ *)
(* Compile / execute fixtures                                          *)
(* ------------------------------------------------------------------ *)

let vi = Index_var.make "i"

let vj = Index_var.make "j"

let vk = Index_var.make "k"

let test_run_missing_binding () =
  (* Two inputs, one bound: dimensions still infer (from b) but the
     binding for c is missing. *)
  let x = Tensor_var.make "x" ~order:1 ~format:F.dense_vector in
  let b = Tensor_var.make "b" ~order:1 ~format:F.dense_vector in
  let c = Tensor_var.make "c" ~order:1 ~format:F.dense_vector in
  let stmt = I.assign x [ vi ] (I.Add (I.access b [ vi ], I.access c [ vi ])) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let compiled = Helpers.getd (Taco.compile sched) in
  let bt = Helpers.random_tensor 6 [| 4 |] 1.0 F.dense_vector in
  let d =
    expect_diag "missing binding" ~stage:Diag.Execute ~code:"E_EXEC_BINDING"
      (Taco.run compiled ~inputs:[ (b, bt) ])
  in
  Alcotest.(check string) "kernel context" "kernel" (context_value "binding" "kernel" d)

let test_run_no_inputs_dims () =
  (* With no bindings at all, dimension inference is the first failure. *)
  let b = Tensor_var.make "B" ~order:2 ~format:F.dense_matrix in
  let a = Tensor_var.make "A" ~order:2 ~format:F.dense_matrix in
  let stmt = I.assign a [ vi; vj ] (I.access b [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let compiled = Helpers.getd (Taco.compile sched) in
  ignore
    (expect_diag "no inputs" ~stage:Diag.Execute ~code:"E_EXEC_DIMS"
       (Taco.run compiled ~inputs:[]))

let test_run_wrong_format_binding () =
  (* Bind a CSR tensor where the kernel expects a dense matrix. *)
  let b = Tensor_var.make "B" ~order:2 ~format:F.dense_matrix in
  let a = Tensor_var.make "A" ~order:2 ~format:F.dense_matrix in
  let stmt = I.assign a [ vi; vj ] (I.access b [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let c = Helpers.getd (Taco.compile sched) in
  let bt = Helpers.random_tensor 7 [| 3; 3 |] 0.5 F.csr in
  ignore
    (expect_diag "wrong format" ~stage:Diag.Execute ~code:"E_EXEC_BINDING"
       (Taco.run c ~inputs:[ (b, bt) ]))

(* Operands that disagree on an index variable's extent are refused at
   binding, on every run entry point, naming the variable, both tensors
   and both extents; the result's dims passed as [~dims] are checked too. *)
let test_run_extent_mismatch () =
  let y = Tensor_var.make "y" ~order:1 ~format:F.dense_vector in
  let b = Tensor_var.make "B" ~order:2 ~format:F.csr in
  let x = Tensor_var.make "x" ~order:1 ~format:F.dense_vector in
  let stmt = I.assign y [ vi ] (I.sum vj (I.Mul (I.access b [ vi; vj ], I.access x [ vj ]))) in
  let compiled = Helpers.getd (Taco.compile (Helpers.get (Schedule.of_index_notation stmt))) in
  let bt = Helpers.random_tensor 8 [| 4; 5 |] 0.5 F.csr in
  let d =
    expect_diag "extent mismatch" ~stage:Diag.Execute ~code:"E_EXEC_DIMS"
      (Taco.run compiled
         ~inputs:[ (b, bt); (x, Helpers.random_tensor 9 [| 6 |] 1.0 F.dense_vector) ])
  in
  Alcotest.(check string) "variable" "j" (context_value "extent mismatch" "index" d);
  Alcotest.(check string) "message"
    "index variable j ranges over 5 in B (mode 2) but over 6 in x (mode 1)" d.Diag.message;
  let xt = Helpers.random_tensor 10 [| 5 |] 1.0 F.dense_vector in
  let kern = Taco.kernel compiled in
  Alcotest.(check (array int))
    "result dims" [| 4 |]
    (Kernel.result_dims kern ~inputs:[ (b, bt); (x, xt) ]);
  let d =
    expect_diag "result dims" ~stage:Diag.Execute ~code:"E_EXEC_DIMS"
      (Diag.to_result (fun () -> Kernel.run_dense kern ~inputs:[ (b, bt); (x, xt) ] ~dims:[| 3 |]))
  in
  Alcotest.(check string)
    "result named" "index variable i ranges over 3 in y (mode 1) but over 4 in B (mode 1)"
    d.Diag.message

(* A precompute's renamed variables (Fig. 2's jc/jp) are one extent,
   joined through the workspace mode they both index. *)
let test_extent_joins_workspace () =
  let a = Tensor_var.make "A" ~order:2 ~format:F.csr in
  let b = Tensor_var.make "B" ~order:2 ~format:F.csr in
  let c = Tensor_var.make "C" ~order:2 ~format:F.csr in
  let stmt =
    I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ])))
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in
  let jc = Index_var.make "jc" and jp = Index_var.make "jp" in
  let w = Helpers.ws_vec "w" in
  let sched = Helpers.get (Schedule.precompute ~expr:e ~vars:[ (vj, jc, jp) ] ~workspace:w sched) in
  let groups = Taco.Extent.of_stmt (Schedule.stmt sched) in
  let pairs g = List.map (fun (m : Taco.Extent.member) -> (Tensor_var.name m.tensor, m.mode)) g in
  Alcotest.(check (list (list (pair string int))))
    "groups" [ [ ("A", 0); ("B", 0) ]; [ ("A", 1); ("C", 1) ]; [ ("B", 1); ("C", 0) ] ]
    (List.sort compare (List.map (fun g -> List.sort compare (pairs g)) groups));
  let bt = Helpers.random_tensor 11 [| 3; 4 |] 0.5 F.csr in
  let ct = Helpers.random_tensor 12 [| 4; 5 |] 0.5 F.csr in
  let kern = Taco.kernel (Helpers.getd (Taco.compile sched)) in
  let d =
    expect_diag "jc/jp" ~stage:Diag.Execute ~code:"E_EXEC_DIMS"
      (Diag.to_result (fun () ->
           Kernel.run_assemble kern ~inputs:[ (b, bt); (c, ct) ] ~dims:[| 3; 6 |]))
  in
  Alcotest.(check string) "both variables" "jc/jp" (context_value "jc/jp" "index" d)

let test_scatter_without_workspace_is_lower_error () =
  (* The paper's motivating failure: sparse matmul into a sparse result
     scatters; without a workspace the lowerer must reject it (and the
     facade tags the rejection with the Lower stage). *)
  let a = Tensor_var.make "A" ~order:2 ~format:F.csr in
  let b = Tensor_var.make "B" ~order:2 ~format:F.csr in
  let c = Tensor_var.make "C" ~order:2 ~format:F.csr in
  let stmt =
    I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ])))
  in
  let bt = Helpers.random_tensor 8 [| 4; 4 |] 0.4 F.csr in
  let ct = Helpers.random_tensor 9 [| 4; 4 |] 0.4 F.csr in
  ignore
    (expect_diag "scatter" ~stage:Diag.Lower ~code:"E_LOWER"
       (Taco.einsum stmt ~inputs:[ (b, bt); (c, ct) ]))

let test_workspace_precondition () =
  (* precompute of an expression the statement does not contain: the
     workspace transformation's precondition fails and the scheduling
     layer reports it (string channel, tagged at the facade edge). *)
  let a = Tensor_var.make "A" ~order:2 ~format:F.dense_matrix in
  let b = Tensor_var.make "B" ~order:2 ~format:F.dense_matrix in
  let stmt = I.assign a [ vi; vj ] (I.access b [ vi; vj ]) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let w = Tensor_var.workspace "w" ~order:1 ~format:F.dense_vector in
  let ghost = Tensor_var.make "G" ~order:2 ~format:F.dense_matrix in
  let expr = Cin.Access (Cin.access ghost [ vi; vj ]) in
  match Schedule.precompute_simple ~expr ~over:[ vj ] ~workspace:w sched with
  | Ok _ -> Alcotest.fail "precompute of an absent expression accepted"
  | Error e ->
      let d = Diag.make ~stage:Diag.Workspace ~code:"E_WORKSPACE" e in
      Alcotest.(check string) "stage" "workspace" (Diag.stage_name d.Diag.stage);
      Alcotest.(check bool) "mentions the failure" true (String.length e > 0)

let test_checked_bounds () =
  (* Compile a dense copy kernel, then lie about the dimension so the
     loop runs past the arrays: the closure executor must raise a
     bounds diagnostic naming kernel, variable and index. *)
  let x = Tensor_var.make "x" ~order:1 ~format:F.dense_vector in
  let b = Tensor_var.make "b" ~order:1 ~format:F.dense_vector in
  let stmt = I.assign x [ vi ] (I.access b [ vi ]) in
  let cin = Helpers.get (Taco_ir.Concretize.run stmt) in
  let info = Helpers.get (Lower.lower ~name:"copy" ~mode:Lower.Compute cin) in
  let k = Compile.compile info.Lower.kernel in
  let args =
    [
      (Lower.dimension_var x 0, Compile.Aint 5);
      (Lower.dimension_var b 0, Compile.Aint 5);
      (Lower.vals_var x, Compile.Afloat_array (Array.make 5 0.));
      (Lower.vals_var b, Compile.Afloat_array [| 1.; 2.; 3. |]) (* too short *);
    ]
  in
  match Compile.run k ~args with
  | (_ : string -> Compile.arg) -> Alcotest.fail "out-of-bounds read not caught"
  | exception Diag.Error d ->
      Alcotest.(check string) "stage" "execute" (Diag.stage_name d.Diag.stage);
      Alcotest.(check string) "code" "E_EXEC_BOUNDS" d.Diag.code;
      Alcotest.(check string) "kernel" "copy" (context_value "bounds" "kernel" d);
      Alcotest.(check string) "length" "3" (context_value "bounds" "length" d);
      Alcotest.(check string) "index" "3" (context_value "bounds" "index" d)

let test_set_insert_bounds () =
  (* An insert outside a set over [0, 4): the default compile rejects it
     before touching the set, naming the set, its extent and the
     coordinate. *)
  let module Imp = Taco_lower.Imp in
  let insert j =
    {
      Imp.k_name = "set_range";
      k_params = [];
      k_body = [ Imp.Set_alloc ("s", Imp.Int_lit 4); Imp.Set_insert ("s", Imp.Int_lit j) ];
    }
  in
  List.iter
    (fun (what, j) ->
      match Compile.run (Compile.compile (insert j)) ~args:[] with
      | (_ : string -> Compile.arg) -> Alcotest.fail (what ^ ": out-of-range insert not caught")
      | exception Diag.Error d ->
          Alcotest.(check string) (what ^ ": code") "E_EXEC_BOUNDS" d.Diag.code;
          Alcotest.(check string) (what ^ ": kernel") "set_range" (context_value what "kernel" d);
          Alcotest.(check string) (what ^ ": variable") "s" (context_value what "variable" d);
          Alcotest.(check string) (what ^ ": length") "4" (context_value what "length" d);
          Alcotest.(check string) (what ^ ": index") (string_of_int j)
            (context_value what "index" d))
    [ ("at the extent", 4); ("below zero", -1) ]

let test_compile_res_ill_typed () =
  (* A hand-built kernel with a type error: compile_res reports it as a
     Compile-stage diagnostic instead of raising. *)
  let module Imp = Taco_lower.Imp in
  let bad =
    {
      Imp.k_name = "bad";
      k_params =
        [ { Imp.p_name = "n"; p_dtype = Imp.Int; p_array = false; p_output = false } ];
      k_body =
        [ Imp.Decl (Imp.Float, "f", Imp.Var "n") (* int initializer for a float *) ];
    }
  in
  (match Imp.validate bad with
  | Ok () -> Alcotest.fail "verifier accepted an ill-typed kernel"
  | Error _ -> ());
  ignore
    (expect_diag "ill-typed kernel" ~stage:Diag.Compile ~code:"E_COMPILE_TYPE"
       (Compile.compile_res bad))

let test_diag_to_string () =
  let d =
    Diag.make ~stage:Diag.Io ~code:"E_IO_ENTRY"
      ~context:[ ("file", "m.mtx"); ("line", "7") ]
      "malformed entry"
  in
  Alcotest.(check string) "rendering" "io error[E_IO_ENTRY]: malformed entry (file=m.mtx, line=7)"
    (Diag.to_string d)

let () =
  Alcotest.run "diagnostics"
    [
      ( "io fixtures",
        [
          Alcotest.test_case "garbage header" `Quick test_mtx_garbage_header;
          Alcotest.test_case "truncated mtx" `Quick test_mtx_truncated;
          Alcotest.test_case "bad entry line number" `Quick test_mtx_bad_entry_line_number;
          Alcotest.test_case "bad size line" `Quick test_mtx_bad_size_line;
          Alcotest.test_case "missing file" `Quick test_mtx_missing_file;
          Alcotest.test_case "crlf/blank/comment tolerance" `Quick test_mtx_tolerant_reader;
          Alcotest.test_case "write rejects order-3" `Quick test_mtx_write_bad_order;
          Alcotest.test_case "garbage tns" `Quick test_tns_garbage;
          Alcotest.test_case "inconsistent tns arity" `Quick test_tns_inconsistent_arity;
        ] );
      ( "parser fixtures",
        [
          Alcotest.test_case "unknown tensor" `Quick test_parse_unknown_tensor;
          Alcotest.test_case "arity" `Quick test_parse_arity;
          Alcotest.test_case "bad character + position" `Quick test_parse_bad_char;
          Alcotest.test_case "trailing input" `Quick test_parse_trailing;
          Alcotest.test_case "bad number" `Quick test_parse_bad_number;
          Alcotest.test_case "syntax errors" `Quick test_parse_syntax;
          Alcotest.test_case "validation errors" `Quick test_parse_validate;
        ] );
      ( "compile/execute fixtures",
        [
          Alcotest.test_case "missing binding" `Quick test_run_missing_binding;
          Alcotest.test_case "no inputs at all" `Quick test_run_no_inputs_dims;
          Alcotest.test_case "wrong format binding" `Quick test_run_wrong_format_binding;
          Alcotest.test_case "operand extents disagree" `Quick test_run_extent_mismatch;
          Alcotest.test_case "extents join through a workspace" `Quick test_extent_joins_workspace;
          Alcotest.test_case "scatter is a lower error" `Quick
            test_scatter_without_workspace_is_lower_error;
          Alcotest.test_case "workspace precondition" `Quick test_workspace_precondition;
          Alcotest.test_case "checked bounds" `Quick test_checked_bounds;
          Alcotest.test_case "set insert bounds" `Quick test_set_insert_bounds;
          Alcotest.test_case "ill-typed kernel" `Quick test_compile_res_ill_typed;
          Alcotest.test_case "diagnostic rendering" `Quick test_diag_to_string;
        ] );
    ]
