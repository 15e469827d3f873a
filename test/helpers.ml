(* Shared helpers for the test suites. *)

open Taco_ir
open Taco_ir.Var
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module Gen = Taco_tensor.Gen
module Prng = Taco_support.Prng
module Lower = Taco_lower.Lower
module Kernel = Taco_exec.Kernel

let get = function Ok x -> x | Error e -> Alcotest.fail e

(* Like [get] for the structured-diagnostic results of the user-facing
   stage boundaries. *)
let getd = function
  | Ok x -> x
  | Error d -> Alcotest.fail (Taco_support.Diag.to_string d)

let get_err what = function
  | Error e -> e
  | Ok _ -> Alcotest.fail (what ^ ": expected an error")

(* Run [f] with the process-wide domain budget at [n] permits, restored
   afterwards. At 0, a service pool runs every worker as a thread of the
   calling domain. *)
let with_budget n f =
  let saved = Taco_exec.Budget.capacity () in
  Taco_exec.Budget.set_capacity n;
  Fun.protect ~finally:(fun () -> Taco_exec.Budget.set_capacity saved) f

(* Substring test for assertions on emitted sources and messages. *)
let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

(* The request id of every [name] event in the trace buffer, in order;
   [having] keeps only the events whose JSON contains that text. *)
let trace_rids ?(having = "") name =
  let key = "\"rid\":\"" in
  let rid line =
    let rec find i =
      if i + String.length key > String.length line then Alcotest.failf "no rid in %s" line
      else if String.sub line i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    let start = find 0 in
    int_of_string (String.sub line start (String.index_from line start '"' - start))
  in
  String.split_on_char '\n' (Taco_support.Trace.to_chrome_json ())
  |> List.filter (fun line ->
         contains line (Printf.sprintf "\"name\":\"%s\"" name) && contains line having)
  |> List.map rid

(* Bit identity, not epsilon closeness: compare value arrays by their
   IEEE bit patterns and index structures exactly. *)
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

let dense_testable = Alcotest.testable D.pp (D.equal ~eps:1e-9)

let check_dense = Alcotest.check dense_testable

(* Deterministic random tensors for tests. *)
let random_tensor seed dims density fmt =
  let prng = Prng.create seed in
  Gen.random_density prng ~dims ~density fmt

(* Evaluate a CIN statement with the reference interpreter. *)
let eval_cin stmt inputs =
  let dense_inputs = List.map (fun (tv, t) -> (tv, T.to_dense t)) inputs in
  get (Cin_eval.eval1 stmt ~inputs:dense_inputs)

(* Lower a CIN statement, execute it, and compare with the interpreter.
   For Compute-mode kernels with a compressed result the output structure
   is pre-assembled from the oracle. *)
let run_lowered ?(name = "kernel") ~mode stmt inputs out_dims =
  let info = get (Lower.lower ~name ~mode stmt) in
  let kern = Kernel.prepare info in
  match mode with
  | Lower.Assemble _ -> Kernel.run_assemble kern ~inputs ~dims:out_dims
  | Lower.Compute ->
      let rfmt = Tensor_var.format info.Lower.result in
      if F.is_all_dense rfmt then Kernel.run_dense kern ~inputs ~dims:out_dims
      else begin
        let oracle = eval_cin stmt inputs in
        let out = T.of_dense oracle rfmt in
        Array.fill (T.vals out) 0 (Array.length (T.vals out)) 0.;
        Kernel.run_compute kern ~inputs ~output:out;
        out
      end

let check_lowered ?name ~mode stmt inputs out_dims =
  let oracle = eval_cin stmt inputs in
  let result = run_lowered ?name ~mode stmt inputs out_dims in
  check_dense "lowered kernel matches the interpreter" oracle (T.to_dense result)

(* Common index variables. *)
let vi = Index_var.make "i"

let vj = Index_var.make "j"

let vk = Index_var.make "k"

let vl = Index_var.make "l"

let csr_tv name = Tensor_var.make name ~order:2 ~format:F.csr

let dense_mat_tv name = Tensor_var.make name ~order:2 ~format:F.dense_matrix

let dense_vec_tv name = Tensor_var.make name ~order:1 ~format:F.dense_vector

let ws_vec name = Tensor_var.workspace name ~order:1 ~format:F.dense_vector

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
