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

module Json = Taco_support.Json

let parse_json what s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

(* The trace buffer's events, read back from its Chrome export. *)
let trace_events () =
  match Json.field (parse_json "trace export" (Taco_support.Trace.to_chrome_json ())) "traceEvents" with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "trace export without a traceEvents list"

(* A string member of an event, or of its ["args"] when [args] is set. *)
let event_str ?(args = false) e k =
  match Json.field (if args then Option.value ~default:Json.Null (Json.field e "args") else e) k with
  | Some (Json.Str s) -> Some s
  | _ -> None

(* The lines of a TACO_EVENTS file, each read as one JSON object. *)
let event_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (parse_json file)

(* The request id of every [name] event in the trace buffer, in order;
   [having] keeps only the events with that argument. *)
let trace_rids ?having name =
  trace_events ()
  |> List.filter (fun e ->
         event_str e "name" = Some name
         && match having with None -> true | Some (k, v) -> event_str ~args:true e k = Some v)
  |> List.map (fun e ->
         match event_str ~args:true e "rid" with
         | Some rid -> int_of_string rid
         | None -> Alcotest.failf "no rid in %s" (Json.to_string e))

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

(* The paper kernels as lowered: SpGEMM with a dense workspace (Fig. 4),
   fused sums of CSR operands (SpAdd with two, Fig. 13 with more) and
   MTTKRP with a dense workspace over j (paper §VIII-C). *)
let spgemm_info () =
  let a = csr_tv "A" and b = csr_tv "B" and c = csr_tv "C" in
  let stmt =
    Index_notation.assign a [ vi; vj ]
      (Index_notation.sum vk
         (Index_notation.Mul
            (Index_notation.access b [ vi; vk ], Index_notation.access c [ vk; vj ])))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vk vj sched) in
  let w = ws_vec "w" in
  let e =
    Cin.Mul
      ( Cin.Access (Cin.access b [ vi; vk ]),
        Cin.Access (Cin.access c [ vk; vj ]) )
  in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  get
    (Lower.lower ~name:"spgemm_ws"
       ~mode:(Lower.Assemble { emit_values = true; sorted = true })
       (Schedule.stmt sched))

(* A(i,j) = B(i,j) + C(i,j) + ..., every operand CSR: SpAdd with two
   operands, a fused merge with more. *)
let merge_info names =
  let sum =
    match List.map (fun n -> Index_notation.access (csr_tv n) [ vi; vj ]) names with
    | [] -> invalid_arg "merge_info"
    | x :: rest -> List.fold_left (fun acc y -> Index_notation.Add (acc, y)) x rest
  in
  let stmt = Index_notation.assign (csr_tv "A") [ vi; vj ] sum in
  get
    (Lower.lower ~mode:(Lower.Assemble { emit_values = true; sorted = true })
       (Schedule.stmt (get (Schedule.of_index_notation stmt))))

let mttkrp_info () =
  let vk = vk and vl = Index_var.make "l" in
  let a = dense_mat_tv "A" and c = dense_mat_tv "C" and d = dense_mat_tv "D" in
  let b = Tensor_var.make "B" ~order:3 ~format:(F.csf 3) in
  let stmt =
    Index_notation.assign a [ vi; vj ]
      (Index_notation.sum vk
         (Index_notation.sum vl
            (Index_notation.Mul
               ( Index_notation.Mul
                   (Index_notation.access b [ vi; vk; vl ], Index_notation.access c [ vl; vj ]),
                 Index_notation.access d [ vk; vj ] ))))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let e =
    Cin.Mul (Cin.Access (Cin.access b [ vi; vk; vl ]), Cin.Access (Cin.access c [ vl; vj ]))
  in
  let sched =
    get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:(ws_vec "w") sched)
  in
  get (Lower.lower ~mode:Lower.Compute (Schedule.stmt sched))

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
