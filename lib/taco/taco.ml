module Format = Taco_tensor.Format
module Level = Taco_tensor.Level
module Dense = Taco_tensor.Dense
module Coo = Taco_tensor.Coo
module Tensor = Taco_tensor.Tensor
module Gen = Taco_tensor.Gen
module Suite = Taco_tensor.Suite
module Io = Taco_tensor.Io
module Index_var = Taco_ir.Var.Index_var
module Tensor_var = Taco_ir.Var.Tensor_var
module Index_notation = Taco_ir.Index_notation
module Cin = Taco_ir.Cin
module Cin_eval = Taco_ir.Cin_eval
module Extent = Taco_ir.Extent
module Semiring = Taco_ir.Semiring
module Concretize = Taco_ir.Concretize
module Reorder = Taco_ir.Reorder
module Workspace = Taco_ir.Workspace
module Heuristics = Taco_ir.Heuristics
module Schedule = Taco_ir.Schedule
module Autoschedule = Taco_ir.Autoschedule
module Stats = Taco_stats.Stats
module Cost = Taco_ir.Cost
module Imp = Taco_lower.Imp
module Merge_lattice = Taco_lower.Merge_lattice
module Lower = Taco_lower.Lower
module Profile = Taco_lower.Profile
module Codegen_c = Taco_lower.Codegen_c
module Compile = Taco_exec.Compile
module Native = Taco_exec.Native
module Kernel = Taco_exec.Kernel
module Budget = Taco_exec.Budget
module Diag = Taco_support.Diag
module Trace = Taco_support.Trace
module Obs = Taco_support.Obs
module Metrics = Taco_support.Metrics
module Memo = Taco_support.Memo
module Events = Taco_support.Events
module Json = Taco_support.Json

let ivar = Index_var.make

let tensor name fmt = Tensor_var.make name ~order:(Format.order fmt) ~format:fmt

let workspace name fmt = Tensor_var.workspace name ~order:(Format.order fmt) ~format:fmt

type compiled = { sched : Schedule.t; kern : Kernel.t }

let default_mode stmt =
  match
    List.find_opt
      (fun tv -> not (Tensor_var.is_workspace tv))
      (Cin.tensors_written stmt)
  with
  | Some result when not (Format.is_all_dense (Tensor_var.format result)) ->
      Lower.Assemble { emit_values = true; sorted = true }
  | Some _ | None -> Lower.Compute

(* A statement lowered and waiting for its kernel to compile. *)
type lowered = { l_sched : Schedule.t; l_request : Kernel.request }

let restamp l = { l with l_request = Kernel.restamp l.l_request }

let compile_batch lowered =
  List.map2
    (fun l r -> Result.map (fun kern -> { sched = l.l_sched; kern }) r)
    lowered
    (Kernel.prepare_batch (List.map (fun l -> l.l_request) lowered))

let lookup l = Option.map (Result.map (fun kern -> { sched = l.l_sched; kern })) (Kernel.lookup l.l_request)

(* The batch of one. As ever for a single compile, only malformed IR is
   a result; any other diagnostic (an injected fault) is raised. *)
let compile_lowered l =
  match compile_batch [ l ] with
  | [ Error d ] when d.Diag.code <> "E_COMPILE_TYPE" -> raise (Diag.Error d)
  | r -> List.hd r

(* Parallelization failures carry their own diagnostic code so callers
   (and the service) can distinguish an illegal directive from a plain
   lowering rejection. *)
let par_illegal msg =
  let p = "cannot parallelize" in
  String.length msg >= String.length p && String.sub msg 0 (String.length p) = p

let parallelize v sched =
  match Schedule.parallelize v sched with
  | Ok s -> Ok s
  | Error msg ->
      Diag.error ~stage:Diag.Concretize ~code:"E_PAR_ILLEGAL"
        ~context:[ ("index", Index_var.name v) ]
        "%s" msg

let lower ?(name = "kernel") ?mode ?splits ?semiring ?profile ?backend sched =
  let stmt = Schedule.stmt sched in
  let mode = match mode with Some m -> m | None -> default_mode stmt in
  match
    Lower.lower ~name ?splits ?semiring ?parallel:(Schedule.parallel sched) ~mode stmt
  with
  | Error msg ->
      Diag.error ~stage:Diag.Lower
        ~code:(if par_illegal msg then "E_PAR_ILLEGAL" else "E_LOWER")
        "%s" msg
  | Ok info -> Ok { l_sched = sched; l_request = Kernel.request ?profile ?backend info }

let compile ?name ?mode ?splits ?semiring ?profile ?backend sched =
  Result.bind (lower ?name ?mode ?splits ?semiring ?profile ?backend sched) compile_lowered

let kernel c = c.kern

let backend_of c = Kernel.backend c.kern

let schedule_of c = c.sched

let c_source c = Kernel.c_source c.kern

let cin_string c = Cin.to_string (Schedule.stmt c.sched)

let infer_result_dims stmt ~inputs =
  match List.find_opt (fun tv -> not (Tensor_var.is_workspace tv)) (Cin.tensors_written stmt) with
  | None ->
      Diag.error ~stage:Diag.Execute ~code:"E_EXEC_DIMS" "the statement writes no result tensor"
  | Some result ->
      Diag.to_result (fun () ->
          Extent.infer (Extent.of_stmt stmt)
            (List.map (fun (tv, t) -> (tv, Tensor.dims t)) inputs)
            result)

(* Execution errors surface two ways: [Invalid_argument] for binding
   arity/format/type mismatches, and [Diag.Error] from the binding's
   extent check and the executors (bounds, budget, deadline). *)
let exec_ctx c = [ ("kernel", (Kernel.info c.kern).Lower.kernel.Imp.k_name) ]

let run_exec c f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument e ->
      Diag.error ~stage:Diag.Execute ~code:"E_EXEC_BINDING" ~context:(exec_ctx c) "%s" e
  | exception Diag.Error d -> Error d

let run ?domains ?deadline_ns c ~inputs =
  let info = Kernel.info c.kern in
  run_exec c (fun () ->
      let dims = Kernel.result_dims c.kern ~inputs in
      match info.Lower.mode with
      | Lower.Assemble _ -> Kernel.run_assemble ?domains ?deadline_ns c.kern ~inputs ~dims
      | Lower.Compute when Format.is_all_dense (Tensor_var.format info.Lower.result) ->
          Kernel.run_dense ?domains ?deadline_ns c.kern ~inputs ~dims
      | Lower.Compute ->
          Diag.fail ~stage:Diag.Execute ~code:"E_EXEC_MODE" ~context:(exec_ctx c)
            "compute-mode kernels with compressed results need a pre-assembled output; use \
             run_with_output")

let run_with_output ?domains ?deadline_ns c ~inputs ~output =
  run_exec c (fun () ->
      Kernel.run_compute ?domains ?deadline_ns c.kern ~inputs ~output)

let mode_tag = function
  | Lower.Compute -> "compute"
  | Lower.Assemble { emit_values; sorted } ->
      Printf.sprintf "assemble:%b:%b" emit_values sorted

(* Plan-cache key: expression structure x tensor formats x lowering
   mode x stats bucket. The structure string pins the exact schedule
   search input; the format list matters because [Cin.to_string] renders
   tensors by name only, and a cached plan embeds its tensor variables —
   formats included — so two statements that print alike but store their
   operands differently must not share a plan. The stats bucket
   (power-of-two quantized dims/nnz) lets tensors with similar shapes
   share one plan without letting a cached plan hide a 10x sparsity
   change. *)
let plan_key stmt mode stats =
  let formats =
    Cin.tensors stmt
    |> List.map (fun tv ->
           Tensor_var.name tv ^ ":" ^ Format.to_string (Tensor_var.format tv))
    |> List.sort compare
    |> String.concat ";"
  in
  let buckets =
    stats
    |> List.map (fun (n, s) -> n ^ "=" ^ Stats.bucket s)
    |> List.sort compare
    |> String.concat ";"
  in
  Cin.to_string stmt ^ "|" ^ formats ^ "|" ^ mode_tag mode ^ "|" ^ buckets

let plan_id stmt = String.sub (Digest.to_hex (Digest.string (Cin.to_string stmt))) 0 12

(* One "plan.chosen" event per search, joinable with serve.request
   lines by rid: plan id, estimated cost, search time, cache hit. *)
let emit_plan_event plan (explain : Autoschedule.explain) =
  if Events.enabled () then begin
    let base =
      [
        ("plan", Json.Str (plan_id plan.Autoschedule.p_stmt));
        ("est_cost", Json.Float plan.Autoschedule.p_cost);
        ("default_cost", Json.Float explain.Autoschedule.e_default_cost);
        ("search_ns", Json.Int (Int64.to_int explain.Autoschedule.e_search_ns));
        ("cache_hit", Json.Bool explain.Autoschedule.e_cache_hit);
        ("steps", Json.Int (List.length plan.Autoschedule.p_steps));
      ]
    in
    let fields =
      match Trace.request_id () with
      | Some rid -> ("rid", Json.Int rid) :: base
      | None -> base
    in
    Events.emit "plan.chosen" fields
  end

let auto_lower ?(name = "kernel") ?mode ?semiring ?profile ?backend ?stats sched =
  let stmt = Schedule.stmt sched in
  let mode = match mode with Some m -> m | None -> default_mode stmt in
  let lowerable s =
    Result.map (fun (_ : Lower.kernel_info) -> ()) (Lower.lower ~name ?semiring ~mode s)
  in
  (* The searched plan (loop order, workspaces) is semiring-independent,
     but legality is not, so cached plans are keyed per semiring. *)
  let key =
    Option.map
      (fun st ->
        let base = plan_key stmt mode st in
        match semiring with
        | None -> base
        | Some sr -> base ^ "|" ^ sr.Taco_ir.Semiring.name)
      stats
  in
  let stats = Option.value ~default:[] stats in
  match
    Diag.of_msg ~stage:Diag.Workspace ~code:"E_AUTOSCHEDULE"
      (Autoschedule.search ~stats ?key ~lowerable stmt)
  with
  | Error e -> Error e
  | Ok (plan, explain) -> (
      emit_plan_event plan explain;
      let sched' =
        let s = Schedule.of_stmt plan.Autoschedule.p_stmt in
        match plan.Autoschedule.p_par with
        | None -> s
        | Some v -> (
            (* Advisory; a refusal here just means sequential execution. *)
            match Schedule.parallelize v s with Ok s' -> s' | Error _ -> s)
      in
      match
        Diag.of_msg ~stage:Diag.Lower ~code:"E_LOWER"
          (Lower.lower ~name ?semiring ?parallel:(Schedule.parallel sched') ~mode
             plan.Autoschedule.p_stmt)
      with
      | Error e -> Error e
      | Ok info ->
          Ok
            ( { l_sched = sched'; l_request = Kernel.request ?profile ?backend info },
              plan.Autoschedule.p_steps,
              explain ))

let auto_compile_explained ?name ?mode ?semiring ?profile ?backend ?stats sched =
  match auto_lower ?name ?mode ?semiring ?profile ?backend ?stats sched with
  | Error e -> Error e
  | Ok (l, steps, explain) ->
      Result.map (fun c -> (c, steps, explain)) (compile_lowered l)

let auto_compile ?name ?mode ?semiring ?profile ?backend sched =
  Result.map
    (fun (c, steps, _explain) -> (c, steps))
    (auto_compile_explained ?name ?mode ?semiring ?profile ?backend sched)

let concretize_res stmt =
  Diag.of_msg ~stage:Diag.Concretize ~code:"E_CONCRETIZE"
    (Schedule.of_index_notation stmt)

let auto_einsum stmt ~inputs =
  match concretize_res stmt with
  | Error e -> Error e
  | Ok sched -> (
      match auto_compile sched with
      | Error e -> Error e
      | Ok (c, _) -> run c ~inputs)

let einsum stmt ~inputs =
  match concretize_res stmt with
  | Error e -> Error e
  | Ok sched -> (
      match compile sched with
      | Error e -> Error e
      | Ok c -> run c ~inputs)
