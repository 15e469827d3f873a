(* Cost-based autoscheduler vs the breadth-first policy. Each workload
   starts from the unscheduled concretized statement; both policies plan
   it (the cost search sees real per-tensor statistics), both plans are
   lowered and run on the same inputs, and where the paper gives a hand
   schedule (SpGEMM Gustavson, MTTKRP with workspace) that is measured
   too as the expert reference. Every plan's result must agree with the
   default plan's (eps 1e-9) — a hard gate.

   Times, chosen steps, estimated costs and the search's own overhead go
   to BENCH_autoschedule.json; @bench-drift self-diffs that baseline. *)

open Taco

let get = Harness.get

let fused = Lower.Assemble { emit_values = true; sorted = true }

type workload = {
  a_name : string;
  a_stmt : Cin.stmt;  (* unscheduled root *)
  a_mode : Lower.mode;
  a_inputs : (Tensor_var.t * Tensor.t) list;
  a_dims : int array;  (* result dims *)
  a_dense : bool;  (* run_dense vs run_assemble *)
  a_hand : Cin.stmt option;  (* expert reference schedule, if any *)
}

let vi = Harness.vi
let vj = Harness.vj
let vk = Harness.vk
let vl = Harness.vl

let root_of stmt = Schedule.stmt (get (Schedule.of_index_notation stmt))

(* SpGEMM A = B·C, all CSR. Hand reference: the paper's Fig. 2 schedule
   (reorder k,j + dense workspace over j = Gustavson). *)
let spgemm ~seed ~dim =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (sum vk (Mul (access b [ vi; vk ], access c [ vk; vj ]))) in
  let hand, hb, hc = Harness.spgemm_stmt () in
  let density = 32. /. float_of_int dim in
  let bt = Inputs.uniform_matrix ~seed ~rows:dim ~cols:dim ~density in
  let ct = Inputs.uniform_matrix ~seed:(seed + 1) ~rows:dim ~cols:dim ~density in
  ignore hb;
  ignore hc;
  {
    a_name = "spgemm";
    a_stmt = root_of stmt;
    a_mode = fused;
    a_inputs = [ (b, bt); (c, ct) ];
    a_dims = [| dim; dim |];
    a_dense = false;
    a_hand = Some hand;
  }

(* SpMV with the matrix in CSC: the row-major loop order of the
   statement cannot iterate a column-major format, so every policy must
   at least reorder; the cost model additionally knows the j-outer loop
   is as cheap as nnz(B). *)
let spmv_csc ~seed ~dim =
  let y = tensor "y" Format.dense_vector in
  let b = tensor "B" Format.csc in
  let x = tensor "x" Format.dense_vector in
  let open Index_notation in
  let stmt = assign y [ vi ] (sum vj (Mul (access b [ vi; vj ], access x [ vj ]))) in
  let density = 64. /. float_of_int dim in
  let bt =
    Tensor.repack (Inputs.uniform_matrix ~seed ~rows:dim ~cols:dim ~density) Format.csc
  in
  let xt = Tensor.of_dense (Dense.init [| dim |] (fun _ -> 1.0)) Format.dense_vector in
  {
    a_name = "spmv_csc";
    a_stmt = root_of stmt;
    a_mode = Lower.Compute;
    a_inputs = [ (b, bt); (x, xt) ];
    a_dims = [| dim |];
    a_dense = true;
    a_hand = None;
  }

(* MTTKRP with dense output and factors, sparse 3-tensor. Hand
   reference: the §VIII-C schedule (reorders + dense workspace). *)
let mttkrp ~seed ~dim =
  let a = tensor "A" Format.dense_matrix in
  let b = tensor "B" (Format.csf 3) in
  let c = tensor "C" Format.dense_matrix in
  let d = tensor "D" Format.dense_matrix in
  let open Index_notation in
  let stmt =
    assign a [ vi; vj ]
      (sum vk (sum vl (Mul (Mul (access b [ vi; vk; vl ], access c [ vl; vj ]), access d [ vk; vj ]))))
  in
  let hand, _, _, _ = Harness.mttkrp_sched ~use_workspace:true in
  let prng = Taco_support.Prng.create seed in
  let bt =
    Gen.random_density prng ~dims:[| dim; dim / 2; dim / 2 |]
      ~density:(32. /. float_of_int (dim * dim)) (Format.csf 3)
  in
  let cols = 32 in
  let ct = Inputs.dense_factor ~seed:(seed + 1) ~rows:(dim / 2) ~cols in
  let dt = Inputs.dense_factor ~seed:(seed + 2) ~rows:(dim / 2) ~cols in
  {
    a_name = "mttkrp";
    a_stmt = root_of stmt;
    a_mode = Lower.Compute;
    a_inputs = [ (b, bt); (c, ct); (d, dt) ];
    a_dims = [| dim; cols |];
    a_dense = true;
    a_hand = Some hand;
  }

(* Three-matrix chain A = B·C·D, all CSR: two reduction variables, so a
   lowerable plan needs nontrivial scheduling. No hand reference — this
   is exactly the statement class the policy system is for. *)
let chain3 ~seed ~dim =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let d = tensor "D" Format.csr in
  let open Index_notation in
  let stmt =
    assign a [ vi; vj ]
      (sum vk
         (sum vl (Mul (Mul (access b [ vi; vk ], access c [ vk; vl ]), access d [ vl; vj ]))))
  in
  let density = 32. /. float_of_int dim in
  let bt = Inputs.uniform_matrix ~seed ~rows:dim ~cols:dim ~density in
  let ct = Inputs.uniform_matrix ~seed:(seed + 1) ~rows:dim ~cols:dim ~density in
  let dt = Inputs.uniform_matrix ~seed:(seed + 2) ~rows:dim ~cols:dim ~density in
  {
    a_name = "chain3";
    a_stmt = root_of stmt;
    a_mode = fused;
    a_inputs = [ (b, bt); (c, ct); (d, dt) ];
    a_dims = [| dim; dim |];
    a_dense = false;
    a_hand = None;
  }

(* --- running one plan -------------------------------------------------- *)

let kernel_of w stmt =
  Result.map Kernel.prepare (Lower.lower ~name:("autosched_" ^ w.a_name) ~mode:w.a_mode stmt)

let result_of w k =
  if w.a_dense then Kernel.run_dense k ~inputs:w.a_inputs ~dims:w.a_dims
  else Kernel.run_assemble k ~inputs:w.a_inputs ~dims:w.a_dims

let raw_run w k () =
  if w.a_dense then ignore (Kernel.run_dense k ~inputs:w.a_inputs ~dims:w.a_dims : Tensor.t)
  else Kernel.run_assemble_raw k ~inputs:w.a_inputs ~dims:w.a_dims

(* Plan records: default, cost and (where the paper gives one) hand,
   each agreeing with the default plan's result to eps 1e-9 — the
   plans reassociate sums, so bit-identity is not expected. *)
let run_workload ~reps w =
  Harness.header (Printf.sprintf "autoschedule: %s" w.a_name);
  let lowerable s = Result.map ignore (Lower.lower ~name:"probe" ~mode:w.a_mode s) in
  let stats =
    List.map (fun (tv, t) -> (Tensor_var.name tv, Stats.of_tensor t)) w.a_inputs
  in
  let stmt_default, steps_default = get (Autoschedule.run ~lowerable w.a_stmt) in
  let plan, explain = get (Autoschedule.search ~stats ~lowerable w.a_stmt) in
  let steps = List.map Autoschedule.step_to_string in
  let plans =
    ( "default",
      stmt_default,
      steps steps_default,
      [ ("est_cost", Json.Float explain.Autoschedule.e_default_cost) ] )
    :: ( "cost",
         plan.Autoschedule.p_stmt,
         steps plan.Autoschedule.p_steps,
         [
           ("est_cost", Json.Float explain.Autoschedule.e_chosen_cost);
           ("search_ns", Json.Int (Int64.to_int explain.Autoschedule.e_search_ns));
           ("considered", Json.Int explain.Autoschedule.e_considered);
           ("lowerable", Json.Int explain.Autoschedule.e_lowerable);
           ( "parallel_advisory",
             match plan.Autoschedule.p_par with
             | Some v -> Json.Str (Index_var.name v)
             | None -> Json.Null );
         ] )
    :: (match w.a_hand with Some s -> [ ("hand", s, [], []) ] | None -> [])
  in
  let records =
    Harness.best_of_batches ~reps ~workload:w.a_name ~equal:Harness.close_to
      ~info:(fun v ->
        let _, _, steps, info = List.find (fun (n, _, _, _) -> n = v) plans in
        ("steps", Json.List (List.map (fun s -> Json.Str s) steps)) :: info)
      (List.map
         (fun (n, s, _, _) ->
           let k = get (kernel_of w s) in
           (n, (fun () -> result_of w k), raw_run w k))
         plans)
  in
  List.iter2
    (fun r (_, _, steps, _) ->
      Harness.row "  %-8s | %10.4fs  %s" r.Harness.variant r.Harness.time_s
        (String.concat "; " steps))
    records plans;
  let speedup = Harness.time_of records "default" /. Harness.time_of records "cost" in
  Harness.row "  cost vs default: %.2fx  (search %.1fms, %d states, %d lowerable)" speedup
    (Int64.to_float explain.Autoschedule.e_search_ns /. 1e6)
    explain.Autoschedule.e_considered explain.Autoschedule.e_lowerable;
  (records, (w.a_name, Json.Float speedup))

let run ~seed ~reps ~dim ~out =
  Harness.header "Autoscheduler: cost-based search vs breadth-first policy";
  let workloads =
    [ spgemm ~seed ~dim; spmv_csc ~seed ~dim:(dim * 4); mttkrp ~seed ~dim; chain3 ~seed ~dim ]
  in
  let per_workload = List.map (run_workload ~reps) workloads in
  Harness.report ~path:out ~bench:"autoschedule" ~agreement:Harness.within_eps
    ~config:[ ("seed", Json.Int seed); ("reps", Json.Int reps); ("dim", Json.Int dim) ]
    ~summary:[ ("speedup_cost_vs_default", Json.Obj (List.map snd per_workload)) ]
    (List.concat_map fst per_workload)

(* CI gate: on a micro SpGEMM the cost-chosen plan must agree with the
   default plan bit-for-bit when they coincide (and within eps always),
   and the search must not pick a plan estimated costlier than the
   default. Wall-clock is NOT gated — too noisy for CI. *)
let smoke () =
  Harness.header "autoschedule smoke (cost-chosen plan validity)";
  let w = spgemm ~seed:2019 ~dim:300 in
  let lowerable s = Result.map ignore (Lower.lower ~name:"probe" ~mode:w.a_mode s) in
  let stats =
    List.map (fun (tv, t) -> (Tensor_var.name tv, Stats.of_tensor t)) w.a_inputs
  in
  let stmt_default, _ = get (Autoschedule.run ~lowerable w.a_stmt) in
  let plan, explain = get (Autoschedule.search ~stats ~lowerable w.a_stmt) in
  if explain.Autoschedule.e_chosen_cost > explain.Autoschedule.e_default_cost then begin
    Taco_support.Obs.Log.err (fun m ->
        m "autosched-smoke FAILED: chosen plan estimated costlier than default");
    exit 1
  end;
  let kd = get (kernel_of w stmt_default) in
  let kc = get (kernel_of w plan.Autoschedule.p_stmt) in
  if not (Harness.close_to (result_of w kd) (result_of w kc)) then begin
    Taco_support.Obs.Log.err (fun m ->
        m "autosched-smoke FAILED: cost plan result diverges from default plan");
    exit 1
  end;
  Printf.printf
    "autosched-smoke spgemm: default cost %.3g, chosen cost %.3g, %d steps, results agree\n%!"
    explain.Autoschedule.e_default_cost explain.Autoschedule.e_chosen_cost
    (List.length plan.Autoschedule.p_steps)
