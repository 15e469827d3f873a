(* Differential fuzzing of the whole compile pipeline.

   Each instance draws a statement template, random formats, random
   dimensions and a random schedule, then drives it end to end:

     index notation -> concretize -> (reorder / precompute) -> lower
                    -> compile (bounds-checked) -> run

   The result is cross-checked against the dense reference interpreter
   ([Cin_eval.eval1]) on the *unscheduled* statement, so every schedule
   and every lowering must preserve semantics. Along the way every
   intermediate must pass its verifier: [Cin.validate] after concretize
   and after each accepted transform, [Imp.validate] on the generated
   kernel, [Tensor.validate] on all inputs and on the result.

   Each instance that runs is also built by the C backend, profiled,
   parallelized and rerun under injected faults, and every one of those
   results must be bit-identical to the closures' ({!T.bit_identical}).

   Stages are allowed to *reject* an instance (a scatter without a
   workspace, an unsupported assembled format, a reorder whose
   precondition fails): rejection with a well-formed diagnostic is
   success. Crashes, verifier failures, bounds violations and oracle
   mismatches are failures.

   The instance count defaults to 200 under [dune runtest] and can be
   raised with the TACO_FUZZ_COUNT environment variable (the [@fuzz]
   alias runs a larger, fixed-seed campaign). *)

module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module I = Taco_ir.Index_notation
module Cin = Taco_ir.Cin
module Cin_eval = Taco_ir.Cin_eval
module Concretize = Taco_ir.Concretize
module Schedule = Taco_ir.Schedule
module Imp = Taco_lower.Imp
module Lower = Taco_lower.Lower
module Diag = Taco_support.Diag
module Fault = Taco_support.Faultinject
open Taco_ir.Var

let vi = Index_var.make "i"

let vj = Index_var.make "j"

let vk = Index_var.make "k"

let vl = Index_var.make "l"

(* ------------------------------------------------------------------ *)
(* Scenario space                                                      *)
(* ------------------------------------------------------------------ *)

type scenario = {
  template : int;
  fmts : int array;  (* format selector per tensor (result first) *)
  dims : int array;  (* ranges of i, j, k, l *)
  density : float;
  seed : int;  (* input tensor data *)
  sched : int;  (* 0 = plain, 1 = auto, 2 = manual/random reorder *)
}

let vec_formats = [| F.dense_vector; F.sparse_vector |]

let mat_formats = [| F.dense_matrix; F.csr; F.csc; F.dcsr |]

(* Results stick to formats with at most one compressed level so the
   assembled read-back path stays in scope; inputs range wider. *)
let vec_result_formats = [| F.dense_vector; F.sparse_vector |]

let mat_result_formats = [| F.dense_matrix; F.csr |]

let pick arr sel = arr.(sel mod Array.length arr)

(* Operands of the multi-way merge templates: row-major formats, so the
   lattices coiterate instead of being rejected for their loop order.
   Selectors past the scenario's three come from its seed. *)
let merge_formats = [| F.csr; F.dcsr; F.csr; F.dense_matrix |]

let merge_operands sc names =
  List.mapi
    (fun n name ->
      let sel = if n < 2 then sc.fmts.(n + 1) else sc.seed lsr (3 * n) in
      Tensor_var.make name ~order:2 ~format:(pick merge_formats sel))
    names

let sum_of ops =
  match List.map (fun m -> I.access m [ vi; vj ]) ops with
  | [] -> invalid_arg "sum_of"
  | first :: rest -> List.fold_left (fun acc x -> I.Add (acc, x)) first rest

(* A template instantiates tensor variables from the scenario's format
   selectors and returns the statement plus the input tensor variables
   (in declaration order) with the index variables of their modes. *)
type instance = {
  stmt : I.t;
  inputs : (Tensor_var.t * Index_var.t list) list;
}

let templates =
  [|
    (* x(i) = b(i) + c(i) *)
    (fun sc ->
      let x = Tensor_var.make "x" ~order:1 ~format:(pick vec_result_formats sc.fmts.(0)) in
      let b = Tensor_var.make "b" ~order:1 ~format:(pick vec_formats sc.fmts.(1)) in
      let c = Tensor_var.make "c" ~order:1 ~format:(pick vec_formats sc.fmts.(2)) in
      {
        stmt = I.assign x [ vi ] (I.Add (I.access b [ vi ], I.access c [ vi ]));
        inputs = [ (b, [ vi ]); (c, [ vi ]) ];
      });
    (* x(i) = b(i) * c(i) - b(i) *)
    (fun sc ->
      let x = Tensor_var.make "x" ~order:1 ~format:(pick vec_result_formats sc.fmts.(0)) in
      let b = Tensor_var.make "b" ~order:1 ~format:(pick vec_formats sc.fmts.(1)) in
      let c = Tensor_var.make "c" ~order:1 ~format:(pick vec_formats sc.fmts.(2)) in
      {
        stmt =
          I.assign x [ vi ]
            (I.Sub (I.Mul (I.access b [ vi ], I.access c [ vi ]), I.access b [ vi ]));
        inputs = [ (b, [ vi ]); (c, [ vi ]) ];
      });
    (* y(i) = sum(j, B(i,j) * x(j)) *)
    (fun sc ->
      let y = Tensor_var.make "y" ~order:1 ~format:(pick vec_result_formats sc.fmts.(0)) in
      let bm = Tensor_var.make "B" ~order:2 ~format:(pick mat_formats sc.fmts.(1)) in
      let x = Tensor_var.make "x" ~order:1 ~format:(pick vec_formats sc.fmts.(2)) in
      {
        stmt =
          I.assign y [ vi ] (I.sum vj (I.Mul (I.access bm [ vi; vj ], I.access x [ vj ])));
        inputs = [ (bm, [ vi; vj ]); (x, [ vj ]) ];
      });
    (* A(i,j) = B(i,j) + C(i,j) *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats sc.fmts.(0)) in
      let bm = Tensor_var.make "B" ~order:2 ~format:(pick mat_formats sc.fmts.(1)) in
      let cm = Tensor_var.make "C" ~order:2 ~format:(pick mat_formats sc.fmts.(2)) in
      {
        stmt = I.assign a [ vi; vj ] (I.Add (I.access bm [ vi; vj ], I.access cm [ vi; vj ]));
        inputs = [ (bm, [ vi; vj ]); (cm, [ vi; vj ]) ];
      });
    (* A(i,j) = sum(k, B(i,k) * C(k,j)) *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats sc.fmts.(0)) in
      let bm = Tensor_var.make "B" ~order:2 ~format:(pick mat_formats sc.fmts.(1)) in
      let cm = Tensor_var.make "C" ~order:2 ~format:(pick mat_formats sc.fmts.(2)) in
      {
        stmt =
          I.assign a [ vi; vj ]
            (I.sum vk (I.Mul (I.access bm [ vi; vk ], I.access cm [ vk; vj ])));
        inputs = [ (bm, [ vi; vk ]); (cm, [ vk; vj ]) ];
      });
    (* sampled dense-dense: A(i,j) = B(i,j) * sum(k, C(i,k) * D(k,j)) *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats sc.fmts.(0)) in
      let bm = Tensor_var.make "B" ~order:2 ~format:(pick mat_formats sc.fmts.(1)) in
      let cm = Tensor_var.make "C" ~order:2 ~format:F.dense_matrix in
      let dm = Tensor_var.make "D" ~order:2 ~format:F.dense_matrix in
      {
        stmt =
          I.assign a [ vi; vj ]
            (I.Mul
               ( I.access bm [ vi; vj ],
                 I.sum vk (I.Mul (I.access cm [ vi; vk ], I.access dm [ vk; vj ])) ));
        inputs = [ (bm, [ vi; vj ]); (cm, [ vi; vk ]); (dm, [ vk; vj ]) ];
      });
    (* MTTKRP: A(i,j) = sum(k, sum(l, X(i,k,l) * C(l,j) * D(k,j))) *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:F.dense_matrix in
      let x3 =
        Tensor_var.make "X" ~order:3 ~format:(pick [| F.csf 3; F.dense 3 |] sc.fmts.(1))
      in
      let cm = Tensor_var.make "C" ~order:2 ~format:F.dense_matrix in
      let dm = Tensor_var.make "D" ~order:2 ~format:F.dense_matrix in
      {
        stmt =
          I.assign a [ vi; vj ]
            (I.sum vk
               (I.sum vl
                  (I.Mul
                     ( I.Mul (I.access x3 [ vi; vk; vl ], I.access cm [ vl; vj ]),
                       I.access dm [ vk; vj ] ))));
        inputs = [ (x3, [ vi; vk; vl ]); (cm, [ vl; vj ]); (dm, [ vk; vj ]) ];
      });
    (* A(i,j) = B(i,j) + C(i,j) + D(i,j): a 7-point lattice when all
       three operands are sparse *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats sc.fmts.(0)) in
      let ops = merge_operands sc [ "B"; "C"; "D" ] in
      {
        stmt = I.assign a [ vi; vj ] (sum_of ops);
        inputs = List.map (fun m -> (m, [ vi; vj ])) ops;
      });
    (* A(i,j) = B(i,j) + C(i,j) + D(i,j) + E(i,j): a 15-point lattice *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats sc.fmts.(0)) in
      let ops = merge_operands sc [ "B"; "C"; "D"; "E" ] in
      {
        stmt = I.assign a [ vi; vj ] (sum_of ops);
        inputs = List.map (fun m -> (m, [ vi; vj ])) ops;
      });
    (* A(i,j) = (B(i,j) + C(i,j)) * D(i,j): a union under an
       intersection *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats sc.fmts.(0)) in
      let ops = merge_operands sc [ "B"; "C"; "D" ] in
      let bm, cm, dm = match ops with [ b; c; d ] -> (b, c, d) | _ -> assert false in
      {
        stmt =
          I.assign a [ vi; vj ]
            (I.Mul (I.Add (I.access bm [ vi; vj ], I.access cm [ vi; vj ]), I.access dm [ vi; vj ]));
        inputs = List.map (fun m -> (m, [ vi; vj ])) ops;
      });
    (* A(i,j) = B(i,j) + C(i,j), B sparse and C dense: the dense loop
       with match flags *)
    (fun sc ->
      let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats sc.fmts.(0)) in
      let bm = Tensor_var.make "B" ~order:2 ~format:(pick merge_formats sc.fmts.(1)) in
      let cm = Tensor_var.make "C" ~order:2 ~format:F.dense_matrix in
      {
        stmt = I.assign a [ vi; vj ] (I.Add (I.access bm [ vi; vj ], I.access cm [ vi; vj ]));
        inputs = [ (bm, [ vi; vj ]); (cm, [ vi; vj ]) ];
      });
  |]

let var_range sc v =
  if Index_var.equal v vi then sc.dims.(0)
  else if Index_var.equal v vj then sc.dims.(1)
  else if Index_var.equal v vk then sc.dims.(2)
  else sc.dims.(3)

(* ------------------------------------------------------------------ *)
(* One pipeline instance                                               *)
(* ------------------------------------------------------------------ *)

exception Fuzz_failure of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fuzz_failure s)) fmt

let assert_cin_valid what stmt =
  match Cin.validate stmt with
  | Ok () -> ()
  | Error e -> failf "%s fails the CIN verifier: %s (statement: %s)" what e (Cin.to_string stmt)

let assert_tensor_valid what t =
  match T.validate t with
  | Ok () -> ()
  | Error e -> failf "%s fails the tensor verifier: %s" what e

(* Stages may reject an instance, but only through the result channel
   and only at stages where rejection makes sense. *)
let acceptable_reject (d : Diag.t) =
  match d.Diag.stage with
  | Diag.Concretize | Diag.Reorder | Diag.Workspace | Diag.Lower -> true
  | Diag.Execute ->
      (* Compute-mode kernels with compressed results need a pre-assembled
         output: a legitimate capability limit, not a bug. *)
      d.Diag.code = "E_EXEC_MODE"
  | Diag.Parse | Diag.Compile | Diag.Tensor | Diag.Io | Diag.Serve -> false

type outcome = Ran | Rejected

(* Instances whose parallel differential leg actually executed. *)
let par_ran = ref 0

(* Instances whose native-backend differential leg really ran a
   compiled shared object (0 on machines without a C compiler — the
   leg skips cleanly there). *)
let native_ran = ref 0

(* Fault-injected leg bookkeeping: instances where an injected fault
   fired (and was reported as [E_FAULT_INJECTED]) vs instances that
   survived the armed campaign and had to reproduce the exact bits. *)
let fault_injected = ref 0

let fault_survived = ref 0

(* Profile-leg runs of a profiled kernel on a native shared object. *)
let prof_native_ran = ref 0

(* Instances whose cost-search leg ran end to end. *)
let cost_ran = ref 0

let run_one sc =
  let inst = templates.(sc.template mod Array.length templates) sc in
  (* Random inputs, each checked against the packing invariants. *)
  let inputs =
    List.mapi
      (fun n (tv, vars) ->
        let dims = Array.of_list (List.map (var_range sc) vars) in
        (* Density 0 draws a single nonzero for every other operand and
           none at all for the rest. *)
        let t =
          if sc.density = 0.0 && (sc.seed + n) land 1 = 1 then T.zero dims (Tensor_var.format tv)
          else Helpers.random_tensor (sc.seed + n) dims sc.density (Tensor_var.format tv)
        in
        assert_tensor_valid (Tensor_var.name tv) t;
        (tv, t))
      inst.inputs
  in
  (* The oracle evaluates the unscheduled statement. *)
  let plain =
    match Concretize.run inst.stmt with
    | Ok s -> s
    | Error e -> failf "concretize rejected a well-formed template: %s" e
  in
  assert_cin_valid "concretized statement" plain;
  let oracle =
    match Cin_eval.eval1 plain ~inputs:(List.map (fun (tv, t) -> (tv, T.to_dense t)) inputs) with
    | Ok d -> d
    | Error e -> failf "reference interpreter failed: %s" e
  in
  (* Random schedule. *)
  let sched = Schedule.of_stmt plain in
  let sched =
    match sc.sched mod 3 with
    | 1 -> sched (* leave scheduling to auto_compile *)
    | 2 -> (
        (* A random reorder attempt; precondition rejections leave the
           schedule unchanged (and exercise the precondition checks). *)
        let vars = Cin.stmt_vars plain in
        match vars with
        | [] | [ _ ] -> sched
        | _ ->
            let n = List.length vars in
            let a = List.nth vars (sc.seed mod n) in
            let b = List.nth vars ((sc.seed / 7) mod n) in
            if Index_var.equal a b then sched
            else (
              match Schedule.reorder a b sched with
              | Ok sched' ->
                  assert_cin_valid "reordered statement" (Schedule.stmt sched');
                  sched'
              | Error _ -> sched))
    | _ -> sched
  in
  (* Compile (the closures bounds-check every access); fall back to the
     autoscheduler when plain lowering rejects the schedule (e.g.
     scatter into a sparse result). *)
  let compile_with ?profile ?backend () =
    match Taco.compile ?profile ?backend sched with
    | Ok c -> Ok c
    | Error _ -> Result.map fst (Taco.auto_compile ?profile ?backend sched)
  in
  (* A leg's result must be bit-identical to the main leg's. *)
  let check_same what result r =
    if not (T.bit_identical result r) then
      failf "%s changed the result on %s" what (Cin.to_string plain)
  in
  match compile_with () with
  | Error d ->
      if acceptable_reject d then Rejected
      else failf "unacceptable compile rejection: %s" (Diag.to_string d)
  | Ok c -> (
      (* The lowered kernel must pass the imperative-IR verifier. *)
      let kern = (Taco_exec.Kernel.info (Taco.kernel c)).Lower.kernel in
      (match Imp.validate kern with
      | Ok () -> ()
      | Error e -> failf "generated kernel fails the IR verifier: %s" e);
      assert_cin_valid "scheduled statement" (Schedule.stmt (Taco.schedule_of c));
      match Taco.run c ~inputs with
      | Error d ->
          if acceptable_reject d then Rejected
          else failf "unacceptable execution failure: %s" (Diag.to_string d)
      | Ok result ->
          assert_tensor_valid "result" result;
          if not (D.equal ~eps:1e-9 oracle (T.to_dense result)) then
            failf "MISMATCH vs the reference interpreter on %s" (Cin.to_string plain);
          (* Native differential leg: the same schedule built by the C
             backend must reproduce the closure bits exactly. A
             downgrade (no compiler, or a structurally unsupported
             kernel) falls back to closures and the comparison is
             trivially satisfied; only genuine native runs count
             towards coverage. *)
          (if Taco_exec.Native.available () then
             let ncompile () =
               match Taco.compile ~backend:`Native sched with
               | Ok nc -> Ok nc
               | Error _ -> Result.map fst (Taco.auto_compile ~backend:`Native sched)
             in
             match ncompile () with
             | Error d ->
                 if not (acceptable_reject d) then
                   failf "native-backend compile rejection: %s" (Diag.to_string d)
             | Ok nc -> (
                 if Taco.backend_of nc = `Native then incr native_ran;
                 match Taco.run nc ~inputs with
                 | Error d ->
                     if not (acceptable_reject d) then
                       failf "native run failed: %s" (Diag.to_string d)
                 | Ok nr -> check_same "the native backend" result nr));
          (* Profile leg: a profiled kernel keeps the result's bits,
             and its counters are the same on the closures at one and
             at four domains and on the native backend. The native
             comparison runs on even seeds only: each one is an extra
             cc run, and half the instances is ample coverage. *)
          let profile_leg what compile =
            let counts backend domains =
              match compile backend with
              | Error d -> failf "profiled %s compile rejected: %s" what (Diag.to_string d)
              | Ok pc -> (
                  let k = Taco.kernel pc in
                  Taco_exec.Kernel.profile_reset k;
                  match Taco.run ~domains pc ~inputs with
                  | Error d -> failf "profiled %s run failed: %s" what (Diag.to_string d)
                  | Ok r ->
                      check_same ("profiling the " ^ what ^ " kernel") result r;
                      if Taco.backend_of pc = `Native then incr prof_native_ran;
                      Taco_exec.Kernel.profile_stats k)
            in
            let base = counts `Closure 1 in
            if base = None then failf "profiled %s kernel reports no counters" what;
            if counts `Closure 4 <> base then
              failf "profile counters of %s differ at 4 domains on %s" what (Cin.to_string plain);
            if sc.seed land 1 = 0 && Taco_exec.Native.available () && counts `Native 1 <> base
            then
              failf "profile counters of %s differ natively on %s" what (Cin.to_string plain)
          in
          profile_leg "sequential" (fun backend -> compile_with ~profile:true ~backend ());
          (* Parallel differential leg: when the outermost loop accepts
             the parallelize directive, the chunked executor must
             reproduce the sequential result bit for bit. Refusal (a
             reduction over the outer variable, a coiteration merge
             loop) is legitimate; a divergent result is not. *)
          (match Schedule.stmt (Taco.schedule_of c) with
          | Cin.Forall (v, _) -> (
              match Taco.parallelize v (Taco.schedule_of c) with
              | Error _ -> ()
              | Ok ps -> (
                  match Taco.compile ps with
                  | Error d when d.Diag.code = "E_PAR_ILLEGAL" -> ()
                  | Error d ->
                      failf "parallelized schedule stopped compiling: %s" (Diag.to_string d)
                  | Ok pc -> (
                      incr par_ran;
                      match Taco.run ~domains:4 pc ~inputs with
                      | Error d -> failf "parallel run failed: %s" (Diag.to_string d)
                      | Ok pr ->
                          check_same "the parallel executor" result pr;
                          profile_leg "parallelized" (fun backend ->
                              Taco.compile ~profile:true ~backend ps))))
          | _ -> ());
          (* Fault-injected leg: rerun compile + execute under a seeded
             crash campaign on the compile and allocation fault points.
             A run that fails must fail with the injected diagnostic —
             faults never corrupt silently — and a run the faults happen
             to miss must still reproduce the result's bits exactly.
             (The injected [Diag.Error] can escape [Taco.compile] as an
             exception, hence the [Diag.to_result] wrapper.) *)
          Fault.configure
            ~seed:((2 * sc.seed) + 1)
            [
              Fault.rule ~prob:0.4 "compile.build" Fault.Crash;
              Fault.rule ~prob:0.3 "exec.alloc" Fault.Crash;
            ];
          Fun.protect ~finally:Fault.disarm (fun () ->
              let outcome =
                Diag.to_result (fun () ->
                    match compile_with () with
                    | Error d -> Error d
                    | Ok cf -> Taco.run cf ~inputs)
              in
              match Result.join outcome with
              | Error d when d.Diag.code = "E_FAULT_INJECTED" ->
                  incr fault_injected;
                  if not (List.mem_assoc "fault_point" d.Diag.context) then
                    failf "injected fault lost its fault_point context: %s"
                      (Diag.to_string d)
              | Error d ->
                  failf "non-injected failure under fault campaign: %s" (Diag.to_string d)
              | Ok fr ->
                  incr fault_survived;
                  check_same "the fault campaign" result fr);
          (* Cost-search leg (auto-scheduled instances only): the
             statistics-driven policy must agree with the oracle, pick
             the same plan on a repeat call (the second goes through the
             plan cache), and — when its plan coincides with the
             schedule the main leg compiled — reproduce those bits
             exactly. Plans that legitimately differ (the cost model
             preferred another loop order) are only held to the eps
             oracle, since reassociating a float reduction may round
             differently. *)
          (if sc.sched mod 3 = 1 then
             let stats =
               List.map
                 (fun (tv, t) -> (Tensor_var.name tv, Taco.Stats.of_tensor t))
                 inputs
             in
             let explained () = Taco.auto_compile_explained ~stats sched in
             match (explained (), explained ()) with
             | Error d, _ ->
                 if not (acceptable_reject d) then
                   failf "cost-search compile rejection: %s" (Diag.to_string d)
             | Ok _, Error d ->
                 failf "cost search succeeded then failed on a repeat: %s" (Diag.to_string d)
             | Ok (cc, steps1, _), Ok (_, steps2, _) -> (
                 let render = List.map Taco.Autoschedule.step_to_string in
                 if render steps1 <> render steps2 then
                   failf "cost search picked different plans on a repeat of %s"
                     (Cin.to_string plain);
                 match Taco.run cc ~inputs with
                 | Error d ->
                     if not (acceptable_reject d) then
                       failf "cost-plan run failed: %s" (Diag.to_string d)
                 | Ok cr ->
                     incr cost_ran;
                     if not (D.equal ~eps:1e-9 oracle (T.to_dense cr)) then
                       failf "cost-plan MISMATCH vs the reference interpreter on %s"
                         (Cin.to_string plain);
                     if
                       Cin.to_string (Schedule.stmt (Taco.schedule_of cc))
                       = Cin.to_string (Schedule.stmt (Taco.schedule_of c))
                     then check_same "a cost plan equal to the default schedule" result cr));
          Ran)

(* ------------------------------------------------------------------ *)
(* Semiring leg: closure vs native bit-identity                        *)
(* ------------------------------------------------------------------ *)

(* For every semiring, the native backend must reproduce the closure
   executor's bits exactly on spmv / spadd / spgemm-shaped kernels.
   Kernels are compiled once per (template, semiring, backend) and
   cached — only the inputs vary per instance — so the leg stays cheap
   even under the large fixed-seed campaign. *)

module Semiring = Taco_ir.Semiring
module Coo = Taco_tensor.Coo
module Prng = Taco_support.Prng

let sr_ran = ref 0

let sr_native_ran = ref 0

(* Carrier values the semiring's ops stay closed over; stored entries
   are never the carrier 0 (a stored zero is indistinguishable from a
   structural one). *)
let sr_value prng (sr : Semiring.t) =
  match sr.Semiring.name with
  | "bool_or_and" -> 1.
  | "min_plus" -> 1. +. float_of_int (Prng.int prng 9)
  | _ -> 0.5 +. Prng.float prng

let sr_matrix prng sr n m =
  let coo = Coo.create [| n; m |] in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      if Prng.bool prng 0.4 then Coo.push coo [| i; j |] (sr_value prng sr)
    done
  done;
  T.pack coo F.csr

(* Dense cells are literal carrier values and may include the semiring
   zero (+inf under min-plus — exercising the non-finite literal path
   through the C backend). *)
let sr_dense prng sr dims =
  let len = Array.fold_left ( * ) 1 dims in
  let buf =
    Array.init len (fun _ ->
        if Prng.bool prng 0.25 then sr.Semiring.zero else sr_value prng sr)
  in
  T.of_dense (D.of_buffer dims buf)
    (if Array.length dims = 1 then F.dense_vector else F.dense_matrix)

let sr_y = Tensor_var.make "y" ~order:1 ~format:F.dense_vector

let sr_a = Tensor_var.make "A" ~order:2 ~format:F.csr

let sr_x = Tensor_var.make "x" ~order:1 ~format:F.dense_vector

let sr_b = Tensor_var.make "B" ~order:2 ~format:F.csr

let sr_c = Tensor_var.make "C" ~order:2 ~format:F.csr

let sr_r = Tensor_var.make "R" ~order:2 ~format:F.dense_matrix

let sr_d = Tensor_var.make "D" ~order:2 ~format:F.dense_matrix

let sr_stmt = function
  | 0 -> I.assign sr_y [ vi ] (I.sum vj (I.Mul (I.access sr_a [ vi; vj ], I.access sr_x [ vj ])))
  | 1 -> I.assign sr_r [ vi; vj ] (I.Add (I.access sr_b [ vi; vj ], I.access sr_c [ vi; vj ]))
  | _ ->
      I.assign sr_r [ vi; vj ]
        (I.sum vk (I.Mul (I.access sr_b [ vi; vk ], I.access sr_d [ vk; vj ])))

let sr_cache : (string, Taco.compiled) Hashtbl.t = Hashtbl.create 32

let sr_compiled template sr backend =
  let key =
    Printf.sprintf "%d|%s|%s" template sr.Semiring.name
      (match backend with `Closure -> "closure" | `Native -> "native")
  in
  match Hashtbl.find_opt sr_cache key with
  | Some c -> c
  | None -> (
      let sched =
        match Schedule.of_index_notation (sr_stmt template) with
        | Ok s -> s
        | Error e -> failf "semiring leg: concretize failed on %s: %s" key e
      in
      match Taco.compile ~name:"fuzz_sr" ~semiring:sr ~backend sched with
      | Ok c ->
          Hashtbl.add sr_cache key c;
          c
      | Error d -> failf "semiring leg: compile failed on %s: %s" key (Diag.to_string d))

let run_sr (template, sel, n, m, k, seed) =
  let template = template mod 3 in
  let sr = List.nth Semiring.all (sel mod List.length Semiring.all) in
  let prng = Prng.create seed in
  let inputs =
    match template with
    | 0 -> [ (sr_a, sr_matrix prng sr n m); (sr_x, sr_dense prng sr [| m |]) ]
    | 1 -> [ (sr_b, sr_matrix prng sr n m); (sr_c, sr_matrix prng sr n m) ]
    | _ -> [ (sr_b, sr_matrix prng sr n k); (sr_d, sr_dense prng sr [| k; m |]) ]
  in
  let run backend =
    let c = sr_compiled template sr backend in
    match Taco.run c ~inputs with
    | Ok r -> (Taco.backend_of c, r)
    | Error d ->
        failf "semiring leg: %s run failed under %s: %s" sr.Semiring.name
          (match backend with `Closure -> "closure" | `Native -> "native")
          (Diag.to_string d)
  in
  let _, cr = run `Closure in
  incr sr_ran;
  if Taco_exec.Native.available () then begin
    let nbk, nr = run `Native in
    if nbk = `Native then incr sr_native_ran;
    if not (T.bit_identical cr nr) then
      failf "semiring leg: %s native changed the result" sr.Semiring.name
  end

(* ------------------------------------------------------------------ *)
(* Cross-tier leg: the native backend's two compiler tiers (the same   *)
(* C under Native.tier_flags 0 and 1) must agree with each other and   *)
(* with the closures bit for bit, on the semiring templates,           *)
(* sequential and parallelized (OpenMP), over edge shapes: no stored   *)
(* entries, dimensions of 1 and empty rows.                            *)
(* ------------------------------------------------------------------ *)

let tier_ran = ref 0

let tier_semirings = [| Semiring.plus_times; Semiring.min_plus; Semiring.bool_or_and |]

(* [fill] 0: no stored entries; 1: every odd row empty; 2: every row
   filled at density 1/2. *)
let tier_matrix prng sr n m fill =
  let coo = Coo.create [| n; m |] in
  for i = 0 to n - 1 do
    if fill = 2 || (fill = 1 && i mod 2 = 0) then
      for j = 0 to m - 1 do
        if Prng.bool prng 0.5 then Coo.push coo [| i; j |] (sr_value prng sr)
      done
  done;
  T.pack coo F.csr

let native_tier c = Taco_exec.Kernel.native_tier (Taco.kernel c)

(* Per structure, one kernel at tier 0 and one promoted to tier 1. Each
   is a separate build: the compile cache is cleared before each compile
   so the two never share an entry. A kernel that runs long enough (an
   OpenMP region can take milliseconds) earns its own tier-up after a
   few runs; the pair is then built afresh. *)
let tier_cache : (string, Taco.compiled * Taco.compiled) Hashtbl.t = Hashtbl.create 32

let tier_pair template sr parallel =
  let key = Printf.sprintf "%d|%s|%b" template sr.Semiring.name parallel in
  match Hashtbl.find_opt tier_cache key with
  | Some ((t0, _) as p) when native_tier t0 = Some 0 -> p
  | Some _ | None ->
      let sched =
        match Schedule.of_index_notation (sr_stmt template) with
        | Ok s -> s
        | Error e -> failf "tier leg: concretize failed on %s: %s" key e
      in
      let sched =
        if not parallel then sched
        else
          match Taco.parallelize vi sched with
          | Ok s -> s
          | Error d -> failf "tier leg: parallelize failed on %s: %s" key (Diag.to_string d)
      in
      let build () =
        Taco_exec.Compile.cache_clear ();
        match Taco.compile ~name:"fuzz_tier" ~semiring:sr ~backend:`Native sched with
        | Ok c when Taco.backend_of c = `Native -> c
        | Ok _ -> failf "tier leg: %s downgraded to closures" key
        | Error d -> failf "tier leg: compile failed on %s: %s" key (Diag.to_string d)
      in
      let t0 = build () in
      let t1 = build () in
      Taco_exec.Kernel.promote (Taco.kernel t1);
      let p = (t0, t1) in
      Hashtbl.replace tier_cache key p;
      p

let run_tier (template, sel, parallel, (n, m, k), fill, seed) =
  let template = template mod 3 in
  let sr = tier_semirings.(sel mod Array.length tier_semirings) in
  let prng = Prng.create seed in
  let inputs =
    match template with
    | 0 -> [ (sr_a, tier_matrix prng sr n m fill); (sr_x, sr_dense prng sr [| m |]) ]
    | 1 -> [ (sr_b, tier_matrix prng sr n m fill); (sr_c, tier_matrix prng sr n m fill) ]
    | _ -> [ (sr_b, tier_matrix prng sr n k fill); (sr_d, sr_dense prng sr [| k; m |]) ]
  in
  let t0, t1 = tier_pair template sr parallel in
  if native_tier t1 <> Some 1 then failf "tier leg: promotion failed (%s)" sr.Semiring.name;
  let result what c =
    match Taco.run c ~inputs with
    | Ok r -> r
    | Error d -> failf "tier leg: %s run failed under %s: %s" what sr.Semiring.name (Diag.to_string d)
  in
  let reference = result "closure" (sr_compiled template sr `Closure) in
  List.iter
    (fun (what, c) ->
      if not (T.bit_identical reference (result what c)) then
        failf "tier leg: %s changed the result under %s" what sr.Semiring.name)
    [ ("tier 0", t0); ("tier 1", t1) ];
  incr tier_ran

(* ------------------------------------------------------------------ *)
(* Batch leg: kernels compiled together — one translation unit, one cc *)
(* and one dlopen — must give the bits their single builds and the     *)
(* closures give, on mixes of the semiring templates, sequential and   *)
(* parallelized (OpenMP), repeats included.                            *)
(* ------------------------------------------------------------------ *)

let batch_ran = ref 0

(* Batches whose every kernel was built natively, in one translation
   unit. *)
let batch_native_ran = ref 0

let batch_seq = ref 0

let batch_sched template parallel =
  let sched =
    match Schedule.of_index_notation (sr_stmt template) with
    | Ok s -> s
    | Error e -> failf "batch leg: concretize failed on template %d: %s" template e
  in
  if not parallel then sched
  else
    match Taco.parallelize vi sched with
    | Ok s -> s
    | Error d -> failf "batch leg: parallelize failed: %s" (Diag.to_string d)

(* One single native build per (template, semiring, parallel), kept for
   the campaign. *)
let batch_singles : (string, Taco.compiled) Hashtbl.t = Hashtbl.create 16

let batch_single template sr parallel =
  let key = Printf.sprintf "%d|%s|%b" template sr.Semiring.name parallel in
  match Hashtbl.find_opt batch_singles key with
  | Some c -> c
  | None -> (
      match
        Taco.compile ~name:"fuzz_batch_single" ~semiring:sr ~backend:`Native
          (batch_sched template parallel)
      with
      | Ok c ->
          Hashtbl.add batch_singles key c;
          c
      | Error d -> failf "batch leg: single compile failed on %s: %s" key (Diag.to_string d))

let run_batch (picks, seed) =
  let prng = Prng.create seed in
  let picks =
    List.map (fun (template, sel, parallel) -> (template mod 3, tier_semirings.(sel mod 3), parallel)) picks
  in
  (* A fresh name: the batch misses the compile cache. *)
  incr batch_seq;
  let name = Printf.sprintf "fuzz_batch_%d" !batch_seq in
  let lowered =
    List.map
      (fun (template, sr, parallel) ->
        match
          Taco.lower ~name ~semiring:sr ~backend:`Native (batch_sched template parallel)
        with
        | Ok l -> l
        | Error d -> failf "batch leg: lowering failed: %s" (Diag.to_string d))
      picks
  in
  let batch =
    List.map
      (function
        | Ok c -> c
        | Error d -> failf "batch leg: batch compile failed: %s" (Diag.to_string d))
      (Taco.compile_batch lowered)
  in
  List.iter2
    (fun (template, sr, parallel) c ->
      let n = 1 + Prng.int prng 6 and m = 1 + Prng.int prng 6 and k = 1 + Prng.int prng 5 in
      let inputs =
        match template with
        | 0 -> [ (sr_a, sr_matrix prng sr n m); (sr_x, sr_dense prng sr [| m |]) ]
        | 1 -> [ (sr_b, sr_matrix prng sr n m); (sr_c, sr_matrix prng sr n m) ]
        | _ -> [ (sr_b, sr_matrix prng sr n k); (sr_d, sr_dense prng sr [| k; m |]) ]
      in
      let result what c =
        match Taco.run c ~inputs with
        | Ok r -> r
        | Error d ->
            failf "batch leg: %s run failed under %s: %s" what sr.Semiring.name (Diag.to_string d)
      in
      let reference = result "closure" (sr_compiled template sr `Closure) in
      List.iter
        (fun (what, c) ->
          if not (T.bit_identical reference (result what c)) then
            failf "batch leg: %s changed the result under %s" what sr.Semiring.name)
        [ ("batched", c); ("single", batch_single template sr parallel) ])
    picks batch;
  incr batch_ran;
  if List.for_all (fun c -> Taco.backend_of c = `Native) batch then incr batch_native_ran

(* ------------------------------------------------------------------ *)
(* Workspace leg: the workspace kernels — SpGEMM, Fig. 13's workspace  *)
(* sum and sparse-output MTTKRP — assembled sorted (a bitmap drain) and *)
(* unsorted (a coordinate list), at workspace widths on both sides of a *)
(* 64-coordinate bitmap word and a 4096-coordinate summary word, on    *)
(* hypersparse rows. The sorted closures agree with the oracle; the    *)
(* unsorted closures (rows sorted at read-back), the native backend    *)
(* and the closures chunked over the rows give their bits.             *)
(* ------------------------------------------------------------------ *)

let ws_ran = ref 0

let ws_native_ran = ref 0

let ws_widths = [| 1; 2; 63; 64; 65; 127; 128; 129; 4095; 4096; 4097; 8193 |]

(* Rows of 0 to 3 entries, half of them at a word or summary boundary. *)
let ws_matrix prng rows cols fmt =
  let coo = Coo.create [| rows; cols |] in
  let edges = [| 0; 63; 64; 4095; 4096; cols - 1 |] in
  for i = 0 to rows - 1 do
    for _ = 1 to Prng.int prng 4 do
      let j = if Prng.bool prng 0.5 then edges.(Prng.int prng 6) else Prng.int prng cols in
      if j < cols then Coo.push coo [| i; j |] (0.5 +. Prng.float prng)
    done
  done;
  T.pack coo fmt

let ws_w ?(name = "w") () = Taco.workspace name F.dense_vector

(* Template [t]: the index-notation statement (the oracle's), the
   schedule and its input variables. *)
let ws_template t =
  let get what = function Ok x -> x | Error e -> failf "workspace leg: %s: %s" what e in
  let a = Tensor_var.make "A" ~order:2 ~format:F.csr in
  let acc tv ivs = Cin.Access (Cin.access tv ivs) in
  match t with
  | 0 ->
      let bm = Tensor_var.make "B" ~order:2 ~format:F.csr in
      let cm = Tensor_var.make "C" ~order:2 ~format:F.csr in
      let stmt =
        I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access bm [ vi; vk ], I.access cm [ vk; vj ])))
      in
      let sched = get "concretize" (Schedule.of_index_notation stmt) in
      let sched = get "reorder" (Schedule.reorder vk vj sched) in
      let e = Cin.Mul (acc bm [ vi; vk ], acc cm [ vk; vj ]) in
      (stmt, get "precompute" (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:(ws_w ()) sched), [ bm; cm ])
  | 1 ->
      let ops = List.map (fun n -> Tensor_var.make n ~order:2 ~format:F.csr) [ "B"; "C"; "D" ] in
      let w = ws_w () in
      let producer =
        match ops with
        | first :: rest ->
            List.fold_left
              (fun s tv -> Cin.Sequence (s, Cin.Forall (vj, Cin.accumulate (Cin.access w [ vj ]) (acc tv [ vi; vj ]))))
              (Cin.Forall (vj, Cin.assign (Cin.access w [ vj ]) (acc first [ vi; vj ])))
              rest
        | [] -> assert false
      in
      let consumer = Cin.Forall (vj, Cin.assign (Cin.access a [ vi; vj ]) (acc w [ vj ])) in
      (sum_of ops |> I.assign a [ vi; vj ], Schedule.of_stmt (Cin.Forall (vi, Cin.Where (consumer, producer))), ops)
  | _ ->
      let bm = Tensor_var.make "B" ~order:3 ~format:(F.csf 3) in
      let cm = Tensor_var.make "C" ~order:2 ~format:F.csr in
      let dm = Tensor_var.make "D" ~order:2 ~format:F.csr in
      let stmt =
        I.assign a [ vi; vj ]
          (I.sum vk
             (I.sum vl (I.Mul (I.Mul (I.access bm [ vi; vk; vl ], I.access cm [ vl; vj ]), I.access dm [ vk; vj ]))))
      in
      let sched = get "concretize" (Schedule.of_index_notation stmt) in
      let sched = get "reorder" (Schedule.reorder vj vk sched) in
      let sched = get "reorder" (Schedule.reorder vj vl sched) in
      let w = ws_w () in
      let e = Cin.Mul (acc bm [ vi; vk; vl ], acc cm [ vl; vj ]) in
      let sched = get "precompute" (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
      let e2 = Cin.Mul (acc w [ vj ], acc dm [ vk; vj ]) in
      (stmt, get "precompute" (Schedule.precompute_simple ~expr:e2 ~over:[ vj ] ~workspace:(ws_w ~name:"v" ()) sched), [ bm; cm; dm ])

let ws_templates = Array.init 3 ws_template

(* Kernels per (template, sorted, parallel, backend), built once; [None]
   where the row loop refuses to run in parallel (sparse-output MTTKRP's
   iterates B's positions). *)
let ws_cache : (string, Taco.compiled option) Hashtbl.t = Hashtbl.create 32

let ws_compiled t ~sorted ~parallel backend =
  let key =
    Printf.sprintf "%d|%b|%b|%s" t sorted parallel
      (match backend with `Closure -> "closure" | `Native -> "native")
  in
  match Hashtbl.find_opt ws_cache key with
  | Some c -> c
  | None -> (
      let _, sched, _ = ws_templates.(t) in
      let sched =
        if not parallel then sched
        else
          match Taco.parallelize vi sched with
          | Ok s -> s
          | Error d -> failf "workspace leg: parallelize failed on %s: %s" key (Diag.to_string d)
      in
      match
        Taco.compile ~name:"fuzz_ws" ~mode:(Lower.Assemble { emit_values = true; sorted }) ~backend
          sched
      with
      | Ok c ->
          Hashtbl.add ws_cache key (Some c);
          Some c
      | Error d when parallel && d.Diag.code = "E_PAR_ILLEGAL" ->
          Hashtbl.add ws_cache key None;
          None
      | Error d -> failf "workspace leg: compile failed on %s: %s" key (Diag.to_string d))

let run_ws (t, width, rows, k, l, seed) =
  let t = t mod Array.length ws_templates in
  let n = ws_widths.(width mod Array.length ws_widths) in
  let prng = Prng.create seed in
  let stmt, _, vars = ws_templates.(t) in
  let inputs =
    match (t, vars) with
    | 0, [ bm; cm ] ->
        [ (bm, Helpers.random_tensor seed [| rows; k |] 0.5 F.csr); (cm, ws_matrix prng k n F.csr) ]
    | 1, ops -> List.map (fun tv -> (tv, ws_matrix prng rows n F.csr)) ops
    | _, [ bm; cm; dm ] ->
        [
          (bm, Helpers.random_tensor seed [| rows; k; l |] 0.4 (F.csf 3));
          (cm, ws_matrix prng l n F.csr);
          (dm, ws_matrix prng k n F.csr);
        ]
    | _ -> assert false
  in
  let what = Printf.sprintf "template %d, width %d" t n in
  let run ?(domains = 1) ~sorted ~parallel backend =
    Option.map
      (fun c ->
        match Taco.run ~domains c ~inputs with
        | Ok r ->
            assert_tensor_valid what r;
            (Taco.backend_of c, r)
        | Error d -> failf "workspace leg: %s failed: %s" what (Diag.to_string d))
      (ws_compiled t ~sorted ~parallel backend)
  in
  let reference =
    match run ~sorted:true ~parallel:false `Closure with
    | Some (_, r) -> r
    | None -> failf "workspace leg: no sequential kernel (%s)" what
  in
  let plain =
    match Concretize.run stmt with Ok s -> s | Error e -> failf "workspace leg: concretize: %s" e
  in
  (match Cin_eval.eval1 plain ~inputs:(List.map (fun (tv, x) -> (tv, T.to_dense x)) inputs) with
  | Ok d ->
      if not (D.equal ~eps:1e-9 d (T.to_dense reference)) then
        failf "workspace leg: MISMATCH vs the reference interpreter (%s)" what
  | Error e -> failf "workspace leg: reference interpreter failed: %s" e);
  let same who =
    Option.iter (fun (_, r) ->
        if not (T.bit_identical reference r) then
          failf "workspace leg: %s changed the result (%s)" who what)
  in
  List.iter
    (fun sorted ->
      let mode = if sorted then "sorted" else "unsorted" in
      if not sorted then same "unsorted assembly" (run ~sorted ~parallel:false `Closure);
      same (mode ^ " closures over 3 chunks") (run ~domains:3 ~sorted ~parallel:true `Closure);
      if Taco_exec.Native.available () then
        List.iter
          (fun parallel ->
            let r = run ~sorted ~parallel `Native in
            if Option.map fst r = Some `Native then incr ws_native_ran;
            same (Printf.sprintf "the %s%s native kernel" mode (if parallel then " parallel" else "")) r)
          [ false; true ])
    [ true; false ];
  incr ws_ran

(* ------------------------------------------------------------------ *)
(* Extent leg: SpMV, SpAdd, SpGEMM with its workspace schedule and     *)
(* MTTKRP on operands whose extents are drawn independently, half the  *)
(* draws then made consistent. The closures and native tiers 0 and 1   *)
(* must each refuse a draw with E_EXEC_DIMS exactly when two operand   *)
(* modes of one index variable disagree, and otherwise give the same   *)
(* bits. Disagreement is decided from the draws alone.                 *)
(* ------------------------------------------------------------------ *)

let ext_ran = ref 0

let ext_refused = ref 0

let ext_native_ran = ref 0

(* Template [t]: the schedule and each operand with its modes' index
   variables. SpGEMM and MTTKRP are the workspace leg's. *)
let ext_template t =
  let concretize stmt =
    match Schedule.of_index_notation stmt with
    | Ok s -> s
    | Error e -> failf "extent leg: concretize: %s" e
  in
  let b = Tensor_var.make "B" ~order:2 ~format:F.csr in
  match t with
  | 0 ->
      let y = Tensor_var.make "y" ~order:1 ~format:F.dense_vector in
      let x = Tensor_var.make "x" ~order:1 ~format:F.dense_vector in
      let spmv = I.sum vj (I.Mul (I.access b [ vi; vj ], I.access x [ vj ])) in
      (concretize (I.assign y [ vi ] spmv), [ (b, [ vi; vj ]); (x, [ vj ]) ])
  | 1 ->
      let a = Tensor_var.make "A" ~order:2 ~format:F.csr in
      let c = Tensor_var.make "C" ~order:2 ~format:F.csr in
      ( concretize (I.assign a [ vi; vj ] (I.Add (I.access b [ vi; vj ], I.access c [ vi; vj ]))),
        [ (b, [ vi; vj ]); (c, [ vi; vj ]) ] )
  | 2 ->
      let _, sched, vars = ws_templates.(0) in
      (sched, List.combine vars [ [ vi; vk ]; [ vk; vj ] ])
  | _ ->
      let _, sched, vars = ws_templates.(2) in
      (sched, List.combine vars [ [ vi; vk; vl ]; [ vl; vj ]; [ vk; vj ] ])

let ext_templates = Array.init 4 ext_template

(* Per template, the closure kernel and native kernels at tier 0 and
   tier 1 ([None] without a C compiler), each its own build; rebuilt
   when the tier-0 kernel has tiered up on its own. *)
let ext_cache : (int, Taco.compiled * (Taco.compiled * Taco.compiled) option) Hashtbl.t =
  Hashtbl.create 4

let ext_kernels t =
  match Hashtbl.find_opt ext_cache t with
  | Some ((_, None) as k) -> k
  | Some ((_, Some (t0, _)) as k) when native_tier t0 = Some 0 -> k
  | Some _ | None ->
      let sched, _ = ext_templates.(t) in
      let build backend =
        match Taco.compile ~name:"fuzz_extent" ~backend sched with
        | Ok c -> c
        | Error d -> failf "extent leg: compile failed on template %d: %s" t (Diag.to_string d)
      in
      let native () =
        Taco_exec.Compile.cache_clear ();
        let c = build `Native in
        if Taco.backend_of c <> `Native then
          failf "extent leg: template %d downgraded to closures" t;
        c
      in
      let natives =
        if not (Taco_exec.Native.available ()) then None
        else begin
          let t0 = native () in
          let t1 = native () in
          Taco_exec.Kernel.promote (Taco.kernel t1);
          Some (t0, t1)
        end
      in
      let k = (build `Closure, natives) in
      Hashtbl.replace ext_cache t k;
      k

let run_extent (t, consistent, seed) =
  let t = t mod Array.length ext_templates in
  let prng = Prng.create seed in
  let _, operands = ext_templates.(t) in
  let drawn =
    List.map (fun (tv, vars) -> (tv, List.map (fun v -> (v, 1 + Prng.int prng 5)) vars)) operands
  in
  (* A consistent draw gives every mode its variable's first extent. *)
  let drawn =
    if not consistent then drawn
    else
      let first v = List.assoc v (List.concat_map snd drawn) in
      List.map (fun (tv, modes) -> (tv, List.map (fun (v, _) -> (v, first v)) modes)) drawn
  in
  let modes = List.concat_map snd drawn in
  let disagree =
    List.exists
      (fun (v, n) -> List.exists (fun (w, m) -> Index_var.equal v w && n <> m) modes)
      modes
  in
  let inputs =
    List.mapi
      (fun q (tv, modes) ->
        let dims = Array.of_list (List.map snd modes) in
        (tv, Helpers.random_tensor (seed + q) dims 0.5 (Tensor_var.format tv)))
      drawn
  in
  let shape =
    String.concat ", "
      (List.map
         (fun (tv, modes) ->
           Tensor_var.name tv ^ " "
           ^ String.concat "x" (List.map (fun (_, n) -> string_of_int n) modes))
         drawn)
  in
  let closure, natives = ext_kernels t in
  let executors =
    ("closures", closure)
    ::
    (match natives with
    | None -> []
    | Some (t0, t1) -> [ ("native tier 0", t0); ("native tier 1", t1) ])
  in
  let outcome (what, c) =
    match Taco.run c ~inputs with
    | Ok _ when disagree -> failf "extent leg: %s ran template %d on %s" what t shape
    | Ok r -> Ok r
    | Error d when d.Diag.code = "E_EXEC_DIMS" && disagree -> Error d.Diag.message
    | Error d -> failf "extent leg: %s on template %d, %s: %s" what t shape (Diag.to_string d)
  in
  let reference = outcome (List.hd executors) in
  List.iter
    (fun ((what, _) as e) ->
      match (reference, outcome e) with
      | Ok r, Ok r' when T.bit_identical r r' -> ()
      | Error m, Error m' when m = m' -> ()
      | _ -> failf "extent leg: %s disagrees with the closures on template %d, %s" what t shape)
    (List.tl executors);
  incr ext_ran;
  if disagree then incr ext_refused;
  if natives <> None then incr ext_native_ran

(* ------------------------------------------------------------------ *)
(* Cache-key soundness leg: every cache on [Support.Memo] — compile,   *)
(* plan, ops, graph and the service's front cache — serves seeded      *)
(* requests whose keys may collide. A request repeated against the     *)
(* shared cache must give the same bits, and each cached result must   *)
(* be bit-identical to the same request served uncached               *)
(* ([~cache:false] for compile, a cleared cache for the others). A key *)
(* that leaves out an input that shapes the result serves one request  *)
(* another's kernel or plan.                                           *)
(* ------------------------------------------------------------------ *)

module Compile = Taco_exec.Compile
module Kernel = Taco_exec.Kernel

let key_ran = ref 0

(* Small integers (1 for booleans): every summation order gives the same
   bits, so two plans for one statement must agree exactly. *)
let key_tensor prng (sr : Semiring.t) dims fmt =
  let coo = Coo.create dims in
  let rec fill idx d =
    if d = Array.length dims then begin
      if Prng.bool prng 0.4 then
        Coo.push coo (Array.copy idx)
          (if sr.Semiring.name = "bool_or_and" then 1. else float_of_int (1 + Prng.int prng 9))
    end
    else
      for i = 0 to dims.(d) - 1 do
        idx.(d) <- i;
        fill idx (d + 1)
      done
  in
  fill (Array.make (Array.length dims) 0) 0;
  T.pack coo fmt

(* One request in four runs natively, which keeps the leg's cc time small. *)
let key_backend sel = if sel / 24 mod 4 = 3 && Taco_exec.Native.available () then `Native else `Closure

let diag r = Result.map_error Diag.to_string r

let ( let* ) = Result.bind

(* A lowered semiring template compiled straight through [Compile]. *)
let key_compile ~cached sel seed (n, m, k) =
  let template = sel mod 3 in
  let sr = List.nth Semiring.all (sel / 3 mod List.length Semiring.all) in
  let prng = Prng.create seed in
  let t dims fmt = key_tensor prng sr dims fmt in
  let inputs, dims =
    match template with
    | 0 -> ([ (sr_a, t [| n; m |] F.csr); (sr_x, t [| m |] F.dense_vector) ], [| n |])
    | 1 -> ([ (sr_b, t [| n; m |] F.csr); (sr_c, t [| n; m |] F.csr) ], [| n; m |])
    | _ -> ([ (sr_b, t [| n; k |] F.csr); (sr_d, t [| k; m |] F.dense_matrix) ], [| n; m |])
  in
  let* sched = Schedule.of_index_notation (sr_stmt template) in
  let* info = Lower.lower ~name:"fuzz_key" ~semiring:sr ~mode:Lower.Compute (Schedule.stmt sched) in
  let c = Compile.compile ~cache:cached ~backend:(key_backend sel) info.Lower.kernel in
  let out = T.zero dims (Tensor_var.format info.Lower.result) in
  let args =
    Kernel.tensor_args info.Lower.result out
    @ List.concat_map (fun (tv, t) -> Kernel.tensor_args tv t) inputs
  in
  ignore (Compile.run c ~args : string -> Compile.arg);
  Ok out

(* An autoscheduled product or sum with per-tensor statistics, so the
   chosen plan is keyed into the plan cache. *)
let key_plan ~cached sel seed (n, m, k) =
  if not cached then Taco.Autoschedule.cache_clear ();
  let fmt i = mat_formats.(i mod Array.length mat_formats) in
  let b = Tensor_var.make "B" ~order:2 ~format:(fmt sel) in
  let c = Tensor_var.make "C" ~order:2 ~format:(fmt (sel / 4)) in
  let a = Tensor_var.make "A" ~order:2 ~format:(pick mat_result_formats (sel / 16)) in
  let matmul = sel / 32 mod 2 = 0 in
  let prng = Prng.create seed in
  let bt = key_tensor prng Semiring.plus_times (if matmul then [| n; k |] else [| n; m |]) (fmt sel) in
  let ct = key_tensor prng Semiring.plus_times (if matmul then [| k; m |] else [| n; m |]) (fmt (sel / 4)) in
  let rhs =
    if matmul then I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))
    else I.Add (I.access b [ vi; vj ], I.access c [ vi; vj ])
  in
  let* sched = Schedule.of_index_notation (I.assign a [ vi; vj ] rhs) in
  let stats = [ ("B", Taco.Stats.of_tensor bt); ("C", Taco.Stats.of_tensor ct) ] in
  let* kern, _, _ = diag (Taco.auto_compile_explained ~name:"fuzz_key_plan" ~stats sched) in
  diag (Taco.run kern ~inputs:[ (b, bt); (c, ct) ])

let key_ops ~cached sel seed (n, m, k) =
  if not cached then Taco_ops.Ops.cache_clear ();
  let prng = Prng.create seed in
  let mat dims i = key_tensor prng Semiring.plus_times dims (pick mat_formats i) in
  let b = mat (if sel mod 4 = 0 then [| n; k |] else [| n; m |]) (sel / 4) in
  match sel mod 4 with
  | 0 -> Taco_ops.Ops.matmul b (mat [| k; m |] (sel / 16))
  | 1 -> Taco_ops.Ops.add b (mat [| n; m |] (sel / 16))
  | 2 -> Taco_ops.Ops.mul b (mat [| n; m |] (sel / 16))
  | _ ->
      Taco_ops.Ops.spmv b
        (key_tensor prng Semiring.plus_times [| m |] (pick vec_formats (sel / 16)))

let key_graph ~cached sel seed (n, m, _) =
  if not cached then Taco_graph.Graph.cache_clear ();
  let sr = List.nth Semiring.all (sel mod List.length Semiring.all) in
  let prng = Prng.create seed in
  let a = key_tensor prng sr [| n; m |] (pick mat_formats (sel / 4)) in
  let x = key_tensor prng sr [| m |] F.dense_vector in
  Taco_graph.Graph.spmv ~backend:(key_backend sel) sr a x

let key_same name what r1 r2 =
  match (r1, r2) with
  | Ok t1, Ok t2 ->
      if not (T.bit_identical t1 t2) then
        failf "cache-key leg: %s cache: %s is not bit-identical" name what
  | Error e1, Error e2 ->
      if e1 <> e2 then failf "cache-key leg: %s cache: %s fails differently (%s / %s)" name what e1 e2
  | Ok _, Error e | Error e, Ok _ ->
      failf "cache-key leg: %s cache: %s fails on one side only: %s" name what e

(* The service's front cache. One expression text; a seeded base
   request and one variant per key input, each differing from the base
   in that input alone: the result format, one input's format, the
   directives (another list, or the same two in the other order), the
   semiring and the backend. The operands hold the same entries
   whatever their format. Each request is served twice, and then again
   on a cleared front cache: the three answers must agree. Every
   request's first serve that succeeds must also build its own entry —
   a key without one of these inputs serves the variant its base's
   statement, which for the backend gives the same bits and shows only
   there. *)
module Service = Taco_service.Service

type key_shape = {
  ks_result : F.t;
  ks_b : F.t;
  ks_c : F.t;
  ks_directives : Service.directive list;
  ks_semiring : string option;
  ks_backend : Compile.backend;
}

let key_ws =
  [
    Service.Reorder ("k", "j");
    Service.Precompute { expr = "B(i,k) * C(k,j)"; over = [ "j" ]; workspace = "w" };
  ]

let key_directives = [| key_ws; List.rev key_ws; [] |]

let key_operand_formats = [| F.csr; F.dense_matrix; F.dcsr |]

let key_semirings = [| None; Some "min_plus"; Some "max_times" |]

(* A seeded element of [arr] other than [x]. *)
let key_other prng arr x =
  let others = List.filter (fun y -> y <> x) (Array.to_list arr) in
  List.nth others (Prng.int prng (List.length others))

let key_serve seed (n, m, k) =
  let prng = Prng.create seed in
  (* The same entries whatever the format. *)
  let operand off dims fmt = key_tensor (Prng.create (seed + off)) Semiring.plus_times dims fmt in
  let native = Taco_exec.Native.available () in
  let base =
    {
      ks_result = pick [| F.csr; F.dense_matrix |] (Prng.int prng 2);
      ks_b = pick key_operand_formats (Prng.int prng 3);
      ks_c = pick key_operand_formats (Prng.int prng 3);
      ks_directives = pick key_directives (Prng.int prng 3);
      ks_semiring = pick key_semirings (Prng.int prng 3);
      ks_backend = (if native && Prng.bool prng 0.25 then `Native else `Closure);
    }
  in
  let requests =
    [
      ("the base request", base);
      ( "a request with another result format",
        { base with ks_result = key_other prng [| F.csr; F.dense_matrix |] base.ks_result } );
      ( "a request with another input format",
        if Prng.bool prng 0.5 then { base with ks_b = key_other prng key_operand_formats base.ks_b }
        else { base with ks_c = key_other prng key_operand_formats base.ks_c } );
      ( "a request with other directives",
        { base with ks_directives = key_other prng key_directives base.ks_directives } );
      ( "a request with another semiring",
        { base with ks_semiring = key_other prng key_semirings base.ks_semiring } );
    ]
    @
    if native then
      [
        ( "a request with the other backend",
          { base with ks_backend = (if base.ks_backend = `Native then `Closure else `Native) } );
      ]
    else []
  in
  let front () =
    let s = Service.front_cache_stats () in
    (s.Taco_support.Memo.misses, s.Taco_support.Memo.hits)
  in
  let serve svc shape =
    let req =
      Service.request ~directives:shape.ks_directives ~result_format:shape.ks_result
        ?semiring:shape.ks_semiring ~backend:shape.ks_backend ~expr:"A(i,j) = B(i,k) * C(k,j)"
        ~inputs:[ ("B", operand 1 [| n; k |] shape.ks_b); ("C", operand 2 [| k; m |] shape.ks_c) ]
        ()
    in
    Result.map (fun r -> r.Service.tensor) (diag (Service.eval svc req))
  in
  let svc = Service.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  Service.front_cache_clear ();
  let first =
    List.map
      (fun (what, shape) ->
        let m0, _ = front () in
        let r1 = serve svc shape in
        let m1, h1 = front () in
        if Result.is_ok r1 && m1 <> m0 + 1 then
          failf "cache-key leg: serve cache: %s was served another request's entry" what;
        let r2 = serve svc shape in
        if Result.is_ok r2 && snd (front ()) <> h1 + 1 then
          failf "cache-key leg: serve cache: %s, repeated, missed its entry" what;
        key_same "serve" (what ^ ", repeated") r1 r2;
        r1)
      requests
  in
  List.iter2
    (fun (what, shape) r1 ->
      Service.front_cache_clear ();
      key_same "serve" (what ^ " against an uncached one") r1 (serve svc shape))
    requests first

let run_key (surface, sel1, sel2, dims, seed) =
  (match surface mod 5 with
  | 4 -> key_serve seed dims
  | s ->
      let name, request =
        match s with
        | 0 -> ("compile", key_compile)
        | 1 -> ("plan", key_plan)
        | 2 -> ("ops", key_ops)
        | _ -> ("graph", key_graph)
      in
      let same = key_same name in
      let r1 = request ~cached:true sel1 seed dims in
      let r2 = request ~cached:true sel2 (seed + 1) dims in
      same "a repeated request" r1 (request ~cached:true sel1 seed dims);
      same "the first request against an uncached one" r1 (request ~cached:false sel1 seed dims);
      same "the second request against an uncached one" r2
        (request ~cached:false sel2 (seed + 1) dims));
  incr key_ran

(* ------------------------------------------------------------------ *)
(* QCheck wiring                                                       *)
(* ------------------------------------------------------------------ *)

let scenario_gen =
  QCheck.Gen.(
    let* template = int_bound (Array.length templates - 1) in
    let* f0 = int_bound 7 and* f1 = int_bound 7 and* f2 = int_bound 7 in
    let* d0 = int_range 1 5
    and* d1 = int_range 1 5
    and* d2 = int_range 1 5
    and* d3 = int_range 1 4 in
    let* density = oneofl [ 0.0; 0.1; 0.3; 0.6; 1.0 ] in
    let* seed = int_bound 100_000 in
    let* sched = int_bound 2 in
    return
      {
        template;
        fmts = [| f0; f1; f2 |];
        dims = [| d0; d1; d2; d3 |];
        density;
        seed;
        sched;
      })

let scenario_print sc =
  Printf.sprintf "{template=%d; fmts=[|%d;%d;%d|]; dims=[|%d;%d;%d;%d|]; density=%.1f; seed=%d; sched=%d}"
    sc.template sc.fmts.(0) sc.fmts.(1) sc.fmts.(2) sc.dims.(0) sc.dims.(1) sc.dims.(2)
    sc.dims.(3) sc.density sc.seed sc.sched

let scenario_arb = QCheck.make ~print:scenario_print scenario_gen

let count =
  match Sys.getenv_opt "TACO_FUZZ_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

let ran = ref 0

let rejected = ref 0


(* On failure, replay the failing scenario with tracing enabled and dump
   the Chrome trace next to the repro in the failure report, so the
   failing instance's pipeline (which transforms ran, which passes
   fired, what the executor did) can be inspected stage by stage. *)
let dump_failure_trace sc =
  let module Trace = Taco_support.Trace in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "taco_fuzz_t%d_s%d.trace.json" sc.template sc.seed)
  in
  Trace.clear ();
  Trace.enable ();
  (try ignore (run_one sc : outcome) with _ -> ());
  Trace.disable ();
  Trace.write_chrome path;
  Trace.clear ();
  path

let prop sc =
  match run_one sc with
  | Ran ->
      incr ran;
      true
  | Rejected ->
      incr rejected;
      true
  | exception Fuzz_failure msg ->
      let msg =
        match dump_failure_trace sc with
        | path -> Printf.sprintf "%s\n(pipeline trace of the failing instance: %s)" msg path
        | exception _ -> msg
      in
      QCheck.Test.fail_report msg

let test_pipeline_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"differential pipeline fuzz" scenario_arb prop)

let sr_scenario_gen =
  QCheck.Gen.(
    let* template = int_bound 2 and* sel = int_bound 3 in
    let* n = int_range 1 8 and* m = int_range 1 8 and* k = int_range 1 6 in
    let* seed = int_bound 100_000 in
    return (template, sel, n, m, k, seed))

let sr_scenario_print (template, sel, n, m, k, seed) =
  Printf.sprintf "{template=%d; semiring=%d; n=%d; m=%d; k=%d; seed=%d}" template sel n m k
    seed

let sr_prop sc =
  match run_sr sc with
  | () -> true
  | exception Fuzz_failure msg -> QCheck.Test.fail_report msg

let test_semiring_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"semiring closure vs native bit-identity"
       (QCheck.make ~print:sr_scenario_print sr_scenario_gen)
       sr_prop)

let tier_scenario_gen =
  QCheck.Gen.(
    let* template = int_bound 2 and* sel = int_bound 2 and* parallel = bool in
    let* n = int_range 1 6 and* m = int_range 1 6 and* k = int_range 1 5 in
    let* fill = int_bound 2 and* seed = int_bound 100_000 in
    return (template, sel, parallel, (n, m, k), fill, seed))

let tier_scenario_print (template, sel, parallel, (n, m, k), fill, seed) =
  Printf.sprintf "{template=%d; semiring=%d; parallel=%b; n=%d; m=%d; k=%d; fill=%d; seed=%d}"
    template sel parallel n m k fill seed

let test_tier_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"native tier 0 vs tier 1 vs closure bit-identity"
       (QCheck.make ~print:tier_scenario_print tier_scenario_gen)
       (fun sc ->
         if not (Taco_exec.Native.available ()) then true
         else
           match run_tier sc with
           | () -> true
           | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

let batch_scenario_gen =
  QCheck.Gen.(
    let* picks = list_size (int_range 2 4) (triple (int_bound 2) (int_bound 2) bool) in
    let* seed = int_bound 100_000 in
    return (picks, seed))

let batch_scenario_print (picks, seed) =
  Printf.sprintf "{picks=[%s]; seed=%d}"
    (String.concat "; "
       (List.map (fun (t, s, p) -> Printf.sprintf "(%d,%d,%b)" t s p) picks))
    seed

(* Each instance is one cc run, so the leg runs an eighth as many. *)
let test_batch_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:(max 1 (count / 8)) ~name:"native batch vs single vs closure bit-identity"
       (QCheck.make ~print:batch_scenario_print batch_scenario_gen)
       (fun sc ->
         if not (Taco_exec.Native.available ()) then true
         else
           match run_batch sc with
           | () -> true
           | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

let key_scenario_gen =
  QCheck.Gen.(
    let* surface = int_bound 4 and* sel1 = int_bound 95 and* sel2 = int_bound 95 in
    let* n = int_range 1 6 and* m = int_range 1 6 and* k = int_range 1 5 in
    let* seed = int_bound 100_000 in
    return (surface, sel1, sel2, (n, m, k), seed))

let key_scenario_print (surface, sel1, sel2, (n, m, k), seed) =
  Printf.sprintf "{surface=%d; sel1=%d; sel2=%d; n=%d; m=%d; k=%d; seed=%d}" surface sel1 sel2 n
    m k seed

let test_key_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"cache-key soundness, cached vs uncached bit-identity"
       (QCheck.make ~print:key_scenario_print key_scenario_gen)
       (fun sc ->
         match run_key sc with
         | () -> true
         | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

(* ------------------------------------------------------------------ *)
(* Reader fuzzing                                                      *)
(* ------------------------------------------------------------------ *)

(* The .mtx/.tns readers on grammar-aware mutants of valid files. The
   seeded Prng writes a well-formed file as lines of fields — a Matrix
   Market header, comments, a size line and entries, or FROSTT
   coordinate lines — then applies one to three mutations that keep the
   grammar's shape: a numeric field replaced by an edge value (at and
   just past Int32.max_int among them), a field dropped or doubled, a
   line dropped, doubled, swapped or turned into a comment, a header
   word swapped, CRLF endings, the text cut short. The property: within
   [reader_time_bound] seconds the reader returns a diagnostic whose
   context names the offending line or field, or a COO buffer that
   packs into a tensor passing [Tensor.validate]. It packs into
   all-compressed formats, so memory follows the entries, not the
   dimensions (which may be Int32.max_int). Any other exception fails
   the instance. *)

module Io = Taco_tensor.Io

let reader_time_bound = 2.0

let reader_ran = ref 0

let reader_rejected = ref 0

let edge_values =
  [|
    "0"; "1"; "-1"; "2"; "2147483646"; "2147483647"; "2147483648"; "-2147483648"; "4294967296";
    string_of_int max_int; "99999999999999999999"; "1.5"; "1e3"; "nan"; "x"; "--1"; "0x10";
  |]

let header_words = [| "array"; "complex"; "pattern"; "symmetric"; "integer"; "%%matrixmarket"; "skew" |]

(* A valid file of [order]-mode entries (order 2 with a header is
   Matrix Market), as lines of fields. *)
let valid_lines prng ~mtx =
  let pick a = a.(Prng.int prng (Array.length a)) in
  let order = if mtx then 2 else 1 + Prng.int prng 3 in
  let dims = Array.init order (fun _ -> 1 + Prng.int prng 6) in
  let nnz = Prng.int prng 6 in
  let value () = Printf.sprintf "%.3g" (Prng.float prng -. 0.5) in
  let entry () =
    Array.to_list (Array.map (fun d -> string_of_int (1 + Prng.int prng d)) dims) @ [ value () ]
  in
  let entries = List.init nnz (fun _ -> entry ()) in
  let comments = if Prng.bool prng 0.3 then [ [ pick [| "%"; "#" |]; "comment" ] ] else [] in
  if mtx then
    [ "%%MatrixMarket"; "matrix"; "coordinate"; pick [| "real"; "integer" |]; pick [| "general"; "symmetric" |] ]
    :: (comments
       @ [ [ string_of_int dims.(0); string_of_int dims.(1); string_of_int nnz ] ]
       @ entries)
  else comments @ entries

let mutate prng lines =
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let line () = Prng.int prng (max 1 n) in
  let edit_line k f = if n > 0 then lines.(k) <- f lines.(k) in
  let nth_field fs = Prng.int prng (max 1 (List.length fs)) in
  let lines =
    match Prng.int prng 8 with
    | 0 ->
        edit_line (line ()) (fun fs ->
            let i = nth_field fs in
            List.mapi (fun j f -> if j = i then edge_values.(Prng.int prng (Array.length edge_values)) else f) fs);
        Array.to_list lines
    | 1 ->
        edit_line (line ()) (fun fs ->
            let i = nth_field fs in
            List.filteri (fun j _ -> j <> i) fs);
        Array.to_list lines
    | 2 ->
        edit_line (line ()) (fun fs ->
            let i = nth_field fs in
            List.concat (List.mapi (fun j f -> if j = i then [ f; f ] else [ f ]) fs));
        Array.to_list lines
    | 3 ->
        let k = line () in
        List.filteri (fun j _ -> j <> k) (Array.to_list lines)
    | 4 ->
        let k = line () in
        List.concat (List.mapi (fun j l -> if j = k then [ l; l ] else [ l ]) (Array.to_list lines))
    | 5 ->
        if n > 1 then begin
          let a = line () and b = line () in
          let t = lines.(a) in
          lines.(a) <- lines.(b);
          lines.(b) <- t
        end;
        Array.to_list lines
    | 6 ->
        let k = line () in
        List.concat
          (List.mapi
             (fun j l -> if j = k then [ [ "%"; "x" ]; []; l ] else [ l ])
             (Array.to_list lines))
    | _ ->
        edit_line 0 (fun fs ->
            let i = nth_field fs in
            List.mapi (fun j f -> if j = i then header_words.(Prng.int prng (Array.length header_words)) else f) fs);
        Array.to_list lines
  in
  lines

let render prng lines =
  let eol = if Prng.bool prng 0.2 then "\r\n" else "\n" in
  let text = String.concat "" (List.map (fun fs -> String.concat " " fs ^ eol) lines) in
  if Prng.bool prng 0.1 then String.sub text 0 (Prng.int prng (String.length text + 1)) else text

let reader_file (mtx, seed) =
  let prng = Prng.create seed in
  let lines = ref (valid_lines prng ~mtx) in
  for _ = 0 to Prng.int prng 3 do
    lines := mutate prng !lines
  done;
  render prng !lines

let run_reader ((mtx, _) as sc) =
  let text = reader_file sc in
  let path = Filename.temp_file "taco_reader_fuzz" (if mtx then ".mtx" else ".tns") in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Fuzz_failure (Printf.sprintf "%s\nfile:\n%s" m text))) fmt
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      let t0 = Unix.gettimeofday () in
      let named d = List.mem_assoc "line" d.Diag.context || List.mem_assoc "field" d.Diag.context in
      (match if mtx then Io.read_matrix_market path else Io.read_frostt path with
      | Error d when named d -> incr reader_rejected
      | Error d -> fail "diagnostic names no line or field: %s" (Diag.to_string d)
      | Ok coo -> (
          let fmt = if Coo.order coo = 2 then F.dcsr else F.csf (Coo.order coo) in
          match T.pack coo fmt with
          | t -> (
              match T.validate t with
              | Ok () -> incr reader_ran
              | Error e -> fail "packed tensor fails validate: %s" e)
          | exception Diag.Error d when named d -> incr reader_rejected
          | exception Diag.Error d -> fail "pack diagnostic names no field: %s" (Diag.to_string d))
      | exception e -> fail "reader raised %s" (Printexc.to_string e));
      let dt = Unix.gettimeofday () -. t0 in
      if dt > reader_time_bound then fail "took %.2f s" dt)

(* ------------------------------------------------------------------ *)
(* JSON and serve-protocol fuzzing                                     *)
(* ------------------------------------------------------------------ *)

(* [Json.parse] on mutants of the documents the system writes: a BENCH
   report, a Chrome trace export and the serve [stats] line. Seeded
   byte-level mutations keep to the grammar's alphabet: a byte dropped,
   doubled or swapped, a structural character or an edge number
   inserted, the text cut short or nested past the depth limit. The
   property: [parse] returns [Ok] or [Error] and never raises, and a
   parsed value prints back (one-line and indented) to a text that
   parses to the same value, an integral [Float n] counting as [Int n]. *)

module Json = Taco_support.Json
module Protocol = Taco_service.Protocol

let json_parsed = ref 0

let json_refused = ref 0

let bench_document =
  {|{
  "bench": "cbackend",
  "config": {
    "agreement": "bit-identical",
    "seed": 2019,
    "compiler": {
      "command": "cc",
      "available": true
    }
  },
  "records": [
    {
      "workload": "spgemm_ws",
      "variant": "native",
      "estimator": "best_batch",
      "time_s": 0.0083220005035400391,
      "reps": 7,
      "agrees": true,
      "info": {
        "flags": "-O3 -march=native",
        "alloc_per_result_word": 1.0002464501302442,
        "cc_ns": 146927860
      }
    }
  ],
  "summary": {
    "geomean_speedup": null,
    "note": "tab\there \"quoted\" \u0001"
  }
}
|}

let json_documents =
  lazy
    (let module Trace = Taco_support.Trace in
     Trace.clear ();
     Trace.enable ();
     Trace.set_request_id (Some 3);
     Trace.with_span ~args:[ ("kernel", "spgemm \"ws\"") ] "compile" (fun () ->
         Trace.instant ~args:[ ("point", "compile.build") ] "fault.fire");
     Trace.span_complete ~ts:(Trace.now_ns ()) ~dur_ns:1234L "serve.wait";
     Trace.set_request_id None;
     let trace = Trace.to_chrome_json () in
     Trace.disable ();
     Trace.clear ();
     let svc = Service.create ~domains:1 () in
     let stats = Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> Protocol.stats_line svc) in
     [| bench_document; trace; stats |])

let json_edges =
  [| "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\u"; "\\u00"; "-"; "."; "e"; "0"; "-0"; "1e999";
     "1e-400"; "99999999999999999999"; "0x10"; "+1"; "nul"; "true"; "\000"; "\255"; " " |]

let json_mutant seed =
  let prng = Prng.create seed in
  let docs = Lazy.force json_documents in
  let text = ref docs.(Prng.int prng (Array.length docs)) in
  for _ = 0 to Prng.int prng 3 do
    let t = !text in
    let n = String.length t in
    let at = Prng.int prng (n + 1) in
    let before = String.sub t 0 at and after = String.sub t at (n - at) in
    let drop k = if at + k <= n then before ^ String.sub t (at + k) (n - at - k) else before in
    text :=
      match Prng.int prng 6 with
      | 0 -> drop 1
      | 1 -> if at < n then before ^ String.make 1 t.[at] ^ after else t
      | 2 -> before ^ json_edges.(Prng.int prng (Array.length json_edges)) ^ after
      | 3 -> drop (1 + Prng.int prng 8)
      | 4 -> before
      | _ ->
          let depth = if Prng.bool prng 0.5 then 600 else 1 + Prng.int prng 8 in
          before ^ String.make depth '[' ^ after
  done;
  !text

let rec json_equal a b =
  match (a, b) with
  | Json.Int n, Json.Float f | Json.Float f, Json.Int n -> float_of_int n = f
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | a, b -> a = b

let run_json seed =
  let text = json_mutant seed in
  match Json.parse text with
  | Error _ -> incr json_refused
  | exception e -> failf "parse raised %s on:\n%s" (Printexc.to_string e) text
  | Ok v ->
      incr json_parsed;
      List.iter
        (fun print ->
          match Json.parse (print v) with
          | Ok v' when json_equal v v' -> ()
          | Ok v' -> failf "round trip changed %s into %s" (Json.to_string v) (Json.to_string v')
          | Error e -> failf "printed value does not parse (%s): %s" e (print v))
        [ Json.to_string; Json.to_string_pretty ]

let test_json_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"Json.parse on mutated documents, print round trip"
       (QCheck.make ~print:(fun seed -> Printf.sprintf "{seed=%d}\n%s" seed (json_mutant seed))
          QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         match run_json seed with
         | () -> true
         | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

(* [Protocol.make_tensor] and [Protocol.build_request] on mutants of
   serve lines like the fixtures': a word or clause replaced by an edge
   value, dropped, doubled or swapped with another. The property: each
   returns, or raises [Diag.Error] with code E_SERVE_INPUT, within
   [reader_time_bound] seconds; any other exception fails the instance.
   Every integer edge value is at most 1,000, so no mutant asks for a
   mode longer than that: the protocol has no size cap, and this leg
   does not test one. *)

let protocol_ran = ref 0

let protocol_refused = ref 0

(* The arguments of [tensor] lines, and the text after [eval]. *)
let tensor_lines =
  [|
    "B ds 4,4 density 0.05 seed 1";
    "C sd 3,5";
    "D sss 2,3,4 density 0.5 seed 7";
    "x d 5";
    "M dd 6,6";
  |]

let eval_lines =
  [|
    "A(i,j) = B(i,k) * C(k,j) ; reorder k,j ; precompute B(i,k) * C(k,j)|j|w ; format A:ds";
    "A(i,j) = B(i,j) + B(i,j) ; domains 2 ; deadline 100 ; backend c";
    "y(i) = B(i,j) * x(j) ; semiring min_plus ; parallelize i ; backend closure";
    "A(i,j) = B(i,k) * C(k,j) ; auto ; format A:dd";
    "a = B(i,j) * B(i,j)";
  |]

let protocol_edges =
  [| ""; "0"; "-5"; "-1"; "1"; "2"; "1000"; "x"; "nan"; "inf"; "-inf"; "1e3"; "0x10"; "1.5"; "-0";
     "0,10"; "-5,10"; "4,,4"; "1000,3"; ","; "|"; ":"; ";"; "A:xx"; "A:"; "dd"; "sss"; "density";
     "seed"; "auto"; "reorder"; "format"; "k,j,i"; "B(i,k"; "B(i,j))"; "sum(" |]

let protocol_mutant seed =
  let prng = Prng.create seed in
  let tensor = Prng.bool prng 0.5 in
  let base = if tensor then tensor_lines else eval_lines in
  let line = base.(Prng.int prng (Array.length base)) in
  let sep = if tensor then " " else ";" in
  let parts = ref (Array.of_list (String.split_on_char sep.[0] line)) in
  for _ = 0 to Prng.int prng 3 do
    let a = !parts in
    let n = Array.length a in
    let k = Prng.int prng (max 1 n) in
    let edge () = protocol_edges.(Prng.int prng (Array.length protocol_edges)) in
    parts :=
      if n = 0 then [| edge () |]
      else
        match Prng.int prng 5 with
        | 0 -> Array.mapi (fun j p -> if j = k then edge () else p) a
        | 1 when not tensor ->
            (* Replace one word inside a clause. *)
            Array.mapi
              (fun j p ->
                if j <> k then p
                else
                  let ws = Array.of_list (String.split_on_char ' ' p) in
                  ws.(Prng.int prng (Array.length ws)) <- edge ();
                  String.concat " " (Array.to_list ws))
              a
        | 1 | 2 -> Array.of_list (List.filteri (fun j _ -> j <> k) (Array.to_list a))
        | 3 -> Array.concat [ Array.sub a 0 (k + 1); [| a.(k) |]; Array.sub a (k + 1) (n - k - 1) ]
        | _ ->
            let b = Array.copy a in
            let l = Prng.int prng n in
            b.(k) <- a.(l);
            b.(l) <- a.(k);
            b
  done;
  (tensor, String.concat sep (Array.to_list !parts))

let protocol_tensors =
  lazy
    (let tensors = Hashtbl.create 8 in
     Array.iter
       (fun l -> ignore (Protocol.make_tensor tensors (Protocol.words l)))
       tensor_lines;
     tensors)

let run_protocol seed =
  let tensor, line = protocol_mutant seed in
  let tensors = Hashtbl.copy (Lazy.force protocol_tensors) in
  let t0 = Unix.gettimeofday () in
  (match
     if tensor then ignore (Protocol.make_tensor tensors (Protocol.words line) : string)
     else ignore (Protocol.build_request tensors line : Service.request * int option)
   with
  | () -> incr protocol_ran
  | exception Diag.Error d when d.Diag.code = "E_SERVE_INPUT" -> incr protocol_refused
  | exception Diag.Error d -> failf "diagnostic %s on %S" (Diag.to_string d) line
  | exception e -> failf "raised %s on %S" (Printexc.to_string e) line);
  let dt = Unix.gettimeofday () -. t0 in
  if dt > reader_time_bound then failf "took %.2f s on %S" dt line

let test_protocol_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"serve protocol on mutated lines"
       (QCheck.make
          ~print:(fun seed -> Printf.sprintf "{seed=%d} %S" seed (snd (protocol_mutant seed)))
          QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         match run_protocol seed with
         | () -> true
         | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

let test_ws_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"workspace kernels, sorted and unsorted, at bitmap boundaries"
       (QCheck.make
          ~print:(fun (t, width, rows, k, l, seed) ->
            Printf.sprintf "{template=%d; width=%d; rows=%d; k=%d; l=%d; seed=%d}" t width rows k l seed)
          QCheck.Gen.(
            let* t = int_bound 2 and* width = int_bound 11 in
            let* rows = int_range 1 4 and* k = int_range 1 5 and* l = int_range 1 4 in
            let* seed = int_bound 100_000 in
            return (t, width, rows, k, l, seed)))
       (fun sc ->
         match run_ws sc with
         | () -> true
         | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

let test_extent_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"operand extents checked at binding, on every executor"
       (QCheck.make
          ~print:(fun (t, consistent, seed) ->
            Printf.sprintf "{template=%d; consistent=%b; seed=%d}" t consistent seed)
          QCheck.Gen.(triple (int_bound 3) bool (int_bound 100_000)))
       (fun sc ->
         match run_extent sc with
         | () -> true
         | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

let test_reader_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:".mtx/.tns readers on mutated files"
       (QCheck.make
          ~print:(fun ((mtx, seed) as sc) ->
            Printf.sprintf "{mtx=%b; seed=%d}\n%s" mtx seed (reader_file sc))
          QCheck.Gen.(pair bool (int_bound 1_000_000)))
       (fun sc ->
         match run_reader sc with
         | () -> true
         | exception Fuzz_failure msg -> QCheck.Test.fail_report msg))

(* The campaign is only meaningful if it actually ran and a healthy
   share of instances made it all the way through the pipeline rather
   than being rejected. *)
let test_coverage () =
  Printf.printf
    "fuzz campaign: %d instances ran end to end (%d with a parallel leg, %d native, \
     %d cost-search), %d rejected; fault leg: %d injected, %d survived bit-identical; \
     semiring leg: %d ran, %d native; tier leg: %d ran; batch leg: %d ran, %d native; \
     workspace leg: %d ran, %d native runs; extent leg: %d ran, %d refused, %d native; \
     cache-key leg: %d ran; profile leg: %d native runs; reader leg: %d packed, %d refused; \
     json leg: %d parsed, %d refused; protocol leg: %d ran, %d refused\n%!"
    !ran !par_ran !native_ran !cost_ran !rejected !fault_injected !fault_survived !sr_ran
    !sr_native_ran !tier_ran !batch_ran !batch_native_ran !ws_ran !ws_native_ran !ext_ran
    !ext_refused !ext_native_ran !key_ran
    !prof_native_ran !reader_ran !reader_rejected !json_parsed !json_refused !protocol_ran
    !protocol_refused;
  Alcotest.(check bool)
    (Printf.sprintf "workspace leg ran natively when a C compiler exists (%d)" !ws_native_ran)
    true
    (!ws_ran > 0 && ((not (Taco_exec.Native.available ())) || !ws_native_ran > 0));
  Alcotest.(check bool)
    (Printf.sprintf "extent leg refused some draws and ran others, natively when a C compiler \
                     exists (%d ran, %d refused, %d native)"
       !ext_ran !ext_refused !ext_native_ran)
    true
    (0 < !ext_refused && !ext_refused < !ext_ran
    && ((not (Taco_exec.Native.available ())) || !ext_native_ran > 0));
  Alcotest.(check bool)
    (Printf.sprintf "batch leg ran natively when a C compiler exists (%d)" !batch_native_ran)
    true
    ((not (Taco_exec.Native.available ())) || !batch_native_ran > 0);
  Alcotest.(check bool)
    (Printf.sprintf "profile leg ran natively when a C compiler exists (%d)" !prof_native_ran)
    true
    (!ran = 0 || (not (Taco_exec.Native.available ())) || !prof_native_ran > 0);
  Alcotest.(check bool)
    (Printf.sprintf "tier leg ran when a C compiler exists (%d)" !tier_ran)
    true
    ((not (Taco_exec.Native.available ())) || !tier_ran > 0);
  Alcotest.(check bool)
    (Printf.sprintf "semiring leg ran natively when a C compiler exists (%d)" !sr_native_ran)
    true
    (!sr_ran = 0 || (not (Taco_exec.Native.available ())) || !sr_native_ran > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fault leg covered both outcomes (%d injected, %d survived)"
       !fault_injected !fault_survived)
    true
    (!ran = 0 || (!fault_injected > 0 && !fault_survived > 0));
  Alcotest.(check bool)
    (Printf.sprintf "campaign ran %d instances" count)
    true
    (!ran + !rejected >= count);
  Alcotest.(check bool)
    (Printf.sprintf "at least half the instances ran end to end (%d ran, %d rejected)" !ran
       !rejected)
    true
    (!ran * 2 >= !ran + !rejected)

let () =
  Alcotest.run "fuzz"
    [
      ( "pipeline",
        [
          test_pipeline_fuzz;
          test_semiring_fuzz;
          test_tier_fuzz;
          test_batch_fuzz;
          test_ws_fuzz;
          test_extent_fuzz;
          test_key_fuzz;
          test_reader_fuzz;
          test_json_fuzz;
          test_protocol_fuzz;
          Alcotest.test_case "coverage" `Quick test_coverage;
        ] );
    ]
