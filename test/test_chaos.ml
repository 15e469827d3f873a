(* Chaos suite: deterministic fault-injection campaigns against the
   executor and the serving layer. Every fault point gets driven at
   least once — worker crash mid-job, poison-pill quarantine, injected
   compile failure, delays past deadlines, the cooperative watchdog,
   memory-budget rejection, rejection under overload, a warm shape
   served from the caches under overload, and corrupt-and-detect on
   result values. All campaigns use fixed seeds so
   the fault schedule (and thus the asserted outcome) is reproducible. *)

open Helpers
open Taco_ir
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module I = Index_notation
module Diag = Taco_support.Diag
module Fault = Taco_support.Faultinject
module Trace = Taco_support.Trace
module Budget = Taco_exec.Budget
module Compile = Taco_exec.Compile
module Service = Taco_service.Service
module Metrics = Taco_support.Metrics
module Events = Taco_support.Events
module Native = Taco_exec.Native

let with_fault ~seed rules f =
  Fault.configure ~seed rules;
  Fun.protect ~finally:Fault.disarm f

let with_service ?(domains = 1) ?(queue_depth = 64) f =
  let svc = Service.create ~domains ~queue_depth () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let spgemm_request ?backend b c =
  Service.request ?backend
    ~directives:
      [
        Service.Reorder ("k", "j");
        Service.Precompute { expr = "B(i,k) * C(k,j)"; over = [ "j" ]; workspace = "w" };
      ]
    ~result_format:F.csr
    ~expr:"A(i,j) = B(i,k) * C(k,j)"
    ~inputs:[ ("B", b); ("C", c) ]
    ()

let await_ok ticket =
  match Service.await ticket with
  | Ok r -> r
  | Error d -> Alcotest.fail (Diag.to_string d)

let eval_ok svc req =
  match Service.eval svc req with
  | Ok r -> r
  | Error d -> Alcotest.fail (Diag.to_string d)

let check_code what code = function
  | Ok _ -> Alcotest.fail (what ^ ": expected an error")
  | Error d -> Alcotest.(check string) what code d.Diag.code

(* Run [f] with the trace buffer and the metrics registry recording from
   empty, both switched off again afterwards. *)
let with_observability f =
  Trace.clear ();
  Trace.enable ();
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ();
      Metrics.disable ();
      Metrics.reset ())
    f

(* A directly-compiled SpGEMM (the paper's Fig. 2 schedule) for the
   executor-level campaigns that bypass the service. *)

let vb = csr_tv "B"
let vc = csr_tv "C"

let spgemm_compiled () =
  let va = csr_tv "A" in
  let stmt =
    I.assign va [ vi; vj ] (I.sum vk (I.Mul (I.access vb [ vi; vk ], I.access vc [ vk; vj ])))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vk vj sched) in
  let w = ws_vec "w" in
  let e = Cin.Mul (Cin.Access (Cin.access vb [ vi; vk ]), Cin.Access (Cin.access vc [ vk; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  getd (Taco.compile ~name:"chaos_spgemm" sched)

let spgemm_inputs seed =
  [
    (vb, random_tensor seed [| 24; 24 |] 0.2 F.csr);
    (vc, random_tensor (seed + 1) [| 24; 24 |] 0.2 F.csr);
  ]

(* --- a crashed worker is replaced and its job retried --------------- *)

let test_worker_crash_replaced () =
  let b = random_tensor 301 [| 20; 20 |] 0.2 F.csr in
  let c = random_tensor 302 [| 20; 20 |] 0.2 F.csr in
  with_fault ~seed:11 [ Fault.rule ~max_fires:1 "serve.worker" Fault.Crash ] (fun () ->
      with_service ~domains:1 (fun svc ->
          (* First request kills the worker once; the supervisor replaces
             the domain and retries the job, so the caller still gets a
             result. *)
          let r = eval_ok svc (spgemm_request b c) in
          Alcotest.(check bool) "retried request produced a result" true (T.nnz r.Service.tensor >= 0);
          let s = Service.stats svc in
          Alcotest.(check int) "one worker crashed" 1 s.Service.crashed;
          Alcotest.(check int) "one replacement spawned" 1 s.Service.replaced;
          Alcotest.(check int) "no quarantine on a single strike" 0 s.Service.quarantined;
          Alcotest.(check int) "pool is back to full strength" 1 s.Service.live_workers;
          Alcotest.(check int) "peak tracks the original pool" 1 s.Service.peak_workers;
          (* The replacement keeps serving. *)
          let r2 = eval_ok svc (spgemm_request b c) in
          Alcotest.(check int) "replacement serves identical results"
            (T.nnz r.Service.tensor) (T.nnz r2.Service.tensor);
          Alcotest.(check int) "exactly one fault fired" 1 (Fault.fires "serve.worker")))

(* --- a request that kills two workers is quarantined ---------------- *)

let test_poison_quarantined () =
  let b = random_tensor 303 [| 20; 20 |] 0.2 F.csr in
  let c = random_tensor 304 [| 20; 20 |] 0.2 F.csr in
  let log = Filename.temp_file "taco_chaos_events" ".jsonl" in
  Events.set_path (Some log);
  Fun.protect ~finally:(fun () ->
      Events.set_path None;
      Sys.remove log)
  @@ fun () ->
  with_observability @@ fun () ->
  with_fault ~seed:12 [ Fault.rule ~max_fires:2 "serve.worker" Fault.Crash ] (fun () ->
      with_service ~domains:1 (fun svc ->
          (* The fault kills the worker on both the first attempt and the
             retry: two strikes makes the request a poison pill. *)
          check_code "second strike resolves as poison" "E_SERVE_POISON"
            (Service.eval svc (spgemm_request b c));
          let s = Service.stats svc in
          Alcotest.(check int) "two workers crashed" 2 s.Service.crashed;
          Alcotest.(check int) "structure quarantined" 1 s.Service.quarantined;
          Alcotest.(check int) "pool is back to full strength" 1 s.Service.live_workers;
          (* The quarantined request is answered like any other: counted
             once in the registry and logged once under its request id. *)
          Alcotest.(check int) "registry counts the poison failure" s.Service.failed
            (Metrics.counter
               ~labels:[ ("outcome", "failed"); ("code", "E_SERVE_POISON") ]
               "taco_serve_requests_total");
          Alcotest.(check int) "every failure is in the registry" s.Service.failed
            (Metrics.counter ~labels:[ ("outcome", "failed") ] "taco_serve_requests_total");
          Alcotest.(check int) "each fired fault is in the registry" (Fault.fires "serve.worker")
            (Metrics.counter ~labels:[ ("point", "serve.worker") ] "taco_faults_injected_total");
          let victim =
            match trace_rids "serve.wait" with
            | [ rid ] -> rid
            | rids -> Alcotest.failf "expected one waited request, got %d" (List.length rids)
          in
          Events.close ();
          let logged =
            In_channel.with_open_text log In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun line ->
                   contains line "\"event\":\"serve.request\""
                   && contains line (Printf.sprintf "\"rid\":%d," victim))
          in
          (match logged with
          | [ line ] ->
              Alcotest.(check bool) "the victim's line names the poison code" true
                (contains line "\"code\":\"E_SERVE_POISON\"")
          | lines -> Alcotest.failf "%d serve.request lines for the victim" (List.length lines));
          (* Resubmitting the same structure is now rejected at admission
             without touching a worker. *)
          check_code "quarantined structure rejected at submit" "E_SERVE_POISON"
            (Service.submit svc (spgemm_request b c));
          (* A different request structure still serves fine. *)
          let req =
            (* Same expression, different directives: a different poison
               key, and a schedule the autoscheduler is known to find. *)
            Service.request ~directives:[ Service.Auto ] ~result_format:F.csr
              ~expr:"A(i,j) = B(i,k) * C(k,j)"
              ~inputs:[ ("B", b); ("C", c) ]
              ()
          in
          let r = eval_ok svc req in
          Alcotest.(check bool) "pool keeps serving other structures" true
            (T.nnz r.Service.tensor >= 0)))

(* --- a poison request inside a batch -------------------------------- *)

(* The worker takes what is queued as one batch. A crash is charged to
   the request being worked on, and its batch-mates go back to the
   queue uncharged: the poison request is quarantined after two kills,
   and the others complete. A request dequeued again after a crash has
   one wait span, and the queue-depth gauge ends at zero. *)
let test_poison_in_batch () =
  let b = random_tensor 321 [| 20; 20 |] 0.2 F.csr in
  let c = random_tensor 322 [| 20; 20 |] 0.2 F.csr in
  let t3 = random_tensor 323 [| 20; 6; 6 |] 0.1 (F.csf 3) in
  let fc = random_tensor 324 [| 6; 8 |] 1.0 F.dense_matrix in
  let fd = random_tensor 325 [| 6; 8 |] 1.0 F.dense_matrix in
  let mates =
    [
      Service.request ~result_format:F.csr ~expr:"A(i,j) = B(i,j) + C(i,j)"
        ~inputs:[ ("B", b); ("C", c) ]
        ();
      Service.request ~expr:"A(i,j) = B(i,k,l) * C(l,j) * D(k,j)"
        ~inputs:[ ("B", t3); ("C", fc); ("D", fd) ]
        ();
      Service.request ~directives:[ Service.Auto ] ~result_format:F.csr
        ~expr:"A(i,j) = B(i,k) * C(k,j)"
        ~inputs:[ ("B", b); ("C", c) ]
        ();
    ]
  in
  with_observability @@ fun () ->
  with_service ~domains:1 (fun svc ->
      (* Park the worker inside a blocker so the next requests queue up
         and are dequeued together. *)
      let blocker =
        with_fault ~seed:18 [ Fault.rule ~max_fires:1 "serve.pipeline" (Fault.Delay 200) ]
          (fun () ->
            let t =
              match Service.submit svc (spgemm_request b c) with
              | Ok t -> t
              | Error d -> Alcotest.fail (Diag.to_string d)
            in
            while Fault.fires "serve.pipeline" = 0 do
              Unix.sleepf 0.001
            done;
            t)
      in
      with_fault ~seed:19 [ Fault.rule ~max_fires:2 "serve.worker" Fault.Crash ] (fun () ->
          let submit req =
            match Service.submit svc req with
            | Ok t -> t
            | Error d -> Alcotest.fail (Diag.to_string d)
          in
          let poison = submit (spgemm_request b c) in
          let mate_tickets = List.map submit mates in
          ignore (await_ok blocker);
          check_code "the batch's first request is charged twice" "E_SERVE_POISON"
            (Service.await poison);
          List.iter (fun t -> ignore (await_ok t)) mate_tickets;
          let s = Service.stats svc in
          Alcotest.(check int) "two workers crashed" 2 s.Service.crashed;
          Alcotest.(check int) "one structure quarantined" 1 s.Service.quarantined;
          Alcotest.(check int) "batch-mates completed" (1 + List.length mates) s.Service.completed;
          Alcotest.(check int) "pool is back to full strength" 1 s.Service.live_workers;
          let rids = trace_rids "serve.wait" in
          Alcotest.(check int) "one wait span per request" (2 + List.length mates)
            (List.length rids);
          Alcotest.(check int) "no request waited twice" (List.length rids)
            (List.length (List.sort_uniq compare rids));
          Alcotest.(check (option (float 0.))) "queue depth gauge drained" (Some 0.)
            (List.assoc_opt ("taco_serve_queue_depth", []) (Metrics.snapshot ()).Metrics.gauges)))

(* --- an injected compile failure is contained to its request -------- *)

let test_compile_fault_contained () =
  let b = random_tensor 305 [| 20; 20 |] 0.2 F.csr in
  let c = random_tensor 306 [| 20; 20 |] 0.2 F.csr in
  with_service ~domains:1 (fun svc ->
      with_fault ~seed:13 [ Fault.rule ~max_fires:1 "compile.build" Fault.Crash ] (fun () ->
          check_code "injected compile failure surfaces as its diagnostic" "E_FAULT_INJECTED"
            (Service.eval svc (spgemm_request b c)));
      let s = Service.stats svc in
      Alcotest.(check int) "failure counted, worker survived" 1 s.Service.failed;
      Alcotest.(check int) "no worker crash: request failures are contained" 0 s.Service.crashed;
      (* Disarmed, the same request compiles and runs. *)
      let r = eval_ok svc (spgemm_request b c) in
      Alcotest.(check bool) "service recovered" true (T.nnz r.Service.tensor >= 0))

(* --- an injected stall trips the request deadline ------------------- *)

let test_delay_past_deadline () =
  let b = random_tensor 307 [| 20; 20 |] 0.2 F.csr in
  let c = random_tensor 308 [| 20; 20 |] 0.2 F.csr in
  with_fault ~seed:14 [ Fault.rule "serve.pipeline" (Fault.Delay 100) ] (fun () ->
      with_service ~domains:1 (fun svc ->
          check_code "stalled request expires" "E_SERVE_DEADLINE"
            (Service.eval svc ~deadline_ms:30 (spgemm_request b c));
          let s = Service.stats svc in
          Alcotest.(check int) "expiry counted as timed out" 1 s.Service.timed_out))

(* --- the cooperative watchdog cancels running kernels --------------- *)

let test_watchdog_cancels () =
  (* Directly at the executor: a deadline already in the past must
     cancel the kernel from inside its loops. *)
  let compiled = spgemm_compiled () in
  let inputs = spgemm_inputs 309 in
  let expired = Int64.sub (Trace.now_ns ()) 1L in
  (match Taco.run ~deadline_ns:expired compiled ~inputs with
  | Ok _ -> Alcotest.fail "expired deadline: expected cancellation"
  | Error d -> Alcotest.(check string) "watchdog code" "E_EXEC_CANCELLED" d.Diag.code);
  (* The same kernel without a deadline still runs. *)
  (match Taco.run compiled ~inputs with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  (* Through the service: a stall between compile and execute leaves the
     watchdog to cancel mid-kernel, surfaced as the request deadline. *)
  let b = random_tensor 311 [| 20; 20 |] 0.2 F.csr in
  let c = random_tensor 312 [| 20; 20 |] 0.2 F.csr in
  with_fault ~seed:15 [ Fault.rule "serve.exec" (Fault.Delay 80) ] (fun () ->
      with_service ~domains:1 (fun svc ->
          check_code "cancelled execution surfaces as the deadline" "E_SERVE_DEADLINE"
            (Service.eval svc ~deadline_ms:40 (spgemm_request b c))))

(* --- the memory budget rejects over-sized allocations up front ------ *)

let test_mem_budget () =
  Fun.protect
    ~finally:(fun () -> Budget.set_mem_limit 0)
    (fun () ->
      let compiled = spgemm_compiled () in
      let inputs = spgemm_inputs 313 in
      (* 128 bytes = 16 elements: the 24-wide dense workspace (and the
         output structure) cannot be admitted. *)
      Budget.set_mem_limit 128;
      (match Taco.run compiled ~inputs with
      | Ok _ -> Alcotest.fail "over-budget run: expected rejection"
      | Error d ->
          Alcotest.(check string) "memory guard code" "E_EXEC_MEM" d.Diag.code;
          Alcotest.(check bool) "context names the limit" true
            (List.mem_assoc "limit_bytes" d.Diag.context));
      (* The guard fires through the service too, as a contained
         request failure. *)
      let b = random_tensor 314 [| 20; 20 |] 0.2 F.csr in
      let c = random_tensor 315 [| 20; 20 |] 0.2 F.csr in
      with_service ~domains:1 (fun svc ->
          check_code "service surfaces the memory guard" "E_EXEC_MEM"
            (Service.eval svc (spgemm_request b c));
          Alcotest.(check int) "worker survived the rejection" 1
            (Service.stats svc).Service.live_workers);
      (* Lifting the budget restores service. *)
      Budget.set_mem_limit 0;
      match Taco.run compiled ~inputs with
      | Ok _ -> ()
      | Error d -> Alcotest.fail (Diag.to_string d))

(* --- overload rejects with a retry hint ----------------------------- *)

let test_overload_rejects () =
  let b = random_tensor 316 [| 24; 24 |] 0.2 F.csr in
  let c = random_tensor 317 [| 24; 24 |] 0.2 F.csr in
  let clean =
    with_service ~domains:1 (fun svc -> (eval_ok svc (spgemm_request b c)).Service.tensor)
  in
  with_fault ~seed:16 [ Fault.rule "serve.pipeline" (Fault.Delay 20) ] (fun () ->
      with_service ~domains:1 ~queue_depth:8 (fun svc ->
          (* Each job stalls 20ms, so submissions pile up: past queue
             length 8 they are rejected. *)
          let rec burst n tickets full =
            if n = 0 then (List.rev tickets, full)
            else
              match Service.submit svc (spgemm_request b c) with
              | Ok t -> burst (n - 1) (t :: tickets) full
              | Error d -> burst (n - 1) tickets (Some d)
          in
          (* The burst starts once the worker stalls in the first job, so
             how many jobs it dequeues at once cannot let the burst fit
             the queue. *)
          let first =
            match Service.submit svc (spgemm_request b c) with
            | Ok t -> t
            | Error d -> Alcotest.fail (Diag.to_string d)
          in
          while Fault.fires "serve.pipeline" = 0 do
            Unix.sleepf 0.001
          done;
          let tickets, full = burst 15 [ first ] None in
          List.iter
            (fun t ->
              Alcotest.(check bool) "accepted results bit-identical to an idle service's" true
                (tensors_bit_identical clean (await_ok t).Service.tensor))
            tickets;
          match full with
          | None -> Alcotest.fail "expected at least one E_SERVE_QUEUE_FULL rejection"
          | Some d ->
              Alcotest.(check string) "overfull queue rejects" "E_SERVE_QUEUE_FULL" d.Diag.code;
              Alcotest.(check bool) "rejection carries a retry hint" true
                (List.mem_assoc "retry_after_ms" d.Diag.context)))

(* --- corrupt-and-detect: injected bit flips are observable ---------- *)

let test_corrupt_detected () =
  let compiled = spgemm_compiled () in
  let inputs = spgemm_inputs 318 in
  let clean =
    match Taco.run compiled ~inputs with
    | Ok t -> T.vals t
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  Alcotest.(check bool) "kernel produced values to corrupt" true (Array.length clean > 0);
  with_fault ~seed:17 [ Fault.rule "exec.result" Fault.Corrupt ] (fun () ->
      let dirty =
        match Taco.run compiled ~inputs with
        | Ok t -> T.vals t
        | Error d -> Alcotest.fail (Diag.to_string d)
      in
      Alcotest.(check bool) "corruption fired" true (Fault.fires "exec.result" > 0);
      Alcotest.(check int) "corruption preserves shape" (Array.length clean) (Array.length dirty);
      let differs = ref 0 in
      Array.iteri
        (fun i v -> if Int64.bits_of_float v <> Int64.bits_of_float dirty.(i) then incr differs)
        clean;
      Alcotest.(check int) "exactly one value bit-flipped" 1 !differs)

(* --- a failed tier-up is contained ----------------------------------- *)

let tierup_builds outcome =
  Metrics.counter ~labels:[ ("tier", "1"); ("outcome", outcome) ] "taco_native_builds_total"

let no_child_left () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let build_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "taco_native_%d" (Unix.getpid ()))

(* A native SpGEMM that runs for milliseconds at -O0, so a few dozen
   requests take it past its break-even. *)
let hot_request () =
  spgemm_request ~backend:`Native
    (random_tensor 71 [| 300; 300 |] 0.05 F.csr)
    (random_tensor 72 [| 300; 300 |] 0.05 F.csr)

(* Serve [req] until [stop ()] (at most 60 s), then [after] more times;
   every response must be bit-identical to the first. *)
let serve_until ?(after = 20) svc req stop =
  let first = (eval_ok svc req).Service.tensor in
  let same () =
    if not (tensors_bit_identical first (eval_ok svc req).Service.tensor) then
      Alcotest.fail "a response diverged from the first"
  in
  let deadline = Unix.gettimeofday () +. 60. in
  while (not (stop ())) && Unix.gettimeofday () < deadline do
    same ()
  done;
  Alcotest.(check bool) "stop condition reached" true (stop ());
  for _ = 1 to after do
    same ()
  done

let with_native_metrics f =
  if not (Native.available ()) then print_endline "  [skipped: no C compiler]"
  else begin
    Metrics.enable ();
    Compile.cache_clear ();
    Fun.protect ~finally:Metrics.disable f
  end

(* One native worker, parked on a [serve.pipeline] delay while the queue
   fills past 3/4 of its depth with a warm SpGEMM shape: every answer
   keeps the warm answer's bits, and the burst neither misses the
   compile cache nor runs cc. *)
let test_overload_builds_nothing () =
  with_native_metrics @@ fun () ->
  let b = random_tensor 318 [| 24; 24 |] 0.2 F.csr in
  let c = random_tensor 319 [| 24; 24 |] 0.2 F.csr in
  let req = spgemm_request ~backend:`Native b c in
  let queue_depth = 16 in
  with_service ~domains:1 ~queue_depth (fun svc ->
      let warm = (eval_ok svc req).Service.tensor in
      let misses0 = (Compile.cache_stats ()).Compile.misses in
      let cc0 = Metrics.counter "taco_native_cc_total" in
      let submit () =
        match Service.submit svc req with
        | Ok t -> t
        | Error d -> Alcotest.fail (Diag.to_string d)
      in
      let tickets =
        with_fault ~seed:33 [ Fault.rule ~max_fires:1 "serve.pipeline" (Fault.Delay 200) ] (fun () ->
            let parked = submit () in
            while Fault.fires "serve.pipeline" = 0 do
              Unix.sleepf 0.001
            done;
            parked :: List.init queue_depth (fun _ -> submit ()))
      in
      List.iter
        (fun t ->
          Alcotest.(check bool) "answer bit-identical to the warm one" true
            (tensors_bit_identical warm (await_ok t).Service.tensor))
        tickets;
      Alcotest.(check bool) "the queue filled past 3/4 of its depth" true
        (4 * (Service.stats svc).Service.peak_queue > 3 * queue_depth);
      Alcotest.(check int) "no compile-cache miss" misses0 (Compile.cache_stats ()).Compile.misses;
      Alcotest.(check int) "no cc run" cc0 (Metrics.counter "taco_native_cc_total"))

(* Under a crash or a corruption at [native.tierup], requests keep their
   bits, the kernel stays on tier 0 (no tier-1 build succeeds), the
   failure is counted once and never retried, nothing is downgraded, and
   shutdown leaves no child process and no build directory. *)
let test_tierup_fault action () =
  with_native_metrics @@ fun () ->
  let failed0 = tierup_builds "failed" and ok0 = tierup_builds "ok" in
  let req = hot_request () in
  with_fault ~seed:29 [ Fault.rule "native.tierup" action ] (fun () ->
      with_service (fun svc ->
          serve_until svc req (fun () -> tierup_builds "failed" > failed0);
          Alcotest.(check int) "the tier-up failed once" (failed0 + 1) (tierup_builds "failed");
          Alcotest.(check int) "no tier-1 build succeeded" ok0 (tierup_builds "ok");
          Alcotest.(check int) "the fault fired once: no retry" 1 (Fault.fires "native.tierup");
          Alcotest.(check int) "no downgrade" 0 (Service.stats svc).Service.backend_downgraded));
  Alcotest.(check bool) "no child left to reap" true (no_child_left ());
  Alcotest.(check bool) "build directory removed" false (Sys.file_exists (build_dir ()))

(* Shutdown kills and reaps a tier-up still compiling (counted as a
   failed build). The zero-length delay only marks the moment the
   tier-up starts; the tier-1 compile outlasts the shutdown that follows. *)
let test_shutdown_reaps_tierup () =
  with_native_metrics @@ fun () ->
  let failed0 = tierup_builds "failed" in
  let req = hot_request () in
  with_fault ~seed:31 [ Fault.rule "native.tierup" (Fault.Delay 0) ] (fun () ->
      with_service (fun svc ->
          serve_until ~after:0 svc req (fun () -> Fault.fires "native.tierup" > 0)));
  Alcotest.(check int) "the in-flight tier-up was killed" (failed0 + 1) (tierup_builds "failed");
  Alcotest.(check bool) "no child left to reap" true (no_child_left ());
  Alcotest.(check bool) "build directory removed" false (Sys.file_exists (build_dir ()))

let () =
  Alcotest.run "chaos"
    [
      ( "supervision",
        [
          Alcotest.test_case "crashed worker replaced, job retried" `Quick test_worker_crash_replaced;
          Alcotest.test_case "two-strike poison pill quarantined" `Quick test_poison_quarantined;
          Alcotest.test_case "poison request in a batch, batch-mates complete" `Quick
            test_poison_in_batch;
          Alcotest.test_case "compile fault contained to its request" `Quick test_compile_fault_contained;
        ] );
      ( "threads",
        (* The supervision cases on a pool whose workers are threads of
           this domain: with no budget permit, none has a domain. *)
        List.map
          (fun (name, f) -> Alcotest.test_case name `Quick (fun () -> with_budget 0 f))
          [
            ("crashed worker replaced, job retried", test_worker_crash_replaced);
            ("two-strike poison pill quarantined", test_poison_quarantined);
            ("poison request in a batch, batch-mates complete", test_poison_in_batch);
          ] );
      ( "deadlines",
        [
          Alcotest.test_case "injected stall trips the deadline" `Quick test_delay_past_deadline;
          Alcotest.test_case "watchdog cancels running kernels" `Quick test_watchdog_cancels;
        ] );
      ( "resources",
        [
          Alcotest.test_case "memory budget rejects before allocating" `Quick test_mem_budget;
          Alcotest.test_case "overload rejects with a hint" `Quick test_overload_rejects;
          Alcotest.test_case "overload builds nothing for a warm shape" `Quick
            test_overload_builds_nothing;
        ] );
      ( "integrity",
        [ Alcotest.test_case "injected corruption is detectable" `Quick test_corrupt_detected ] );
      ( "tier-up",
        [
          Alcotest.test_case "crashed tier-up stays on tier 0" `Quick
            (test_tierup_fault Fault.Crash);
          Alcotest.test_case "corrupted tier-up stays on tier 0" `Quick
            (test_tierup_fault Fault.Corrupt);
          Alcotest.test_case "shutdown reaps an in-flight tier-up" `Quick
            test_shutdown_reaps_tierup;
        ] );
    ]
