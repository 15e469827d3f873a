(* The concurrent evaluation service: correctness against a dense
   oracle, compile coalescing, backpressure, deadlines, shutdown
   draining and input validation. *)

open Helpers
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module Diag = Taco_support.Diag
module Compile = Taco_exec.Compile
module Service = Taco_service.Service
module Metrics = Taco_support.Metrics
module Fault = Taco_support.Faultinject
module Trace = Taco_support.Trace

let spgemm_request ?(directives = true) b c =
  Service.request
    ~directives:
      (if directives then
         [
           Service.Reorder ("k", "j");
           Service.Precompute { expr = "B(i,k) * C(k,j)"; over = [ "j" ]; workspace = "w" };
         ]
       else [])
    ~result_format:F.csr
    ~expr:"A(i,j) = B(i,k) * C(k,j)"
    ~inputs:[ ("B", b); ("C", c) ]
    ()

let dense_matmul b c =
  let bd = T.to_dense b and cd = T.to_dense c in
  let m = (T.dims b).(0) and k = (T.dims b).(1) and n = (T.dims c).(1) in
  D.init [| m; n |] (fun idx ->
      let acc = ref 0. in
      for x = 0 to k - 1 do
        acc := !acc +. (D.get bd [| idx.(0); x |] *. D.get cd [| x; idx.(1) |])
      done;
      !acc)

let await_ok ticket =
  match Service.await ticket with
  | Ok r -> r
  | Error d -> Alcotest.fail (Diag.to_string d)

let with_service ?(domains = 2) ?(queue_depth = 64) f =
  let svc = Service.create ~domains ~queue_depth () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

(* --- evaluation matches a dense oracle ----------------------------- *)

let test_eval_oracle () =
  let b = random_tensor 1 [| 40; 40 |] 0.1 F.csr in
  let c = random_tensor 2 [| 40; 40 |] 0.1 F.csr in
  with_service (fun svc ->
      match Service.eval svc (spgemm_request b c) with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok r ->
          check_dense "service SpGEMM matches dense matmul" (dense_matmul b c)
            (T.to_dense r.Service.tensor))

let test_eval_auto () =
  (* The autoscheduler must find the workspace schedule by itself. *)
  let b = random_tensor 3 [| 30; 30 |] 0.1 F.csr in
  let c = random_tensor 4 [| 30; 30 |] 0.1 F.csr in
  with_service (fun svc ->
      let req =
        Service.request ~directives:[ Service.Auto ] ~result_format:F.csr
          ~expr:"A(i,j) = B(i,k) * C(k,j)"
          ~inputs:[ ("B", b); ("C", c) ]
          ()
      in
      match Service.eval svc req with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok r ->
          check_dense "autoscheduled SpGEMM matches dense matmul" (dense_matmul b c)
            (T.to_dense r.Service.tensor))

(* --- concurrent requests compile once per distinct structure ------- *)

let spadd_request b c =
  Service.request ~result_format:F.csr ~expr:"A(i,j) = B(i,j) + C(i,j)"
    ~inputs:[ ("B", b); ("C", c) ]
    ()

let mttkrp_request b c d =
  Service.request
    ~directives:
      [
        Service.Reorder ("j", "k");
        Service.Reorder ("j", "l");
        Service.Precompute { expr = "B(i,k,l) * C(l,j)"; over = [ "j" ]; workspace = "w" };
      ]
    ~expr:"A(i,j) = B(i,k,l) * C(l,j) * D(k,j)"
    ~inputs:[ ("B", b); ("C", c); ("D", d) ]
    ()

(* Submit every request at once on a fresh compile cache; the results'
   nnz in submission order, and the cache counters. *)
let submit_all ~domains requests =
  Compile.cache_clear ();
  let nnz =
    with_service ~domains (fun svc ->
        let tickets =
          List.map
            (fun req ->
              match Service.submit svc req with
              | Ok t -> t
              | Error d -> Alcotest.fail (Diag.to_string d))
            requests
        in
        List.map (fun t -> T.nnz (await_ok t).Service.tensor) tickets)
  in
  (nnz, Compile.cache_stats ())

let test_coalescing () =
  let b = random_tensor 5 [| 60; 60 |] 0.05 F.csr in
  let c = random_tensor 6 [| 60; 60 |] 0.05 F.csr in
  let nnz, cs = submit_all ~domains:4 (List.init 8 (fun _ -> spgemm_request b c)) in
  List.iter (Alcotest.(check int) "all responses agree on nnz" (List.hd nnz)) nnz;
  Alcotest.(check int) "one closure build for 8 identical requests" 1 cs.Compile.misses;
  Alcotest.(check int) "the other 7 were cache hits" 7 cs.Compile.hits;
  (* A mixed load of three structures (SpGEMM, SpAdd, MTTKRP),
     interleaved: each compiles once whatever the pool width, and the
     results do not depend on it. *)
  let t3 = random_tensor 15 [| 60; 8; 8 |] 0.05 (F.csf 3) in
  let fc = random_tensor 16 [| 8; 16 |] 1.0 F.dense_matrix in
  let fd = random_tensor 17 [| 8; 16 |] 1.0 F.dense_matrix in
  let mix = [| spgemm_request b c; spadd_request b c; mttkrp_request t3 fc fd |] in
  let requests = List.init 12 (fun q -> mix.(q mod 3)) in
  let runs = List.map (fun domains -> (domains, submit_all ~domains requests)) [ 1; 2; 4 ] in
  let _, (nnz1, _) = List.hd runs in
  List.iter
    (fun (domains, (nnz, cs)) ->
      Alcotest.(check int)
        (Printf.sprintf "three builds for three structures at %d domains" domains)
        3 cs.Compile.misses;
      Alcotest.(check (list int))
        (Printf.sprintf "result nnz at %d domains equal to 1 domain's" domains)
        nnz1 nnz)
    runs

(* --- batched native builds ------------------------------------------ *)

(* [req] with its result tensor renamed: a new kernel to compile. *)
let renamed result (req : Service.request) =
  { req with Service.expr = result ^ String.sub req.Service.expr 1 (String.length req.Service.expr - 1) }

(* Eight native requests for eight distinct kernels, submitted at once
   to one worker: what is queued when the worker dequeues compiles as
   one batch, so fewer C compiler runs than kernels serve them, and
   every result is bit-identical to the closure executor's. *)
let test_batched_native () =
  if not (Taco_exec.Native.available ()) then print_endline "  [skipped: no C compiler]"
  else begin
    let enabled = Metrics.enabled () in
    Metrics.enable ();
    Fun.protect ~finally:(fun () -> if not enabled then Metrics.disable ()) @@ fun () ->
    let b = random_tensor 23 [| 40; 40 |] 0.1 F.csr in
    let c = random_tensor 24 [| 40; 40 |] 0.1 F.csr in
    let t3 = random_tensor 25 [| 40; 8; 8 |] 0.05 (F.csf 3) in
    let fc = random_tensor 26 [| 8; 16 |] 1.0 F.dense_matrix in
    let fd = random_tensor 27 [| 8; 16 |] 1.0 F.dense_matrix in
    let mix = [| spgemm_request b c; spadd_request b c; mttkrp_request t3 fc fd |] in
    let requests =
      List.init 8 (fun q -> renamed (Printf.sprintf "Batch%d" q) mix.(q mod 3))
    in
    let builds0 = Metrics.counter "taco_native_builds_total" in
    let cc0 = Metrics.counter "taco_native_cc_total" in
    with_service ~domains:1 (fun svc ->
        let tickets =
          List.map
            (fun req ->
              match Service.submit svc { req with Service.backend = Some `Native } with
              | Ok t -> t
              | Error d -> Alcotest.fail (Diag.to_string d))
            requests
        in
        let native = List.map (fun t -> (await_ok t).Service.tensor) tickets in
        let builds = Metrics.counter "taco_native_builds_total" - builds0 in
        let cc = Metrics.counter "taco_native_cc_total" - cc0 in
        Alcotest.(check int) "one kernel build per request" 8 builds;
        Alcotest.(check bool)
          (Printf.sprintf "fewer cc runs (%d) than kernels (%d)" cc builds)
          true (cc < builds);
        Alcotest.(check int) "no downgrade" 0 (Service.stats svc).Service.backend_downgraded;
        List.iter2
          (fun req tensor ->
            match Service.eval svc { req with Service.backend = Some `Closure } with
            | Ok r ->
                if not (T.bit_identical r.Service.tensor tensor) then
                  Alcotest.failf "%s: native result diverges from closures" req.Service.expr
            | Error d -> Alcotest.fail (Diag.to_string d))
          requests native)
  end

(* --- thread carriers ------------------------------------------------- *)

module Budget = Taco_exec.Budget

(* [f] on a pool whose workers get no domain of their own: with the
   budget at zero permits every worker is a thread of this domain. *)
let on_threads f () = with_budget 0 f

let with_metrics f =
  let enabled = Metrics.enabled () in
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not enabled then Metrics.disable ()) f

let worker_domains_gauge () =
  List.assoc_opt ("taco_serve_worker_domains", []) (Metrics.snapshot ()).Metrics.gauges

(* Domain ids count up with every spawn: the id of a probe domain spawned
   after a pool, less the id of one spawned before it, less one, is the
   number of domains the pool spawned. *)
let probe_domain_id () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

(* A worker has a domain of its own only for a permit the budget
   grants: with none, a pool of two spawns no domain; with one permit,
   a one-worker pool still runs on its own domain. Shutdown returns the
   permit. *)
let test_domains_follow_permits () =
  with_metrics @@ fun () ->
  let b = random_tensor 71 [| 20; 20 |] 0.2 F.csr in
  let c = random_tensor 72 [| 20; 20 |] 0.2 F.csr in
  let serve ~permits ~domains =
    with_budget permits @@ fun () ->
    let live0 = Budget.live_extra () in
    let id0 = probe_domain_id () in
    with_service ~domains (fun svc ->
        ignore (await_ok (Result.get_ok (Service.submit svc (spadd_request b c))));
        let own = min permits domains in
        Alcotest.(check int)
          (Printf.sprintf "%d permits, %d workers: domains held" permits domains)
          own
          (Budget.live_extra () - live0);
        Alcotest.(check (option (float 0.)))
          (Printf.sprintf "%d permits, %d workers: worker_domains gauge" permits domains)
          (Some (float_of_int own)) (worker_domains_gauge ()));
    Alcotest.(check int)
      (Printf.sprintf "%d permits, %d workers: domains spawned" permits domains)
      (min permits domains)
      (probe_domain_id () - id0 - 1);
    Alcotest.(check int) "shutdown returns the permits" live0 (Budget.live_extra ());
    Alcotest.(check (option (float 0.))) "the gauge reads 0 after shutdown" (Some 0.)
      (worker_domains_gauge ())
  in
  serve ~permits:0 ~domains:2;
  serve ~permits:1 ~domains:1;
  serve ~permits:1 ~domains:3

(* Eight native requests for eight distinct kernels, submitted to a
   one-worker thread pool before the first answer is awaited: the
   worker, a thread of this domain, runs only once this thread blocks,
   and then takes the eight as one batch — one cc process for eight
   kernel builds. *)
let test_thread_pool_one_cc () =
  if not (Taco_exec.Native.available ()) then print_endline "  [skipped: no C compiler]"
  else
    with_budget 0 @@ fun () ->
    with_metrics @@ fun () ->
    let b = random_tensor 73 [| 40; 40 |] 0.1 F.csr in
    let c = random_tensor 74 [| 40; 40 |] 0.1 F.csr in
    let t3 = random_tensor 75 [| 40; 8; 8 |] 0.05 (F.csf 3) in
    let fc = random_tensor 76 [| 8; 16 |] 1.0 F.dense_matrix in
    let fd = random_tensor 77 [| 8; 16 |] 1.0 F.dense_matrix in
    let mix = [| spgemm_request b c; spadd_request b c; mttkrp_request t3 fc fd |] in
    let requests =
      List.init 8 (fun q ->
          { (renamed (Printf.sprintf "Thread%d" q) mix.(q mod 3)) with Service.backend = Some `Native })
    in
    let builds0 = Metrics.counter "taco_native_builds_total" in
    let cc0 = Metrics.counter "taco_native_cc_total" in
    with_service ~domains:1 (fun svc ->
        let tickets = List.map (fun req -> Result.get_ok (Service.submit svc req)) requests in
        List.iter (fun t -> ignore (await_ok t)) tickets;
        Alcotest.(check int) "eight kernel builds" 8
          (Metrics.counter "taco_native_builds_total" - builds0);
        Alcotest.(check int) "one cc process" 1 (Metrics.counter "taco_native_cc_total" - cc0);
        Alcotest.(check int) "no downgrade" 0 (Service.stats svc).Service.backend_downgraded)

(* A closed loop on a one-worker thread pool: the client keeps four
   requests outstanding and submits a new one (a new kernel) after
   each answer. The worker yields after each answer, so the refill is
   queued before it dequeues again, and misses still share cc
   processes: fewer cc runs than kernels. *)
let test_thread_pool_closed_loop () =
  if not (Taco_exec.Native.available ()) then print_endline "  [skipped: no C compiler]"
  else
    with_budget 0 @@ fun () ->
    with_metrics @@ fun () ->
    let b = random_tensor 78 [| 30; 30 |] 0.1 F.csr in
    let c = random_tensor 79 [| 30; 30 |] 0.1 F.csr in
    let total = 24 and outstanding = 4 in
    let request q =
      { (renamed (Printf.sprintf "Loop%d" q) (spadd_request b c)) with Service.backend = Some `Native }
    in
    let builds0 = Metrics.counter "taco_native_builds_total" in
    let cc0 = Metrics.counter "taco_native_cc_total" in
    with_service ~domains:1 (fun svc ->
        let submit q = Result.get_ok (Service.submit svc (request q)) in
        let rec loop next = function
          | [] -> ()
          | t :: rest ->
              ignore (await_ok t);
              if next < total then loop (next + 1) (rest @ [ submit next ]) else loop next rest
        in
        loop outstanding (List.init outstanding submit));
    let builds = Metrics.counter "taco_native_builds_total" - builds0 in
    let cc = Metrics.counter "taco_native_cc_total" - cc0 in
    Alcotest.(check int) "one kernel build per request" total builds;
    if cc >= builds then Alcotest.failf "%d cc runs for %d kernels: batches of one" cc builds

(* A request whose kernel the compile cache holds is answered before
   its batch-mates' native build: with that build held up 400 ms at the
   [native.build] fault point, the hit queued behind the miss completes
   well inside it. *)
let test_hit_before_batch_build () =
  if not (Taco_exec.Native.available ()) then print_endline "  [skipped: no C compiler]"
  else begin
    let b = random_tensor 33 [| 30; 30 |] 0.1 F.csr in
    let c = random_tensor 34 [| 30; 30 |] 0.1 F.csr in
    let native req = { req with Service.backend = Some `Native } in
    let hit = native (renamed "HitFirst" (spadd_request b c)) in
    let miss = native (renamed "MissLater" (spgemm_request b c)) in
    with_service ~domains:1 (fun svc ->
        let submit req =
          match Service.submit svc req with
          | Ok t -> t
          | Error d -> Alcotest.fail (Diag.to_string d)
        in
        ignore (await_ok (submit hit));
        Fault.configure ~seed:35
          [
            Fault.rule ~max_fires:1 "serve.pipeline" (Fault.Delay 200);
            Fault.rule ~max_fires:1 "native.build" (Fault.Delay 400);
          ];
        Fun.protect ~finally:Fault.disarm (fun () ->
            (* Park the worker in a blocker's front end, so the miss and
               the hit queue up and are dequeued as one batch. *)
            let blocker = submit hit in
            while Fault.fires "serve.pipeline" = 0 do
              Unix.sleepf 0.001
            done;
            let m = submit miss in
            let h = submit hit in
            ignore (await_ok blocker);
            let ms r = Int64.to_float r.Service.run_ns /. 1e6 in
            let h = ms (await_ok h) and m = ms (await_ok m) in
            Alcotest.(check int) "the miss's build was held up" 1 (Fault.fires "native.build");
            if m < 400. then Alcotest.failf "the miss took %.1f ms, inside its held-up build" m;
            if h >= 400. then Alcotest.failf "the hit waited %.1f ms for the miss's build" h))
  end

(* --- the front cache ------------------------------------------------ *)

(* Two requests of one shape: the second is served by the front cache,
   yet its "compile" span and its [compile.build] fault carry its own
   request id, not the one its cached statement was lowered under, and
   the [serve.pipeline] fault point fires for both. *)
let test_front_hit_keeps_rid () =
  let b = random_tensor 51 [| 30; 30 |] 0.1 F.csr in
  let c = random_tensor 52 [| 30; 30 |] 0.1 F.csr in
  Compile.cache_clear ();
  Service.front_cache_clear ();
  Trace.clear ();
  Trace.enable ();
  Fault.configure ~seed:51
    [ Fault.rule "serve.pipeline" (Fault.Delay 0); Fault.rule "compile.build" (Fault.Delay 0) ];
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Trace.disable ();
      Trace.clear ())
    (fun () ->
      with_service ~domains:1 (fun svc ->
          for _ = 1 to 2 do
            match Service.eval svc (spgemm_request b c) with
            | Ok _ -> ()
            | Error d -> Alcotest.fail (Diag.to_string d)
          done);
      let fs = Service.front_cache_stats () in
      Alcotest.(check (pair int int)) "one front miss, then one hit" (1, 1)
        (fs.Taco_support.Memo.misses, fs.Taco_support.Memo.hits);
      Alcotest.(check int) "serve.pipeline fired for both requests" 2 (Fault.fires "serve.pipeline");
      let rids = trace_rids "serve.wait" in
      Alcotest.(check int) "two requests" 2 (List.length (List.sort_uniq compare rids));
      Alcotest.(check (list int)) "each compile span carries its request's id" rids
        (trace_rids "compile");
      let fault_rids point =
        trace_rids ~having:("point", point) "fault.fire"
      in
      Alcotest.(check (list int)) "each compile.build fault carries its request's id" rids
        (fault_rids "compile.build");
      Alcotest.(check (list int)) "each serve.pipeline fault carries its request's id" rids
        (fault_rids "serve.pipeline"))

(* --- backpressure --------------------------------------------------- *)

let test_backpressure () =
  let b = random_tensor 7 [| 80; 80 |] 0.05 F.csr in
  let c = random_tensor 8 [| 80; 80 |] 0.05 F.csr in
  with_service ~domains:1 ~queue_depth:1 (fun svc ->
      (* A burst of cheap-to-submit, expensive-to-run requests into a
         depth-1 queue behind one worker: admission control must trip. *)
      let accepted = ref [] and rejected = ref 0 in
      for _ = 1 to 16 do
        match Service.submit svc (spgemm_request b c) with
        | Ok t -> accepted := t :: !accepted
        | Error d ->
            Alcotest.(check string)
              "rejections carry E_SERVE_QUEUE_FULL" "E_SERVE_QUEUE_FULL" d.Diag.code;
            Alcotest.(check string) "rejections are stage serve" "serve"
              (Diag.stage_name d.Diag.stage);
            incr rejected
      done;
      List.iter (fun t -> ignore (await_ok t)) !accepted;
      Alcotest.(check bool) "at least one submission was rejected" true (!rejected > 0);
      let s = Service.stats svc in
      Alcotest.(check int) "rejected stat matches" !rejected s.Service.rejected;
      Alcotest.(check int) "accepted all completed" (List.length !accepted)
        s.Service.completed)

(* --- deadlines ------------------------------------------------------ *)

let test_deadline () =
  let b = random_tensor 9 [| 60; 60 |] 0.05 F.csr in
  let c = random_tensor 10 [| 60; 60 |] 0.05 F.csr in
  with_service ~domains:1 (fun svc ->
      (* Park a normal request so the probe sits in the queue past its
         already-expired deadline. *)
      let blocker = Service.submit svc (spgemm_request b c) in
      (match Service.eval svc ~deadline_ms:0 (spgemm_request b c) with
      | Ok _ -> Alcotest.fail "deadline 0 must not succeed"
      | Error d ->
          Alcotest.(check string) "deadline code" "E_SERVE_DEADLINE" d.Diag.code);
      (match blocker with
      | Ok t -> ignore (await_ok t)
      | Error d -> Alcotest.fail (Diag.to_string d));
      let s = Service.stats svc in
      Alcotest.(check int) "timed_out counted" 1 s.Service.timed_out)

(* --- shutdown drains ------------------------------------------------ *)

let test_shutdown_drains () =
  let b = random_tensor 11 [| 50; 50 |] 0.05 F.csr in
  let c = random_tensor 12 [| 50; 50 |] 0.05 F.csr in
  let svc = Service.create ~domains:2 ~queue_depth:64 () in
  let tickets =
    List.init 6 (fun _ ->
        match Service.submit svc (spgemm_request b c) with
        | Ok t -> t
        | Error d -> Alcotest.fail (Diag.to_string d))
  in
  Service.shutdown svc;
  (* Every ticket is resolved by the time shutdown returns... *)
  List.iter
    (fun t ->
      match Service.poll t with
      | Some (Ok _) -> ()
      | Some (Error d) -> Alcotest.fail (Diag.to_string d)
      | None -> Alcotest.fail "ticket unresolved after shutdown")
    tickets;
  let s = Service.stats svc in
  Alcotest.(check int) "all six completed" 6 s.Service.completed;
  (* ... and later submissions are refused. *)
  (match Service.submit svc (spgemm_request b c) with
  | Ok _ -> Alcotest.fail "submit after shutdown must be rejected"
  | Error d ->
      Alcotest.(check string) "shutdown code" "E_SERVE_SHUTDOWN" d.Diag.code);
  (* Idempotent. *)
  Service.shutdown svc

(* --- the stats record and the registry agree ------------------------- *)

(* One service answers completed, timed-out, failed, rejected and
   crash-retried requests, and a poison pill. Every counter of its
   stats then equals its registry series, and the executor's run counts
   in [Compile.backend_stats] match the service's backend counts. *)
let test_stats_agree_with_registry () =
  let b = random_tensor 41 [| 30; 30 |] 0.1 F.csr in
  let c = random_tensor 42 [| 30; 30 |] 0.1 F.csr in
  let enabled = Metrics.enabled () in
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not enabled then Metrics.disable ()) @@ fun () ->
  Compile.cache_clear ();
  let svc = Service.create ~domains:1 ~queue_depth:3 () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let submit ?deadline_ms req =
    match Service.submit svc ?deadline_ms req with
    | Ok t -> t
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let refused code what r =
    match r with
    | Ok _ -> Alcotest.failf "%s: expected %s" what code
    | Error d -> Alcotest.(check string) what code d.Diag.code
  in
  let with_faults rules f =
    Fault.configure ~seed:43 rules;
    Fun.protect ~finally:Fault.disarm f
  in
  ignore (await_ok (submit (spgemm_request b c)));
  ignore (await_ok (submit { (spadd_request b c) with Service.backend = Some `Native }));
  (match Service.eval svc (Service.request ~expr:"A(i,j) = B(i,k * C(k,j)" ~inputs:[] ()) with
  | Ok _ -> Alcotest.fail "malformed expression must fail"
  | Error _ -> ());
  (* Park the worker in a blocker: of the three queued behind it the
     third expires in the queue, and a fourth finds the queue full. *)
  with_faults [ Fault.rule ~max_fires:1 "serve.pipeline" (Fault.Delay 200) ] (fun () ->
      let blocker = submit (spgemm_request b c) in
      while Fault.fires "serve.pipeline" = 0 do
        Unix.sleepf 0.001
      done;
      let plain = submit (spgemm_request b c) in
      let second = submit (spgemm_request b c) in
      let expired = submit ~deadline_ms:0 (spgemm_request b c) in
      refused "E_SERVE_QUEUE_FULL" "a full queue refuses"
        (Service.submit svc (spgemm_request b c));
      List.iter (fun t -> ignore (await_ok t)) [ blocker; plain; second ];
      refused "E_SERVE_DEADLINE" "expired in the queue" (Service.await expired));
  with_faults [ Fault.rule ~max_fires:1 "serve.worker" Fault.Crash ] (fun () ->
      ignore (await_ok (submit (spgemm_request b c))));
  with_faults [ Fault.rule ~max_fires:2 "serve.worker" Fault.Crash ] (fun () ->
      refused "E_SERVE_POISON" "two strikes" (Service.eval svc (spadd_request b c)));
  refused "E_SERVE_POISON" "quarantined at admission" (Service.submit svc (spadd_request b c));
  let s = Service.stats svc in
  let requests outcome = Metrics.counter ~labels:[ ("outcome", outcome) ] "taco_serve_requests_total" in
  (* Requests the service ran on each backend: the _count of the run
     latency histogram. *)
  let runs backend =
    List.fold_left
      (fun acc ((name, labels), h) ->
        if name = "taco_serve_run_seconds" && List.assoc_opt "backend" labels = Some backend then
          acc + h.Metrics.h_count
        else acc)
      0 (Metrics.snapshot ()).Metrics.histograms
  in
  List.iter
    (fun (field, stat, series) ->
      Alcotest.(check int) (field ^ " equals its registry series") stat series)
    [
      ("submitted", s.Service.submitted, Metrics.counter "taco_serve_submitted_total");
      ("rejected", s.Service.rejected, requests "rejected");
      ("completed", s.Service.completed, requests "completed");
      ("timed_out", s.Service.timed_out, requests "timed_out");
      ("failed", s.Service.failed, requests "failed");
      ("crashed", s.Service.crashed, Metrics.counter "taco_serve_crashed_total");
      ("replaced", s.Service.replaced, Metrics.counter "taco_serve_replaced_total");
      ("quarantined", s.Service.quarantined, Metrics.counter "taco_serve_quarantined_total");
      ("exec_native", s.Service.exec_native, runs "native");
      ("exec_closure", s.Service.exec_closure, runs "closure" + runs "downgraded");
      ("backend_downgraded", s.Service.backend_downgraded, runs "downgraded");
    ];
  List.iter
    (fun (field, n) -> if n = 0 then Alcotest.failf "the campaign produced no %s request" field)
    [
      ("completed", s.Service.completed);
      ("timed_out", s.Service.timed_out);
      ("failed", s.Service.failed);
      ("rejected", s.Service.rejected);
      ("replaced", s.Service.replaced);
      ("quarantined", s.Service.quarantined);
    ];
  let bs = Compile.backend_stats () in
  List.iter
    (fun (field, stat, series) ->
      Alcotest.(check int) ("backend_stats." ^ field ^ " equals its registry series") stat series)
    [
      ( "native_builds",
        bs.Compile.native_builds,
        Metrics.counter ~labels:[ ("outcome", "ok") ] "taco_native_builds_total" );
      ( "native_runs",
        bs.Compile.native_runs,
        Metrics.counter ~labels:[ ("backend", "native") ] "taco_exec_runs_total" );
      ( "closure_runs",
        bs.Compile.closure_runs,
        Metrics.counter ~labels:[ ("backend", "closure") ] "taco_exec_runs_total" );
      ("downgrades", bs.Compile.downgrades, Metrics.counter "taco_exec_downgrades_total");
    ];
  Alcotest.(check int) "one native run per native request" s.Service.exec_native
    bs.Compile.native_runs;
  Alcotest.(check int) "one closure run per closure request" s.Service.exec_closure
    bs.Compile.closure_runs;
  Alcotest.(check int) "one downgrade per downgraded request" s.Service.backend_downgraded
    bs.Compile.downgrades

(* --- input validation ----------------------------------------------- *)

let test_malformed_expr () =
  with_service (fun svc ->
      let req =
        Service.request ~expr:"A(i,j) = B(i,k * C(k,j)" ~inputs:[] ()
      in
      match Service.eval svc req with
      | Ok _ -> Alcotest.fail "malformed expression must fail"
      | Error d ->
          Alcotest.(check string) "parse stage" "parse" (Diag.stage_name d.Diag.stage))

let test_missing_operand () =
  let b = random_tensor 13 [| 20; 20 |] 0.1 F.csr in
  with_service (fun svc ->
      let req =
        Service.request ~expr:"A(i,j) = B(i,j) + C(i,j)" ~inputs:[ ("B", b) ] ()
      in
      match Service.eval svc req with
      | Ok _ -> Alcotest.fail "missing operand must fail"
      | Error d ->
          Alcotest.(check string) "input code" "E_SERVE_INPUT" d.Diag.code;
          Alcotest.(check (option string))
            "names the missing tensor" (Some "C")
            (List.assoc_opt "tensor" d.Diag.context))

let test_order_mismatch () =
  let b = random_tensor 14 [| 20 |] 0.2 (F.dense 1) in
  with_service (fun svc ->
      let req =
        Service.request ~expr:"A(i,j) = B(i,j) * 2" ~inputs:[ ("B", b) ] ()
      in
      match Service.eval svc req with
      | Ok _ -> Alcotest.fail "order mismatch must fail"
      | Error d -> Alcotest.(check string) "input code" "E_SERVE_INPUT" d.Diag.code)

let () =
  Alcotest.run "service"
    [
      ( "eval",
        [
          Alcotest.test_case "spgemm matches dense oracle" `Quick test_eval_oracle;
          Alcotest.test_case "autoscheduled spgemm" `Quick test_eval_auto;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "identical requests compile once" `Quick test_coalescing;
          Alcotest.test_case "queued native misses share a cc run" `Quick test_batched_native;
          Alcotest.test_case "a cache hit skips its batch's build" `Quick
            test_hit_before_batch_build;
          Alcotest.test_case "a front-cache hit keeps its request id" `Quick
            test_front_hit_keeps_rid;
          Alcotest.test_case "queue-full backpressure" `Quick test_backpressure;
          Alcotest.test_case "expired deadline" `Quick test_deadline;
          Alcotest.test_case "shutdown drains and refuses" `Quick test_shutdown_drains;
        ] );
      ( "accounting",
        [ Alcotest.test_case "stats agree with the registry" `Quick test_stats_agree_with_registry ]
      );
      ( "threads",
        [
          Alcotest.test_case "domains follow budget permits" `Quick test_domains_follow_permits;
          Alcotest.test_case "eight misses, one cc" `Quick test_thread_pool_one_cc;
          Alcotest.test_case "a closed loop still batches" `Quick test_thread_pool_closed_loop;
          Alcotest.test_case "shutdown drains and refuses" `Quick (on_threads test_shutdown_drains);
          Alcotest.test_case "stats agree with the registry" `Quick
            (on_threads test_stats_agree_with_registry);
        ] );
      ( "validation",
        [
          Alcotest.test_case "malformed expression" `Quick test_malformed_expr;
          Alcotest.test_case "missing operand" `Quick test_missing_operand;
          Alcotest.test_case "order mismatch" `Quick test_order_mismatch;
        ] );
    ]
