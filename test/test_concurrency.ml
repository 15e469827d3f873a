(* Domain-safety of the shared infrastructure: the compiled-kernel cache
   under multi-domain stress, single-flight memo tables, tracing from
   concurrent domains, and the domain budget under a worker pool that
   runs a parallel kernel. *)

open Helpers
open Taco
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module F = Taco_tensor.Format

(* --- the compiled-kernel cache under concurrent compilation --------- *)

(* Two schedules with distinct kernel structures. *)
let sched_copy () =
  let b = csr_tv "B" in
  let a = dense_mat_tv "A" in
  let stmt = Index_notation.assign a [ vi; vj ] (Index_notation.access b [ vi; vj ]) in
  get (Schedule.of_index_notation stmt)

let sched_scale () =
  let b = csr_tv "B" in
  let a = dense_mat_tv "A" in
  let stmt =
    Index_notation.assign a [ vi; vj ]
      (Index_notation.Mul (Index_notation.access b [ vi; vj ], Index_notation.Literal 2.))
  in
  get (Schedule.of_index_notation stmt)

let test_cache_stress () =
  Compile.cache_clear ();
  let rounds = 25 in
  let spawn sched =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          match compile ~name:"stress" sched with
          | Ok _ -> ()
          | Error d -> failwith (Taco_support.Diag.to_string d)
        done)
  in
  (* Four domains, two alternating over each structure: every compile
     races against same-structure and different-structure compiles. *)
  let ws =
    [ spawn (sched_copy ()); spawn (sched_scale ()); spawn (sched_copy ());
      spawn (sched_scale ()) ]
  in
  List.iter Domain.join ws;
  let cs = Compile.cache_stats () in
  Alcotest.(check int) "two closure builds for two structures" 2 cs.Compile.misses;
  Alcotest.(check int) "two cache entries" 2 cs.Compile.entries;
  Alcotest.(check int) "every other lookup hit" ((4 * rounds) - 2) cs.Compile.hits;
  Alcotest.(check int) "no evictions" 0 cs.Compile.evictions

let test_cache_stress_results () =
  (* Concurrently compiled kernels must also run correctly on their own
     domains. *)
  Compile.cache_clear ();
  let bt = random_tensor 77 [| 12; 9 |] 0.3 F.csr in
  let b = csr_tv "B" in
  let expected = T.to_dense bt in
  let worker () =
    Domain.spawn (fun () ->
        List.init 10 (fun _ ->
            let c = Result.get_ok (compile ~name:"stress" (sched_copy ())) in
            let r = Result.get_ok (run c ~inputs:[ (b, bt) ]) in
            T.to_dense r))
  in
  let results = List.concat_map Domain.join [ worker (); worker (); worker () ] in
  List.iter (fun d -> check_dense "concurrent runs agree" expected d) results

(* --- the plan and statistics memos under concurrent requests -------- *)

(* Runs [f] on two domains released at the same moment. *)
let together f =
  let arrived = Atomic.make 0 in
  let spawn () =
    Domain.spawn (fun () ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          Domain.cpu_relax ()
        done;
        f ())
  in
  let a = spawn () and b = spawn () in
  (Domain.join a, Domain.join b)

let test_plan_single_flight () =
  Autoschedule.cache_clear ();
  let b = csr_tv "B" and c = csr_tv "C" and a = dense_mat_tv "A" in
  let stmt =
    Index_notation.(
      assign a [ vi; vj ] (sum vk (Mul (access b [ vi; vk ], access c [ vk; vj ]))))
  in
  let stmt = Schedule.stmt (get (Schedule.of_index_notation stmt)) in
  let stats =
    [
      ("B", Stats.of_tensor (random_tensor 811 [| 100; 100 |] 0.05 F.csr));
      ("C", Stats.of_tensor (random_tensor 812 [| 100; 100 |] 0.05 F.csr));
    ]
  in
  let lowerable s = Result.map ignore (Lower.lower ~mode:Lower.Compute s) in
  let search () =
    get (Autoschedule.search ~stats ~key:"concurrency-plan" ~lowerable stmt)
  in
  let (p1, e1), (p2, e2) = together search in
  Alcotest.(check int) "exactly one search ran" 1
    (List.length (List.filter (fun e -> not e.Autoschedule.e_cache_hit) [ e1; e2 ]));
  Alcotest.(check bool) "both domains got that plan" true (p1 == p2);
  let cs = Autoschedule.cache_stats () in
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (cs.Memo.misses, cs.Memo.hits)

let test_stats_single_flight () =
  let t = random_tensor 813 [| 200_000; 4 |] 0.1 F.csr in
  let s1, s2 = together (fun () -> Stats.of_tensor_memo t) in
  Alcotest.(check bool) "exactly one collection, shared" true (s1 == s2)

(* --- tracing from two domains --------------------------------------- *)

let test_trace_two_domains () =
  Trace.enable ();
  Trace.clear ();
  Metrics.reset ();
  Metrics.enable ();
  let work label =
    Domain.spawn (fun () ->
        for _ = 1 to 20 do
          Trace.with_span label (fun () ->
              Trace.with_span (label ^ ".inner") (fun () -> Metrics.inc "conc_ticks_total"))
        done)
  in
  let a = work "conc.a" and b = work "conc.b" in
  Domain.join a;
  Domain.join b;
  Alcotest.(check int) "no span left open" 0 (Trace.open_spans ());
  Alcotest.(check int) "counter sums across domains" 40 (Metrics.counter "conc_ticks_total");
  Metrics.disable ();
  Metrics.reset ();
  (* The export must carry both domains' spans with their tids; the
     summary pairs B/E per domain without misnesting failures. *)
  let events = trace_events () in
  Alcotest.(check int) "export names traceEvents" 160 (List.length events);
  let begins name =
    List.length
      (List.filter
         (fun e -> event_str e "name" = Some name && event_str e "ph" = Some "B")
         events)
  in
  Alcotest.(check int) "20 begin events from domain a" 20 (begins "conc.a");
  Alcotest.(check int) "20 begin events from domain b" 20 (begins "conc.b");
  Alcotest.(check bool) "events carry tids" true
    (List.for_all (fun e -> match Json.field e "tid" with Some (Json.Int _) -> true | _ -> false) events);
  let summary = Trace.summary () in
  Alcotest.(check bool) "summary covers both spans" true
    (contains summary "conc.a" && contains summary "conc.b");
  Trace.clear ();
  Trace.disable ()

(* --- the domain budget bounds total live domains -------------------- *)

module Budget = Taco_exec.Budget
module Service = Taco_service.Service

let test_budget_bounds_oversubscription () =
  (* A worker pool holds one budget permit per worker while permits
     last; a parallel kernel executing inside the pool can only acquire
     what is left, so the process-wide count of extra domains never
     exceeds the capacity even when a request asks for 8 chunks. *)
  with_budget 3 @@ fun () ->
  Budget.reset_peak ();
  let svc = Service.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  Alcotest.(check int) "pool holds one permit per worker" 2 (Budget.live_extra ());
  let bt = random_tensor 601 [| 16; 8 |] 0.4 F.csr in
  let ct = random_tensor 602 [| 16; 8 |] 0.4 F.csr in
  let req =
    Service.request
      ~directives:[ Service.Parallelize "i" ]
      ~result_format:F.csr ~domains:8 ~expr:"A(i,j) = B(i,j) + C(i,j)"
      ~inputs:[ ("B", bt); ("C", ct) ]
      ()
  in
  (match Service.eval svc req with
  | Error d ->
      Alcotest.failf "parallel serve request failed: %s" (Taco_support.Diag.to_string d)
  | Ok r ->
      check_dense "parallel serve result"
        (T.to_dense (Taco_kernels.Spadd.merge_add bt ct))
        (T.to_dense r.Service.tensor));
  Alcotest.(check bool) "total extra domains never exceeded the budget" true
    (Budget.peak_extra () <= 3);
  Service.shutdown svc;
  Alcotest.(check int) "permits returned at shutdown" 0 (Budget.live_extra ())

let () =
  Alcotest.run "concurrency"
    [
      ( "compile-cache",
        [
          Alcotest.test_case "multi-domain stress, single-flight accounting" `Quick
            test_cache_stress;
          Alcotest.test_case "concurrent compile+run agree" `Quick
            test_cache_stress_results;
        ] );
      ( "memo",
        [
          Alcotest.test_case "two domains, one Auto plan search" `Quick test_plan_single_flight;
          Alcotest.test_case "two domains, one stats collection" `Quick test_stats_single_flight;
        ] );
      ("trace", [ Alcotest.test_case "two-domain tracing" `Quick test_trace_two_domains ]);
      ( "budget",
        [
          Alcotest.test_case "worker pool + parallel kernel stay within budget" `Quick
            test_budget_bounds_oversubscription;
        ] );
    ]
