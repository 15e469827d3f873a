(* Tests for the observability layer: the Trace span buffer
   (including the disabled-is-free discipline), Exec.Compile cache
   accounting (hits/misses/entries/evictions across optimizer configs,
   flags and backends, cache_clear), FIFO eviction on a bounded Memo,
   and the work counters of profiled kernels on both backends. *)

open Taco_ir
module Imp = Taco_lower.Imp
module Opt = Taco_lower.Opt
module Lower = Taco_lower.Lower
module Compile = Taco_exec.Compile
module Kernel = Taco_exec.Kernel
module T = Taco_tensor.Tensor
module Trace = Taco_support.Trace
module Metrics = Taco_support.Metrics
module Memo = Taco_support.Memo

let v n = Imp.Var n

let i n = Imp.Int_lit n

let kernel ?(params = []) ?(name = "t") body =
  { Imp.k_name = name; k_params = params; k_body = body }

(* A kernel the optimizer changes, so [~opt:Opt.none] and [~opt:Opt.all]
   compile to structurally different kernels and occupy distinct cache
   entries. *)
let foldable name =
  kernel ~name
    [
      Imp.Decl (Imp.Int, "x", Imp.Binop (Imp.Add, i 1, i 2));
      Imp.Decl (Imp.Int, "y", Imp.Binop (Imp.Mul, v "x", i 3));
    ]

(* ------------------------------------------------------------------ *)
(* Cache accounting                                                    *)
(* ------------------------------------------------------------------ *)

(* y(i) = B(i,j) * x(j) with B in CSR, as lowered (not yet optimized). *)
let spmv_lowered () =
  let open Helpers in
  let y = dense_vec_tv "y" and b = csr_tv "B" and x = dense_vec_tv "x" in
  let stmt =
    Index_notation.(
      assign y [ vi ] (sum vj (Mul (access b [ vi; vj ], access x [ vj ]))))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let info = get (Lower.lower ~name:"trace_cache_spmv" ~mode:Lower.Compute (Schedule.stmt sched)) in
  let bt = random_tensor 77 [| 40; 30 |] 0.2 Taco_tensor.Format.csr in
  let xt = random_tensor 78 [| 30 |] 1.0 Taco_tensor.Format.dense_vector in
  let run c =
    let yt = T.zero [| 40 |] Taco_tensor.Format.dense_vector in
    let args = Kernel.tensor_args y yt @ Kernel.tensor_args b bt @ Kernel.tensor_args x xt in
    ignore (Compile.run c ~args : string -> Compile.arg);
    Array.map Int64.bits_of_float (T.vals yt)
  in
  (info.Lower.kernel, run)

let test_cache_accounting_across_configs () =
  Compile.cache_clear ();
  let k = foldable "trace_cache_cfg" in
  let _ = Compile.compile ~opt:Opt.none k in
  let _ = Compile.compile ~opt:Opt.all k in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "distinct opt configs miss separately" 2 s.Compile.misses;
  Alcotest.(check int) "two entries" 2 s.Compile.entries;
  Alcotest.(check int) "no hits yet" 0 s.Compile.hits;
  let _ = Compile.compile ~opt:Opt.none k in
  let _ = Compile.compile ~opt:Opt.all k in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "both configs hit on recompile" 2 s.Compile.hits;
  Alcotest.(check int) "still two entries" 2 s.Compile.entries;
  Alcotest.(check int) "no evictions at default capacity" 0 s.Compile.evictions;
  (* One lowered kernel under every input the key covers: each
     combination is its own entry, hits on recompile, and runs
     bit-identical to an uncached compile under the same settings. *)
  Compile.cache_clear ();
  let k, run = spmv_lowered () in
  let grid =
    List.concat_map
      (fun opt ->
        List.concat_map
          (fun profile -> List.map (fun backend -> (opt, profile, backend)) [ `Closure; `Native ])
          [ false; true ])
      [ Opt.none; Opt.all ]
  in
  let compile ?cache (opt, profile, backend) = Compile.compile ?cache ~opt ~profile ~backend k in
  List.iter (fun cfg -> ignore (compile cfg : Compile.compiled)) grid;
  let n = List.length grid in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "every combination misses once" n s.Compile.misses;
  Alcotest.(check int) "every combination is its own entry" n s.Compile.entries;
  List.iter
    (fun cfg ->
      let cached = compile cfg in
      Alcotest.(check bool) "cached run is bit-identical to an uncached compile" true
        (run cached = run (compile ~cache:false cfg)))
    grid;
  let s = Compile.cache_stats () in
  Alcotest.(check int) "every combination hits on recompile" n s.Compile.hits;
  Alcotest.(check int) "no new entries" n s.Compile.entries

(* The key is the kernel as lowered: two kernels that optimize to the
   same structure are still two entries. *)
let test_cache_keyed_before_optimizer () =
  Compile.cache_clear ();
  let k1 = foldable "trace_cache_src" in
  let k2 =
    kernel ~name:"trace_cache_src"
      [ Imp.Decl (Imp.Int, "x", i 3); Imp.Decl (Imp.Int, "y", Imp.Binop (Imp.Mul, v "x", i 3)) ]
  in
  let c1 = Compile.compile k1 and c2 = Compile.compile k2 in
  Alcotest.(check bool) "both optimize to the same kernel" true
    (Compile.kernel c1 = Compile.kernel c2);
  let s = Compile.cache_stats () in
  Alcotest.(check int) "two entries" 2 s.Compile.entries;
  Alcotest.(check int) "two misses" 2 s.Compile.misses

let test_cache_clear_resets_accounting () =
  Compile.cache_clear ();
  let k = foldable "trace_cache_clear" in
  let _ = Compile.compile k in
  let _ = Compile.compile k in
  Compile.cache_clear ();
  let s = Compile.cache_stats () in
  Alcotest.(check int) "cleared hits" 0 s.Compile.hits;
  Alcotest.(check int) "cleared misses" 0 s.Compile.misses;
  Alcotest.(check int) "cleared entries" 0 s.Compile.entries;
  Alcotest.(check int) "cleared evictions" 0 s.Compile.evictions;
  let _ = Compile.compile k in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "recompile after clear misses again" 1 s.Compile.misses

(* Eviction policy, on a capacity-2 table of the same kind as the
   compile cache (whose 512-entry bound is not a knob). *)
let test_cache_eviction_fifo () =
  let memo = Memo.create ~name:"trace_evict" ~capacity:2 in
  let compile name =
    ignore
      (Memo.find_or_build memo name (fun () -> Compile.compile ~cache:false (foldable name))
        : Compile.compiled)
  in
  compile "k1";
  compile "k2";
  compile "k3";
  let s = Memo.stats memo in
  Alcotest.(check int) "capacity bounds entries" 2 s.Memo.entries;
  Alcotest.(check int) "oldest entry evicted" 1 s.Memo.evictions;
  (* k1 was inserted first, so it was the FIFO victim: recompiling it
     misses, while k3 (newest) still hits. *)
  compile "k3";
  Alcotest.(check int) "newest entry survives" 1 (Memo.stats memo).Memo.hits;
  compile "k1";
  Alcotest.(check int) "evicted entry misses" 4 (Memo.stats memo).Memo.misses

(* ------------------------------------------------------------------ *)
(* Trace buffer                                                        *)
(* ------------------------------------------------------------------ *)

(* [Fun.protect] so a failing assertion cannot leave tracing enabled for
   the rest of the suite. *)
let with_tracing f =
  Trace.clear ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
    f

let test_disabled_tracing_records_nothing () =
  Trace.disable ();
  Trace.clear ();
  (* Drive the instrumented pipeline end to end: optimizer, compile,
     run. None of it may touch the trace buffer while disabled. *)
  let k = foldable "trace_disabled" in
  let c = Compile.compile ~cache:false ~profile:true k in
  ignore (Compile.run c ~args:[] : string -> Compile.arg);
  Trace.with_span "should_not_record" (fun () -> ());
  Alcotest.(check int) "no events recorded while disabled" 0 (Trace.event_count ());
  Alcotest.(check int) "no open spans" 0 (Trace.open_spans ())

let test_span_balance_and_nesting () =
  with_tracing (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ());
          Alcotest.(check int) "outer still open inside" 1 (Trace.open_spans ()));
      Alcotest.(check int) "all spans closed" 0 (Trace.open_spans ());
      Alcotest.(check int) "two B/E pairs" 4 (Trace.event_count ());
      let json = Trace.to_chrome_json () in
      let has needle =
        let rec go i =
          i + String.length needle <= String.length json
          && (String.sub json i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "json has traceEvents" true (has "\"traceEvents\"");
      Alcotest.(check bool) "json has begin events" true (has "\"ph\":\"B\"");
      Alcotest.(check bool) "json has end events" true (has "\"ph\":\"E\""))

let test_span_closed_on_exception () =
  with_tracing (fun () ->
      (try Trace.with_span "raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "span closed despite exception" 0 (Trace.open_spans ());
      Alcotest.(check int) "B and E both recorded" 2 (Trace.event_count ()))

(* --- per-carrier spans ---------------------------------------------- *)

module Service = Taco_service.Service
module F = Taco_tensor.Format

(* The value of ["key":] in one exported event line: a string's
   contents or a bare number. *)
let json_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length line and m = String.length pat in
  let rec find i = if i + m > n then None else if String.sub line i m = pat then Some (i + m) else find (i + 1) in
  Option.map
    (fun j ->
      if line.[j] = '"' then String.sub line (j + 1) (String.index_from line (j + 1) '"' - j - 1)
      else
        let k = ref j in
        while !k < n && (line.[!k] = '-' || (line.[!k] >= '0' && line.[!k] <= '9')) do
          incr k
        done;
        String.sub line j (!k - j))
    (find 0)

(* A pool of two thread workers serves requests while the main thread,
   a third thread of the same domain, opens spans of its own under an
   id no request draws, yielding inside them. Every carrier pairs its
   own B/E events under its own tid, and every span carries the id of
   the request its carrier was serving: the main thread's all carry
   its id, the workers' never do, and a worker's nested spans carry
   their enclosing span's id. *)
let test_thread_carriers_pair_spans () =
  let open Helpers in
  with_budget 0 @@ fun () ->
  with_tracing @@ fun () ->
  let b = random_tensor 61 [| 30; 30 |] 0.1 F.csr in
  let c = random_tensor 62 [| 30; 30 |] 0.1 F.csr in
  let request ?(directives = []) expr =
    Service.request ~directives ~result_format:F.csr ~expr ~inputs:[ ("B", b); ("C", c) ] ()
  in
  let mix =
    [|
      request "A(i,j) = B(i,k) * C(k,j)"
        ~directives:
          [
            Service.Reorder ("k", "j");
            Service.Precompute { expr = "B(i,k) * C(k,j)"; over = [ "j" ]; workspace = "w" };
          ];
      request "A(i,j) = B(i,j) + C(i,j)";
    |]
  in
  let main_rid = 1_000_000_000 in
  let svc = Service.create ~domains:2 () in
  let tickets =
    Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
    let tickets =
      List.init 12 (fun q ->
          match Service.submit svc mix.(q mod 2) with
          | Ok t -> t
          | Error d -> Alcotest.fail (Taco_support.Diag.to_string d))
    in
    Trace.set_request_id (Some main_rid);
    while List.exists (fun t -> Service.poll t = None) tickets do
      Trace.with_span "main.outer" (fun () -> Trace.with_span "main.inner" Thread.yield)
    done;
    Trace.set_request_id None;
    tickets
  in
  List.iter
    (fun t ->
      match Service.poll t with
      | Some (Ok _) -> ()
      | Some (Error d) -> Alcotest.fail (Taco_support.Diag.to_string d)
      | None -> Alcotest.fail "unanswered request")
    tickets;
  let main_tid = string_of_int (Taco_support.Carrier.id ()) in
  let main_rid = string_of_int main_rid in
  let stacks = Hashtbl.create 8 in
  let stack tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
  let overlapped = ref 0 in
  String.split_on_char '\n' (Trace.to_chrome_json ())
  |> List.iter (fun line ->
         match (json_field line "ph", json_field line "tid", json_field line "name") with
         | Some "B", Some tid, Some name ->
             let rid = json_field line "rid" in
             if tid = main_tid then
               Alcotest.(check (option string)) ("main span " ^ name) (Some main_rid) rid
             else begin
               if rid = Some main_rid then Alcotest.failf "worker span %s carries the main id" name;
               (match stack tid with
               | (_, Some outer) :: _ when rid <> Some outer ->
                   Alcotest.failf "span %s on tid %s: rid %s inside a span of rid %s" name tid
                     (Option.value ~default:"none" rid) outer
               | _ -> ());
               if stack main_tid <> [] then incr overlapped
             end;
             Hashtbl.replace stacks tid ((name, rid) :: stack tid)
         | Some "E", Some tid, Some name -> (
             match stack tid with
             | (opened, _) :: rest when opened = name -> Hashtbl.replace stacks tid rest
             | (opened, _) :: _ -> Alcotest.failf "E %s closes %s on tid %s" name opened tid
             | [] -> Alcotest.failf "E %s with no open span on tid %s" name tid)
         | _ -> ());
  Hashtbl.iter
    (fun tid s -> if s <> [] then Alcotest.failf "tid %s leaves %d spans open" tid (List.length s))
    stacks;
  if Hashtbl.length stacks < 2 then Alcotest.fail "no worker span recorded";
  if !overlapped = 0 then Alcotest.fail "no worker span opened while the main thread had one open"

(* The compile cache counts in the metrics registry, the one store of
   process-wide counts. *)
let test_compile_emits_cache_counters () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      Compile.cache_clear ();
      let k = foldable "trace_compile_counters" in
      let _ = Compile.compile k in
      let _ = Compile.compile k in
      Alcotest.(check int) "one miss counted" 1 (Metrics.counter "taco_compile_cache_misses_total");
      Alcotest.(check int) "one hit counted" 1 (Metrics.counter "taco_compile_cache_hits_total"))

(* ------------------------------------------------------------------ *)
(* Profiled execution                                                  *)
(* ------------------------------------------------------------------ *)

let profiled_kernel () =
  kernel ~name:"trace_profiled"
    [
      Imp.Alloc (Imp.Float, "w", i 8);
      Imp.For
        ( "j",
          i 0,
          i 8,
          [ Imp.Store ("w", v "j", Imp.Float_lit 1.) ] );
    ]

(* The same counts on either backend: both run the kernel as rewritten
   by [Opt.profile]. Without a C compiler the native case downgrades to
   closures and checks those. *)
let test_profile_counters backend () =
  let c = Compile.compile ~cache:false ~profile:true ~backend (profiled_kernel ()) in
  if Taco_exec.Native.available () then
    Alcotest.(check bool) "runs on the requested backend" true (Compile.backend_of c = backend);
  ignore (Compile.run c ~args:[] : string -> Compile.arg);
  match Compile.profile_stats c with
  | None -> Alcotest.fail "profiled kernel reports no stats"
  | Some s ->
      Alcotest.(check int) "loop iterations" 8 s.Compile.iterations;
      Alcotest.(check int) "one allocation" 1 s.Compile.allocs;
      Alcotest.(check int) "allocated elements" 8 s.Compile.alloc_elems;
      Alcotest.(check int) "zeroed bytes (8 B/elem)" 64 s.Compile.zero_bytes;
      Alcotest.(check int) "stores counted" 8 s.Compile.scalar_ops;
      ignore (Compile.run c ~args:[] : string -> Compile.arg);
      (match Compile.profile_stats c with
      | None -> Alcotest.fail "stats vanished"
      | Some s2 ->
          Alcotest.(check int) "counters accumulate across runs" 16 s2.Compile.iterations);
      Compile.profile_reset c;
      (match Compile.profile_stats c with
      | None -> Alcotest.fail "stats vanished after reset"
      | Some s3 -> Alcotest.(check int) "reset zeroes counters" 0 s3.Compile.iterations)

let test_unprofiled_reports_none () =
  let c = Compile.compile ~cache:false (profiled_kernel ()) in
  ignore (Compile.run c ~args:[] : string -> Compile.arg);
  Alcotest.(check bool) "unprofiled kernel has no stats" true
    (Compile.profile_stats c = None)

let () =
  Alcotest.run "trace"
    [
      ( "cache",
        [
          Alcotest.test_case "accounting across opt configs" `Quick
            test_cache_accounting_across_configs;
          Alcotest.test_case "keyed on the kernel as lowered" `Quick
            test_cache_keyed_before_optimizer;
          Alcotest.test_case "cache_clear resets accounting" `Quick
            test_cache_clear_resets_accounting;
          Alcotest.test_case "FIFO eviction at capacity" `Quick test_cache_eviction_fifo;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled tracing records nothing" `Quick
            test_disabled_tracing_records_nothing;
          Alcotest.test_case "span balance and nesting" `Quick
            test_span_balance_and_nesting;
          Alcotest.test_case "span closed on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "compile emits cache counters" `Quick
            test_compile_emits_cache_counters;
          Alcotest.test_case "thread carriers pair their own spans" `Quick
            test_thread_carriers_pair_spans;
        ] );
      ( "profile",
        [
          Alcotest.test_case "profiled run counters" `Quick (test_profile_counters `Closure);
          Alcotest.test_case "profiled run counters (native)" `Quick
            (test_profile_counters `Native);
          Alcotest.test_case "unprofiled reports none" `Quick test_unprofiled_reports_none;
        ] );
    ]
