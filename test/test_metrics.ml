(* Tests for the metrics registry: log-linear histogram quantile
   accuracy against the documented 1/16 relative-error bound, counter
   and histogram merging across concurrently recording domains, the
   Prometheus encoder on a deterministic recording (a golden string),
   the disabled-is-free discipline mirroring test_trace, the Trace
   span-close hook feeding stage histograms, and the Events JSONL sink
   round-trip through [set_path]. *)

module Metrics = Taco_support.Metrics
module Events = Taco_support.Events
module Json = Taco_support.Json
module Trace = Taco_support.Trace

(* [Fun.protect] so a failing assertion cannot leave the registry
   enabled (or populated) for the rest of the suite. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    f

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Quantile accuracy                                                   *)
(* ------------------------------------------------------------------ *)

(* The histogram guarantees every recorded value lands in a bucket whose
   width is at most 1/16 of its lower edge, and [quantile] interpolates
   within the resolved bucket — so the estimate must sit within one
   bucket width (~6.25% relative) of the true order statistic. We allow
   7% to absorb the interpolation offset at bucket edges. *)
let check_quantiles values =
  let n = Array.length values in
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let truth = float_of_int sorted.(rank - 1) in
      match Metrics.quantile_ns "acc_seconds" q with
      | None -> Alcotest.failf "no histogram recorded for q=%g" q
      | Some est ->
          let rel = Float.abs (est -. truth) /. Float.max truth 1. in
          if rel > 0.07 then
            Alcotest.failf "q=%g: estimate %.0f vs true %.0f (rel err %.4f > 0.07)" q est
              truth rel)
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_quantile_accuracy_uniform () =
  with_metrics (fun () ->
      (* Deterministic spread over ~4 decades: 1 us .. 10 ms. *)
      let prng = Taco_support.Prng.create 90210 in
      let values =
        Array.init 5000 (fun _ -> 1_000 + Taco_support.Prng.int prng 10_000_000)
      in
      Array.iter (fun v -> Metrics.observe_ns "acc_seconds" (Int64.of_int v)) values;
      check_quantiles values)

let test_quantile_accuracy_bimodal () =
  with_metrics (fun () ->
      (* A latency-like shape: a tight fast mode and a slow tail, the
         case where linear buckets would blow the error bound. *)
      let prng = Taco_support.Prng.create 777 in
      let values =
        Array.init 4000 (fun i ->
            if i mod 10 = 0 then 50_000_000 + Taco_support.Prng.int prng 50_000_000
            else 80_000 + Taco_support.Prng.int prng 20_000)
      in
      Array.iter (fun v -> Metrics.observe_ns "acc_seconds" (Int64.of_int v)) values;
      check_quantiles values)

let test_quantile_small_counts () =
  with_metrics (fun () ->
      Metrics.observe_ns "acc_seconds" 10L;
      (* One observation: every quantile resolves to its bucket. Value 10
         lands in the unit-width bucket [10,11), so estimates stay within
         one bucket width of the value. *)
      List.iter
        (fun q ->
          match Metrics.quantile_ns "acc_seconds" q with
          | None -> Alcotest.fail "single observation lost"
          | Some est ->
              Alcotest.(check bool)
                (Printf.sprintf "q=%g within unit bucket" q)
                true
                (est >= 10. && est <= 11.))
        [ 0.5; 0.99 ])

let test_quantile_empty_and_clamped () =
  with_metrics (fun () ->
      Alcotest.(check (option (float 0.)))
        "no series -> None" None
        (Metrics.quantile_ns "never_recorded" 0.5);
      Metrics.observe_ns "clamp_seconds" (-5L);
      (match Metrics.quantile_ns "clamp_seconds" 0.5 with
      | None -> Alcotest.fail "negative observation dropped instead of clamped"
      | Some est ->
          Alcotest.(check bool) "negative clamps to bucket 0" true (est >= 0. && est <= 1.)))

(* ------------------------------------------------------------------ *)
(* Cross-domain merge                                                  *)
(* ------------------------------------------------------------------ *)

(* Property: with D domains each incrementing a shared counter series
   and observing into a shared histogram series concurrently, the merged
   snapshot totals are exact — per-domain shards lose nothing. *)
let merge_prop counts =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      let domains =
        List.map
          (fun n ->
            Domain.spawn (fun () ->
                for i = 1 to n do
                  Metrics.inc ~labels:[ ("kind", "merge") ] "merge_total";
                  Metrics.observe_ns "merge_seconds" (Int64.of_int (i * 100))
                done))
          counts
      in
      List.iter Domain.join domains;
      let expected = List.fold_left ( + ) 0 counts in
      let snap = Metrics.snapshot () in
      let counter =
        match
          List.assoc_opt ("merge_total", [ ("kind", "merge") ]) snap.Metrics.counters
        with
        | Some v -> v
        | None -> 0
      in
      let hist_count =
        match List.assoc_opt ("merge_seconds", []) snap.Metrics.histograms with
        | Some h -> h.Metrics.h_count
        | None -> 0
      in
      counter = expected && hist_count = expected)

(* Threads of one domain (a service pool's thread workers) each record
   into a shard of their own: counters and histograms hammered from
   several threads at once — every thread creating series as it goes,
   so a switch can land inside a shard's insert — sum exactly. *)
let test_threads_of_one_domain_merge () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      let threads = 4 and rounds = 200 and keys = 50 in
      let work () =
        for r = 1 to rounds do
          for k = 0 to keys - 1 do
            let labels = [ ("key", string_of_int ((r * keys) + k)) ] in
            Metrics.inc ~labels "thread_total";
            Metrics.inc ~labels:[ ("kind", "shared") ] "thread_total";
            Metrics.observe_ns ~labels "thread_seconds" (Int64.of_int (k + 1))
          done;
          if r mod 16 = 0 then Thread.yield ()
        done
      in
      List.iter Thread.join (List.init threads (fun _ -> Thread.create work ()));
      let n = threads * rounds * keys in
      Alcotest.(check int) "every increment of the shared series" n
        (Metrics.counter ~labels:[ ("kind", "shared") ] "thread_total");
      Alcotest.(check int) "every increment of the per-key series" (2 * n)
        (Metrics.counter "thread_total");
      let observed =
        List.fold_left
          (fun acc ((name, _), h) ->
            if name = "thread_seconds" then acc + h.Metrics.h_count else acc)
          0 (Metrics.snapshot ()).Metrics.histograms
      in
      Alcotest.(check int) "every observation" n observed)

let test_cross_domain_merge_qcheck =
  QCheck.Test.make ~count:25 ~name:"cross-domain shard merge is exact"
    QCheck.(list_of_size (Gen.int_range 1 4) (int_range 0 500))
    merge_prop

let test_family_merge_across_labels () =
  with_metrics (fun () ->
      Metrics.observe_ns ~labels:[ ("backend", "native") ] "fam_seconds" 100L;
      Metrics.observe_ns ~labels:[ ("backend", "closure") ] "fam_seconds" 200L;
      Metrics.observe_ns ~labels:[ ("backend", "closure") ] "fam_seconds" 300L;
      (* Family query merges every label series; labelled query isolates
         one. The p999 of the merged family must reflect all three. *)
      (match Metrics.quantile_ns "fam_seconds" 0.999 with
      | None -> Alcotest.fail "family merge lost series"
      | Some est -> Alcotest.(check bool) "family p999 near max" true (est >= 300.));
      match Metrics.quantile_ns ~labels:[ ("backend", "native") ] "fam_seconds" 0.999 with
      | None -> Alcotest.fail "labelled series lost"
      | Some est ->
          Alcotest.(check bool) "native series isolated" true (est >= 100. && est < 150.))

(* [counter] sums every series of a family whose labels include the
   given ones, in any order. *)
let test_counter_sums_matching_series () =
  with_metrics (fun () ->
      Metrics.inc ~labels:[ ("tier", "0"); ("outcome", "ok") ] ~by:2 "sum_total";
      Metrics.inc ~labels:[ ("tier", "1"); ("outcome", "ok") ] "sum_total";
      Metrics.inc ~labels:[ ("tier", "1"); ("outcome", "failed") ] "sum_total";
      Metrics.inc "other_total";
      Alcotest.(check int) "whole family" 4 (Metrics.counter "sum_total");
      Alcotest.(check int) "one label" 3 (Metrics.counter ~labels:[ ("outcome", "ok") ] "sum_total");
      Alcotest.(check int) "two labels, either order" 1
        (Metrics.counter ~labels:[ ("outcome", "failed"); ("tier", "1") ] "sum_total");
      Alcotest.(check int) "no matching series" 0
        (Metrics.counter ~labels:[ ("tier", "2") ] "sum_total");
      Alcotest.(check int) "unknown family" 0 (Metrics.counter "never_total"))

(* ------------------------------------------------------------------ *)
(* Encoder goldens                                                     *)
(* ------------------------------------------------------------------ *)

(* A fixed tiny recording with exactly predictable output: one counter
   series, one gauge, one single-observation histogram whose value (10
   ns) sits in a unit-width bucket so every quantile interpolates to
   11 ns = 1.1e-08 s. *)
let golden_recording () =
  Metrics.inc ~labels:[ ("code", "ok") ] "req_total" ~by:3;
  Metrics.set_gauge "queue_depth" 2.;
  Metrics.observe_ns "lat_seconds" 10L

let prometheus_golden =
  String.concat "\n"
    [
      "# TYPE req_total counter";
      "req_total{code=\"ok\"} 3";
      "# TYPE queue_depth gauge";
      "queue_depth 2";
      "# TYPE lat_seconds summary";
      "lat_seconds{quantile=\"0.5\"} 1.1e-08";
      "lat_seconds{quantile=\"0.9\"} 1.1e-08";
      "lat_seconds{quantile=\"0.99\"} 1.1e-08";
      "lat_seconds{quantile=\"0.999\"} 1.1e-08";
      "lat_seconds_sum 1e-08";
      "lat_seconds_count 1";
      "";
    ]

let test_prometheus_golden () =
  with_metrics (fun () ->
      golden_recording ();
      Alcotest.(check string) "prometheus exposition" prometheus_golden
        (Metrics.to_prometheus ()))

let test_encoder_sanitization () =
  with_metrics (fun () ->
      Metrics.inc ~labels:[ ("bad label", "has \"quote\"\nand newline") ] "9bad name!";
      let text = Metrics.to_prometheus () in
      Alcotest.(check bool) "leading digit sanitized" true
        (contains text "# TYPE _bad_name_ counter");
      Alcotest.(check bool) "label key sanitized" true (contains text "bad_label=");
      Alcotest.(check bool) "label value escaped" true
        (contains text "has \\\"quote\\\"\\nand newline"))

let test_label_order_is_canonical () =
  with_metrics (fun () ->
      (* The same logical series addressed with either label order must
         collapse to one sample. *)
      Metrics.inc ~labels:[ ("b", "2"); ("a", "1") ] "canon_total";
      Metrics.inc ~labels:[ ("a", "1"); ("b", "2") ] "canon_total";
      let snap = Metrics.snapshot () in
      let series =
        List.filter (fun ((n, _), _) -> n = "canon_total") snap.Metrics.counters
      in
      Alcotest.(check int) "one series" 1 (List.length series);
      Alcotest.(check int) "both increments landed" 2 (snd (List.hd series)))

(* ------------------------------------------------------------------ *)
(* Disabled is free / Trace hook                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  Metrics.disable ();
  Metrics.reset ();
  Metrics.inc "should_not_count";
  Metrics.set_gauge "should_not_set" 1.;
  Metrics.observe_ns "should_not_observe" 5L;
  let r = Metrics.time "should_not_time" (fun () -> 42) in
  Alcotest.(check int) "time passes the result through" 42 r;
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "no counters" 0 (List.length snap.Metrics.counters);
  Alcotest.(check int) "no gauges" 0 (List.length snap.Metrics.gauges);
  Alcotest.(check int) "no histograms" 0 (List.length snap.Metrics.histograms);
  Alcotest.(check string) "empty exposition" "" (Metrics.to_prometheus ())

let test_trace_hook_feeds_stage_histogram () =
  with_metrics (fun () ->
      (* Metrics on, Trace buffer off: span closes must still feed the
         per-stage histogram through the hook, without recording trace
         events. *)
      Trace.disable ();
      Trace.clear ();
      Trace.with_span "unit_test_stage" (fun () -> ignore (Sys.opaque_identity 1));
      Alcotest.(check int) "trace buffer untouched" 0 (Trace.event_count ());
      match
        Metrics.quantile_ns
          ~labels:[ ("stage", "unit_test_stage") ]
          "taco_stage_duration_seconds" 0.5
      with
      | None -> Alcotest.fail "span close did not reach the stage histogram"
      | Some est -> Alcotest.(check bool) "nonneg duration" true (est >= 0.))

let test_disable_uninstalls_hook () =
  with_metrics (fun () -> ());
  (* with_metrics disabled on exit; a span now must not observe. *)
  Trace.with_span "after_disable_stage" (fun () -> ());
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      Alcotest.(check (option (float 0.)))
        "no observation leaked through a stale hook" None
        (Metrics.quantile_ns
           ~labels:[ ("stage", "after_disable_stage") ]
           "taco_stage_duration_seconds" 0.5))

(* ------------------------------------------------------------------ *)
(* Events JSONL round-trip                                             *)
(* ------------------------------------------------------------------ *)

let test_events_roundtrip () =
  let file = Filename.temp_file "taco_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Events.set_path None;
      Sys.remove file)
    (fun () ->
      Events.set_path (Some file);
      Alcotest.(check bool) "sink enabled" true (Events.enabled ());
      Events.emit "test.first"
        [
          ("rid", Json.Int 7);
          ("expr", Json.Str "y(i) = B(i,j) * \"x\"(j)\n");
          ("shed", Json.Bool false);
          ("wait_ns", Json.Int 123456789);
          ("ratio", Json.Float 0.5);
        ];
      Events.emit "test.second" [];
      Events.close ();
      (* [event_lines] fails unless every line is one closed object. *)
      let lines = Helpers.event_lines file in
      Alcotest.(check int) "one line per emit" 2 (List.length lines);
      let first = List.nth lines 0 and second = List.nth lines 1 in
      let json = Alcotest.testable (fun f v -> Format.pp_print_string f (Json.to_string v)) ( = ) in
      let member v k = Option.value ~default:Json.Null (Json.field v k) in
      Alcotest.(check bool) "event field leads" true
        (match first with Json.Obj (("event", Json.Str "test.first") :: _) -> true | _ -> false);
      Alcotest.(check bool) "ts_ns stamped" true
        (match member first "ts_ns" with Json.Int _ -> true | _ -> false);
      Alcotest.check json "int field" (Json.Int 7) (member first "rid");
      Alcotest.check json "escaped string field" (Json.Str "y(i) = B(i,j) * \"x\"(j)\n")
        (member first "expr");
      Alcotest.check json "bool field" (Json.Bool false) (member first "shed");
      Alcotest.check json "i64 field" (Json.Int 123456789) (member first "wait_ns");
      Alcotest.check json "float field" (Json.Float 0.5) (member first "ratio");
      Alcotest.check json "second event named" (Json.Str "test.second") (member second "event"))

let test_events_disabled_is_noop () =
  Events.set_path None;
  Alcotest.(check bool) "disabled" false (Events.enabled ());
  (* Must not raise or create files. *)
  Events.emit "test.noop" [ ("k", Json.Int 1) ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "metrics"
    [
      ( "quantiles",
        [
          Alcotest.test_case "uniform spread within 7%" `Quick
            test_quantile_accuracy_uniform;
          Alcotest.test_case "bimodal latency shape within 7%" `Quick
            test_quantile_accuracy_bimodal;
          Alcotest.test_case "single observation" `Quick test_quantile_small_counts;
          Alcotest.test_case "empty and clamped" `Quick test_quantile_empty_and_clamped;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest test_cross_domain_merge_qcheck;
          Alcotest.test_case "family merge across labels" `Quick
            test_family_merge_across_labels;
          Alcotest.test_case "counter sums matching series" `Quick
            test_counter_sums_matching_series;
          Alcotest.test_case "threads of one domain sum exactly" `Quick
            test_threads_of_one_domain_merge;
        ] );
      ( "encoders",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "sanitization and escaping" `Quick test_encoder_sanitization;
          Alcotest.test_case "label order canonical" `Quick test_label_order_is_canonical;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "trace hook feeds stage histogram" `Quick
            test_trace_hook_feeds_stage_histogram;
          Alcotest.test_case "disable uninstalls the hook" `Quick
            test_disable_uninstalls_hook;
        ] );
      ( "events",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_events_roundtrip;
          Alcotest.test_case "disabled emit is a no-op" `Quick
            test_events_disabled_is_noop;
        ] );
    ]
