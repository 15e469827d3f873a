(* Tests for the metrics registry: log-linear histogram quantile
   accuracy against the documented 1/16 relative-error bound, counter
   and histogram merging across concurrently recording domains, the
   Prometheus and JSON encoders on a deterministic recording (golden
   strings), the disabled-is-free discipline mirroring test_trace, the
   Trace span-close hook feeding stage histograms, and the Events JSONL
   sink round-trip through [set_path]. *)

module Metrics = Taco_support.Metrics
module Events = Taco_support.Events
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

let json_golden =
  "{\"counters\":[{\"name\":\"req_total\",\"labels\":{\"code\":\"ok\"},\"value\":3}],"
  ^ "\"gauges\":[{\"name\":\"queue_depth\",\"labels\":{},\"value\":2}],"
  ^ "\"histograms\":[{\"name\":\"lat_seconds\",\"labels\":{},\"count\":1,\"sum_s\":1e-08,"
  ^ "\"p50_s\":1.1e-08,\"p90_s\":1.1e-08,\"p99_s\":1.1e-08,\"p999_s\":1.1e-08}]}\n"

let test_prometheus_golden () =
  with_metrics (fun () ->
      golden_recording ();
      Alcotest.(check string) "prometheus exposition" prometheus_golden
        (Metrics.to_prometheus ()))

let test_json_golden () =
  with_metrics (fun () ->
      golden_recording ();
      Alcotest.(check string) "json snapshot" json_golden (Metrics.to_json ()))

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

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

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
          ("rid", Events.Int 7);
          ("expr", Events.Str "y(i) = B(i,j) * \"x\"(j)\n");
          ("shed", Events.Bool false);
          ("wait_ns", Events.I64 123456789L);
          ("ratio", Events.Float 0.5);
        ];
      Events.emit "test.second" [];
      Events.close ();
      let lines = read_lines file in
      Alcotest.(check int) "one line per emit" 2 (List.length lines);
      let first = List.nth lines 0 and second = List.nth lines 1 in
      Alcotest.(check bool) "event field leads" true
        (String.length first > 22 && String.sub first 0 22 = "{\"event\":\"test.first\",");
      Alcotest.(check bool) "ts_ns stamped" true (contains first "\"ts_ns\":");
      Alcotest.(check bool) "int field" true (contains first "\"rid\":7");
      Alcotest.(check bool) "escaped string field" true
        (contains first "\"expr\":\"y(i) = B(i,j) * \\\"x\\\"(j)\\n\"");
      Alcotest.(check bool) "bool field" true (contains first "\"shed\":false");
      Alcotest.(check bool) "i64 field" true (contains first "\"wait_ns\":123456789");
      Alcotest.(check bool) "float field" true (contains first "\"ratio\":0.5");
      Alcotest.(check bool) "lines are closed objects" true
        (String.length second > 0 && second.[String.length second - 1] = '}');
      Alcotest.(check bool) "second event named" true
        (contains second "\"event\":\"test.second\""))

let test_events_disabled_is_noop () =
  Events.set_path None;
  Alcotest.(check bool) "disabled" false (Events.enabled ());
  (* Must not raise or create files. *)
  Events.emit "test.noop" [ ("k", Events.Int 1) ]

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
        ] );
      ( "encoders",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json golden" `Quick test_json_golden;
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
