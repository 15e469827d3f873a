(* Validate a Chrome trace-event JSON file emitted by Taco's Trace
   module (the @trace-smoke gate).

   Usage: trace_check FILE [REQUIRED_SPAN ...]

   Checks, failing with a nonzero exit and a message on the first
   violation:

   - the file is well-formed JSON: an object whose "traceEvents" key
     holds an array of event objects;
   - every event has a string "ph" and a numeric "ts"; B/E/X/C/i events
     have a string "name";
   - timestamps are non-decreasing in array order (the exporter sorts);
   - B and E events balance like a stack per "tid" (spans nest within a
     domain; events from different domains interleave freely), with each
     E naming the span opened by the matching B on the same tid — i.e.
     every span is closed;
   - X (complete) events carry a numeric "dur" >= 0;
   - a "rid" argument (the service's request id, stamped by
     Trace.set_request_id) is a positive decimal integer, and the
     events of any one request id have non-decreasing timestamps;
   - each REQUIRED_SPAN appears (as a B/E pair or an X event) with a
     strictly positive total duration. With no explicit names the
     default list covers the full pipeline: parse, concretize,
     schedule.reorder, schedule.precompute, lower, codegen_c, compile,
     compile.build and exec.run.

   JSON parsing is Taco_support.Json. *)

open Taco_support.Json

let default_required =
  [
    "parse";
    "concretize";
    "schedule.reorder";
    "schedule.precompute";
    "lower";
    "codegen_c";
    "compile";
    "compile.build";
    "exec.run";
  ]

let check_events events =
  (* Total observed duration per span name; built from both X events and
     balanced B/E pairs. *)
  let durations : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let record name dur =
    Hashtbl.replace durations name
      (dur +. try Hashtbl.find durations name with Not_found -> 0.)
  in
  (* One open-span stack per tid: spans nest within a domain, but events
     from different domains interleave in global timestamp order. *)
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks tid s;
        s
  in
  (* Per-request-id timestamp high-water marks: a request's events must
     not go backwards even if the global sort ever changes. *)
  let rid_ts : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let rid_events = ref 0 in
  let check_rid what e ts =
    match field e "args" with
    | None -> ()
    | Some args -> (
        match field args "rid" with
        | None -> ()
        | Some (Str s) -> (
            match int_of_string_opt s with
            | Some rid when rid > 0 ->
                incr rid_events;
                (match Hashtbl.find_opt rid_ts rid with
                | Some prev when ts < prev ->
                    fail "%s: rid %d timestamp %.3f goes backwards (previous %.3f)"
                      what rid ts prev
                | _ -> ());
                Hashtbl.replace rid_ts rid ts
            | _ -> fail "%s: \"rid\" %S is not a positive integer" what s)
        | Some _ -> fail "%s: \"rid\" is not a string" what)
  in
  let last_ts = ref neg_infinity in
  List.iteri
    (fun i e ->
      let what = Printf.sprintf "event %d" i in
      let ph = str_field what e "ph" in
      let ts = num_field what e "ts" in
      let tid =
        match field e "tid" with
        | Some (Int n) -> n
        | Some _ -> fail "%s: \"tid\" is not a number" what
        | None -> 0
      in
      if ts < !last_ts then
        fail "%s: timestamp %.3f goes backwards (previous %.3f)" what ts !last_ts;
      last_ts := ts;
      check_rid what e ts;
      match ph with
      | "B" ->
          let name = str_field what e "name" in
          let stack = stack_of tid in
          stack := (name, ts) :: !stack
      | "E" -> (
          let name = str_field what e "name" in
          let stack = stack_of tid in
          match !stack with
          | (open_name, t0) :: tl ->
              if open_name <> name then
                fail "%s: E %S closes span %S on tid %d (misnested B/E)" what name
                  open_name tid;
              stack := tl;
              record name (ts -. t0)
          | [] -> fail "%s: E %S with no open span on tid %d" what name tid)
      | "X" ->
          let name = str_field what e "name" in
          let dur = num_field what e "dur" in
          if dur < 0. then fail "%s: X %S has negative dur %.3f" what name dur;
          record name dur
      | "i" -> ignore (str_field what e "name")
      | ph -> fail "%s: unknown phase %S" what ph)
    events;
  Hashtbl.iter
    (fun tid stack ->
      match !stack with
      | [] -> ()
      | (name, _) :: _ ->
          fail "unbalanced trace: span %S on tid %d is never closed" name tid)
    stacks;
  (durations, Hashtbl.length rid_ts, !rid_events)

let () =
  let file, required =
    match Array.to_list Sys.argv with
    | _ :: file :: rest -> (file, if rest = [] then default_required else rest)
    | _ ->
        prerr_endline "usage: trace_check FILE [REQUIRED_SPAN ...]";
        exit 2
  in
  match
    let doc = match of_file file with Ok doc -> doc | Error msg -> fail "%s" msg in
    let events =
      match field doc "traceEvents" with
      | Some (List evs) -> evs
      | Some _ -> fail "\"traceEvents\" is not an array"
      | None -> fail "missing \"traceEvents\""
    in
    if events = [] then fail "empty trace";
    let durations, n_rids, n_rid_events = check_events events in
    List.iter
      (fun name ->
        match Hashtbl.find_opt durations name with
        | None -> fail "required span %S is missing from the trace" name
        | Some d when d <= 0. -> fail "required span %S has zero duration" name
        | Some _ -> ())
      required;
    (List.length events, Hashtbl.length durations, n_rids, n_rid_events)
  with
  | n_events, n_spans, n_rids, n_rid_events ->
      Printf.printf
        "trace_check: %s OK (%d events, %d span names, %d required spans present, \
         %d request ids over %d events)\n"
        file n_events n_spans (List.length required) n_rids n_rid_events
  | exception Bad msg ->
      Printf.eprintf "trace_check: %s: %s\n" file msg;
      exit 1
