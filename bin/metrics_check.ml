(* Validate Prometheus text exposition scraped from a `tacocli serve`
   session (the @metrics-smoke gate).

   Usage: metrics_check TRANSCRIPT [REQUIRED_FAMILY ...]

   The input is either a raw exposition file or a captured serve-session
   transcript; in the latter case the checker locates the last
   "ok metrics N" frame and validates exactly the N lines that follow
   it. Checks, failing with a nonzero exit on the first violation:

   - metric names match [a-zA-Z_:][a-zA-Z0-9_:]* and label names match
     [a-zA-Z_][a-zA-Z0-9_]* (the Prometheus data model);
   - every sample line parses: name, optional {k="v",...} block with
     properly quoted/escaped values, then a float;
   - every sample's family was declared by a preceding "# TYPE" line,
     with a known type (counter, gauge, summary), at most once;
   - counter samples are non-negative; "_count" samples are non-negative
     integers;
   - summary series are coherent: within one (family, labels) group the
     quantile values are non-decreasing in the quantile, and a group
     with quantile samples also carries its _sum and _count;
   - each REQUIRED_FAMILY is present. The default list pins the serving
     acceptance surface: the wait/run latency summaries must expose
     quantiles 0.5 and 0.99 with both "backend" and "outcome" labels,
     plus the request counters and the queue/worker gauges.

   A required family may be written "FAMILY>N" (e.g.
   "taco_plan_cache_hits_total>0"): the family must be present AND
   carry at least one sample whose value exceeds N — how @plan-smoke
   asserts that plan-cache hits actually happened, not merely that the
   counter exists.

   When the transcript also holds an answer to the `stats` verb (a JSON
   object line with a "submitted" field), its last one must agree with
   the exposition's request counters: "completed", "timed_out",
   "failed" and "rejected" are their own taco_serve_requests_total
   outcomes; and
   "submitted" is taco_serve_submitted_total. The session must serve
   nothing between the two answers. *)

module Json = Taco_support.Json

let fail = Json.fail

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let valid_label s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* "name{k="v",...} value" -> (name, labels, value) *)
let parse_sample what line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do
    incr i
  done;
  let name = String.sub line 0 !i in
  if not (valid_name name) then fail "%s: invalid metric name %S" what name;
  let labels = ref [] in
  if !i < n && line.[!i] = '{' then begin
    incr i;
    let rec pairs () =
      let start = !i in
      while !i < n && line.[!i] <> '=' do
        incr i
      done;
      if !i >= n then fail "%s: unterminated label block" what;
      let lname = String.sub line start (!i - start) in
      if not (valid_label lname) then fail "%s: invalid label name %S" what lname;
      incr i;
      if !i >= n || line.[!i] <> '"' then fail "%s: label %s value is not quoted" what lname;
      incr i;
      let b = Buffer.create 16 in
      let rec value () =
        if !i >= n then fail "%s: unterminated label value for %s" what lname
        else
          match line.[!i] with
          | '"' -> incr i
          | '\\' ->
              incr i;
              if !i >= n then fail "%s: dangling escape in label %s" what lname;
              (match line.[!i] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | 'n' -> Buffer.add_char b '\n'
              | c -> fail "%s: bad escape \\%c in label %s" what c lname);
              incr i;
              value ()
          | c ->
              Buffer.add_char b c;
              incr i;
              value ()
      in
      value ();
      labels := (lname, Buffer.contents b) :: !labels;
      if !i < n && line.[!i] = ',' then begin
        incr i;
        pairs ()
      end
      else if !i < n && line.[!i] = '}' then incr i
      else fail "%s: expected , or } in label block" what
    in
    (match !i < n && line.[!i] = '}' with
    | true -> incr i
    | false -> pairs ())
  end;
  if !i >= n || line.[!i] <> ' ' then fail "%s: expected a space before the value" what;
  let v = String.trim (String.sub line !i (n - !i)) in
  match float_of_string_opt v with
  | None -> fail "%s: value %S is not a number" what v
  | Some f -> (name, List.rev !labels, f)

(* A summary family's samples land under the family name itself
   (quantile series) or its _sum/_count companions. *)
let family_of types name =
  if Hashtbl.mem types name then name
  else
    let strip suffix =
      let ls = String.length suffix and ln = String.length name in
      if ln > ls && String.sub name (ln - ls) ls = suffix then
        Some (String.sub name 0 (ln - ls))
      else None
    in
    match strip "_sum" with
    | Some f when Hashtbl.mem types f -> f
    | _ -> (
        match strip "_count" with
        | Some f when Hashtbl.mem types f -> f
        | _ -> fail "sample %S has no preceding # TYPE" name)

let default_required =
  [
    "taco_serve_wait_seconds";
    "taco_serve_run_seconds";
    "taco_serve_compile_seconds";
    "taco_serve_requests_total";
    "taco_serve_submitted_total";
    "taco_serve_queue_depth";
    "taco_serve_live_workers";
    "taco_stage_duration_seconds";
  ]

let () =
  let file, required =
    match Array.to_list Sys.argv with
    | _ :: file :: rest -> (file, if rest = [] then default_required else rest)
    | _ ->
        prerr_endline "usage: metrics_check TRANSCRIPT [REQUIRED_FAMILY ...]";
        exit 2
  in
  let lines =
    let ic = open_in_bin file in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])
  in
  match
    (* Prefer the last "ok metrics N" frame of a session transcript;
       fall back to treating the whole file as exposition. *)
    let exposition =
      let rec last_frame acc frame = function
        | [] -> frame
        | line :: rest -> (
            match Scanf.sscanf_opt line "ok metrics %d%!" (fun n -> n) with
            | Some n ->
                let taken = List.filteri (fun i _ -> i < n) rest in
                if List.length taken < n then
                  fail "frame promises %d lines but only %d follow" n (List.length taken);
                last_frame acc (Some taken) rest
            | None -> last_frame acc frame rest)
      in
      match last_frame [] None lines with
      | Some frame -> frame
      | None -> lines
    in
    if exposition = [] then fail "no exposition lines";
    let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
    (* (family, labels sans quantile) -> (quantile, value) list, plus
       which companions were seen. *)
    let summaries : (string * (string * string) list, (float * float) list ref)
        Hashtbl.t =
      Hashtbl.create 32
    in
    let companions : (string * (string * string) list, unit) Hashtbl.t =
      Hashtbl.create 32
    in
    (* Largest sample seen per family, for the FAMILY>N requirements. *)
    let max_sample : (string, float) Hashtbl.t = Hashtbl.create 32 in
    (* Counter samples, for the stats cross-check. *)
    let counters = ref [] in
    let n_samples = ref 0 in
    List.iteri
      (fun i line ->
        let what = Printf.sprintf "line %d" (i + 1) in
        if line = "" then ()
        else if String.length line >= 1 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: [ ty ] ->
              if not (valid_name name) then
                fail "%s: invalid family name %S" what name;
              if not (List.mem ty [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ])
              then fail "%s: unknown metric type %S" what ty;
              if Hashtbl.mem types name then
                fail "%s: duplicate # TYPE for %S" what name;
              Hashtbl.replace types name ty
          | "#" :: "HELP" :: _ -> ()
          | _ -> fail "%s: malformed comment %S" what line
        end
        else begin
          incr n_samples;
          let name, labels, value = parse_sample what line in
          let family = family_of types name in
          let ty = Hashtbl.find types family in
          (match Hashtbl.find_opt max_sample family with
          | Some m when m >= value -> ()
          | Some _ | None -> Hashtbl.replace max_sample family value);
          (match ty with
          | "counter" ->
              if value < 0. then fail "%s: counter %s is negative" what name;
              counters := (name, labels, value) :: !counters
          | "summary" ->
              let is_count =
                String.length name > 6
                && String.sub name (String.length name - 6) 6 = "_count"
              in
              if is_count && (value < 0. || Float.rem value 1. <> 0.) then
                fail "%s: %s is not a non-negative integer" what name;
              let q, rest =
                List.partition (fun (k, _) -> k = "quantile") labels
              in
              let key = (family, List.sort compare rest) in
              if name = family then (
                match q with
                | [ (_, qs) ] -> (
                    match float_of_string_opt qs with
                    | Some qf when qf >= 0. && qf <= 1. ->
                        let cell =
                          match Hashtbl.find_opt summaries key with
                          | Some c -> c
                          | None ->
                              let c = ref [] in
                              Hashtbl.replace summaries key c;
                              c
                        in
                        cell := (qf, value) :: !cell
                    | _ -> fail "%s: bad quantile label %S" what qs)
                | _ -> fail "%s: summary sample %s needs one quantile label" what name)
              else begin
                if q <> [] then
                  fail "%s: %s must not carry a quantile label" what name;
                Hashtbl.replace companions key ()
              end
          | _ -> ())
        end)
      exposition;
    Hashtbl.iter
      (fun (family, labels) cell ->
        let sorted = List.sort compare !cell in
        let rec mono = function
          | (q1, v1) :: ((q2, v2) :: _ as tl) ->
              if v2 < v1 then
                fail "summary %s{%s}: quantile %.3f value %g < quantile %.3f value %g"
                  family
                  (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
                  q2 v2 q1 v1;
              mono tl
          | _ -> ()
        in
        mono sorted;
        if not (Hashtbl.mem companions (family, labels)) then
          fail "summary %s has quantiles but no _sum/_count" family)
      summaries;
    (* The acceptance surface: the latency summaries must be scrapeable
       with p50/p99 split by backend and outcome. *)
    List.iter
      (fun req ->
        let family, floor =
          match String.index_opt req '>' with
          | Some i ->
              let thr = String.sub req (i + 1) (String.length req - i - 1) in
              (match float_of_string_opt thr with
              | Some f -> (String.sub req 0 i, Some f)
              | None -> fail "bad requirement %S: %S is not a number" req thr)
          | None -> (req, None)
        in
        if not (Hashtbl.mem types family) then
          fail "required family %S is missing" family;
        (match floor with
        | Some f -> (
            match Hashtbl.find_opt max_sample family with
            | Some m when m > f -> ()
            | Some m -> fail "required family %S: max sample %g is not > %g" family m f
            | None -> fail "required family %S has no samples" family)
        | None -> ());
        if Hashtbl.find types family = "summary" then begin
          let series =
            Hashtbl.fold
              (fun (f, labels) cell acc ->
                if f = family then (labels, !cell) :: acc else acc)
              summaries []
          in
          if series = [] then fail "required summary %S has no quantile series" family;
          List.iter
            (fun (labels, qs) ->
              List.iter
                (fun q ->
                  if not (List.exists (fun (qf, _) -> qf = q) qs) then
                    fail "summary %S{%s} lacks quantile %g" family
                      (String.concat ","
                         (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
                      q)
                [ 0.5; 0.99 ])
            series;
          if family = "taco_serve_wait_seconds" || family = "taco_serve_run_seconds"
          then
            List.iter
              (fun (labels, _) ->
                List.iter
                  (fun l ->
                    if not (List.mem_assoc l labels) then
                      fail "summary %S series lacks the %S label" family l)
                  [ "backend"; "outcome" ])
              series
        end)
      required;
    (* The stats verb and the registry must not drift apart. *)
    let stats =
      List.find_map
        (fun line ->
          if String.length line = 0 || line.[0] <> '{' then None
          else
            match Json.parse line with
            | Ok obj when Json.field obj "submitted" <> None -> Some obj
            | Ok _ | Error _ -> None)
        (List.rev lines)
    in
    let sum name keep =
      List.fold_left
        (fun acc (n, labels, v) -> if n = name && keep labels then acc +. v else acc)
        0. !counters
    in
    let outcome o =
      sum "taco_serve_requests_total" (fun ls -> List.assoc_opt "outcome" ls = Some o)
    in
    let cross =
      match stats with
      | None -> []
      | Some obj ->
          List.map
            (fun (field, scraped) ->
              let stated = Json.num_field "stats" obj field in
              if stated <> scraped then
                fail "stats %S is %g but the registry counts %g" field stated scraped;
              field)
            [
              ("completed", outcome "completed");
              ("timed_out", outcome "timed_out");
              ("failed", outcome "failed");
              ("rejected", outcome "rejected");
              ("submitted", sum "taco_serve_submitted_total" (fun _ -> true));
            ]
    in
    (!n_samples, Hashtbl.length types, List.length cross)
  with
  | n_samples, n_families, n_cross ->
      Printf.printf
        "metrics_check: %s OK (%d samples, %d families, %d required present, %d stats fields \
         match)\n"
        file n_samples n_families (List.length required) n_cross
  | exception Json.Bad msg ->
      Printf.eprintf "metrics_check: %s: %s\n" file msg;
      exit 1
