(* The serve line protocol: see protocol.mli. *)

open Taco
module P = Taco_frontend.Parser

let fail_input fmt = Diag.fail ~stage:Diag.Serve ~code:"E_SERVE_INPUT" fmt

(* A numeric protocol value, or an E_SERVE_INPUT error naming its
   clause and the text that did not parse. *)
let number parse expected what v =
  match parse (String.trim v) with
  | Some x -> x
  | None -> fail_input "malformed %s %S (expected %s)" what v expected

let int_arg = number int_of_string_opt "an integer"

let float_arg = number float_of_string_opt "a number"

let help =
  String.concat "\n"
    [
      "ok commands:";
      "  tensor NAME FMT DIMS [density D] [seed N]   make a random tensor,";
      "         e.g.: tensor B ds 1000,1000 density 0.01";
      "  eval EXPR [; CLAUSE]...                     evaluate and wait;";
      "         clauses: reorder A,B | precompute EXPR|VARS|NAME | parallelize V | domains N | auto";
      "                  format NAME:FMT (result storage) | deadline MS | backend c|closure";
      "                  semiring NAME (plus_times | min_plus | max_times | bool_or_and)";
      "  eval& EXPR [; CLAUSE]...                    evaluate asynchronously,";
      "         returns 'ok ticket ID'";
      "  wait ID                                     await an eval& ticket";
      "  stats                                       service counters as one JSON line";
      "  metrics                                     Prometheus text exposition of the";
      "         metrics registry, framed as 'ok metrics N' + N lines";
      "  quit                                        end this session";
      "  stop                                        (socket mode) stop the server";
    ]

let split_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let parse_format name order spec =
  let spec = if spec = "" then String.make (max order 1) 'd' else spec in
  if String.length spec <> order then
    Error
      (Printf.sprintf "format %s for %s has %d levels but the tensor has order %d" spec name
         (String.length spec) order)
  else
    match Seq.find (fun c -> c <> 'd' && c <> 's') (String.to_seq spec) with
    | Some c -> Error (Printf.sprintf "unknown level format %c in %s (use d or s)" c spec)
    | None ->
        Ok
          (Format.of_levels
             (List.init order (fun l -> if spec.[l] = 'd' then Level.Dense else Level.Compressed)))

let format_arg name order spec =
  match parse_format name order spec with Ok f -> f | Error m -> fail_input "%s" m

let malformed_dims s = fail_input "malformed dimensions %S (expected positive integers)" s

let dims_arg s =
  match List.map int_of_string_opt (String.split_on_char ',' s) with
  | ds when List.for_all Option.is_some ds -> Array.of_list (List.filter_map Fun.id ds)
  | _ -> malformed_dims s

let random_tensor prng ~density dims fmt =
  if not (Array.for_all (fun d -> d > 0) dims) then
    malformed_dims (String.concat "," (Array.to_list (Array.map string_of_int dims)));
  if not (density >= 0. && density <= 1.) then
    fail_input "density %S is not in [0, 1]" (Printf.sprintf "%g" density);
  if Format.is_all_dense fmt then Tensor.of_dense (Gen.random_dense prng dims) fmt
  else Gen.random_density prng ~dims ~density fmt

let make_tensor tensors args =
  match args with
  | name :: fmt_spec :: dims_s :: opts ->
      let dims = dims_arg dims_s in
      let fmt = format_arg name (Array.length dims) fmt_spec in
      let rec parse_opts density seed = function
        | [] -> (density, seed)
        | "density" :: v :: rest -> parse_opts (float_arg "density" v) seed rest
        | "seed" :: v :: rest -> parse_opts density (int_arg "seed" v) rest
        | w :: _ -> fail_input "unknown tensor option %S" w
      in
      let density, seed = parse_opts 0.05 42 opts in
      let t = random_tensor (Taco_support.Prng.create seed) ~density dims fmt in
      Hashtbl.replace tensors name t;
      Printf.sprintf "ok tensor %s nnz=%d" name (Tensor.nnz t)
  | _ -> fail_input "usage: tensor NAME FMT DIMS [density D] [seed N]"

let build_request tensors line =
  match List.map String.trim (String.split_on_char ';' line) with
  | [] | "" :: _ -> fail_input "usage: eval EXPR [; CLAUSE]..."
  | expr :: clauses ->
      let deadline = ref None and directives = ref [] and fmt_clause = ref None in
      let domains = ref None and backend = ref None and semiring = ref None in
      List.iter
        (fun clause ->
          if clause <> "" then
            match split_word clause with
            | "auto", "" -> directives := Service.Auto :: !directives
            | "reorder", arg -> (
                match String.split_on_char ',' arg with
                | [ a; b ] ->
                    directives := Service.Reorder (String.trim a, String.trim b) :: !directives
                | _ -> fail_input "malformed reorder %S (expected A,B)" arg)
            | "precompute", arg -> (
                match String.split_on_char '|' arg with
                | [ e; vars; w ] ->
                    directives :=
                      Service.Precompute
                        {
                          expr = String.trim e;
                          over = List.map String.trim (String.split_on_char ',' vars);
                          workspace = String.trim w;
                        }
                      :: !directives
                | _ -> fail_input "malformed precompute %S (expected EXPR|VARS|NAME)" arg)
            | "parallelize", arg -> (
                match String.trim arg with
                | "" -> fail_input "malformed parallelize (expected an index variable)"
                | v -> directives := Service.Parallelize v :: !directives)
            | "domains", arg -> domains := Some (int_arg "domains" arg)
            | "deadline", arg -> deadline := Some (int_arg "deadline" arg)
            | "backend", arg -> (
                match String.trim arg with
                | "closure" -> backend := Some `Closure
                | "c" | "native" -> backend := Some `Native
                | b -> fail_input "unknown backend %S (use c or closure)" b)
            | "semiring", arg -> (
                (* Validated again service-side; rejecting unknown names
                   here keeps the error on the offending line. *)
                match Semiring.of_string (String.trim arg) with
                | Some _ -> semiring := Some (String.trim arg)
                | None ->
                    fail_input "unknown semiring %S (known: %s)" (String.trim arg)
                      (String.concat ", " Semiring.names))
            | "format", arg -> (
                match String.index_opt arg ':' with
                | Some k ->
                    fmt_clause :=
                      Some
                        ( String.sub arg 0 k,
                          String.sub arg (k + 1) (String.length arg - k - 1) )
                | None -> fail_input "malformed format %S (expected NAME:FMT)" arg)
            | kw, _ -> fail_input "unknown clause %S" kw)
        clauses;
      let scanned = P.scan_tensors expr in
      (match scanned with
      | [] -> fail_input "no tensor access found in %S" expr
      | (result, result_order) :: _ ->
          let result_format =
            match !fmt_clause with
            | None -> None
            | Some (name, spec) when name = result -> Some (format_arg name result_order spec)
            | Some (name, _) ->
                fail_input "format clause names %s, not the result tensor %s" name result
          in
          let inputs =
            List.filter_map
              (fun (name, _) ->
                if name = result then None
                else
                  Option.map (fun t -> (name, t)) (Hashtbl.find_opt tensors name))
              scanned
          in
          ( Service.request ~directives:(List.rev !directives) ?result_format
              ?domains:!domains ?backend:!backend ?semiring:!semiring ~expr ~inputs (),
            !deadline ))

let response_line = function
  | Ok (r : Service.response) ->
      Printf.sprintf "ok result dims=%s nnz=%d kernel=%s wait_us=%Ld run_us=%Ld"
        (String.concat "x" (List.map string_of_int (Array.to_list (Tensor.dims r.tensor))))
        (Tensor.nnz r.tensor) r.Service.kernel_name
        (Int64.div r.Service.wait_ns 1000L)
        (Int64.div r.Service.run_ns 1000L)
  | Error d -> "error " ^ Diag.to_string d

let stats_line svc =
  let s = Service.stats svc in
  let c = Compile.cache_stats () in
  let pc = Autoschedule.cache_stats () in
  let q_us name q =
    match Metrics.quantile_ns name q with None -> 0 | Some ns -> int_of_float (ns /. 1e3)
  in
  Json.to_string
    (Json.Obj
       (List.map
          (fun (k, v) -> (k, Json.Int v))
          [
            ("queue", Service.queue_length svc);
            ("domains", Service.domains svc);
            ("live_workers", s.Service.live_workers);
            ("peak_workers", s.Service.peak_workers);
            ("submitted", s.Service.submitted);
            ("completed", s.Service.completed);
            ("rejected", s.Service.rejected);
            ("timed_out", s.Service.timed_out);
            ("failed", s.Service.failed);
            ("peak_queue", s.Service.peak_queue);
            ("cache_hits", c.Compile.hits);
            ("cache_misses", c.Compile.misses);
            ("plan_hits", pc.Memo.hits);
            ("plan_misses", pc.Memo.misses);
            ("crashed", s.Service.crashed);
            ("replaced", s.Service.replaced);
            ("quarantined", s.Service.quarantined);
            ("exec_native", s.Service.exec_native);
            ("exec_closure", s.Service.exec_closure);
            ("backend_downgraded", s.Service.backend_downgraded);
            ("wait_p50_us", q_us "taco_serve_wait_seconds" 0.5);
            ("wait_p99_us", q_us "taco_serve_wait_seconds" 0.99);
            ("run_p50_us", q_us "taco_serve_run_seconds" 0.5);
            ("run_p99_us", q_us "taco_serve_run_seconds" 0.99);
          ]))
