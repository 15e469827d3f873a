(* A command-line tensor algebra compiler in the spirit of the taco tool
   [Kjolstad et al., ASE 2017], extended with the workspace scheduling of
   the CGO 2019 paper.

   Examples:

     # show concrete index notation and generated C for CSR matmul with
     # an automatically found schedule
     tacocli "A(i,j) = B(i,k) * C(k,j)" -f A:ds -f B:ds -f C:ds --auto --print-c

     # schedule manually, like the paper's Fig. 2
     tacocli "A(i,j) = B(i,k) * C(k,j)" -f A:ds -f B:ds -f C:ds \
        --reorder k,j --precompute "B(i,k) * C(k,j)|j|w" --print-cin

     # generate random inputs, run, and time the kernel
     tacocli "y(i) = B(i,j) * x(j)" -f B:ds -d B:5000,5000 --density 0.001 --time

     # serve evaluation requests over a line protocol (see `serve --help`)
     tacocli serve --domains 4 --queue-depth 32
*)

open Taco
module P = Taco_frontend.Parser
module Service = Taco_service.Service
module Diag = Taco_support.Diag

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("tacocli: " ^ s); exit 1) fmt

let get = function Ok v -> v | Error e -> die "%s" e

let getd = function
  | Ok v -> v
  | Error d -> die "%s" (Diag.to_string d)

(* Every failure leaves through [die]: one line on stderr, exit status 1,
   never a backtrace. *)
let protect f =
  try f () with
  | Diag.Error d -> die "%s" (Diag.to_string d)
  | Failure s -> die "%s" s
  | Invalid_argument s -> die "%s" s

let parse_format name order spec =
  let spec = if spec = "" then String.make (max order 1) 'd' else spec in
  if String.length spec <> order then
    die "format %s for %s has %d levels but the tensor has order %d" spec name
      (String.length spec) order;
  let levels =
    List.init order (fun l ->
        match spec.[l] with
        | 'd' -> Level.Dense
        | 's' -> Level.Compressed
        | c -> die "unknown level format %c in %s (use d or s)" c spec)
  in
  Format.of_levels levels

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

(* "--backend c" (or "native") requests the native C backend; it
   downgrades to closures — with a note on stderr — when no C compiler
   is around, matching the executor's never-fail contract. *)
let parse_backend = function
  | "closure" -> `Closure
  | "c" | "native" -> `Native
  | s -> die "unknown backend %S (use closure, or c for the native C backend)" s

let run_cli expr_str formats dims density seed reorders precomputes split_specs auto
    backend_str semiring_str print_cin print_c do_run do_time trace_file do_stats
    do_metrics do_explain =
  protect @@ fun () ->
  Obs.setup ();
  let backend = parse_backend backend_str in
  let semiring =
    match Semiring.of_string semiring_str with
    | Some sr -> sr
    | None ->
        die "unknown semiring %S (known: %s)" semiring_str
          (String.concat ", " Semiring.names)
  in
  let observing = trace_file <> None || do_stats in
  if observing then Trace.enable ();
  if do_metrics then Metrics.enable ();
  let parse_pair what s =
    match String.index_opt s ':' with
    | Some k -> (String.sub s 0 k, String.sub s (k + 1) (String.length s - k - 1))
    | None -> die "malformed %s %S (expected NAME:SPEC)" what s
  in
  let formats = List.map (parse_pair "-f") formats in
  let dims_spec = List.map (parse_pair "-d") dims in
  (* Build tensor variables. *)
  let names = P.scan_tensors expr_str in
  if names = [] then die "no tensors found in %S" expr_str;
  let tensors =
    List.map
      (fun (name, order) ->
        let fmt_spec = Option.value ~default:"" (List.assoc_opt name formats) in
        (name, Tensor_var.make name ~order ~format:(parse_format name order fmt_spec)))
      names
  in
  let stmt = getd (P.parse_statement ~tensors expr_str) in
  Printf.printf "statement:   %s\n" (Index_notation.to_string stmt);
  let sched = ref (get (Schedule.of_index_notation stmt)) in
  (* Manual schedule commands. *)
  List.iter
    (fun spec ->
      match String.split_on_char ',' spec with
      | [ a; b ] ->
          sched := get (Schedule.reorder (ivar (String.trim a)) (ivar (String.trim b)) !sched)
      | _ -> die "malformed --reorder %S (expected a,b)" spec)
    reorders;
  List.iteri
    (fun q spec ->
      match String.split_on_char '|' spec with
      | [ e; vars; ws ] ->
          let e = getd (P.parse_expr ~tensors e) in
          let e = get (Schedule.expr_of_index_notation e) in
          let over = List.map (fun v -> ivar (String.trim v)) (String.split_on_char ',' vars) in
          let w =
            Tensor_var.workspace
              (if ws = "" then Printf.sprintf "w%d" q else String.trim ws)
              ~order:(List.length over)
              ~format:(Format.dense (List.length over))
          in
          sched := get (Schedule.precompute_simple ~expr:e ~over ~workspace:w !sched)
      | _ -> die "malformed --precompute %S (expected EXPR|VARS|NAME)" spec)
    precomputes;
  let splits =
    List.map
      (fun spec ->
        match String.split_on_char ':' spec with
        | [ v; f ] -> (ivar (String.trim v), int_of_string (String.trim f))
        | _ -> die "malformed --split %S (expected VAR:FACTOR)" spec)
      split_specs
  in
  (* Compile, automatically scheduling if requested (or if needed and
     nothing manual was given). *)
  let compiled, steps, explain =
    if auto || do_explain then
      let c, steps, ex =
        getd (auto_compile_explained ~semiring ~profile:observing ~backend !sched)
      in
      (c, steps, Some ex)
    else
      match compile ~splits ~semiring ~profile:observing ~backend !sched with
      | Ok c -> (c, [], None)
      | Error e ->
          die "%s\n(hint: pass --auto to search for a schedule automatically)"
            (Diag.to_string e)
  in
  if backend = `Native && backend_of compiled = `Closure then
    prerr_endline
      "tacocli: native backend unavailable, running through the closure executor";
  List.iter (fun s -> Printf.printf "auto:        %s\n" (Autoschedule.step_to_string s)) steps;
  (match explain with
  | Some ex when do_explain ->
      Printf.printf
        "explain:     considered=%d lowerable=%d default_cost=%.4g chosen_cost=%.4g \
         search_us=%Ld cache=%s\n"
        ex.Autoschedule.e_considered ex.Autoschedule.e_lowerable
        ex.Autoschedule.e_default_cost ex.Autoschedule.e_chosen_cost
        (Int64.div ex.Autoschedule.e_search_ns 1000L)
        (if ex.Autoschedule.e_cache_hit then "hit" else "miss");
      List.iter
        (fun (s, c) -> Printf.printf "candidate:   cost=%.4g  %s\n" c s)
        ex.Autoschedule.e_top
  | Some _ | None -> ());
  Printf.printf "concrete:    %s\n" (cin_string compiled);
  if print_cin then ();
  if print_c then begin
    print_endline "";
    print_string (c_source compiled)
  end;
  if do_run || do_time then begin
    (* Random inputs: dimensions from -d (default 1000 per mode). *)
    let prng = Taco_support.Prng.create seed in
    let result_name =
      Tensor_var.name (Kernel.info (kernel compiled)).Lower.result
    in
    let dim_env : (string, int array) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (name, spec) ->
        let ds = String.split_on_char ',' spec |> List.map int_of_string |> Array.of_list in
        Hashtbl.replace dim_env name ds)
      dims_spec;
    (* Unify index variable ranges across accesses. *)
    let ranges : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let rec walk = function
      | Index_notation.Access (tv, idxs) ->
          let name = Tensor_var.name tv in
          List.iteri
            (fun m v ->
              let key = Index_var.name v in
              let from_spec =
                match Hashtbl.find_opt dim_env name with
                | Some ds when Array.length ds > m -> Some ds.(m)
                | Some _ | None -> None
              in
              match (from_spec, Hashtbl.find_opt ranges key) with
              | Some d, _ -> Hashtbl.replace ranges key d
              | None, Some _ -> ()
              | None, None -> Hashtbl.replace ranges key 1000)
            idxs
      | Index_notation.Literal _ -> ()
      | Index_notation.Neg e | Index_notation.Sum (_, e) -> walk e
      | Index_notation.Add (a, b)
      | Index_notation.Sub (a, b)
      | Index_notation.Mul (a, b)
      | Index_notation.Div (a, b) ->
          walk a;
          walk b
    in
    walk stmt.Index_notation.rhs;
    List.iteri
      (fun m v -> Hashtbl.replace ranges (Index_var.name v)
          (match Hashtbl.find_opt dim_env result_name with
          | Some ds when Array.length ds > m -> ds.(m)
          | Some _ | None ->
              Option.value ~default:1000 (Hashtbl.find_opt ranges (Index_var.name v))))
      stmt.Index_notation.lhs_indices;
    let inputs =
      List.filter_map
        (fun (name, tv) ->
          if name = result_name then None
          else begin
            (* Reconstruct dims from the access. *)
            let rec find_access = function
              | Index_notation.Access (t, idxs) when Tensor_var.equal t tv -> Some idxs
              | Index_notation.Access _ | Index_notation.Literal _ -> None
              | Index_notation.Neg e | Index_notation.Sum (_, e) -> find_access e
              | Index_notation.Add (a, b)
              | Index_notation.Sub (a, b)
              | Index_notation.Mul (a, b)
              | Index_notation.Div (a, b) -> (
                  match find_access a with Some r -> Some r | None -> find_access b)
            in
            match find_access stmt.Index_notation.rhs with
            | None -> None
            | Some idxs ->
                let ds =
                  Array.of_list
                    (List.map (fun v -> Hashtbl.find ranges (Index_var.name v)) idxs)
                in
                let t =
                  if Format.is_all_dense (Tensor_var.format tv) then
                    Tensor.of_dense (Gen.random_dense prng ds) (Tensor_var.format tv)
                  else Gen.random_density prng ~dims:ds ~density (Tensor_var.format tv)
                in
                Printf.printf "input %s: %s\n" name (Stdlib.Format.asprintf "%a" Tensor.pp t);
                Some (tv, t)
          end)
        tensors
    in
    let (result, elapsed) = Taco_support.Util.time (fun () -> getd (run compiled ~inputs)) in
    Printf.printf "result %s: %s\n" result_name (Stdlib.Format.asprintf "%a" Tensor.pp result);
    if do_time then Printf.printf "time: %.6f s\n" elapsed
  end;
  if do_stats then begin
    prerr_string (Trace.summary ());
    match Kernel.profile_stats (kernel compiled) with
    | None -> ()
    | Some s ->
        Printf.eprintf
          "kernel counters: iterations=%d scalar_ops=%d allocs=%d alloc_elems=%d \
           zero_bytes=%d reallocs=%d sorts=%d\n"
          s.Compile.iterations s.Compile.scalar_ops s.Compile.allocs s.Compile.alloc_elems
          s.Compile.zero_bytes s.Compile.reallocs s.Compile.sorts
  end;
  if do_metrics then prerr_string (Metrics.to_prometheus ());
  match trace_file with
  | None -> ()
  | Some file ->
      Trace.write_chrome file;
      Printf.eprintf "trace written to %s\n" file

(* ------------------------------------------------------------------ *)
(* serve: a line protocol over stdin or a Unix socket                   *)
(* ------------------------------------------------------------------ *)

(* Per-line failures in a serve session raise [Diag.Error] naming the
   offending clause or field; the session loop converts them to a
   one-line "error …" response and keeps serving. *)
let fail_input fmt = Diag.fail ~stage:Diag.Serve ~code:"E_SERVE_INPUT" fmt

(* A numeric protocol value, or an E_SERVE_INPUT error naming its
   clause and the text that did not parse. *)
let number parse expected what v =
  match parse (String.trim v) with
  | Some x -> x
  | None -> fail_input "malformed %s %S (expected %s)" what v expected

let int_arg = number int_of_string_opt "an integer"

let float_arg = number float_of_string_opt "a number"

let protocol_help =
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

(* "keyword rest-of-line" *)
let split_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let make_tensor tensors args =
  match args with
  | name :: fmt_spec :: dims :: opts ->
      let dims =
        try String.split_on_char ',' dims |> List.map int_of_string |> Array.of_list
        with Failure _ -> fail_input "malformed dimensions %S" dims
      in
      let order = Array.length dims in
      if String.length fmt_spec <> order
         || String.exists (fun c -> c <> 'd' && c <> 's') fmt_spec
      then fail_input "format %S does not fit a tensor of order %d" fmt_spec order;
      let fmt =
        Format.of_levels
          (List.init order (fun l ->
               if fmt_spec.[l] = 'd' then Level.Dense else Level.Compressed))
      in
      let rec parse_opts density seed = function
        | [] -> (density, seed)
        | "density" :: v :: rest -> parse_opts (float_arg "density" v) seed rest
        | "seed" :: v :: rest -> parse_opts density (int_arg "seed" v) rest
        | w :: _ -> fail_input "unknown tensor option %S" w
      in
      let density, seed = parse_opts 0.05 42 opts in
      let prng = Taco_support.Prng.create seed in
      let t =
        if Format.is_all_dense fmt then Tensor.of_dense (Gen.random_dense prng dims) fmt
        else Gen.random_density prng ~dims ~density fmt
      in
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
            | Some (name, spec) when name = result ->
                Some (parse_format name result_order spec)
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

let run_serve domains queue_depth socket trace_file =
  protect @@ fun () ->
  Obs.setup ();
  if trace_file <> None then Trace.enable ();
  (* Metrics are always on in a serving process: the registry is cheap
     (lock-free per-carrier shards) and a server that cannot answer
     `metrics` is flying blind. *)
  Metrics.enable ();
  let svc = Service.create ~domains ~queue_depth () in
  let tensors : (string, Tensor.t) Hashtbl.t = Hashtbl.create 16 in
  let tickets : (int, Service.ticket) Hashtbl.t = Hashtbl.create 16 in
  let next_ticket = ref 0 in
  let stop_server = ref false in
  let handle_line line =
    let cmd, rest = split_word line in
    match cmd with
    | "" -> None
    | _ when cmd.[0] = '#' -> None
    | "tensor" -> Some (make_tensor tensors (words rest))
    | "eval" | "eval&" -> (
        let req, deadline_ms = build_request tensors rest in
        match Service.submit svc ?deadline_ms req with
        | Error d -> Some ("error " ^ Diag.to_string d)
        | Ok ticket ->
            if cmd = "eval" then Some (response_line (Service.await ticket))
            else begin
              incr next_ticket;
              Hashtbl.replace tickets !next_ticket ticket;
              Some (Printf.sprintf "ok ticket %d" !next_ticket)
            end)
    | "wait" -> (
        let id = try int_of_string rest with Failure _ -> fail_input "usage: wait ID" in
        match Hashtbl.find_opt tickets id with
        | None -> fail_input "unknown ticket %d" id
        | Some t ->
            Hashtbl.remove tickets id;
            Some (response_line (Service.await t)))
    | "stats" ->
        (* One JSON line, so scrapers and the fixture test can consume
           it without a protocol parser. The p50/p99 fields come from
           the metrics registry's latency histograms (merged across all
           backend/outcome series); 0 on a fresh session. *)
        let s = Service.stats svc in
        let c = Compile.cache_stats () in
        let pc = Autoschedule.cache_stats () in
        let q_us name q =
          match Metrics.quantile_ns name q with
          | None -> 0
          | Some ns -> int_of_float (ns /. 1e3)
        in
        Some
          (Printf.sprintf
             "{\"queue\":%d,\"domains\":%d,\"live_workers\":%d,\"peak_workers\":%d,\
              \"submitted\":%d,\"completed\":%d,\"rejected\":%d,\"timed_out\":%d,\
              \"failed\":%d,\"peak_queue\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\
              \"plan_hits\":%d,\"plan_misses\":%d,\
              \"crashed\":%d,\"replaced\":%d,\"quarantined\":%d,\
              \"exec_native\":%d,\"exec_closure\":%d,\"backend_downgraded\":%d,\
              \"wait_p50_us\":%d,\"wait_p99_us\":%d,\"run_p50_us\":%d,\"run_p99_us\":%d}"
             (Service.queue_length svc) (Service.domains svc) s.Service.live_workers
             s.Service.peak_workers s.Service.submitted s.Service.completed
             s.Service.rejected s.Service.timed_out s.Service.failed s.Service.peak_queue
             c.Compile.hits c.Compile.misses pc.Memo.hits pc.Memo.misses
             s.Service.crashed
             s.Service.replaced s.Service.quarantined s.Service.exec_native
             s.Service.exec_closure s.Service.backend_downgraded
             (q_us "taco_serve_wait_seconds" 0.5)
             (q_us "taco_serve_wait_seconds" 0.99)
             (q_us "taco_serve_run_seconds" 0.5)
             (q_us "taco_serve_run_seconds" 0.99))
    | "metrics" ->
        (* Prometheus text exposition, framed for the line protocol:
           "ok metrics N" then exactly N exposition lines, so a client
           (or the @metrics-smoke checker) can cut them out of a session
           transcript without guessing where they end. *)
        let text = Metrics.to_prometheus () in
        let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
        Some
          (String.concat "\n"
             (Printf.sprintf "ok metrics %d" (List.length lines) :: lines))
    | "help" -> Some protocol_help
    | "quit" -> raise Exit
    | "stop" ->
        stop_server := true;
        raise Exit
    | _ -> fail_input "unknown command %S (try help)" cmd
  in
  let session ic oc =
    let out s =
      output_string oc s;
      output_char oc '\n';
      flush oc
    in
    out (Printf.sprintf "ok taco serve domains=%d queue_depth=%d" domains queue_depth);
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          (match handle_line line with
          | resp -> Option.iter out resp
          | exception Exit -> out "ok bye"; raise Exit
          | exception Diag.Error d -> out ("error " ^ Diag.to_string d)
          | exception Failure s ->
              out
                ("error "
                ^ Diag.to_string
                    (Diag.make ~stage:Diag.Serve ~code:"E_SERVE_INPUT" s)));
          loop ()
    in
    try loop () with Exit -> ()
  in
  (match socket with
  | None -> session stdin stdout
  | Some path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      Printf.eprintf "tacocli serve: listening on %s\n%!" path;
      (* Sessions are sequential: one client at a time; concurrency lives
         in the worker pool behind the queue, not in the accept loop. *)
      while not !stop_server do
        let client, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        (try session ic oc with End_of_file | Sys_error _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ())
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ());
  Service.shutdown svc;
  let s = Service.stats svc in
  Printf.eprintf
    "tacocli serve: submitted=%d rejected=%d completed=%d timed_out=%d failed=%d peak_queue=%d\n"
    s.Service.submitted s.Service.rejected s.Service.completed s.Service.timed_out
    s.Service.failed s.Service.peak_queue;
  match trace_file with
  | None -> ()
  | Some file ->
      Trace.write_chrome file;
      Printf.eprintf "trace written to %s\n" file

(* ------------------------------------------------------------------ *)
(* graph: the semiring-kernel workloads on a random graph               *)
(* ------------------------------------------------------------------ *)

module G = Taco_graph.Graph

let run_graph workload nodes edge_prob seed src backend_str damping =
  protect @@ fun () ->
  let backend = parse_backend backend_str in
  if nodes < 1 then die "need at least one node";
  if src < 0 || src >= nodes then die "source node %d out of range [0, %d)" src nodes;
  let prng = Taco_support.Prng.create seed in
  let coo = Taco_tensor.Coo.create [| nodes; nodes |] in
  let edges = ref 0 in
  (* Triangles need a symmetric 0/1 adjacency; Bellman-Ford strictly
     positive weights; BFS and PageRank take any non-zero weights. *)
  (match workload with
  | "triangles" ->
      for i = 0 to nodes - 1 do
        for j = i + 1 to nodes - 1 do
          if Taco_support.Prng.bool prng edge_prob then begin
            Taco_tensor.Coo.push coo [| i; j |] 1.;
            Taco_tensor.Coo.push coo [| j; i |] 1.;
            edges := !edges + 2
          end
        done
      done
  | _ ->
      for i = 0 to nodes - 1 do
        for j = 0 to nodes - 1 do
          if i <> j && Taco_support.Prng.bool prng edge_prob then begin
            let w =
              if workload = "bellman-ford" then
                0.5 +. (5. *. Taco_support.Prng.float prng)
              else 1.
            in
            Taco_tensor.Coo.push coo [| i; j |] w;
            incr edges
          end
        done
      done);
  let a = Tensor.pack coo Format.csr in
  Printf.printf "graph: %d nodes, %d edges (seed %d)\n" nodes !edges seed;
  match workload with
  | "pagerank" ->
      let ranks, iters = get (G.pagerank ~backend ~damping a) in
      Printf.printf "pagerank: converged in %d iterations (damping %g)\n" iters damping;
      let order = Array.init nodes (fun i -> i) in
      Array.sort (fun i j -> compare ranks.(j) ranks.(i)) order;
      Array.iteri
        (fun k i -> if k < 5 then Printf.printf "  #%d node %d: %.6f\n" (k + 1) i ranks.(i))
        order
  | "bfs" ->
      let levels, rounds = get (G.bfs ~backend a ~src) in
      let reached = Array.fold_left (fun n l -> if l >= 0 then n + 1 else n) 0 levels in
      let depth = Array.fold_left max 0 levels in
      Printf.printf "bfs: from %d reached %d/%d nodes, depth %d, %d frontier expansions\n"
        src reached nodes depth rounds;
      if nodes <= 20 then
        Array.iteri
          (fun i l ->
            Printf.printf "  node %d: %s\n" i
              (if l < 0 then "unreachable" else string_of_int l))
          levels
  | "bellman-ford" ->
      let dist, rounds = get (G.bellman_ford ~backend a ~src) in
      let reached = Array.fold_left (fun n d -> if d < infinity then n + 1 else n) 0 dist in
      Printf.printf "bellman-ford: from %d reached %d/%d nodes in %d relaxation rounds\n"
        src reached nodes rounds;
      if nodes <= 20 then
        Array.iteri
          (fun i d ->
            Printf.printf "  node %d: %s\n" i
              (if d = infinity then "unreachable" else Printf.sprintf "%g" d))
          dist
  | "triangles" ->
      let t = get (G.triangle_count ~backend a) in
      Printf.printf "triangles: %.0f\n" t
  | w -> die "unknown graph workload %S (pagerank, bfs, bellman-ford, triangles)" w

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let expr_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc:"Index notation statement.")

let formats_arg =
  Arg.(value & opt_all string [] & info [ "f" ] ~docv:"NAME:FMT" ~doc:"Tensor format, one d(ense)/s(parse) letter per mode, e.g. A:ds for CSR.")

let dims_arg =
  Arg.(value & opt_all string [] & info [ "d" ] ~docv:"NAME:DIMS" ~doc:"Tensor dimensions for --run, e.g. B:5000,5000.")

let density_arg =
  Arg.(value & opt float 0.01 & info [ "density" ] ~doc:"Density of random sparse inputs.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let reorder_arg =
  Arg.(value & opt_all string [] & info [ "reorder" ] ~docv:"A,B" ~doc:"Exchange two index variables (repeatable).")

let precompute_arg =
  Arg.(value & opt_all string [] & info [ "precompute" ] ~docv:"EXPR|VARS|NAME" ~doc:"Precompute EXPR over VARS into workspace NAME (repeatable).")

let split_arg =
  Arg.(value & opt_all string [] & info [ "split" ] ~docv:"VAR:FACTOR" ~doc:"Strip-mine a dense loop (repeatable).")

let auto_arg = Arg.(value & flag & info [ "auto" ] ~doc:"Search for a schedule automatically.")

let backend_arg =
  Arg.(value & opt string "closure"
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Execution backend: closure (default) interprets the kernel in-process; \
                 c (or native) compiles the generated C into a shared object with the \
                 system compiler and runs that, falling back to closure when no \
                 compiler is available.")

let semiring_arg =
  Arg.(value & opt string "plus_times"
       & info [ "semiring" ] ~docv:"NAME"
           ~doc:"Semiring to evaluate under: plus_times (default), min_plus (tropical: \
                 shortest paths), max_times, or bool_or_and (reachability). Sparse \
                 absent entries act as the semiring zero; dense operand cells are \
                 literal carrier values.")

let print_cin_arg = Arg.(value & flag & info [ "print-cin" ] ~doc:"Print concrete index notation (always shown).")

let print_c_arg = Arg.(value & flag & info [ "print-c" ] ~doc:"Print the generated C code.")

let run_arg = Arg.(value & flag & info [ "run" ] ~doc:"Run the kernel on random inputs.")

let time_arg = Arg.(value & flag & info [ "time" ] ~doc:"Run and report wall-clock time.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Trace the whole pipeline (parse through kernel execution) and \
               write Chrome trace-event JSON to FILE (load in Perfetto or \
               chrome://tracing).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print a per-span timing summary and kernel work counters to stderr.")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
       ~doc:"Record metrics (latency histograms per pipeline stage, counters) \
             and dump the registry in Prometheus text exposition to stderr on exit.")

let explain_arg =
  Arg.(value & flag & info [ "explain" ]
       ~doc:"Autoschedule (implies --auto) and print the plan search's audit \
             record: candidates considered, estimated default vs. chosen cost, \
             search time, and the cheapest alternatives.")

let serve_cmd =
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Workers in the pool; those beyond the spare cores run as threads.")
  in
  let depth_arg =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc:"Bound of the submission queue; further submissions are rejected.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix domain socket at PATH (sequential sessions) instead of stdin.")
  in
  let serve_trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write Chrome trace-event JSON for all served requests on shutdown.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the concurrent evaluation service over a line protocol (type 'help' at the prompt).")
    Term.(const run_serve $ domains_arg $ depth_arg $ socket_arg $ serve_trace_arg)

let graph_cmd =
  let workload_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD"
             ~doc:"One of pagerank, bfs, bellman-ford, triangles.")
  in
  let nodes_arg =
    Arg.(value & opt int 200 & info [ "nodes" ] ~docv:"N" ~doc:"Number of graph nodes.")
  in
  let prob_arg =
    Arg.(value & opt float 0.02
         & info [ "edge-prob" ] ~docv:"P" ~doc:"Probability of each possible edge.")
  in
  let gseed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")
  in
  let src_arg =
    Arg.(value & opt int 0 & info [ "src" ] ~docv:"NODE" ~doc:"Source node for bfs and bellman-ford.")
  in
  let damping_arg =
    Arg.(value & opt float 0.85 & info [ "damping" ] ~doc:"PageRank damping factor.")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Run a graph workload (PageRank, BFS, Bellman-Ford, triangle counting) on \
             a random graph via semiring-generalized compiled kernels: BFS iterates a \
             boolean or-and SpMV, Bellman-Ford a min-plus SpMV, to fixpoint.")
    Term.(const run_graph $ workload_arg $ nodes_arg $ prob_arg $ gseed_arg $ src_arg
          $ backend_arg $ damping_arg)

let () =
  let term =
    Term.(
      const run_cli $ expr_arg $ formats_arg $ dims_arg $ density_arg $ seed_arg
      $ reorder_arg $ precompute_arg $ split_arg $ auto_arg $ backend_arg
      $ semiring_arg $ print_cin_arg $ print_c_arg $ run_arg $ time_arg $ trace_arg
      $ stats_arg $ metrics_arg $ explain_arg)
  in
  let info =
    Cmd.info "tacocli"
      ~doc:"Compile and run sparse tensor algebra expressions with workspaces \
            (or serve them: see the serve subcommand)."
  in
  (* A positional EXPR can be anything, so [Cmd.group ~default] cannot
     distinguish it from an unknown subcommand — dispatch by hand. *)
  if Array.length Sys.argv > 1 && (Sys.argv.(1) = "serve" || Sys.argv.(1) = "graph")
  then exit (Cmd.eval (Cmd.group info [ serve_cmd; graph_cmd ]))
  else exit (Cmd.eval (Cmd.v info term))
