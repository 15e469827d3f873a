(* A command-line tensor algebra compiler in the spirit of the taco tool
   [Kjolstad et al., ASE 2017], extended with the workspace scheduling of
   the CGO 2019 paper.

   Examples:

     # show concrete index notation and generated C for CSR matmul with
     # an automatically found schedule
     tacocli "A(i,j) = B(i,k) * C(k,j)" -f A:ds -f B:ds -f C:ds --auto --print-c

     # schedule manually, like the paper's Fig. 2
     tacocli "A(i,j) = B(i,k) * C(k,j)" -f A:ds -f B:ds -f C:ds \
        --reorder k,j --precompute "B(i,k) * C(k,j)|j|w"

     # generate random inputs, run, and time the kernel
     tacocli "y(i) = B(i,j) * x(j)" -f B:ds -d B:5000,5000 --density 0.001 --time

     # serve evaluation requests over a line protocol (see `serve --help`)
     tacocli serve --domains 4 --queue-depth 32
*)

open Taco
module P = Taco_frontend.Parser
module Service = Taco_service.Service
module Protocol = Taco_service.Protocol
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
    backend_str semiring_str print_c do_run do_time trace_file do_stats
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
        (name, Tensor_var.make name ~order ~format:(get (Protocol.parse_format name order fmt_spec))))
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
  if print_c then begin
    print_endline "";
    print_string (c_source compiled)
  end;
  if do_run || do_time then begin
    (* Random inputs: a tensor's -d dimensions, else the extents its
       index variables share with tensors given -d, else 1000 a mode. *)
    let prng = Taco_support.Prng.create seed in
    let info = Kernel.info (kernel compiled) in
    let result_name = Tensor_var.name info.Lower.result in
    let given =
      List.map
        (fun (name, spec) ->
          match List.assoc_opt name tensors with
          | None -> die "-d names %s, which the statement does not use" name
          | Some tv ->
              let ds = Protocol.dims_arg spec in
              if Array.length ds <> Tensor_var.order tv then
                die "-d %s:%s gives %d dimensions to a tensor of order %d" name spec
                  (Array.length ds) (Tensor_var.order tv);
              (tv, ds))
        dims_spec
    in
    Extent.check info.Lower.extents given;
    let inputs =
      List.filter_map
        (fun (name, tv) ->
          if not (List.exists (Tensor_var.equal tv) info.Lower.inputs) then None
          else begin
            let dims =
              Array.map (Option.value ~default:1000) (Extent.dims info.Lower.extents given tv)
            in
            let t = Protocol.random_tensor prng ~density dims (Tensor_var.format tv) in
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
           zero_bytes=%d reallocs=%d\n"
          s.Compile.iterations s.Compile.scalar_ops s.Compile.allocs s.Compile.alloc_elems
          s.Compile.zero_bytes s.Compile.reallocs
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

(* Protocol parsing lives in [Protocol]: a malformed line raises
   [Diag.Error] naming the offending clause or field, and the session
   loop answers it with one "error …" line and keeps serving. *)

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
    let cmd, rest = Protocol.split_word line in
    match cmd with
    | "" -> None
    | _ when cmd.[0] = '#' -> None
    | "tensor" -> Some (Protocol.make_tensor tensors (Protocol.words rest))
    | "eval" | "eval&" -> (
        let req, deadline_ms = Protocol.build_request tensors rest in
        match Service.submit svc ?deadline_ms req with
        | Error d -> Some ("error " ^ Diag.to_string d)
        | Ok ticket ->
            if cmd = "eval" then Some (Protocol.response_line (Service.await ticket))
            else begin
              incr next_ticket;
              Hashtbl.replace tickets !next_ticket ticket;
              Some (Printf.sprintf "ok ticket %d" !next_ticket)
            end)
    | "wait" -> (
        let id =
          try int_of_string rest with Failure _ -> Protocol.fail_input "usage: wait ID"
        in
        match Hashtbl.find_opt tickets id with
        | None -> Protocol.fail_input "unknown ticket %d" id
        | Some t ->
            Hashtbl.remove tickets id;
            Some (Protocol.response_line (Service.await t)))
    | "stats" -> Some (Protocol.stats_line svc)
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
    | "help" -> Some Protocol.help
    | "quit" -> raise Exit
    | "stop" ->
        stop_server := true;
        raise Exit
    | _ -> Protocol.fail_input "unknown command %S (try help)" cmd
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
      $ semiring_arg $ print_c_arg $ run_arg $ time_arg $ trace_arg
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
