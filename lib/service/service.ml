(* The concurrent evaluation service: a bounded MPMC job queue feeding a
   fixed pool of workers, each running the whole pipeline (parse →
   concretize → schedule → lower → compile → execute) through the Taco
   facade, on batches of the jobs queued when it dequeues. Compilation
   coalescing is not implemented here: it falls out of the single-flight
   compiled-kernel cache in [Taco_exec.Compile], which this service
   merely hammers from many workers, and a batch's native misses share
   one cc run there. A worker runs on a domain of its own where the
   domain budget grants one, and otherwise as a thread of the domain
   that created the pool. See service.mli for the
   batching/queueing/deadline/backpressure semantics. *)

module Format = Taco_tensor.Format
module Tensor = Taco_tensor.Tensor
module Diag = Taco_support.Diag
module Trace = Taco_support.Trace
module Metrics = Taco_support.Metrics
module Events = Taco_support.Events
module Json = Taco_support.Json
module Fault = Taco_support.Faultinject
module Memo = Taco_support.Memo
module P = Taco_frontend.Parser
module Tensor_var = Taco_ir.Var.Tensor_var

let log_src = Logs.Src.create "taco.service" ~doc:"Taco evaluation service"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Request ids are process-global (one sequence across all pools), so a
   trace, the event log and client-side bookkeeping agree on them. *)
let next_rid = Atomic.make 1

type directive =
  | Reorder of string * string
  | Precompute of { expr : string; over : string list; workspace : string }
  | Parallelize of string
  | Auto

type request = {
  expr : string;
  directives : directive list;
  inputs : (string * Tensor.t) list;
  result_format : Format.t option;
  domains : int option;
  backend : Taco.Compile.backend option;
  semiring : string option;
}

let request ?(directives = []) ?result_format ?domains ?backend ?semiring ~expr ~inputs
    () =
  { expr; directives; inputs; result_format; domains; backend; semiring }

type response = {
  tensor : Tensor.t;
  kernel_name : string;
  wait_ns : int64;
  run_ns : int64;
}

type ticket = {
  tk_mutex : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_state : (response, Diag.t) result option;
}

type job = {
  j_rid : int;
  j_req : request;
  j_enq_ns : int64;
  j_deadline_ns : int64 option;  (* absolute, from the monotonic clock *)
  j_deadline_ms : int option;  (* as requested, for diagnostics *)
  j_ticket : ticket;
  mutable j_backend : string;
      (* executor that actually served it: native/closure/downgraded,
         or "none" before (or without) a successful compile *)
  mutable j_compile_ns : int64;  (* measured compile-phase duration *)
  mutable j_front : string;
      (* how the front cache served it: hit, miss, or bypass (not
         consulted: an Auto request, or one answered before its front
         end ran) *)
  mutable j_dequeue_ns : int64 option;
      (* latest dequeue, if any: a batch-mate put back after a crash
         keeps the one wait span of its first *)
}

type state = Running | Draining | Stopped

(* What a worker runs on: a domain of its own, held by a budget permit,
   or a thread of the domain that created the pool. *)
type carrier = Own_domain | Caller_thread

type stats = {
  submitted : int;
  rejected : int;
  completed : int;
  timed_out : int;
  failed : int;
  peak_queue : int;
  total_wait_ns : int64;
  total_run_ns : int64;
  crashed : int;
  replaced : int;
  quarantined : int;
  live_workers : int;
  peak_workers : int;
  exec_native : int;
  exec_closure : int;
  backend_downgraded : int;
}

type t = {
  s_mutex : Mutex.t;
  s_nonempty : Condition.t;  (* a job was queued, or the state changed *)
  s_stopped : Condition.t;  (* the pool reached [Stopped] *)
  s_queue : job Queue.t;
  s_depth : int;
  s_domains : int;
  s_own_domains : int;  (* workers on a domain of their own: the permits granted *)
  s_crashes : (string, int) Hashtbl.t;  (* request key -> workers killed *)
  s_quarantine : (string, unit) Hashtbl.t;  (* poison-pill request keys *)
  mutable s_state : state;
  mutable s_workers : (unit -> unit) list;  (* each worker's join *)
  mutable s_live : int;  (* workers currently in their loop *)
  mutable st_submitted : int;
  mutable st_rejected : int;
  mutable st_completed : int;
  mutable st_timed_out : int;
  mutable st_failed : int;
  mutable st_peak_queue : int;
  mutable st_total_wait_ns : int64;
  mutable st_total_run_ns : int64;
  mutable st_crashed : int;
  mutable st_replaced : int;
  mutable st_quarantined : int;
  mutable st_peak_workers : int;
  mutable st_exec_native : int;
  mutable st_exec_closure : int;
  mutable st_backend_downgraded : int;
}

let serve_error ?context code fmt = Diag.error ~stage:Diag.Serve ~code ?context fmt

(* How a request left the service: the [outcome] label of
   [taco_serve_requests_total] and of the latency histograms. *)
let outcome_label = function
  | `Completed -> "completed"
  | `Timed_out -> "timed_out"
  | `Failed -> "failed"
  | `Rejected -> "rejected"

(* Every counted service event goes through here, with [t.s_mutex]
   held: it bumps its field of this service's record and its registry
   series together, as [Memo] does for the caches, so [stats] and a
   scrape of the registry agree. *)
let count t = function
  | `Submitted ->
      t.st_submitted <- t.st_submitted + 1;
      Metrics.inc "taco_serve_submitted_total"
  | `Crashed ->
      t.st_crashed <- t.st_crashed + 1;
      Metrics.inc "taco_serve_crashed_total"
  | `Replaced ->
      t.st_replaced <- t.st_replaced + 1;
      Metrics.inc "taco_serve_replaced_total"
  | `Quarantined ->
      t.st_quarantined <- t.st_quarantined + 1;
      Metrics.inc "taco_serve_quarantined_total"
  | `Request (outcome, code) ->
      (match outcome with
      | `Completed -> t.st_completed <- t.st_completed + 1
      | `Timed_out -> t.st_timed_out <- t.st_timed_out + 1
      | `Failed -> t.st_failed <- t.st_failed + 1
      | `Rejected -> t.st_rejected <- t.st_rejected + 1);
      if Metrics.enabled () then
        Metrics.inc
          ~labels:
            (("outcome", outcome_label outcome)
            :: (match code with Some c -> [ ("code", c) ] | None -> []))
          "taco_serve_requests_total"

(* Under [t.s_mutex], so the gauge follows the queue's order of change
   (the gauge table has its own lock and never takes this one). *)
let publish_depth t =
  Metrics.set_gauge "taco_serve_queue_depth" (float_of_int (Queue.length t.s_queue))

(* ------------------------------------------------------------------ *)
(* The request pipeline (runs on a worker)                             *)
(* ------------------------------------------------------------------ *)

(* Raised between pipeline steps when the request's deadline passes. *)
exception Expired of Diag.t

let deadline_diag ?waited_ms job =
  let context =
    [ ("deadline_ms", string_of_int (Option.value ~default:0 job.j_deadline_ms)) ]
    @ match waited_ms with Some w -> [ ("waited_ms", string_of_int w) ] | None -> []
  in
  Diag.make ~stage:Diag.Serve ~code:"E_SERVE_DEADLINE" ~context
    "request deadline exceeded"

let check_deadline job =
  match job.j_deadline_ns with
  | Some d when Trace.now_ns () > d -> raise (Expired (deadline_diag job))
  | _ -> ()

(* Build the tensor-variable environment for the parser: operand formats
   come from the bound input tensors, the result's from the request. The
   first scanned tensor is the statement's result (grammar: the lhs
   access comes first). Operands with no bound input get a placeholder
   variable and are returned in the [missing] list: the caller parses
   the statement first, so a syntax error wins over a missing binding
   (whose scanned order may be garbage anyway). *)
let build_env req =
  match P.scan_tensors req.expr with
  | [] -> serve_error "E_SERVE_EXPR" "no tensor access found in %S" req.expr
  | (result_name, _) :: _ as scanned ->
      let bound name = List.assoc_opt name req.inputs in
      let rec vars acc missing = function
        | [] -> Ok (List.rev acc, List.rev missing)
        | (name, order) :: rest -> (
            if name = result_name then
              let fmt =
                match req.result_format with
                | Some f -> f
                | None -> Format.dense order
              in
              if Format.order fmt <> order then
                serve_error "E_SERVE_INPUT"
                  ~context:[ ("tensor", name) ]
                  "result format has order %d but %s is accessed with %d indices"
                  (Format.order fmt) name order
              else
                vars ((name, Tensor_var.make name ~order ~format:fmt) :: acc) missing rest
            else
              match bound name with
              | None ->
                  vars
                    ((name, Tensor_var.make name ~order ~format:(Format.dense order)) :: acc)
                    (name :: missing) rest
              | Some tensor ->
                  if Tensor.order tensor <> order then
                    serve_error "E_SERVE_INPUT"
                      ~context:[ ("tensor", name) ]
                      "input %s has order %d but is accessed with %d indices" name
                      (Tensor.order tensor) order
                  else
                    vars ((name, Tensor_var.make name ~order ~format:(Tensor.format tensor)) :: acc)
                      missing rest)
      in
      (* Reject stray bindings early: a misspelled operand otherwise
         surfaces later as a confusing missing-operand error. *)
      let stray =
        List.find_opt (fun (name, _) -> not (List.mem_assoc name scanned)) req.inputs
      in
      (match stray with
      | Some (name, _) ->
          serve_error "E_SERVE_INPUT"
            ~context:[ ("tensor", name) ]
            "input %s does not occur in the expression" name
      | None ->
          if List.mem_assoc result_name req.inputs then
            serve_error "E_SERVE_INPUT"
              ~context:[ ("tensor", result_name) ]
              "the result tensor %s must not be bound as an input" result_name
          else vars [] [] scanned)

let apply_directive env sched d =
  let ivar = Taco.ivar in
  match d with
  | Auto -> Ok sched
  | Reorder (a, b) ->
      Diag.of_msg ~stage:Diag.Reorder ~code:"E_REORDER"
        (Taco.Schedule.reorder (ivar a) (ivar b) sched)
  | Parallelize v -> Taco.parallelize (ivar v) sched
  | Precompute { expr; over; workspace } -> (
      match P.parse_expr ~tensors:env expr with
      | Error e -> Error e
      | Ok e -> (
          match
            Diag.of_msg ~stage:Diag.Workspace ~code:"E_WORKSPACE"
              (Taco.Schedule.expr_of_index_notation e)
          with
          | Error e -> Error e
          | Ok cexpr ->
              let over = List.map ivar over in
              let w =
                Tensor_var.workspace workspace ~order:(List.length over)
                  ~format:(Format.dense (List.length over))
              in
              Diag.of_msg ~stage:Diag.Workspace ~code:"E_WORKSPACE"
                (Taco.Schedule.precompute_simple ~expr:cexpr ~over ~workspace:w sched)))

(* Identifies a request's structure (expression and directives, not the
   bound tensors) for crash accounting: a structure that kills workers
   keeps doing so however often it is resubmitted. *)
let poison_key req =
  Digest.to_hex (Digest.string (Marshal.to_string (req.expr, req.directives, req.semiring) []))

(* Per-request backend accounting: which executor actually serves the
   kernel, and whether a native request fell back to closures. The job
   carries the answer as a metric label ("downgraded" rather than the
   executor it landed on, so fallbacks stay visible in histograms). *)
let record_backend t job compiled ~requested =
  let actual = Taco.backend_of compiled in
  let downgraded = requested = `Native && actual = `Closure in
  job.j_backend <-
    (if downgraded then "downgraded"
     else match actual with `Native -> "native" | `Closure -> "closure");
  Mutex.lock t.s_mutex;
  (match actual with
  | `Native -> t.st_exec_native <- t.st_exec_native + 1
  | `Closure -> t.st_exec_closure <- t.st_exec_closure + 1);
  if downgraded then t.st_backend_downgraded <- t.st_backend_downgraded + 1;
  Mutex.unlock t.s_mutex

(* The front end of a job: parse, concretize, schedule and lower, up to
   a statement ready for the batch compile. *)
let lower_request job =
  let req = job.j_req in
  let ( let* ) = Result.bind in
  let* env, missing = build_env req in
  let result_name = fst (List.hd env) in
  let* stmt = P.parse_statement ~tensors:env req.expr in
  let* () =
    match missing with
    | [] -> Ok ()
    | name :: _ ->
        serve_error "E_SERVE_INPUT"
          ~context:[ ("tensor", name) ]
          "operand %s has no bound input tensor" name
  in
  let* sched =
    Diag.of_msg ~stage:Diag.Concretize ~code:"E_CONCRETIZE"
      (Taco.Schedule.of_index_notation stmt)
  in
  let* sched =
    List.fold_left
      (fun acc d -> match acc with Error _ -> acc | Ok s -> apply_directive env s d)
      (Ok sched) req.directives
  in
  let name = "serve_" ^ result_name in
  (* An unknown semiring name is a client error at admission quality:
     reject with the known names rather than defaulting silently. *)
  let* semiring =
    match req.semiring with
    | None -> Ok None
    | Some sname -> (
        match Taco.Semiring.of_string sname with
        | Some sr -> Ok (Some sr)
        | None ->
            serve_error "E_SERVE_SEMIRING"
              ~context:[ ("semiring", sname) ]
              "unknown semiring %S (known: %s)" sname
              (String.concat ", " Taco.Semiring.names))
  in
  let lower_t0 = Trace.now_ns () in
  let lowered =
    if List.mem Auto req.directives then begin
      (* Input sparsity statistics drive the cost-ranked plan search;
         collection is memoized on tensor identity, and passing stats
         also keys the chosen plan into the plan cache, so repeat
         traffic on the same expression shape skips the search. *)
      let stats =
        List.map (fun (n, tensor) -> (n, Taco.Stats.of_tensor_memo tensor)) req.inputs
      in
      Result.map
        (fun (l, _, _) -> l)
        (Taco.auto_lower ~name ?semiring ?backend:req.backend ~stats sched)
    end
    else Taco.lower ~name ?semiring ?backend:req.backend sched
  in
  job.j_compile_ns <- Int64.sub (Trace.now_ns ()) lower_t0;
  Result.map (fun l -> (l, env)) lowered

(* The front cache: a request's lowered statement and parser environment
   by request shape. The lowered statement is a function of the key's
   inputs alone — never of the operands' dims or values — so a hit skips
   parse, concretize, the schedule directives and lowering, and its
   spec keeps the kernel digest the compile cache is keyed by. Errors
   are not cached. *)
let fronts : (Taco.lowered * (string * Tensor_var.t) list) Memo.t =
  Memo.create ~name:"front" ~capacity:256

(* Everything that shapes the lowered statement: the expression text,
   the directives in order, the result format, each input's name and
   format (a format fixes its order), the semiring and the backend.
   [domains] only chunks execution.
   [None] for an [Auto] request: its plan depends on the operands'
   statistics, and the plan cache already serves repeats. *)
let front_key req =
  if List.mem Auto req.directives then None
  else
    Some
      (Digest.string
         (Marshal.to_string
            ( req.expr,
              req.directives,
              req.result_format,
              List.map (fun (name, tensor) -> (name, Tensor.format tensor)) req.inputs,
              req.semiring,
              req.backend )
            []))

(* The front end through the front cache. A hit is restamped with this
   request's id, and still passes the [serve.pipeline] fault point, the
   compile-cache lookup and execution like any other request. *)
let front job =
  Fault.hit ~stage:Diag.Serve "serve.pipeline";
  match front_key job.j_req with
  | None -> lower_request job
  | Some key ->
      let built = ref false in
      let r =
        Memo.find_or_build_result fronts key (fun () ->
            built := true;
            lower_request job)
      in
      job.j_front <- (if !built then "miss" else "hit");
      Result.map (fun (lowered, env) -> (Taco.restamp lowered, env)) r

let front_cache_stats () = Memo.stats fronts

let front_cache_clear () = Memo.clear fronts

(* The back end of a job, once the batch compile has answered: record
   the backend, re-check the deadline and execute. *)
let back t job env compiled =
  let ( let* ) = Result.bind in
  let* compiled = compiled in
  let req = job.j_req in
  record_backend t job compiled
    ~requested:(Option.value ~default:`Closure req.backend);
  if Metrics.enabled () then
    Metrics.observe_ns
      ~labels:[ ("backend", job.j_backend) ]
      "taco_serve_compile_seconds" job.j_compile_ns;
  (* The deadline may have passed while compiling; do not burn a worker
     on executing a result nobody is waiting for. *)
  check_deadline job;
  Fault.hit ~stage:Diag.Serve "serve.exec";
  let inputs =
    List.map (fun (n, tensor) -> (List.assoc n env, tensor)) req.inputs
  in
  (* [domains] is the requested chunk count; the kernel executor clamps
     the domains it actually spawns against the process-wide budget, of
     which this pool's workers already hold their share — so a parallel
     kernel inside a busy pool degrades to (deterministically identical)
     sequential chunks instead of oversubscribing the machine. The
     deadline is passed down so the executor's cooperative watchdog can
     cancel a kernel still running when it expires. *)
  let* tensor =
    match
      Taco.run ?domains:req.domains ?deadline_ns:job.j_deadline_ns compiled ~inputs
    with
    | Error d when d.Diag.code = "E_EXEC_CANCELLED" ->
        (* The watchdog firing mid-kernel is this job's deadline. *)
        Error (deadline_diag job)
    | r -> r
  in
  Ok (tensor, (Taco.Kernel.info (Taco.kernel compiled)).Taco.Lower.kernel.Taco.Imp.k_name)

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)
(* ------------------------------------------------------------------ *)

let fresh_ticket () =
  { tk_mutex = Mutex.create (); tk_cond = Condition.create (); tk_state = None }

let resolve ticket outcome =
  Mutex.lock ticket.tk_mutex;
  if ticket.tk_state = None then ticket.tk_state <- Some outcome;
  Condition.broadcast ticket.tk_cond;
  Mutex.unlock ticket.tk_mutex

let await ticket =
  Mutex.lock ticket.tk_mutex;
  let rec wait () =
    match ticket.tk_state with
    | Some outcome -> outcome
    | None ->
        Condition.wait ticket.tk_cond ticket.tk_mutex;
        wait ()
  in
  let outcome = wait () in
  Mutex.unlock ticket.tk_mutex;
  outcome

let poll ticket =
  Mutex.lock ticket.tk_mutex;
  let s = ticket.tk_state in
  Mutex.unlock ticket.tk_mutex;
  s

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let ms_of_ns ns = Int64.to_int (Int64.div ns 1_000_000L)

let set_worker_gauge live =
  if Metrics.enabled () then
    Metrics.set_gauge "taco_serve_live_workers" (float_of_int live)

let set_domain_gauge n =
  if Metrics.enabled () then
    Metrics.set_gauge "taco_serve_worker_domains" (float_of_int n)

(* Classify, count and answer one finished job: every job a worker or
   the crash path answers passes here exactly once. The metrics and the
   event log are written off the service mutex. *)
let finish t job ~wait_ns ~run_ns outcome =
  let kind, code =
    match outcome with
    | Ok _ -> (`Completed, None)
    | Error d when d.Diag.code = "E_SERVE_DEADLINE" -> (`Timed_out, None)
    | Error d -> (`Failed, Some d.Diag.code)
  in
  Mutex.lock t.s_mutex;
  count t (`Request (kind, code));
  t.st_total_wait_ns <- Int64.add t.st_total_wait_ns wait_ns;
  t.st_total_run_ns <- Int64.add t.st_total_run_ns run_ns;
  Mutex.unlock t.s_mutex;
  let outcome_l = outcome_label kind in
  if Metrics.enabled () then begin
    let bl = [ ("backend", job.j_backend); ("outcome", outcome_l) ] in
    Metrics.observe_ns ~labels:bl "taco_serve_wait_seconds" wait_ns;
    Metrics.observe_ns ~labels:bl "taco_serve_run_seconds" run_ns;
    let cs = Taco.Compile.cache_stats () in
    let lookups = cs.Taco.Compile.hits + cs.Taco.Compile.misses in
    if lookups > 0 then
      Metrics.set_gauge "taco_compile_cache_hit_ratio"
        (float_of_int cs.Taco.Compile.hits /. float_of_int lookups)
  end;
  if Events.enabled () then
    Events.emit "serve.request"
      ([
         ("rid", Json.Int job.j_rid);
         ("expr", Json.Str job.j_req.expr);
         ("outcome", Json.Str outcome_l);
         ("backend", Json.Str job.j_backend);
         ("front_cache", Json.Str job.j_front);
         ("wait_ns", Json.Int (Int64.to_int wait_ns));
         ("run_ns", Json.Int (Int64.to_int run_ns));
         ("compile_ns", Json.Int (Int64.to_int job.j_compile_ns));
       ]
      @ (match code with Some c -> [ ("code", Json.Str c) ] | None -> [])
      @
      match job.j_deadline_ms with
      | Some ms -> [ ("deadline_ms", Json.Int ms) ]
      | None -> []);
  Log.debug (fun m ->
      m "rid=%d %s backend=%s wait=%dms run=%dms" job.j_rid outcome_l
        job.j_backend (ms_of_ns wait_ns) (ms_of_ns run_ns));
  resolve job.j_ticket outcome;
  (* On a thread carrier, let a client thread of this domain take the
     answer and refill the queue before the next dequeue, as it could
     from a domain of its own: batches stay as large. A no-op when no
     other thread of this domain waits to run. *)
  Thread.yield ()

(* A job's failure, whatever it raised: request failures are contained
   here, so only a fault outside (the [serve.worker] point) or a bug in
   the serving machinery can kill a worker. *)
let contained f =
  match f () with
  | r -> r
  | exception Expired d -> Error d
  | exception Diag.Error d -> Error d
  | exception exn ->
      serve_error "E_SERVE_INTERNAL" "unexpected exception: %s" (Printexc.to_string exn)

(* The batch a worker holds: the jobs not yet resolved, and the one a
   crash is charged to (the job being worked on, if any). *)
type held = { mutable charged : job option; mutable unresolved : job list }

(* Run [f] for [job]: its request id bound to this carrier (every trace
   span and instant it emits is stamped with it) and a crash charged to
   it. An exception escaping [f] kills the worker, so the charge is
   left standing for [handle_crash]. *)
let for_job held job f =
  held.charged <- Some job;
  Trace.set_request_id (Some job.j_rid);
  let r = f () in
  held.charged <- None;
  Trace.set_request_id None;
  r

(* Process a dequeued batch. Each job's front end runs in turn, and a
   job that expired, failed or whose kernel the compile cache holds is
   answered at once; the statements the cache missed then compile
   together, so every native miss among them shares one C file, one cc
   and one dlopen, and each of those jobs executes and is answered in
   queue order. *)
let process_batch t held jobs =
  let dequeue_ns = Trace.now_ns () in
  let wait_ns job = Int64.sub dequeue_ns job.j_enq_ns in
  (* Answer [job]; [serve.exec] spans its time since the dequeue. *)
  let finish_job job outcome =
    let wait_ns = wait_ns job and run_ns = Int64.sub (Trace.now_ns ()) dequeue_ns in
    if Trace.active () then
      Trace.span_complete ~cat:"serve"
        ~args:[ ("expr", job.j_req.expr) ]
        ~ts:dequeue_ns ~dur_ns:run_ns "serve.exec";
    finish t job ~wait_ns ~run_ns
      (Result.map (fun (tensor, kernel_name) -> { tensor; kernel_name; wait_ns; run_ns }) outcome);
    held.unresolved <- List.filter (fun j -> j != job) held.unresolved
  in
  let fronts =
    List.filter_map
      (fun job ->
        for_job held job (fun () ->
            if Trace.active () && job.j_dequeue_ns = None then
              Trace.span_complete ~cat:"serve" ~ts:job.j_enq_ns ~dur_ns:(wait_ns job) "serve.wait";
            job.j_dequeue_ns <- Some dequeue_ns;
            (* The one fault site outside the containment: a Crash rule
               here kills the worker, exercising the supervision
               path below. *)
            Fault.hit ~stage:Diag.Serve "serve.worker";
            match job.j_deadline_ns with
            | Some d when dequeue_ns > d ->
                finish_job job (Error (deadline_diag ~waited_ms:(ms_of_ns (wait_ns job)) job));
                None
            | _ -> (
                match contained (fun () -> front job) with
                | Error d ->
                    finish_job job (Error d);
                    None
                | Ok (lowered, env) -> (
                    let t0 = Trace.now_ns () in
                    match contained (fun () -> Ok (Taco.lookup lowered)) with
                    | Ok None -> Some (job, lowered, env)
                    | Ok (Some compiled) ->
                        (* A hit waits for none of its batch-mates. *)
                        job.j_compile_ns <-
                          Int64.add job.j_compile_ns (Int64.sub (Trace.now_ns ()) t0);
                        finish_job job (contained (fun () -> back t job env compiled));
                        None
                    | Error d ->
                        finish_job job (Error d);
                        None))))
      jobs
  in
  let t0 = Trace.now_ns () in
  let compiled =
    (* A lone job keeps its request id on the shared build spans. *)
    Trace.set_request_id (match fronts with [ (job, _, _) ] -> Some job.j_rid | _ -> None);
    match Taco.compile_batch (List.map (fun (_, l, _) -> l) fronts) with
    | rs ->
        Trace.set_request_id None;
        rs
    | exception _ ->
        (* Should the batch itself fail, each job compiles alone. *)
        List.map
          (fun (job, l, _) ->
            for_job held job (fun () -> contained (fun () -> List.hd (Taco.compile_batch [ l ]))))
          fronts
  in
  let dt = Int64.sub (Trace.now_ns ()) t0 in
  List.iter (fun (job, _, _) -> job.j_compile_ns <- Int64.add job.j_compile_ns dt) fronts;
  List.iter2
    (fun (job, _, env) compiled ->
      for_job held job (fun () -> finish_job job (contained (fun () -> back t job env compiled))))
    fronts compiled

(* The largest batch a worker takes. On the batch-cost curve
   (BENCH_cbackend.json; EXPERIMENTS.md, "Batched kernel builds") eight
   kernels in one unit cost about a third of eight builds. Past eight
   the fixed per-process cost is already spread thin, while every
   kernel added lengthens the wait of the whole batch. *)
let batch_cap = 8

let rec worker_loop t held =
  Mutex.lock t.s_mutex;
  let rec wait () =
    if not (Queue.is_empty t.s_queue) then true
    else
      match t.s_state with
      | Running ->
          Condition.wait t.s_nonempty t.s_mutex;
          wait ()
      | Draining | Stopped -> false
  in
  (* Take a fair share of what is queued, so a wider pool still spreads
     the work: at most ceil(queued / live workers) jobs. *)
  let jobs =
    if not (wait ()) then []
    else
      let live = max 1 t.s_live in
      let share = (Queue.length t.s_queue + live - 1) / live in
      List.init (min batch_cap share) (fun _ -> Queue.pop t.s_queue)
  in
  if jobs <> [] then publish_depth t;
  held.unresolved <- jobs;
  Mutex.unlock t.s_mutex;
  if jobs <> [] then begin
    process_batch t held jobs;
    worker_loop t held
  end

(* A worker: runs the loop on its carrier, and on an escaped exception
   reports the death so the pool can replace it. [process_batch]
   contains everything a request can throw, so escapes are either
   injected faults or failures of the serving machinery itself — both
   mean this worker is done. Returns the worker's join. *)
let rec spawn_worker t carrier =
  let held = { charged = None; unresolved = [] } in
  let run () = try worker_loop t held with exn -> handle_crash t held carrier exn in
  match carrier with
  | Own_domain ->
      let d = Domain.spawn run in
      fun () -> Domain.join d
  | Caller_thread ->
      let th = Thread.create run () in
      fun () -> Thread.join th

(* The worker died holding [held]: the crash is charged to the job it
   was working on, which is retried once and quarantined on a second
   strike; the rest of its batch is requeued uncharged. What is retried
   goes back to the head of the queue in its batch order, ahead of the
   jobs admitted since: it was dequeued first. *)
and handle_crash t held carrier exn =
  let victim = held.charged in
  let charged j = match victim with Some v -> v == j | None -> false in
  let mates = List.filter (fun j -> not (charged j)) held.unresolved in
  let requeue_front jobs =
    let rest = Queue.create () in
    Queue.transfer t.s_queue rest;
    List.iter (fun j -> Queue.push j t.s_queue) jobs;
    Queue.transfer rest t.s_queue;
    if jobs <> [] then begin
      publish_depth t;
      Condition.broadcast t.s_nonempty
    end
  in
  Mutex.lock t.s_mutex;
  count t `Crashed;
  t.s_live <- t.s_live - 1;
  let poisoned =
    match victim with
    | None -> None
    | Some job ->
        let key = poison_key job.j_req in
        let kills = 1 + Option.value ~default:0 (Hashtbl.find_opt t.s_crashes key) in
        Hashtbl.replace t.s_crashes key kills;
        if kills >= 2 then begin
          (* Second worker killed by the same request structure: stop
             retrying it, and pre-reject future submissions of it. *)
          Hashtbl.replace t.s_quarantine key ();
          count t `Quarantined;
          Some (job, kills)
        end
        else if t.s_state = Running then
          (* First strike: requeue for one more attempt, below (possibly
             on another worker — the crash may have been the worker's). *)
          None
        else begin
          (* No replacement is coming during drain; fail it rather than
             strand the submitter on an unresolved ticket. *)
          Some (job, kills)
        end
  in
  (* Batch-mates did nothing wrong: back in the queue, with a victim on
     its first strike, or failed like the victim when no replacement is
     coming. *)
  let stranded =
    if t.s_state = Running then begin
      requeue_front
        (List.filter (fun j -> not (charged j) || Option.is_none poisoned) held.unresolved);
      []
    end
    else mates
  in
  let replace = t.s_state = Running in
  if replace then begin
    (* On the same kind of carrier: the pool's permits do not change. *)
    let w = spawn_worker t carrier in
    t.s_workers <- w :: t.s_workers;
    t.s_live <- t.s_live + 1;
    count t `Replaced
  end;
  let live = t.s_live in
  Mutex.unlock t.s_mutex;
  Log.warn (fun m ->
      m "worker died (%s); %s" (Printexc.to_string exn)
        (if replace then "replaced" else "not replacing during drain"));
  set_worker_gauge live;
  let died_in_shutdown context =
    Diag.make ~stage:Diag.Serve ~code:"E_SERVE_INTERNAL"
      ~context:(context @ [ ("exn", Printexc.to_string exn) ])
      "worker domain died during shutdown"
  in
  (* The jobs this crash fails are answered like any other, so they are
     counted and logged once. *)
  let fail job diag =
    let now = Trace.now_ns () in
    let dequeued = Option.value ~default:now job.j_dequeue_ns in
    finish t job ~wait_ns:(Int64.sub dequeued job.j_enq_ns) ~run_ns:(Int64.sub now dequeued)
      (Error diag)
  in
  List.iter (fun j -> fail j (died_in_shutdown [])) stranded;
  match poisoned with
  | None -> ()
  | Some (job, kills) ->
      let killed = [ ("workers_killed", string_of_int kills) ] in
      fail job
        (if kills >= 2 then
           Diag.make ~stage:Diag.Serve ~code:"E_SERVE_POISON"
             ~context:(killed @ [ ("exn", Printexc.to_string exn) ])
             "request killed a worker domain; quarantined"
         else died_in_shutdown killed)

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create ?(domains = 1) ?(queue_depth = 64) () =
  if domains < 1 || domains > 128 then
    invalid_arg "Service.create: domains must be in 1..128";
  if queue_depth < 1 then invalid_arg "Service.create: queue_depth must be positive";
  (* A worker has a domain of its own only where the process-wide budget
     grants a permit for it, so the pool's domains stay within what the
     hardware offers, and kernels (here or elsewhere) see that many fewer
     domains to spawn. The other workers run as threads of this domain:
     with no spare core, the whole pool is this one domain. *)
  let own_domains = Taco.Budget.acquire domains in
  let t =
    {
      s_mutex = Mutex.create ();
      s_nonempty = Condition.create ();
      s_stopped = Condition.create ();
      s_queue = Queue.create ();
      s_depth = queue_depth;
      s_domains = domains;
      s_own_domains = own_domains;
      s_crashes = Hashtbl.create 8;
      s_quarantine = Hashtbl.create 8;
      s_state = Running;
      s_workers = [];
      s_live = domains;
      st_submitted = 0;
      st_rejected = 0;
      st_completed = 0;
      st_timed_out = 0;
      st_failed = 0;
      st_peak_queue = 0;
      st_total_wait_ns = 0L;
      st_total_run_ns = 0L;
      st_crashed = 0;
      st_replaced = 0;
      st_quarantined = 0;
      st_peak_workers = domains;
      st_exec_native = 0;
      st_exec_closure = 0;
      st_backend_downgraded = 0;
    }
  in
  t.s_workers <-
    List.init domains (fun i ->
        spawn_worker t (if i < own_domains then Own_domain else Caller_thread));
  set_worker_gauge domains;
  set_domain_gauge own_domains;
  t

(* A submission that never reached the queue still counts as a request
   (outcome="rejected") and still gets an event-log line, so load
   studies see the offered load, not just the accepted one. *)
let note_rejected t rid req code =
  Mutex.lock t.s_mutex;
  count t (`Request (`Rejected, Some code));
  Mutex.unlock t.s_mutex;
  if Events.enabled () then
    Events.emit "serve.reject"
      [
        ("rid", Json.Int rid);
        ("expr", Json.Str req.expr);
        ("code", Json.Str code);
      ]

let submit t ?deadline_ms req =
  let enq_ns = Trace.now_ns () in
  let rid = Atomic.fetch_and_add next_rid 1 in
  Mutex.lock t.s_mutex;
  let verdict =
    if t.s_state <> Running then `Shutdown
    else if
      Hashtbl.length t.s_quarantine > 0
      && Hashtbl.mem t.s_quarantine (poison_key req)
    then `Poison
    else if Queue.length t.s_queue >= t.s_depth then begin
      (* Estimate when a slot should free up: the average job service
         time scaled by how many jobs each live worker has ahead of it.
         A hint, not a promise — good enough to spread retries. *)
      let processed = t.st_completed + t.st_timed_out + t.st_failed in
      let avg_ms =
        if processed = 0 then 5
        else max 1 (ms_of_ns (Int64.div t.st_total_run_ns (Int64.of_int processed)))
      in
      `Full (max 1 (avg_ms * Queue.length t.s_queue / max 1 t.s_live))
    end
    else begin
      let ticket = fresh_ticket () in
      let deadline_ns =
        Option.map
          (fun ms -> Int64.add enq_ns (Int64.mul (Int64.of_int (max 0 ms)) 1_000_000L))
          deadline_ms
      in
      Queue.push
        {
          j_rid = rid;
          j_req = req;
          j_enq_ns = enq_ns;
          j_deadline_ns = deadline_ns;
          j_deadline_ms = deadline_ms;
          j_ticket = ticket;
          j_backend = "none";
          j_compile_ns = 0L;
          j_front = "bypass";
          j_dequeue_ns = None;
        }
        t.s_queue;
      count t `Submitted;
      t.st_peak_queue <- max t.st_peak_queue (Queue.length t.s_queue);
      publish_depth t;
      Condition.signal t.s_nonempty;
      `Accepted ticket
    end
  in
  Mutex.unlock t.s_mutex;
  match verdict with
  | `Accepted ticket -> Ok ticket
  | `Full retry_after_ms ->
      note_rejected t rid req "E_SERVE_QUEUE_FULL";
      serve_error "E_SERVE_QUEUE_FULL"
        ~context:
          [
            ("queue_depth", string_of_int t.s_depth);
            ("retry_after_ms", string_of_int retry_after_ms);
          ]
        "submission queue is full"
  | `Poison ->
      note_rejected t rid req "E_SERVE_POISON";
      serve_error "E_SERVE_POISON" "request structure is quarantined (killed workers)"
  | `Shutdown ->
      note_rejected t rid req "E_SERVE_SHUTDOWN";
      serve_error "E_SERVE_SHUTDOWN" "service is shut down"

let eval t ?deadline_ms req =
  match submit t ?deadline_ms req with Error e -> Error e | Ok ticket -> await ticket

let stats t =
  Mutex.lock t.s_mutex;
  let s =
    {
      submitted = t.st_submitted;
      rejected = t.st_rejected;
      completed = t.st_completed;
      timed_out = t.st_timed_out;
      failed = t.st_failed;
      peak_queue = t.st_peak_queue;
      total_wait_ns = t.st_total_wait_ns;
      total_run_ns = t.st_total_run_ns;
      crashed = t.st_crashed;
      replaced = t.st_replaced;
      quarantined = t.st_quarantined;
      live_workers = t.s_live;
      peak_workers = t.st_peak_workers;
      exec_native = t.st_exec_native;
      exec_closure = t.st_exec_closure;
      backend_downgraded = t.st_backend_downgraded;
    }
  in
  Mutex.unlock t.s_mutex;
  s

let queue_length t =
  Mutex.lock t.s_mutex;
  let n = Queue.length t.s_queue in
  Mutex.unlock t.s_mutex;
  n

let domains t = t.s_domains

let shutdown t =
  Mutex.lock t.s_mutex;
  let workers =
    match t.s_state with
    | Running ->
        t.s_state <- Draining;
        let w = t.s_workers in
        t.s_workers <- [];
        Condition.broadcast t.s_nonempty;
        w
    | Draining | Stopped -> []
  in
  Mutex.unlock t.s_mutex;
  if workers <> [] then begin
    List.iter (fun join -> join ()) workers;
    (* Replacements spawned after the drain snapshot joined the list
       under the mutex; pick them up until none are left. *)
    let rec drain_late () =
      Mutex.lock t.s_mutex;
      let late = t.s_workers in
      t.s_workers <- [];
      Mutex.unlock t.s_mutex;
      if late <> [] then begin
        List.iter (fun join -> join ()) late;
        drain_late ()
      end
    in
    drain_late ();
    Taco.Budget.release t.s_own_domains;
    Mutex.lock t.s_mutex;
    t.s_live <- 0;
    t.s_state <- Stopped;
    Condition.broadcast t.s_stopped;
    Mutex.unlock t.s_mutex;
    set_worker_gauge 0;
    set_domain_gauge 0;
    (* Temp-artifact hygiene: sweep native build leftovers now that no
       worker can be mid-compile (loaded kernels stay callable). *)
    Taco.Native.cleanup ()
  end
  else begin
    (* Another caller owns the drain; wait for it to finish. *)
    Mutex.lock t.s_mutex;
    while t.s_state <> Stopped do
      Condition.wait t.s_stopped t.s_mutex
    done;
    Mutex.unlock t.s_mutex
  end
