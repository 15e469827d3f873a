(** A concurrent tensor-algebra evaluation service over the compile
    pipeline.

    Clients submit requests — an index notation statement as text,
    schedule directives, and named operand tensors — and the service
    parses, concretizes, schedules, lowers, compiles and executes them
    on a fixed pool of workers behind a bounded submission queue. A
    worker runs on an OCaml 5 domain of its own where the process-wide
    {!Taco.Budget} grants a permit for one, and otherwise as a thread
    of the domain that created the pool (see {!create}).

    The serving layer is the system's third amortizer, after the paper's
    workspaces (amortizing insertion cost) and the structure-keyed
    compiled-kernel cache (amortizing compilation): concurrent requests
    with the same lowered kernel structure coalesce onto a
    single compilation ({!Taco_exec.Compile}'s single-flight cache), so
    a flood of requests for one expression shape compiles it exactly
    once and spends the pool on execution.

    {b Batching.} A worker that dequeues takes its share of what is
    queued — at most ⌈queued ÷ live workers⌉ jobs, and at most eight —
    and runs each job's front end (parse through lowering, or a hit in
    the front cache, see {!front_cache_stats}) and compile-cache lookup
    ({!Taco.lookup}) in turn. A job that expires
    or fails there is answered at once, and so is one whose kernel is
    cached: a hit does not wait for its batch-mates' build. The misses
    then compile with one {!Taco.compile_batch}, so every native one
    among them shares one C translation unit, one [cc] and one
    [dlopen], and each is executed and answered in queue order. There
    is no option and no wait for more work: an idle service answers a
    lone request as a batch of one.

    Operational semantics:
    - {b Backpressure}: {!submit} rejects immediately with a stage-
      [Serve] diagnostic ([E_SERVE_QUEUE_FULL]) when the queue holds
      [queue_depth] jobs, rather than growing without bound. The
      diagnostic's context carries a [retry_after_ms] hint estimating
      when a slot should free up. This is the service's one overload
      control: every accepted request is compiled the same way, so a
      queued request whose shape is warm still hits the front and
      compile caches.
    - {b Deadlines}: a request's optional [deadline_ms] bounds its time
      in the system. It is checked when a worker dequeues the job,
      again between compilation and execution, and — via the executor's
      cooperative watchdog — every few hundred iterations {e inside}
      running kernel loops, so an expiry mid-kernel cancels the work.
      An expired request completes with [E_SERVE_DEADLINE].
    - {b Supervision}: a worker killed by an escaped exception
      (only injected faults or serving-machinery bugs — request
      failures are contained) is detected and replaced, and the job it
      was working on is retried once; the rest of its batch is
      requeued, uncharged, at the head of the queue in batch order
      (the retried job with it). A request structure that kills two workers is a
      poison pill: it resolves with [E_SERVE_POISON], its structure is
      quarantined, and future submissions of it are rejected at
      admission with the same code.
    - {b Shutdown}: {!shutdown} stops admission ([E_SERVE_SHUTDOWN]),
      lets workers drain every queued job, and joins all workers
      (including any replacements) before returning; every outstanding
      ticket is resolved and no worker domain or thread is left
      running.
    - {b Failure containment}: pipeline failures (parse through
      execute) resolve the ticket with their own staged diagnostic;
      unexpected exceptions resolve it with [E_SERVE_INTERNAL].

    When tracing is enabled ({!Taco_support.Trace.enable}), the service
    records per-request [serve.wait] (queue time, retroactive; one per
    request, however often a crash requeues it) and [serve.exec] spans.

    {b Metrics.} Each counted event updates this service's {!stats} and,
    when {!Taco_support.Metrics.enable} is on, its registry series in
    the same step, so for a lone service the two agree:
    [taco_serve_requests_total{outcome[,code]}] (outcomes
    [completed]/[timed_out]/[failed]/[rejected]; failures and
    rejections carry their diagnostic [code]), [taco_serve_submitted_total],
    [taco_serve_crashed_total], [taco_serve_replaced_total] and
    [taco_serve_quarantined_total]. A request failed by a worker crash
    (quarantined, or stranded during shutdown) is counted and logged
    like any other. The registry also holds latency histograms
    [taco_serve_wait_seconds] and [taco_serve_run_seconds] labeled by
    [backend] ([native]/[closure]/[downgraded]/[none]) and [outcome]
    (their [_count]s by backend give [stats.exec_native], and
    [exec_closure] as [closure] plus [downgraded]),
    [taco_serve_compile_seconds{backend}] for the compile phase, and
    gauges [taco_serve_queue_depth], [taco_serve_live_workers],
    [taco_serve_worker_domains] (the workers on a domain of their own;
    the rest are threads) and [taco_compile_cache_hit_ratio]. Pipeline stages land in
    [taco_stage_duration_seconds{stage}] via the trace span hook.

    {b Request ids.} Each submission draws a process-global request id;
    while a worker processes the job the id is bound to the worker's
    carrier ({!Taco_support.Trace.set_request_id}), so its trace spans carry a
    [rid] argument, and the structured event log ([TACO_EVENTS=path],
    {!Taco_support.Events}) gets one [serve.request] line per finished
    job (and a [serve.reject] line per refused submission) carrying the
    same id, joining trace, log and client-side bookkeeping.

    The service logs through the [taco.service] source — enable it
    alone with [TACO_LOG=warn,service=debug]. *)

module Format = Taco_tensor.Format
module Tensor = Taco_tensor.Tensor
module Diag = Taco_support.Diag

(** Schedule directives, mirroring the CLI's scheduling surface. *)
type directive =
  | Reorder of string * string  (** exchange two index variables *)
  | Precompute of { expr : string; over : string list; workspace : string }
      (** precompute [expr] over [over] into a dense workspace *)
  | Parallelize of string
      (** run the named (outermost) index variable's loop in parallel
          chunks; an illegal directive fails the request with
          [E_PAR_ILLEGAL] (see {!Taco.parallelize}) *)
  | Auto  (** autoschedule instead of manual directives *)

type request = {
  expr : string;  (** index notation statement, e.g. ["A(i,j) = B(i,k) * C(k,j)"] *)
  directives : directive list;
  inputs : (string * Tensor.t) list;
      (** operand tensors by name; formats are taken from the tensors *)
  result_format : Format.t option;
      (** storage format of the result (default: all-dense of its order) *)
  domains : int option;
      (** chunk count for a [Parallelize]d kernel (default 1). The
          domains actually spawned are clamped against the process-wide
          {!Taco.Budget}, of which this pool's workers hold their share;
          results are bit-identical either way. *)
  backend : Taco.Compile.backend option;
      (** execution backend (default [`Closure]). [`Native] compiles
          the kernel's emitted C to a shared object; when no C compiler
          is available the request is served by closures anyway and
          counted in [stats.backend_downgraded] — never a client
          error. *)
  semiring : string option;
      (** semiring to evaluate under, by name or alias (see
          {!Taco.Semiring.of_string}; default the ordinary (+, ×)
          arithmetic). An unknown name fails the request with
          [E_SERVE_SEMIRING] listing the known names. *)
}

(** Convenience constructor; [directives], [result_format], [domains],
    [backend] and [semiring] default to none. *)
val request :
  ?directives:directive list ->
  ?result_format:Format.t ->
  ?domains:int ->
  ?backend:Taco.Compile.backend ->
  ?semiring:string ->
  expr:string ->
  inputs:(string * Tensor.t) list ->
  unit ->
  request

type response = {
  tensor : Tensor.t;  (** the evaluated result *)
  kernel_name : string;
  wait_ns : int64;  (** submission → dequeue by a worker *)
  run_ns : int64;  (** dequeue → completion (parse, compile, execute) *)
}

type t

(** A handle to one submitted request, resolved exactly once. *)
type ticket

(** Cumulative service counters (monotone since {!create}). *)
type stats = {
  submitted : int;  (** accepted submissions *)
  rejected : int;  (** refused at submission: queue full or shutdown *)
  completed : int;  (** resolved with a result *)
  timed_out : int;  (** resolved with [E_SERVE_DEADLINE] *)
  failed : int;  (** resolved with any other diagnostic *)
  peak_queue : int;  (** high-water mark of the queue *)
  total_wait_ns : int64;  (** summed queue time of processed requests *)
  total_run_ns : int64;  (** summed processing time of processed requests *)
  crashed : int;  (** workers killed by escaped exceptions *)
  replaced : int;  (** replacement workers spawned *)
  quarantined : int;  (** request structures quarantined as poison *)
  live_workers : int;  (** workers currently in their serving loop *)
  peak_workers : int;  (** high-water mark of [live_workers] *)
  exec_native : int;  (** requests whose kernel ran natively *)
  exec_closure : int;  (** requests whose kernel ran through closures *)
  backend_downgraded : int;
      (** [`Native] requests served by closures (compiler unavailable
          or build failed) *)
}

(** [create ~domains ~queue_depth ()] starts the worker pool. [domains]
    (default 1, max 128) is the exact number of workers — it is
    deliberately not clamped to the machine's core count, so concurrency
    is exercisable anywhere; [queue_depth] (default 64) bounds the
    submission queue. Raises [Invalid_argument] on non-positive
    values. The pool asks {!Taco.Budget} for one permit per worker and
    holds what it is granted for its lifetime ({!shutdown} returns it):
    one worker per permit runs on a domain of its own, and the others
    run as threads of the calling domain, with the same queue, batching,
    supervision and join. With no spare core the whole pool is the
    calling domain, and parallel kernels executing inside a busy pool
    cannot oversubscribe the machine. A crashed worker is replaced on
    the same kind of carrier. *)
val create : ?domains:int -> ?queue_depth:int -> unit -> t

(** Enqueue a request. Returns a ticket, or rejects immediately with
    [E_SERVE_QUEUE_FULL] (context: [retry_after_ms]) /
    [E_SERVE_POISON] (quarantined structure) / [E_SERVE_SHUTDOWN].
    [deadline_ms] is relative to submission. *)
val submit : t -> ?deadline_ms:int -> request -> (ticket, Diag.t) result

(** Block until the ticket resolves. Idempotent. *)
val await : ticket -> (response, Diag.t) result

(** [Some] once the ticket has resolved, without blocking. *)
val poll : ticket -> (response, Diag.t) result option

(** [submit] then [await]. *)
val eval : t -> ?deadline_ms:int -> request -> (response, Diag.t) result

val stats : t -> stats

(** Jobs currently queued (excluding those being executed). *)
val queue_length : t -> int

(** Worker count of the pool (the [domains] it was created with). *)
val domains : t -> int

(** The front cache: every non-[Auto] request's lowered statement by
    request shape — the expression text, the directives in order, the
    result format, each input's name and format, the semiring and the
    backend; not the operands' dims or values, nor [domains]. A hit skips parse, concretize, scheduling and
    lowering; it still passes the [serve.pipeline] fault point, the
    compile-cache lookup (with its [compile.build] fault point and
    ["compile"] span, stamped with the request's own id) and execution.
    Process-wide, bounded (256 entries, oldest evicted first), counted
    as the [taco_front_cache_*] series; each [serve.request] event
    carries [front_cache] = [hit], [miss] or [bypass] (not consulted).
    Errors are not cached. *)
val front_cache_stats : unit -> Taco_support.Memo.stats

(** Drop every front-cache entry and reset its counters. *)
val front_cache_clear : unit -> unit

(** Stop admission, drain the queue, join every worker, then
    sweep the native backend's on-disk build artifacts
    ({!Taco.Native.cleanup}). Idempotent; concurrent callers all return
    after the drain. *)
val shutdown : t -> unit
