(** The user-facing API, mirroring the paper's Fig. 2 C++ snippet: declare
    tensor and index variables, write an index notation statement,
    schedule it with [reorder]/[precompute], then compile and run.

    Re-exported submodules give access to every layer (formats, tensors,
    IRs, lowering, execution) for advanced use. *)

module Format = Taco_tensor.Format
module Level = Taco_tensor.Level
module Dense = Taco_tensor.Dense
module Coo = Taco_tensor.Coo
module Tensor = Taco_tensor.Tensor
module Gen = Taco_tensor.Gen
module Suite = Taco_tensor.Suite
module Io = Taco_tensor.Io
module Index_var = Taco_ir.Var.Index_var
module Tensor_var = Taco_ir.Var.Tensor_var
module Index_notation = Taco_ir.Index_notation
module Cin = Taco_ir.Cin
module Cin_eval = Taco_ir.Cin_eval
module Extent = Taco_ir.Extent
module Semiring = Taco_ir.Semiring
module Concretize = Taco_ir.Concretize
module Reorder = Taco_ir.Reorder
module Workspace = Taco_ir.Workspace
module Heuristics = Taco_ir.Heuristics
module Schedule = Taco_ir.Schedule
module Autoschedule = Taco_ir.Autoschedule
module Stats = Taco_stats.Stats
module Cost = Taco_ir.Cost
module Imp = Taco_lower.Imp
module Merge_lattice = Taco_lower.Merge_lattice
module Lower = Taco_lower.Lower
module Profile = Taco_lower.Profile
module Codegen_c = Taco_lower.Codegen_c
module Compile = Taco_exec.Compile
module Native = Taco_exec.Native
module Kernel = Taco_exec.Kernel
module Budget = Taco_exec.Budget
module Diag = Taco_support.Diag
module Trace = Taco_support.Trace
module Obs = Taco_support.Obs
module Metrics = Taco_support.Metrics
module Memo = Taco_support.Memo
module Events = Taco_support.Events
module Json = Taco_support.Json

(** {2 Declarations} *)

(** [ivar "i"] declares an index variable. *)
val ivar : string -> Index_var.t

(** [tensor "A" Format.csr] declares a tensor variable (order from the
    format). *)
val tensor : string -> Format.t -> Tensor_var.t

(** [workspace "w" Format.dense_vector] declares a workspace tensor. *)
val workspace : string -> Format.t -> Tensor_var.t

(** {2 Pipeline} *)

(** A compiled statement: a prepared kernel plus its schedule. *)
type compiled

(** [compile ?name ?mode ?splits sched] lowers and compiles.
    Default mode: fused assemble-and-compute for compressed results
    (sorted), compute for dense results. [splits] strip-mines dense loops
    (see {!Lower.lower}). [profile] adds work counters on
    either backend (see {!Compile.run_stats}). The closure executor
    bounds-checks every array access and reports a violation as a
    stage-[Execute] diagnostic naming the kernel, variable and index.
    [backend] selects the executor: [`Closure] (default) or [`Native],
    which compiles the emitted C to a shared object and downgrades to
    closures — counted, never an error — when no C compiler is
    available (see {!Compile.backend}). [semiring] (default (+, ×))
    reinterprets the statement's operators over another semiring —
    min-plus, max-times or boolean or-and (see {!Lower.lower}).
    Failures are stage-tagged diagnostics ([Lower] for lowering
    rejections, [Compile] for kernel compilation). *)
val compile :
  ?name:string ->
  ?mode:Lower.mode ->
  ?splits:(Index_var.t * int) list ->
  ?semiring:Semiring.t ->
  ?profile:bool ->
  ?backend:Compile.backend ->
  Schedule.t ->
  (compiled, Diag.t) result

(** {2 Batches}

    {!compile} is {!lower} followed by {!compile_batch} of one. A
    caller holding several statements at once (the evaluation service
    dequeueing a batch of requests) lowers each and compiles them
    together: every native kernel the compile cache misses goes into
    one C translation unit, one [cc] and one [dlopen] (see
    {!Compile.compile_batch}). *)

(** A statement lowered, with its compile options, not yet compiled. *)
type lowered

(** The lowering half of {!compile}: same arguments, same [Lower]
    diagnostics. The calling domain's request id is recorded for the
    compile's trace spans. *)
val lower :
  ?name:string ->
  ?mode:Lower.mode ->
  ?splits:(Index_var.t * int) list ->
  ?semiring:Semiring.t ->
  ?profile:bool ->
  ?backend:Compile.backend ->
  Schedule.t ->
  (lowered, Diag.t) result

(** The statement stamped with the calling domain's request id, for
    its compile's trace spans and fault point: a lowered statement kept
    across requests (the service's front cache) is restamped for each
    request it serves. *)
val restamp : lowered -> lowered

(** Compile lowered statements together; results in order, each
    failure its own: malformed IR (stage [Compile], [E_COMPILE_TYPE])
    and any diagnostic raised while compiling a kernel (an injected
    fault) are that statement's result. *)
val compile_batch : lowered list -> (compiled, Diag.t) result list

(** The compiled statement if the compile cache holds its kernel, or
    [None], having built nothing (see {!Compile.lookup}): a batch's
    hits can be answered before its misses compile. *)
val lookup : lowered -> (compiled, Diag.t) result option

(** {!Schedule.parallelize} with structured diagnostics: an illegal
    directive (the variable is not the outermost forall, or iterations
    reduce into an output location not indexed by it) is reported as a
    stage-[Concretize] diagnostic with code [E_PAR_ILLEGAL] naming the
    index. The lowering backstop in {!compile} uses the same code when
    the marked loop turns out not to be parallelizable structurally
    (e.g. it is a coiteration merge loop). *)
val parallelize : Index_var.t -> Schedule.t -> (Schedule.t, Diag.t) result

val kernel : compiled -> Kernel.t

(** The backend actually executing this statement's kernel ([`Closure]
    when a [`Native] request was downgraded). *)
val backend_of : compiled -> Compile.backend

(** The (scheduled) concrete index notation behind a compiled statement. *)
val schedule_of : compiled -> Schedule.t

(** The generated C source (paper-style, for inspection). *)
val c_source : compiled -> string

(** Concrete index notation of the compiled schedule, pretty-printed. *)
val cin_string : compiled -> string

(** [run compiled ~inputs] executes; result dimensions are inferred from
    the input tensors' dimensions (see {!Kernel.result_dims}), and inputs
    that disagree on an index variable's extent are refused with
    [E_EXEC_DIMS] before the kernel runs. For compressed results the
    kernel must have been compiled in an [Assemble] mode (the default).

    [?domains] (default 1) is the chunk count for kernels scheduled with
    {!parallelize}; results are bit-identical for every value (see
    {!Compile.run}). Kernels without a parallel loop ignore it.

    [?deadline_ns] arms the executor's cooperative watchdog against the
    {!Taco_support.Trace.now_ns} clock: a run still inside a kernel loop
    when the deadline passes is cancelled with [E_EXEC_CANCELLED]
    (stage [Execute]) instead of running to completion. *)
val run :
  ?domains:int ->
  ?deadline_ns:int64 ->
  compiled ->
  inputs:(Tensor_var.t * Tensor.t) list ->
  (Tensor.t, Diag.t) result

(** [run_with_output compiled ~inputs ~output] for [Compute]-mode kernels
    with pre-assembled sparse outputs; the output's values are written in
    place. *)
val run_with_output :
  ?domains:int ->
  ?deadline_ns:int64 ->
  compiled ->
  inputs:(Tensor_var.t * Tensor.t) list ->
  output:Tensor.t ->
  (unit, Diag.t) result

(** One-shot convenience: parse nothing, schedule nothing — concretize,
    compile and run an index notation statement. *)
val einsum :
  Index_notation.t -> inputs:(Tensor_var.t * Tensor.t) list -> (Tensor.t, Diag.t) result

(** Like {!compile} but drives the statement to a lowerable form first
    with the {!Autoschedule} policy (reorders + workspace heuristics),
    returning the compiled kernel and the scheduling steps taken. This is
    the "policy system built on top of the scheduling API" the paper
    leaves as future work. *)
val auto_compile :
  ?name:string ->
  ?mode:Lower.mode ->
  ?semiring:Semiring.t ->
  ?profile:bool ->
  ?backend:Compile.backend ->
  Schedule.t ->
  (compiled * Autoschedule.step list, Diag.t) result

(** {!auto_compile} with the full decision surface exposed: pass
    per-tensor statistics ([stats], names matching the statement's
    tensor variables — see {!Stats.of_tensor}) to drive the cost model
    with real sparsity instead of defaults, and receive the search's
    {!Autoschedule.explain} audit record. When [stats] is given the
    chosen plan is also cached under (expression structure, lowering
    mode, stats bucket), so an identical follow-up call skips the search
    — [e_cache_hit] reports this, and the [taco_plan_cache_*] metrics
    count it. Each search emits one ["plan.chosen"] event (plan id,
    estimated cost, search time) into the {!Events} log, joinable with
    serve requests by rid. *)
val auto_compile_explained :
  ?name:string ->
  ?mode:Lower.mode ->
  ?semiring:Semiring.t ->
  ?profile:bool ->
  ?backend:Compile.backend ->
  ?stats:(string * Stats.t) list ->
  Schedule.t ->
  (compiled * Autoschedule.step list * Autoschedule.explain, Diag.t) result

(** The lowering half of {!auto_compile_explained}: the plan search
    and lowering, with the statement left for {!compile_batch}. *)
val auto_lower :
  ?name:string ->
  ?mode:Lower.mode ->
  ?semiring:Semiring.t ->
  ?profile:bool ->
  ?backend:Compile.backend ->
  ?stats:(string * Stats.t) list ->
  Schedule.t ->
  (lowered * Autoschedule.step list * Autoschedule.explain, Diag.t) result

(** {!einsum} with autoscheduling: handles statements (like sparse matrix
    multiplication) that plain einsum rejects. *)
val auto_einsum :
  Index_notation.t -> inputs:(Tensor_var.t * Tensor.t) list -> (Tensor.t, Diag.t) result

(** Infer the result's dimensions from the statement and input tensors,
    by {!Extent.infer}: [E_EXEC_DIMS] when two inputs disagree
    on an index variable's extent or a result mode's extent is bound by
    no input. *)
val infer_result_dims :
  Cin.stmt -> inputs:(Tensor_var.t * Tensor.t) list -> (int array, Diag.t) result
