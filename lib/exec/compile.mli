(** Executing imperative IR kernels.

    The paper compiles emitted C with a system compiler; in this sealed
    reproduction the imperative IR is instead compiled to OCaml closures
    over a slot-based environment (variable names resolve to array slots
    at compile time, so no hashing happens in loops). All benchmarked
    variants — generated and hand-written baselines — run through this
    same executor, so relative comparisons are apples-to-apples. *)

type compiled

(** Values bound to kernel parameters (arrays are shared, not copied:
    output arrays are written in place). *)
type arg =
  | Aint of int
  | Afloat of float
  | Aint_array of int array
  | Afloat_array of float array

(** How many leading elements of an array the kernel allocates a run
    hands back (see {!run}'s [?read]): [Len n] exactly [n];
    [Len_at (src, i)] as many as the kernel-allocated int array [src]
    holds at index [i] — e.g. an assembled level's
    [pos.(parent_size)]. *)
type extent = Len of int | Len_at of string * int

(** Which executor runs the kernel. [`Closure] (the default) interprets
    the IR through OCaml closures; [`Native] renders it to C
    ({!Taco_lower.Codegen_c.emit_exec}), builds a shared object with the
    system compiler and calls it through [dlopen] — see {!Native}.

    [`Native] is a request, not a guarantee: when the compiler is
    missing, the build fails, or the kernel is not expressible under the
    native ABI, compilation silently downgrades to closures. The
    downgrade is counted in {!backend_stats}, traced as an
    ["exec.backend.downgrade"] counter, and its reason is kept on the
    compiled kernel ({!downgrade_reason}) — it is never a client error.
    [~checked] and [~profile] also pin execution to closures (the native
    code carries neither bounds checks nor profiling counters); that
    deliberate narrowing is not counted as a downgrade. *)
type backend = [ `Closure | `Native ]

(** Process-wide per-backend counters. *)
type backend_stats = {
  native_builds : int;  (** Shared objects built and loaded, tier-ups included. *)
  native_runs : int;  (** Runs dispatched to native code. *)
  closure_runs : int;  (** Runs dispatched to closures. *)
  downgrades : int;  (** [`Native] requests served by closures. *)
}

val backend_stats : unit -> backend_stats

(** The backend that will actually run this kernel ([`Closure] when a
    [`Native] request was downgraded). *)
val backend_of : compiled -> backend

(** Why a [`Native] request fell back to closures, if it did. *)
val downgrade_reason : compiled -> string option

(** Build-phase timings (emit / cc / dlopen) of the native entry point
    runs currently call; [None] for closure-backed kernels. *)
val native_phases : compiled -> Native.phases option

(** The compiler tier of the native entry point (0 for [-O0], 1 for
    [-O3], see {!Native}); [None] for closure-backed kernels. A native
    build starts at tier 0 and moves to tier 1 in the background once
    it has run for as long as it took to compile. *)
val native_tier : compiled -> int option

(** Build a native kernel at tier 1 now, through the same start-and-wait
    path as every build, and swap it in under the same cache entry
    (see {!Native.promote}). For benchmarks that must time [-O3] code;
    a no-op for closure-backed kernels. *)
val promote : compiled -> unit

(** Typecheck and compile a kernel. Raises [Invalid_argument] on malformed
    IR (unknown variables, type mismatches).

    The kernel first runs through the {!Taco_lower.Opt} pipeline ([opt],
    default {!Taco_lower.Opt.all}; pass {!Taco_lower.Opt.none} to compile
    the IR verbatim). The optimizer validates the kernel before and after
    every pass, so a malformed kernel is rejected here with the
    validator's message.

    With [~cache:true] (the default) compiled kernels are memoized in a
    process-wide table keyed by the structure of the kernel {e as
    passed in} (before the optimizer), the [opt] config, the
    [checked]/[profile] flags and the requested [backend] (including
    the resolved compiler for [`Native], so changing [TACO_CC] never
    serves a stale entry). Recompiling an identical kernel returns the
    cached executable without running the optimizer again: the
    ["opt.*"] trace spans and the ["opt.pass"] fault point fire only on
    misses and uncached compiles. Two kernels that optimize to the same
    structure are two entries. A kernel that fails validation or
    optimization is never cached. Native builds join the same
    single-flight discipline: one optimizer run and one [cc]
    invocation per distinct key, however many domains race for it.

    With [~checked:true] the compiled closures bounds-check every array
    load, store and memset; a violation raises
    [Taco_support.Diag.Error] whose diagnostic names the kernel, the
    array variable, the offending index and the array length (stage
    [Execute], code [E_EXEC_BOUNDS]). Unchecked closures still get
    OCaml's own array bounds safety, but failures surface as a bare
    [Invalid_argument] with no kernel context.

    With [~profile:true] the compiled closures additionally count the
    work they do (loop iterations, scalar ops, workspace allocations,
    zeroed bytes — see {!run_stats}); counters accumulate across runs
    until {!profile_reset}. Profiled and unprofiled compilations of the
    same kernel are distinct cache entries. The default [profile:false]
    compiles exactly the closures it always did — profiling costs
    nothing unless requested. *)
val compile :
  ?checked:bool ->
  ?profile:bool ->
  ?opt:Taco_lower.Opt.config ->
  ?cache:bool ->
  ?backend:backend ->
  Taco_lower.Imp.kernel ->
  compiled

(** Like {!compile}, reporting malformed IR as a [Diag.t] result (stage
    [Compile], code [E_COMPILE_TYPE]). *)
val compile_res :
  ?checked:bool ->
  ?profile:bool ->
  ?opt:Taco_lower.Opt.config ->
  ?cache:bool ->
  ?backend:backend ->
  Taco_lower.Imp.kernel ->
  (compiled, Taco_support.Diag.t) result

(** The kernel as compiled — i.e. after optimization. *)
val kernel : compiled -> Taco_lower.Imp.kernel

(** {2 Runtime profiling}

    Executor work counters, gathered only by kernels compiled with
    [~profile:true]. Counters accumulate across {!run}s of the same
    compiled kernel; snapshot before/after a run (or {!profile_reset}
    in between) for per-run numbers. When tracing is enabled, {!run}
    wraps execution in an ["exec.run"] span carrying the per-run deltas
    and folds them into trace counters. *)

type run_stats = {
  iterations : int;  (** Loop iterations executed (for + while). *)
  scalar_ops : int;  (** Scalar declarations/assignments and array stores. *)
  allocs : int;  (** Workspace/output array allocations. *)
  alloc_elems : int;  (** Total elements allocated. *)
  zero_bytes : int;  (** Bytes zero-initialized (allocs + memsets, 8 B/elem). *)
  reallocs : int;  (** Capacity-growing reallocations. *)
  sorts : int;  (** Sort statements executed. *)
}

(** [Some stats] for kernels compiled with [~profile:true], [None]
    otherwise. *)
val profile_stats : compiled -> run_stats option

(** Zero the counters of a profiled kernel (no-op otherwise). *)
val profile_reset : compiled -> unit

(** {2 Compiled-kernel cache}

    The cache is domain-safe: the table and its counters sit behind a
    mutex, and compilation is single-flighted — when several domains
    concurrently request the same (not yet cached) key, exactly one
    optimizes and builds it while the rest block and then take the
    cached result. [misses] therefore counts actual builds: each
    distinct key (lowered kernel, [opt], [checked], [profile],
    backend) compiles exactly once per process however many domains
    race for it. *)

type cache_stats = {
  hits : int;  (** Lookups served from the table, with no optimizer run. *)
  misses : int;  (** Optimizer runs plus builds (one per distinct key). *)
  entries : int;
  evictions : int;
  coalesced : int;
      (** Hits that waited for a concurrent in-flight build of the same
          kernel instead of compiling it again (a subset of [hits]). *)
}

val cache_stats : unit -> cache_stats

val cache_clear : unit -> unit

(** Bound the cache to [n] (>= 1) entries; the oldest entries beyond the
    bound are evicted insertion-first (FIFO) and counted in
    [cache_stats().evictions]. Default capacity: 512. *)
val set_cache_capacity : int -> unit

(** Was the kernel compiled with [~checked:true]? *)
val is_checked : compiled -> bool

(** [run compiled ~args] binds parameters by name and executes. Returns a
    reader for variables left in the environment (used to retrieve arrays
    the kernel allocated, e.g. assembled indices). Missing or ill-typed
    bindings raise [Invalid_argument].

    [?domains] (default 1) sets the chunk count for
    {!Taco_lower.Imp.ParallelFor} regions: the parallel loop's iteration
    space splits into that many contiguous chunks, each run against a
    private copy of the environment and merged back in chunk order.
    Results are bit-identical for every [domains] value — the chunk
    count fixes the merge, while how many OCaml domains actually run
    chunks is decided per region by {!Budget.acquire} (degrading to the
    calling domain when the pot is empty). Kernels compiled with
    [~profile:true] execute parallel regions sequentially (the shared
    profile counters would race), again with identical results.

    [?deadline_ns] arms the cooperative watchdog: outermost loops (and
    every ParallelFor chunk) compare the {!Taco_support.Trace.now_ns}
    clock against it every 256 iterations and abort the run with a
    stage-[Execute] [E_EXEC_CANCELLED] diagnostic once it passes — so a
    deadline expiring mid-kernel stops the running work instead of only
    being noticed afterwards. Omitted (or [Int64.max_int]) means no
    watchdog and zero per-iteration overhead.

    Allocations executed by the kernel (workspaces, growing reallocs)
    are additionally guarded by {!Budget.set_mem_limit}: an allocation
    whose 8-bytes-per-element estimate exceeds the budget raises
    [E_EXEC_MEM] before allocating.

    [?read] lists the arrays the kernel allocates that the caller
    wants back, each with its {!extent}. Kernels assemble into buffers
    that double as they fill, so only a prefix of each is the result;
    a listed array comes back exactly that long — the closure executor
    hands over its own fresh array uncut when the length already
    matches, the native stub boxes just the prefix. Arrays the kernel
    allocates but [read] does not list are never handed back (native
    frees them in C without boxing them); the reader raises
    [Invalid_argument] for them. Naming something that is not an
    int/float array the kernel allocates (or a [Len_at] source that is
    not an int one) raises [Invalid_argument] before the kernel runs.
    A length that is negative or past the array's capacity, or a
    [Len_at] index outside its source array, raises a stage-[Execute]
    [E_EXEC_NATIVE] diagnostic naming the kernel and variable — the
    same diagnostic on both backends, never a crash or a short array.
    Omitting [?read] hands back every allocated array whole, at its
    capacity (for inspection).

    Kernels compiled with [~backend:`Native] (and not downgraded)
    dispatch to the shared object instead: same argument binding, same
    reader contract, same [E_EXEC_MEM]/[E_EXEC_CANCELLED] semantics
    (the budget and deadline cross the ABI and are enforced inside the
    generated C). Two narrowings, both documented in DESIGN.md: the
    watchdog does not poll inside OpenMP parallel loops, and [?domains]
    is ignored (OpenMP picks the thread count). A native entry point
    failing in a way the closures cannot (nonzero unexpected return
    code) raises a stage-[Execute] [E_EXEC_NATIVE] diagnostic. *)
val run :
  ?domains:int ->
  ?deadline_ns:int64 ->
  ?read:(string * extent) list ->
  compiled ->
  args:(string * arg) list ->
  (string -> arg)
