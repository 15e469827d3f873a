(** Executing imperative IR kernels.

    The paper compiles emitted C with a system compiler. Here the
    imperative IR compiles either to C ({!backend} [`Native]) or to
    OCaml closures over a slot-based environment (variable names
    resolve to array slots at compile time, so no hashing happens in
    loops). There is one closure executor: every array load, store,
    memset, fill and set insert in it is bounds-checked. All benchmarked
    variants — generated and hand-written baselines — run through this
    same executor, so relative comparisons are apples-to-apples. *)

type compiled

(** Values bound to kernel parameters (arrays are shared, not copied:
    output arrays are written in place). Int arrays are int32 index
    arrays ({!Taco_support.Ivec}), the C kernels' own type, so both
    executors read and write them in place and store the low 32 bits
    of a value. An [Aint] parameter must fit int32 too: a run refuses
    one that does not, on either backend, with a stage-[Execute]
    [E_EXEC_RANGE] diagnostic naming the kernel and the variable. *)
type arg =
  | Aint of int
  | Afloat of float
  | Aint_array of Taco_support.Ivec.t
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
    downgrade is counted in {!backend_stats} and traced, with its
    reason, as an ["exec.backend.downgrade"] instant — it is never a
    client error.
    A [~profile:true] kernel builds natively like any other: the
    counters are ordinary IR ({!Taco_lower.Profile.profile}). The native
    code has no bounds checks; the closures do. *)
type backend = [ `Closure | `Native ]

(** Process-wide per-backend counts, read from the {!Taco_support.Metrics}
    registry: [native_builds] is [taco_native_builds_total{outcome="ok"}]
    (every tier), the runs are [taco_exec_runs_total{backend}] and
    [downgrades] is [taco_exec_downgrades_total]. Like every registry
    series they count only while the registry is enabled, so all four
    read 0 while it is off. *)
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

(** Build-phase timings (emit / cc / dlopen) of the native entry point
    runs currently call; [None] for closure-backed kernels. *)
val native_phases : compiled -> Native.phases option

(** The compiler tier of the native entry point (0 or 1, flags in
    {!Native.tier_flags}); [None] for closure-backed kernels. A native
    build starts at tier 0 and moves to tier 1 in the background once
    it has run for as long as it took to compile. *)
val native_tier : compiled -> int option

(** Build a native kernel at tier 1 now, through the same start-and-wait
    path as every build, and swap it in under the same cache entry
    (see {!Native.promote}). For benchmarks that must time tier-1 code;
    a no-op for closure-backed kernels. *)
val promote : compiled -> unit

(** Typecheck and compile a kernel. Raises [Invalid_argument] on malformed
    IR (unknown variables, type mismatches).

    Lowering emits kernels in their finished form, so the kernel is
    compiled as passed in. Every build first runs {!Taco_lower.Imp.validate}
    on it, on either backend: a malformed kernel is rejected with the
    validator's message before any C is emitted.

    With [~cache:true] (the default) compiled kernels are memoized in a
    process-wide table keyed by the structure of the kernel as passed
    in, the [profile] flag and the requested [backend] (including
    the resolved compiler for [`Native], so changing [TACO_CC] never
    serves a stale entry). Recompiling an identical kernel returns the
    cached executable without validating or building it again. A
    kernel that fails validation is never cached. Native builds join
    the same single-flight discipline: one build per distinct key,
    however many domains race for it (a build may share its [cc] run
    with other keys, see {!compile_batch}).

    The closures bounds-check every array load, store, memset, fill
    and set insert; a violation raises [Taco_support.Diag.Error] whose
    diagnostic names the kernel, the array or set variable, the
    offending index and the array length or set extent (stage
    [Execute], code [E_EXEC_BOUNDS]).

    With [~profile:true] the kernel is rewritten by
    {!Taco_lower.Profile.profile} to also count the work it does (loop
    iterations, scalar ops, workspace allocations, zeroed bytes — see
    {!run_stats}) into an array it allocates; each run reads that array
    back and adds it to the compiled kernel's counters, which
    accumulate until {!profile_reset}. Both backends run the same
    instrumented kernel, so their counts are equal. Profiled and
    unprofiled compilations of the same kernel are distinct cache
    entries; the default [profile:false] compiles the kernel
    uninstrumented. *)
val compile :
  ?profile:bool -> ?cache:bool -> ?backend:backend -> Taco_lower.Imp.kernel -> compiled

(** Like {!compile}, reporting malformed IR as a [Diag.t] result (stage
    [Compile], code [E_COMPILE_TYPE]). Any other diagnostic raised while
    compiling (an injected fault) propagates as [Diag.Error]. *)
val compile_res :
  ?profile:bool ->
  ?cache:bool ->
  ?backend:backend ->
  Taco_lower.Imp.kernel ->
  (compiled, Taco_support.Diag.t) result

(** {2 Batches} *)

(** One kernel to compile, with the options {!compile} takes. *)
type spec

(** [spec ?profile ?backend k] — defaults as in {!compile}. The
    spec records the calling domain's request id
    ({!Taco_support.Trace.request_id}): the kernel's own trace spans
    carry it, whoever compiles the batch. *)
val spec : ?profile:bool -> ?backend:backend -> Taco_lower.Imp.kernel -> spec

(** The same spec stamped with the calling domain's request id instead:
    a spec kept across requests (the service's front cache) is
    restamped for each request it serves. *)
val restamp : spec -> spec

(** Compile several kernels in one call, results in [specs] order, each
    reported as {!compile_res} would. The cache is looked up for all of
    them at once and every miss is claimed together (single-flight per
    key, as in {!compile}; a key another domain is building is awaited
    and counts as a coalesced hit). The misses are validated and their
    closures built one by one, and every [`Native] miss goes into one
    {!Native.load}: one C translation unit, one [cc], one [dlopen].
    A kernel's failure stays its own: malformed IR ([E_COMPILE_TYPE])
    and any diagnostic raised while compiling it (an injected fault)
    are its result, and a failed native build downgrades it alone.
    {!compile} is the batch of one.
    Each kernel gets a ["compile"] span covering the whole call. *)
val compile_batch : ?cache:bool -> spec list -> (compiled, Taco_support.Diag.t) result list

(** The compile cache's answer for [spec] alone, without building:
    [Some] result when its kernel is cached (a hit, with the
    [compile.build] fault point and the ["compile"] span a compile
    would give it), [None] when it is not, having counted and run
    nothing — pass it to {!compile_batch} then. A caller holding hits
    and misses answers the hits first, without waiting for the misses'
    build. *)
val lookup : spec -> (compiled, Taco_support.Diag.t) result option

(** The kernel as compiled: the kernel as passed in, without the
    profiling instrumentation of a [~profile:true] compile. *)
val kernel : compiled -> Taco_lower.Imp.kernel

(** {2 Runtime profiling}

    Work counters, gathered only by kernels compiled with
    [~profile:true], on either backend. Counters accumulate across
    successful {!run}s of the same compiled kernel (a failed run adds
    nothing); snapshot before/after a run (or {!profile_reset} in
    between) for per-run numbers. A native run counts in C [int32_t],
    so one run's count of each kind must stay below 2{^31}. When
    tracing is enabled, {!run} wraps execution in an ["exec.run"] span
    carrying the per-run counts. *)

type run_stats = {
  iterations : int;  (** Loop iterations executed (for + while + set drain). *)
  scalar_ops : int;  (** Scalar declarations/assignments, array stores and set inserts. *)
  allocs : int;  (** Workspace/output array and coordinate-set allocations. *)
  alloc_elems : int;  (** Total elements allocated. *)
  zero_bytes : int;  (** Bytes zero-initialized (allocs + memsets, 8 B/elem). *)
  reallocs : int;  (** Capacity-growing reallocations. *)
}

(** [Some stats] for kernels compiled with [~profile:true], [None]
    otherwise. *)
val profile_stats : compiled -> run_stats option

(** Zero the counters of a profiled kernel (no-op otherwise). *)
val profile_reset : compiled -> unit

(** {2 Compiled-kernel cache}

    The cache is a {!Taco_support.Memo} named [compile] (512 entries,
    FIFO): domain-safe and single-flight — when several domains
    concurrently request the same (not yet cached) key, exactly one
    builds it while the rest block and then take the
    cached result. [misses] therefore counts actual builds: each
    distinct key (lowered kernel, [profile], backend) compiles
    exactly once per process however many domains race for it. *)

type cache_stats = Taco_support.Memo.stats = {
  hits : int;  (** Lookups served from the table, with no build. *)
  misses : int;  (** Builds (one per distinct key). *)
  entries : int;
  evictions : int;
  coalesced : int;
      (** Hits that waited for a concurrent in-flight build of the same
          kernel instead of compiling it again (a subset of [hits]). *)
}

val cache_stats : unit -> cache_stats

val cache_clear : unit -> unit

(** [check_alloc ~kname ~var elems]: the executor's one memory-budget
    rule. An allocation of [elems] elements for [var] in kernel [kname],
    estimated at 8 bytes each, that exceeds {!Budget.mem_limit} raises a
    stage-[Execute] [E_EXEC_MEM] diagnostic (context: kernel, variable,
    bytes, limit) before anything is allocated. *)
val check_alloc : kname:string -> var:string -> int -> unit

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
    [~profile:true] have no parallel regions left
    ({!Taco_lower.Profile.profile} turns them into sequential loops), again
    with identical results.

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
    a listed array comes back exactly that long with no copy of an int
    array — the closure executor hands over its own fresh array, uncut
    or as a prefix view, the native stub trims the kernel's buffer to
    the prefix and hands it over as the index array itself (a float
    array is copied into the heap). Arrays the kernel allocates but
    [read] does not list are never handed back (native frees them in
    C); the reader raises
    [Invalid_argument] for them. Naming something that is not an
    int/float array the kernel allocates (or a [Len_at] source that is
    not an int one), or naming an array twice, raises
    [Invalid_argument] before the kernel runs.
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
