(** Native execution backend: compile a lowered kernel's C rendering
    ({!Taco_lower.Codegen_c.emit_exec}) into a shared object with the
    system C compiler and call it through [dlopen].

    Strictly optional — {!load} reports every environmental failure
    (no compiler, compile error, read-only tmpdir, dlopen failure) as
    [Error reason] so {!Compile} can fall back to the closure executor
    with a counted, traced downgrade rather than failing the request.

    The compiler is [cc] or the [TACO_CC] environment variable split on
    whitespace into an argument prefix (["ccache cc"], ["cc -g0"]), run
    directly (no shell); its availability is probed once per distinct
    compiler string. The kernels call back into a runtime table the
    stub implements once (allocation, growth, sorting, the clock). Build
    artifacts live in a per-process temp directory and are unlinked as
    soon as the shared object is mapped (set [TACO_NATIVE_KEEP=1] to
    keep them: kept files leave the sweep's list, so {!cleanup} does
    not delete them); {!cleanup} sweeps any leftovers.

    {b Batches.} There is one build path: {!load} compiles a list of
    kernels as one translation unit with one entry point each, and a
    single kernel (a tier-up included) is the list of one. A failed
    batch falls back to one build per kernel.

    {b Tiers.} {!load} builds at tier 0 ([-O0]); tier 1 is [-O3]. Both
    add [-shared -fPIC -ffp-contract=off] (and [-fopenmp] when a kernel
    is parallel) to the same C, so their results are bit-identical.
    Each {!run} of a tier-0 kernel adds its time to the kernel's
    account; the run that takes the account past its build's tier-0
    [cc] time ([cc_ns], the whole batch's for a kernel built in one: a
    tier-up is a [cc] process of its own) starts a tier-1 build of
    that kernel alone as a child process, later runs poll it without
    blocking, and a successful build's entry point replaces the tier-0
    one atomically (the old shared object stays mapped). At most one
    such tier-up is in flight per process; a failed one leaves its
    kernel on tier 0 for good. Kernel builds are counted by tier and
    outcome in the [taco_native_builds_total] metric, [cc] processes in
    [taco_native_cc_total]. *)

module Imp = Taco_lower.Imp

(** Build-phase wall-clock costs of one build: one [cc] process and one
    [dlopen] shared by the [kernels] the build compiled together. *)
type phases = { emit_ns : int64; cc_ns : int64; dlopen_ns : int64; kernels : int }

(** One loaded shared object: its entry point, tier and phases. *)
type entry

type loaded = private {
  l_name : string;
  l_kernel : Imp.kernel;
  l_cc : string list;
  l_entry : entry Atomic.t;
  l_arr_kinds : int array;
      (** marshalling kind per array parameter, in parameter order:
          0 int input, 1 float in-place, 2 int output (copied back) *)
  l_esc_kinds : int array;
      (** marshalling kind per escape, in escape order: 0 int array,
          1 float array *)
  l_escapes : (string * int) list;
      (** kernel-allocated arrays handed back, with their escape
          index *)
  l_ran_ns : int Atomic.t;
  l_tierup : bool Atomic.t;
}

(** Call descriptor; field order is the layout contract with
    [native_stubs.c]. Scalars and arrays each appear in
    kernel-parameter order; [cs_kinds] aligns with [cs_arrays] and
    [cs_esc_kinds] with the loaded kernel's escape list.
    [cs_mem_limit]/[cs_deadline] use [Int64.max_int] for "none".

    The three [cs_read_*] arrays are the read list, one entry per
    array to hand back: [cs_read_esc] names its escape index;
    [cs_read_src] is [-2] for the whole capacity, [-1] for a length of
    exactly [cs_read_arg], or the index of an int escape whose element
    [cs_read_arg] is the length. Escapes no read names are freed
    without being boxed. *)
type spec = {
  cs_ints : int array;
  cs_floats : float array;
  cs_arrays : Obj.t array;
  cs_kinds : int array;
  cs_esc_kinds : int array;
  cs_mem_limit : int64;
  cs_deadline : int64;
  cs_read_esc : int array;
  cs_read_src : int array;
  cs_read_arg : int array;
}

(** Resolved compiler command ([TACO_CC] or ["cc"]), its words joined
    by single spaces. *)
val compiler : unit -> string

(** Identifier mixed into the kernel-cache key so entries built by one
    compiler are not served under another. *)
val compiler_id : unit -> string

(** Whether the resolved compiler answers [-dumpversion]; probed once
    per compiler string and cached. *)
val available : unit -> bool

(** Emit, compile, dlopen: one build of every kernel the ABI
    can express, started and waited for. The kernels share one
    translation unit ({!Taco_lower.Codegen_c.emit_exec}), one [cc]
    process, one [dlopen] and one [dlsym] per kernel; loading a single
    kernel is the list of one. If that build fails and held more than
    one kernel, each kernel is rebuilt on its own, so one that cannot
    build gets its own [Error] and does not take the others down.
    Results are in [kernels] order. [rids] (aligned with [kernels])
    names the request each kernel serves; the [native.cc] span carries
    the build's request ids as ["rids"] and its kernel count as
    ["kernels"]. Emits [native.emit]/[native.cc]/[native.dlopen] trace
    spans (with ["tier"] on the latter two) and records the same
    timings in {!phases}. A build is the fault point [native.build]
    (a tier-up is [native.tierup]). Kernels load at tier 0. *)
val load : ?rids:int option list -> Imp.kernel list -> (loaded, string) result list

(** The tier of the entry point runs currently call: 0 or 1. *)
val tier : loaded -> int

(** Build phases of the current entry point's build. *)
val phases : loaded -> phases

(** Build the kernel at tier 1 now, through the same start-and-wait
    path, and swap it in; waits for the kernel's tier-up if it is in
    flight. A no-op once the kernel has tiered up, or failed to. *)
val promote : loaded -> unit

(** Invoke the kernel. Returns the entry point's return code (0 ok,
    1 allocation failure/budget, 2 deadline expired) and, on success,
    one [int array]/[float array] per read, in read order, each exactly
    as long as requested. Lengths are checked against the buffers
    before anything is boxed: code 3 is a length outside its escape's
    capacity, code 4 a length index outside its source escape; both
    return [[| read index; offending value; bound |]] (as ints), and
    code 1 returns [[| elements |]], the allocation the budget refused,
    or [-1] when that is unknown (a failed [calloc], or a refusal on an
    OpenMP worker thread).
    Emits a [native.run] span. After the call, a tier-0 run feeds the
    tier-up account, and any run polls the tier-up in flight. *)
val run : loaded -> spec -> int * Obj.t array

(** Kill and reap an in-flight tier-up, then remove any on-disk build
    artifacts and the per-process directory (recreated by the next
    build). Loaded kernels stay callable (the mapped inodes survive).
    Called on [Service.shutdown] and at process exit. *)
val cleanup : unit -> unit
