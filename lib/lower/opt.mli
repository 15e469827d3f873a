(** Optimizer pipeline over the imperative IR.

    Lowering emits merge loops in their finished form: segment ends
    read once, advances inside the case arms that decide them, and no
    re-zeroing of a freshly allocated workspace. What is left here is
    what lowering cannot see: constant and copy propagation with
    statically decided branches, and loop-invariant loads and index
    arithmetic, such as MTTKRP's dense-loop addresses. Each pass can be
    turned off so benchmarks can attribute speedup per pass. Dead
    scalars, counted [while] loops and repeated scalar arithmetic are
    left to the C compiler and the executors: leave-one-out ablations
    (bench/opt_ablation.ml) found rewriting them paid beyond the noise
    floor on no paper kernel, and sharing repeated arithmetic cost
    seconds of compile time on the largest fused merge for a few
    percent on the closures.

    Soundness contract: every pass preserves the value semantics of the
    kernel exactly — including float bit patterns, which is why constant
    folding uses the same OCaml primitives as the executor and never
    applies identities (like [x +. 0.0]) that can change a sign bit.
    The only tolerated observable difference is that a rewrite may drop
    or move a pure expression whose evaluation would have faulted a
    bounds check; values produced by successful runs are
    bit-identical. {!Imp.validate} brackets the pipeline (run before
    the first pass and after every pass), mirroring how [Cin.validate]
    brackets scheduling transforms. *)

(** Which passes to run. Pass order is fixed (simplify, licm, then a
    simplify rerun that collapses the copy chains licm leaves behind);
    a disabled pass is skipped. *)
type config = {
  simplify : bool;
      (** Constant folding, algebraic identities, copy/constant
          propagation, folding of statically-decided branches, and
          flipping [if (!c)] into an else-only branch. *)
  licm : bool;
      (** Hoist loop-invariant loads and index arithmetic out of loops
          into temporaries declared before the loop. *)
}

(** All passes enabled: the default of {!Taco_exec.Compile.compile}. *)
val all : config

(** No passes enabled; {!optimize} is the identity. *)
val none : config

(** Per-pass metrics from one {!optimize_stats} run. Rewrite fires
    count the discrete rewrites a pass performed (folds, hoisted
    temporaries, dropped statements);
    node counts are {!Imp.node_count} before/after, so
    [ps_nodes_before - ps_nodes_after] is the pass's IR shrinkage
    (negative for passes that introduce temporaries). Fires are counted
    per carrier (domain or thread, see {!Taco_support.Carrier}), so runs
    on several carriers at once each report the counts of a sequential
    run. *)
type pass_stat = {
  ps_pass : string;  (** Pass name as listed in {!config}. *)
  ps_time_ns : int64;  (** Wall time of the rewrite itself (validation excluded). *)
  ps_nodes_before : int;
  ps_nodes_after : int;
  ps_fires : int;
}

(** Run the enabled passes in order. [Imp.validate] runs as a
    precondition and again after each pass; a failure is reported as
    [Error msg] naming the offending pass and no partially-rewritten
    kernel escapes. With every pass disabled the kernel is returned
    unchanged (and unvalidated). *)
val optimize : ?config:config -> Imp.kernel -> (Imp.kernel, string) result

(** {!optimize}, additionally returning one {!pass_stat} per executed
    pass (in execution order). When tracing is enabled each pass is
    also recorded as an ["opt.<name>"] trace span carrying the same
    numbers. *)
val optimize_stats :
  ?config:config -> Imp.kernel -> (Imp.kernel * pass_stat list, string) result

(** {!optimize}, raising [Invalid_argument] on error. *)
val optimize_exn : ?config:config -> Imp.kernel -> Imp.kernel

(** {2 Profiling instrumentation} *)

(** Name of the int array {!profile} adds to a kernel. *)
val profile_counters : string

(** Length of that array: one counter per {!Taco_exec.Compile.run_stats}
    field, in field order — loop iterations, scalar ops, allocations,
    allocated elements, zeroed elements, reallocations, sorts. *)
val profile_slots : int

(** Rewrite a kernel into one that also counts the work it does into
    {!profile_counters}, which its first statement allocates (zeroed):
    a [For] adds [max 0 (hi - lo)] iterations and a [While] one per
    trip; each [Decl]/[Assign]/[Store]/[Store_add]/[Store_reduce] is a
    scalar op; an [Alloc] of [n] counts one allocation and [max 1 n]
    allocated and zeroed elements; a [Memset]/[Fill] of [n] zeroes
    [max 0 n]; [Realloc] and [Sort] count one each. The added
    statements count nothing. [ParallelFor] becomes [For], so counting
    never races; results stay bit-identical by the parallel
    determinism contract. {!Imp.validate} runs before and after;
    [Error] when either fails or the kernel already uses the name
    {!profile_counters}. *)
val profile : Imp.kernel -> (Imp.kernel, string) result
