(** Optimizer pipeline over the imperative IR.

    Lowered kernels carry the naive artifacts of mechanical lowering:
    loop-invariant position loads re-computed every iteration, guards
    that re-test what a merge-lattice case analysis just decided,
    repeated index arithmetic, and workspace [memset]s that duplicate
    the zeroing already done by allocation. This module cleans them up
    with a fixed sequence of rewrites, each individually toggleable so
    benchmarks can attribute speedup per pass. Dead scalars and counted
    [while] loops are left to the C compiler and the executors: a
    leave-one-out ablation (bench/opt_ablation.ml) found no executor on
    which rewriting them paid beyond the noise floor.

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

(** Which passes to run. Pass order is fixed (simplify, memset_fusion,
    branch_fusion, cse, licm, a simplify rerun that collapses the copy
    chains licm leaves behind); a disabled pass is skipped. *)
type config = {
  simplify : bool;
      (** Constant folding, algebraic identities, copy/constant
          propagation, folding of statically-decided branches, and
          flipping [if (!c)] into an else-only branch. *)
  memset_fusion : bool;
      (** Drop a [Memset (v, n)] covered by a preceding [Alloc (_, v, n)]
          (allocation already zeroes) when nothing in between writes [v]
          or changes the meaning of [n]. *)
  branch_fusion : bool;
      (** Sink a trailing guarded statement [if (g) s] into the arms of
          an immediately preceding case analysis when the truth of [g]
          is already decided in every arm (the merge-lattice
          case-plus-pointer-advance pattern), eliminating the re-test.
          Sinking is refused if any arm writes an operand of a
          condition involved or if [g] would be undecided somewhere. *)
  cse : bool;
      (** Share pure scalar expressions (no loads, no division)
          evaluated more than once with no intervening operand write
          through a fresh temporary. *)
  licm : bool;
      (** Hoist loop-invariant loads and index arithmetic out of loops
          into temporaries declared before the loop. *)
}

(** All passes enabled: the default of {!Taco_exec.Compile.compile}. *)
val all : config

(** No passes enabled; {!optimize} is the identity. *)
val none : config

(** Per-pass metrics from one {!optimize_stats} run. Rewrite fires
    count the discrete rewrites a pass performed (folds, fused memsets,
    sunk guards, shared or hoisted temporaries, dropped statements);
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
