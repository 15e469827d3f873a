(** Profiling instrumentation: an Imp rewrite that makes a kernel count
    the work it does, on either executor. It is instrumentation, not
    optimization: the counted kernel computes the same values. *)

(** Name of the int array {!profile} adds to a kernel. *)
val profile_counters : string

(** Length of that array: one counter per {!Taco_exec.Compile.run_stats}
    field, in field order — loop iterations, scalar ops, allocations,
    allocated elements, zeroed elements, reallocations. *)
val profile_slots : int

(** Rewrite a kernel into one that also counts the work it does into
    {!profile_counters}, which its first statement allocates (zeroed):
    a [For] adds [max 0 (hi - lo)] iterations and a [While] or
    [Set_drain] one per trip; each
    [Decl]/[Assign]/[Store]/[Store_add]/[Store_reduce]/[Set_insert] is
    a scalar op; an [Alloc] of [n] counts one allocation and [max 1 n]
    allocated and zeroed elements, a [Set_alloc] of [n] one allocation
    and {!Imp.set_elems}[ n]; a [Memset]/[Fill] of [n] zeroes
    [max 0 n]; a [Realloc] counts one. The added
    statements count nothing. [ParallelFor] becomes [For], so counting
    never races; results stay bit-identical by the parallel
    determinism contract. {!Imp.validate} runs before and after;
    [Error] when either fails or the kernel already uses the name
    {!profile_counters}. *)
val profile : Imp.kernel -> (Imp.kernel, string) result
