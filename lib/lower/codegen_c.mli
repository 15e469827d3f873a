(** C source emission for lowered kernels (the paper's target, Fig. 6
    "Target Code").

    Two renderings share the expression/statement printers:
    - {!emit}: the inspection form — one self-contained C function with
      the tensor buffers as parameters, used by the listing-fidelity
      tests and the golden snapshots. It compiles cleanly under
      [gcc -O3 -Wall -Werror -fopenmp].
    - {!emit_exec}: the executable form the native backend
      ({!Taco_exec}) compiles to a shared object and calls through a
      fixed flat ABI (see the contract below). *)

(** Render a kernel as a self-contained C function. *)
val emit : Imp.kernel -> string

(** Name of the entry point {!emit_exec} exports for the kernel at
    index [i] of its list (["taco_entry_<i>"]). *)
val entry_name : int -> string

(** Render the translation unit the native backend compiles and loads:
    one prelude, then one exported function per kernel, in list order.
    The prelude holds the typedefs, the min/max macros, the runtime
    table type and, when any kernel needs them, the math names; it
    appears once however many kernels the unit holds. A single build
    is the list of one. Kernel [i]'s entry point is

    {[ int taco_entry_<i>(const int64_t* iargs, const double* fargs,
                          void** aargs, void** esc, int64_t* esc_len,
                          int64_t mem_limit, int64_t deadline_ns,
                          const taco_rt_t* rt) ]}

    with scalar parameters in [iargs]/[fargs] and array parameters in
    [aargs], each bank in kernel-parameter order. Arrays the kernel
    allocates (workspaces, assembled outputs) are handed back through
    [esc]/[esc_len] in {!exec_escapes} order; the caller owns those
    buffers on success. Returns 0 on success, 1 when an allocation
    fails or exceeds [mem_limit] (E_EXEC_MEM), 2 when [deadline_ns]
    expires (E_EXEC_CANCELLED); on failure all kernel allocations have
    been freed and [esc] is untouched. [rt] is the host's kernel
    runtime table ([alloc], [grow], [now_ns], [release]):
    the rendering includes no header and makes one table call per
    [Alloc]/[Set_alloc]/[Realloc]. Semantics track the closure executor
    bit-for-bit (zeroed [max 1 n] allocations, grow-only reallocs with
    zeroed tails, element-count [> limit/8] budget checks,
    256-iteration deadline polls in outermost loops).

    Raises [Invalid_argument] when a kernel is not expressible under
    this ABI (see {!exec_unsupported}). *)
val emit_exec : Imp.kernel list -> string

(** Allocated int/float arrays of the kernel in first-allocation order —
    the buffers an {!emit_exec} rendering escapes to the caller, and the
    order in which they appear in [esc]/[esc_len]. *)
val exec_escapes : Imp.kernel -> (string * Imp.dtype) list

(** Array names the kernel writes through (store, memset, realloc).
    Array parameters outside this set are emitted [const]. *)
val written_arrays : Imp.kernel -> string list

(** [Some reason] when {!emit_exec} cannot express the kernel under the
    flat ABI (bool parameters, realloc of a parameter array); [None]
    when native execution is possible. *)
val exec_unsupported : Imp.kernel -> string option

(** Whether the kernel body contains a [ParallelFor] (the native
    backend adds [-fopenmp] to the compile when it does). *)
val has_parallel : Imp.kernel -> bool
