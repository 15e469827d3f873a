(** Binding packed tensors to lowered kernels and running them.

    Parameter names follow the conventions of {!Taco_lower.Lower}. *)

open Taco_ir.Var
module Tensor = Taco_tensor.Tensor

type t

(** Compile a lowered kernel once; it can be run many times. [checked]
    enables the bounds-checked execution mode of {!Compile.compile};
    [profile] its runtime work counters (see {!Compile.run_stats});
    [opt] selects the optimizer passes applied first (default: all);
    [backend] the executor ([`Closure] default, [`Native] compiles the
    emitted C to a shared object, downgrading to closures when no
    compiler is available — see {!Compile.backend}). *)
val prepare :
  ?checked:bool ->
  ?profile:bool ->
  ?opt:Taco_lower.Opt.config ->
  ?backend:Compile.backend ->
  Taco_lower.Lower.kernel_info ->
  t

val info : t -> Taco_lower.Lower.kernel_info

(** The backend actually executing this kernel ([`Closure] when a
    [`Native] request was downgraded — see {!Compile.backend_of}). *)
val backend : t -> Compile.backend

(** Native build-phase timings (emit / cc / dlopen); [None] for
    closure-backed kernels. *)
val native_phases : t -> Native.phases option

(** The native entry point's compiler tier — see {!Compile.native_tier}. *)
val native_tier : t -> int option

(** Build the native kernel at tier 1 now — see {!Compile.promote}. *)
val promote : t -> unit

(** Accumulated executor counters of a kernel prepared with
    [~profile:true]; [None] otherwise. *)
val profile_stats : t -> Compile.run_stats option

(** Zero the profile counters (no-op for unprofiled kernels). *)
val profile_reset : t -> unit

(** The imperative IR as compiled, i.e. after the optimizer pipeline
    ({!info} retains the kernel as lowered). *)
val imp : t -> Taco_lower.Imp.kernel

(** The C rendering of the optimized kernel (for inspection). *)
val c_source : t -> string

(** Arguments for one tensor: dimension scalars, pos/crd arrays of
    compressed levels and the value array. *)
val tensor_args : Tensor_var.t -> Tensor.t -> (string * Compile.arg) list

(** [run_compute t ~inputs ~output] executes a [Compute]-mode kernel.
    [output] must be pre-assembled (its index structure covers the
    result's nonzeros); its value array is overwritten in place. Raises
    [Invalid_argument] on arity/format mismatches.

    On every run entry point, [?domains] (default 1) is the chunk count
    for parallelized kernels — see {!Compile.run}. Results are
    bit-identical for every value; kernels without a ParallelFor region
    ignore it. [?deadline_ns] arms the cooperative cancellation
    watchdog ([E_EXEC_CANCELLED] once the clock passes it — see
    {!Compile.run}); entry points that materialize a dense output also
    pre-check it against {!Budget.set_mem_limit} ([E_EXEC_MEM]). *)
val run_compute :
  ?domains:int ->
  ?deadline_ns:int64 ->
  t ->
  inputs:(Tensor_var.t * Tensor.t) list ->
  output:Tensor.t ->
  unit

(** [run_assemble t ~inputs ~dims] executes an [Assemble]-mode kernel and
    builds the result tensor from the assembled arrays, read back at
    their exact lengths ([pos]: rows + 1, [crd]/[vals]: the kernel's
    [pos.(rows)]; see {!Compile.run}'s [?read]) and wrapped without
    another copy. With
    [~emit_values:false] kernels the returned tensor has the assembled
    structure and zero values (the symbolic/numeric split common in
    numerical code, paper §VI). *)
val run_assemble :
  ?domains:int ->
  ?deadline_ns:int64 ->
  t ->
  inputs:(Tensor_var.t * Tensor.t) list ->
  dims:int array ->
  Tensor.t

(** Execute an [Assemble]-mode kernel without reading back or wrapping
    the result (no trimming, no sorting of unsorted rows): the timing
    entry point used by benchmarks that measure kernel execution alone. *)
val run_assemble_raw :
  ?domains:int ->
  ?deadline_ns:int64 ->
  t ->
  inputs:(Tensor_var.t * Tensor.t) list ->
  dims:int array ->
  unit

(** Convenience for compute kernels with dense results: allocates the
    output, runs, returns it. *)
val run_dense :
  ?domains:int ->
  ?deadline_ns:int64 ->
  t ->
  inputs:(Tensor_var.t * Tensor.t) list ->
  dims:int array ->
  Tensor.t
