(** Binding packed tensors to lowered kernels and running them.

    Parameter names follow the conventions of {!Taco_lower.Lower}. *)

open Taco_ir.Var
module Tensor = Taco_tensor.Tensor

type t

(** Compile a lowered kernel once; it can be run many times.
    [profile] adds runtime work counters (see {!Compile.run_stats});
    [backend] the executor ([`Closure] default, [`Native] compiles the
    emitted C to a shared object, downgrading to closures when no
    compiler is available — see {!Compile.backend}). *)
val prepare : ?profile:bool -> ?backend:Compile.backend -> Taco_lower.Lower.kernel_info -> t

(** A lowered kernel and its compile options, for {!prepare_batch}. *)
type request

(** The options as for {!prepare}; the calling domain's request id is
    recorded (see {!Compile.spec}). *)
val request :
  ?profile:bool -> ?backend:Compile.backend -> Taco_lower.Lower.kernel_info -> request

(** The request stamped with the calling domain's request id — see
    {!Compile.restamp}. *)
val restamp : request -> request

(** Prepare several kernels with one {!Compile.compile_batch} (one C
    compiler run for every native miss among them); results in
    [requests] order, each failure its own. {!prepare} is the batch of
    one. *)
val prepare_batch : request list -> (t, Taco_support.Diag.t) result list

(** The kernel if the compile cache holds it — see {!Compile.lookup}. *)
val lookup : request -> (t, Taco_support.Diag.t) result option

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

(** The imperative IR as compiled: the kernel as lowered, without
    profiling instrumentation (see {!Compile.kernel}). *)
val imp : t -> Taco_lower.Imp.kernel

(** The C rendering of the compiled kernel (for inspection). *)
val c_source : t -> string

(** Arguments for one tensor: dimension scalars, pos/crd arrays of
    compressed levels and the value array. *)
val tensor_args : Tensor_var.t -> Tensor.t -> (string * Compile.arg) list

(** The result's dimensions, read from the kernel's extents
    ({!Taco_lower.Lower.kernel_info}): each mode's extent is that of a
    bound input its index variable ranges over. Raises [Diag.Error]
    [E_EXEC_DIMS] when two inputs disagree on an extent or a mode's
    extent is bound by no input (always, for a hand-written kernel). *)
val result_dims : t -> inputs:(Tensor_var.t * Tensor.t) list -> int array

(** [run_compute t ~inputs ~output] executes a [Compute]-mode kernel.
    [output] must be pre-assembled (its index structure covers the
    result's nonzeros); its value array is overwritten in place. Raises
    [Invalid_argument] on arity/format mismatches.

    Every run entry point binds the same way, before either executor
    runs: each index variable's extent must be the same in every bound
    tensor it ranges over, the output (or [dims]) included, or the run
    raises [Diag.Error] [E_EXEC_DIMS] (stage [Execute]) naming the
    variable, both tensors and both extents. Native kernels read an
    extent from one operand and trust the others to match; hand-written
    kernels carry no extents and get no such check.

    On every run entry point, [?domains] (default 1) is the chunk count
    for parallelized kernels — see {!Compile.run}. Results are
    bit-identical for every value; kernels without a ParallelFor region
    ignore it. [?deadline_ns] arms the cooperative cancellation
    watchdog ([E_EXEC_CANCELLED] once the clock passes it — see
    {!Compile.run}); entry points that materialize a dense output also
    pre-check it with {!Compile.check_alloc} ([E_EXEC_MEM]). *)
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
