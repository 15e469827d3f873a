(** Native execution backend: compile a lowered kernel's C rendering
    ({!Taco_lower.Codegen_c.emit_exec}) into a shared object with the
    system C compiler and call it through [dlopen].

    Strictly optional — {!load} reports every environmental failure
    (no compiler, compile error, read-only tmpdir, dlopen failure) as
    [Error reason] so {!Compile} can fall back to the closure executor
    with a counted, traced downgrade rather than failing the request.

    The compiler is [cc] or the [TACO_CC] environment variable, run
    directly (no shell); its availability is probed once per distinct
    compiler string. The kernels call back into a runtime table the
    stub implements once (allocation, growth, sorting, the clock). Build
    artifacts live in a per-process temp directory and are unlinked as
    soon as the shared object is mapped (set [TACO_NATIVE_KEEP=1] to
    keep them); {!cleanup} sweeps any leftovers. *)

module Imp = Taco_lower.Imp

(** Build-phase wall-clock costs of one {!load}. *)
type phases = { emit_ns : int64; cc_ns : int64; dlopen_ns : int64 }

type loaded = {
  l_name : string;
  l_fn : nativeint;
  l_handle : nativeint;
  l_arr_kinds : int array;
      (** marshalling kind per array parameter, in parameter order:
          0 int input, 1 float in-place, 2 int output (copied back) *)
  l_esc_kinds : int array;
      (** marshalling kind per escape, in escape order: 0 int array,
          1 float array *)
  l_escapes : (string * int) list;
      (** kernel-allocated arrays handed back, with their escape
          index *)
  l_phases : phases;
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

(** Resolved compiler command ([TACO_CC] or ["cc"]). *)
val compiler : unit -> string

(** Identifier mixed into the kernel-cache key so entries built by one
    compiler are not served under another. *)
val compiler_id : unit -> string

(** Whether the resolved compiler answers [-dumpversion]; probed once
    per compiler string and cached. *)
val available : unit -> bool

(** Emit, compile, dlopen. Emits [native.emit]/[native.cc]/
    [native.dlopen] trace spans and records the same timings in
    [l_phases]. *)
val load : Imp.kernel -> (loaded, string) result

(** Invoke the kernel. Returns the entry point's return code (0 ok,
    1 allocation failure/budget, 2 deadline expired) and, on success,
    one [int array]/[float array] per read, in read order, each exactly
    as long as requested. Lengths are checked against the buffers
    before anything is boxed: code 3 is a length outside its escape's
    capacity, code 4 a length index outside its source escape; both
    return [[| read index; offending value; bound |]] (as ints).
    Emits a [native.run] span. *)
val run : loaded -> spec -> int * Obj.t array

(** Remove any on-disk build artifacts and the per-process directory.
    Loaded kernels stay callable (the mapped inodes survive). Called on
    [Service.shutdown] and at process exit. *)
val cleanup : unit -> unit
