(** Tensor file I/O.

    - Matrix Market coordinate format ([.mtx]) for matrices, the format
      SuiteSparse distributes — so real Table I inputs can be dropped in
      for the synthetic stand-ins when available.
    - The FROSTT text format ([.tns]) for higher-order tensors: one line
      per nonzero, 1-based coordinates followed by the value.

    Readers tolerate CRLF line endings, blank lines and interleaved
    comment lines ([%] or [#]). Failures are stage-[Io] diagnostics whose
    context names the file and the offending line ([("line", …)]); codes
    include [E_IO_HEADER], [E_IO_UNSUPPORTED], [E_IO_SIZE_LINE],
    [E_IO_ENTRY], [E_IO_FIELD], [E_IO_EOF] and [E_IO_SYS].

    Packed tensors index with int32 ({!Taco_support.Ivec}), so a size,
    a coordinate or a given dimension outside [1..Int32.max_int] (an
    [nnz] outside [0..Int32.max_int]) is refused with [E_IO_RANGE],
    whose context also names the [field]. *)

(** [read_matrix_market path] reads a real-valued coordinate-format
    matrix ([general] or [symmetric]) into a COO buffer. Pattern files
    read as 1.0 values. *)
val read_matrix_market : string -> (Coo.t, Taco_support.Diag.t) result

(** [write_matrix_market path t] writes the stored nonzeros in
    coordinate format ([general]). [Error] with code [E_IO_ORDER] if the
    tensor is not order 2. *)
val write_matrix_market : string -> Tensor.t -> (unit, Taco_support.Diag.t) result

(** [read_frostt path ~dims] reads a FROSTT [.tns] file. When [dims] is
    omitted they are inferred as the per-mode coordinate maxima. *)
val read_frostt : ?dims:int array -> string -> (Coo.t, Taco_support.Diag.t) result

val write_frostt : string -> Tensor.t -> (unit, Taco_support.Diag.t) result
