(** Packed sparse/dense tensors.

    A tensor stores its values in the hierarchical per-level scheme of the
    paper's Fig. 1b: each storage level is either dense (implicit
    coordinates) or compressed ([pos]/[crd] arrays). The value array holds
    one component per position of the last level.

    Index arrays are int32 Bigarrays ({!Taco_support.Ivec}), the type the
    generated C reads: native kernels read them in place and hand their
    assembled [pos]/[crd] back without a copy. Every dimension and
    position must therefore fit int32; {!pack} and {!of_parts} refuse
    one that does not with an [E_TENSOR_RANGE] diagnostic (stage
    [Tensor]) naming the field, the level and the value. *)

type level_data =
  | Dense_data of { size : int }
      (** Implicit level: parent position [p] expands to child positions
          [p * size + c] for every coordinate [c]. *)
  | Compressed_data of { pos : Taco_support.Ivec.t; crd : Taco_support.Ivec.t }
      (** Children of parent position [p] occupy positions
          [pos.(p) .. pos.(p+1) - 1]; [crd] holds their coordinates. *)

type t

(** {2 Construction} *)

(** [pack coo format] sorts, deduplicates (summing) and packs a coordinate
    buffer. [format] must have the same order as [coo]. Raises
    [Diag.Error] ([E_TENSOR_RANGE]) for a dimension or a position count
    past [Int32.max_int]. *)
val pack : Coo.t -> Format.t -> t

(** [of_dense d format] packs a dense oracle tensor. *)
val of_dense : Dense.t -> Format.t -> t

(** [zero dims format] is an empty tensor (no stored entries; dense levels
    still materialize). Equal to [pack (Coo.create dims) format]; all-dense
    formats are built directly as one zeroed value block. *)
val zero : int array -> Format.t -> t

(** Build directly from level data; validates invariants and raises
    [Invalid_argument] on malformed input, [Diag.Error]
    ([E_TENSOR_RANGE]) for a dimension past [Int32.max_int]. *)
val of_parts : dims:int array -> format:Format.t -> levels:level_data array -> vals:float array -> t

(** CSR convenience: [of_csr ~rows ~cols pos crd vals]. *)
val of_csr :
  rows:int -> cols:int -> Taco_support.Ivec.t -> Taco_support.Ivec.t -> float array -> t

(** {2 Observation} *)

val dims : t -> int array

val order : t -> int

val format : t -> Format.t

val level_data : t -> int -> level_data

val vals : t -> float array

(** Number of stored components (including stored zeros in dense levels). *)
val stored : t -> int

(** Number of stored components with a nonzero value. *)
val nnz : t -> int

(** Random access by logical coordinate; absent coordinates read as 0. *)
val get : t -> int array -> float

(** Iterate stored positions in storage order with logical coordinates. *)
val iteri_stored : (int array -> float -> unit) -> t -> unit

val to_dense : t -> Dense.t

(** [csr_arrays t] is [(pos, crd, vals)]; requires the CSR format. *)
val csr_arrays : t -> Taco_support.Ivec.t * Taco_support.Ivec.t * float array

(** Re-pack into another format (via coordinates). *)
val repack : t -> Format.t -> t

(** [split_rows t ~parts] partitions the stored nonzeros into [parts]
    tensors of the same dimensions and format, by contiguous ranges of
    the mode stored at level 0, balancing nonzero counts. Used for
    data-parallel execution of kernels that are linear in one operand
    (each domain computes a partial result over its row range). *)
val split_rows : t -> parts:int -> t list

(** Structural invariants: monotone [pos], sorted in-bounds [crd], value
    array sized to the last level. *)
val validate : t -> (unit, string) result

(** Logical equality up to [eps] (compares all coordinates). Intended for
    tests on small tensors. *)
val equal : ?eps:float -> t -> t -> bool

val pp : Stdlib.Format.formatter -> t -> unit
