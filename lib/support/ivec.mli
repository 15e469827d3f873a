(** Index arrays: int32 Bigarrays.

    The one representation of a compressed level's [pos] and [crd] and
    of every Imp int array, on both executors. The elements live outside
    the OCaml heap, so a native kernel reads and writes them in place
    and a buffer a kernel allocates becomes one without a copy; the GC
    neither scans nor moves them. Every index must fit int32, the type
    the generated C declares: {!set} keeps the low 32 bits of its value,
    exactly as a C store to an [int32_t] does.

    The type is exported as its Bigarray so a caller that names it
    statically gets ocamlopt's inline element access; the functions
    below are for code off the hot path. *)

type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [Int32.min_int <= n <= Int32.max_int]. *)
val fits : int -> bool

(** [create n]: [n] zeroed elements. Adds its [4 n] bytes to the
    [taco_index_bytes_total] counter (see {!count_bytes}). *)
val create : int -> t

(** Add [n] bytes to [taco_index_bytes_total], the index-array bytes
    allocated outside the OCaml heap: {!create} and the native stub's
    hand-over of kernel-allocated buffers. Counts only while
    [Metrics] is enabled. *)
val count_bytes : int -> unit

(** A shared zero-length array. *)
val empty : t

val length : t -> int

val get : t -> int -> int

(** Stores the low 32 bits of the value. *)
val set : t -> int -> int -> unit

(** A fresh copy. Raises [Invalid_argument] when a value does not fit
    int32. *)
val of_array : int array -> t

val to_array : t -> int array

(** A fresh copy of the whole array. *)
val copy : t -> t

(** [sub a off len]: a fresh copy of [len] elements from [off]. *)
val sub : t -> int -> int -> t
