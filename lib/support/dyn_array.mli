(** Growable arrays specialized to [int] and [float].

    Sparse tensor assembly appends coordinates and values whose final count
    is unknown up front; these buffers grow geometrically (doubling), the
    same policy as the reallocation loop in the paper's Fig. 8. *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t

  val length : t -> int

  val get : t -> int -> int

  val set : t -> int -> int -> unit

  val push : t -> int -> unit

  (** [ensure t n] grows the backing store so that indices [0, n) are
      addressable, filling fresh cells with [0] and extending [length]. *)
  val ensure : t -> int -> unit

  val clear : t -> unit

  (** Copy out the first [length t] elements. *)
  val to_array : t -> int array

  (** Copy out the first [length t] elements as an index array; each
      keeps its low 32 bits, so callers store only int32 values. *)
  val to_ivec : t -> Ivec.t

  val of_array : int array -> t

  val iter : (int -> unit) -> t -> unit

  (** Sort the live prefix in increasing order. *)
  val sort : t -> unit

  (** Unsafe view of the backing store; indices beyond [length t] are
      garbage. Used by the kernel executor to avoid copies. *)
  val unsafe_backing : t -> int array
end

module Float : sig
  type t

  val create : ?capacity:int -> unit -> t

  val length : t -> int

  val get : t -> int -> float

  val set : t -> int -> float -> unit

  val push : t -> float -> unit

  val ensure : t -> int -> unit

  val clear : t -> unit

  val to_array : t -> float array

  val of_array : float array -> t

  val unsafe_backing : t -> float array
end
