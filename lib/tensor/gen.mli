(** Random tensor generators.

    Mirrors the taco random matrix generator used by the paper: nonzeros
    placed uniformly at random to reach a target sparsity, values uniform
    in [0, 1). All generators are deterministic in the supplied PRNG. *)

(** [random_coo prng ~dims ~nnz] draws exactly [nnz] distinct coordinates
    uniformly (requires [nnz] no larger than the number of components). *)
val random_coo : Taco_support.Prng.t -> dims:int array -> nnz:int -> Coo.t

(** [random prng ~dims ~nnz fmt] packs a random coordinate buffer. *)
val random : Taco_support.Prng.t -> dims:int array -> nnz:int -> Format.t -> Tensor.t

(** [random_density prng ~dims ~density fmt] targets
    [nnz = density * product dims], rounded down: at least 1 for a
    positive [density], and an empty tensor for [density <= 0.]. *)
val random_density :
  Taco_support.Prng.t -> dims:int array -> density:float -> Format.t -> Tensor.t

(** [random_dense prng dims] is fully dense with uniform values. *)
val random_dense : Taco_support.Prng.t -> int array -> Dense.t

(** [clustered3 prng ~dims ~nnz ~avg_fiber] draws an order-3 tensor whose
    nonzeros cluster into (i,k) fibers of [avg_fiber] entries on average,
    like real data-analytics tensors (uniform placement yields fibers of
    length < 1 on large tensors, which misrepresents MTTKRP's fiber
    reuse). The realized count can be slightly below [nnz] after
    duplicate merging. *)
val clustered3 :
  Taco_support.Prng.t -> dims:int array -> nnz:int -> avg_fiber:float -> Coo.t
