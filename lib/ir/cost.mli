(** Statistics-driven cost model over concrete index notation.

    Scores a scheduled statement with an asymptotic operation count:
    nested loop trip counts are estimated from per-tensor sparsity
    statistics ({!Taco_stats.Stats}) — dense levels iterate the full
    dimension, compressed levels iterate the average segment fill once
    their outer levels are bound — and accumulation into compressed
    storage out of insertion order pays a scatter penalty. The model
    only needs to *rank* candidate schedules; absolute values are
    operation counts, not seconds.

    Cardinality estimation uses the Bernoulli independence model
    (products intersect densities, additions unite them, reductions
    union over the reduced extent), the standard baseline the Galley
    line of work starts from. *)

type env

(** [env stats] builds an estimation environment from named tensor
    statistics (names match the {!Var.Tensor_var} names in the
    statement). Tensors absent from [stats] fall back to [default_dim]
    (dimension extents, default 1000) and [default_density] (default
    0.05). *)
val env :
  ?default_dim:int ->
  ?default_density:float ->
  (string * Taco_stats.Stats.t) list ->
  env

(** Estimated operation count of executing the statement. *)
val estimate : env -> Cin.stmt -> float

(** Estimated number of nonzeros in the statement's result (the
    principal non-workspace assignment); [None] for statements without
    one. *)
val estimate_nnz : env -> Cin.stmt -> float option
