(** Per-tensor sparsity statistics.

    Collected once per packed tensor (a single pass over the level
    arrays, no value inspection beyond the stored count) and consumed by
    the cost model ({!Taco_ir.Cost}) to estimate loop trip counts and
    intermediate cardinalities, and by the plan cache to bucket tensors
    whose plans should agree.

    The per-segment fill distribution reuses the log-linear bucket
    machinery from {!Taco_support.Metrics}: segment lengths at the first
    compressed level are histogrammed with ≤ 1/16 relative error, so a
    skewed matrix (a few dense rows among many empty ones) is
    distinguishable from a uniform one with the same nnz. *)

type t = {
  dims : int array;  (** Logical dimension sizes. *)
  nnz : int;  (** Stored components with a nonzero value. *)
  n_positions : int array;
      (** Stored positions per storage level (dense levels count their
          materialized positions). *)
  fill : float array;
      (** Average children per parent position, per storage level: the
          expected inner trip count once the outer levels are bound. *)
  row_hist : int array;
      (** Log-linear histogram ({!Taco_support.Metrics.bucket_of}) of
          segment lengths at the first compressed storage level; all
          zeros for all-dense tensors. *)
  hist_level : int option;
      (** Storage level described by [row_hist], if any. *)
}

(** One pass over the packed representation. *)
val of_tensor : Taco_tensor.Tensor.t -> t

(** Memoized {!of_tensor} keyed on physical identity, safe to call from
    concurrent worker domains: a {!Taco_support.Memo} named [stats]
    (64 entries, oldest dropped first), so concurrent calls on one
    tensor collect once and long-lived serving processes do not pin
    dead tensors. *)
val of_tensor_memo : Taco_tensor.Tensor.t -> t

(** Fraction of logically addressable components that are stored
    nonzero; in [0, 1] (0 for degenerate empty shapes). *)
val density : t -> float

(** Average stored entries per top-level slice (e.g. nnz/rows for a
    CSR matrix); falls back to [density * product(inner dims)] when the
    tensor has no compressed level. *)
val avg_fill : t -> float

(** Deterministic, low-cardinality bucket key for plan caching: dims and
    nnz quantized to powers of two. Tensors in the same bucket have
    trip-count estimates within 2x of each other, so a cached plan for
    one is (cost-wise) valid for the other. *)
val bucket : t -> string

(** One-line human summary (used by [--explain]). *)
val to_string : t -> string
