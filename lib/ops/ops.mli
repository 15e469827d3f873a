(** Pre-packaged tensor algebra operations.

    Each operation builds the index notation statement, finds a schedule
    with the {!Taco.Autoschedule} policy (applying the paper's workspace
    transformation where needed), compiles, and runs — the way a
    downstream user consumes the compiler without writing schedules.
    Compiled kernels are cached per (operation, operand formats), so
    repeated calls with same-format tensors skip compilation. Operands
    whose dimensions disagree are refused by the kernel's binding
    ({!Taco.run}'s [E_EXEC_DIMS], flattened to its string). *)

module Tensor = Taco_tensor.Tensor
module Format = Taco_tensor.Format

(** [matmul ?out b c] = B·C. Default output format: CSR when either
    operand has a compressed level, dense otherwise. *)
val matmul : ?out:Format.t -> Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** Elementwise sum; default output CSR/dense by the same rule. *)
val add : ?out:Format.t -> Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** Elementwise (Hadamard) product. *)
val mul : ?out:Format.t -> Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** [spmv b x] = B·x with a dense result vector. *)
val spmv : Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** [scale alpha t] multiplies every value by [alpha], preserving format. *)
val scale : float -> Tensor.t -> (Tensor.t, string) result

(** [inner a b] = Σ aᵢⱼ… bᵢⱼ… (the scalar inner product of two tensors of
    the same dimensions). *)
val inner : Tensor.t -> Tensor.t -> (float, string) result

(** [mttkrp x c d] = the matricized tensor times Khatri-Rao product of
    paper §VII: [A(i,j) = Σ_{k,l} X(i,k,l)·C(l,j)·D(k,j)] with dense
    factor matrices, computed with the workspace schedule. *)
val mttkrp : Tensor.t -> Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** [sddmm b c d] = sampled dense-dense matrix multiplication
    [A(i,j) = B(i,j) · Σ_k C(i,k)·D(k,j)] — the sparsity of [B] samples
    the dense product; the reduction lowers through a scalar temporary
    (§VI's concretization rule). Output has [B]'s format. *)
val sddmm : Tensor.t -> Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** [transpose t] swaps the two modes of a matrix (repacking). *)
val transpose : Tensor.t -> Tensor.t

(** Drop the cached kernels (a {!Taco.Memo} named [ops], 64 entries). *)
val cache_clear : unit -> unit
