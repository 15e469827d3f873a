(** Lowering concrete index notation to imperative sparse code (paper §VI).

    Forall statements become loops over the tensor modes their variable
    indexes: dense loops, single sparse loops, coiterating merge loops
    (driven by {!Merge_lattice}), result-index-driven loops, or
    workspace-coordinate-list loops. Where statements lower to producer
    code followed by consumer code, with workspace allocation, memset
    hoisting (when the consumer covers every written position, the memset
    moves to the kernel top and the consumer restores zeros after
    reading — compare the paper's Fig. 5b and Fig. 10), and, during
    assembly, the coordinate-list/guard-array tracking of Fig. 8.

    Three kernel modes:
    - [Compute]: result indices pre-assembled (Fig. 1d, 5b, 9, 10);
    - [Assemble ~emit_values:false]: assemble result [pos]/[crd] only
      (Fig. 8);
    - [Assemble ~emit_values:true]: fused assembly and compute.

    Reproduced taco limitation, by design: lowering an incrementing
    assignment that scatters into a compressed result (an enclosing
    reduction loop) fails with an error directing the user to the
    workspace transformation — this is the kernel class the paper's
    transformation newly enables. *)

open Taco_ir.Var

type mode =
  | Compute
  | Assemble of { emit_values : bool; sorted : bool }

type kernel_info = {
  kernel : Imp.kernel;
  inputs : Tensor_var.t list;  (** operand tensors, in parameter order *)
  result : Tensor_var.t;
  mode : mode;
  extents : Taco_ir.Extent.t;
      (** the statement's index-variable extents, checked when tensors
          are bound (see {!Taco_exec.Kernel}); empty for hand-written
          kernels *)
}

(** [lower ?name ?splits ~mode stmt] — [stmt] must be validated concrete
    index notation with exactly one non-workspace result tensor.

    [splits] strip-mines the named index variables by the given factors
    (the loop-splitting the paper's conclusion proposes growing concrete
    index notation towards): a dense loop [for v in 0..n) becomes
    [for v_o in 0..ceil(n/f)) for v_i in 0..f) { v = v_o*f + v_i; if (v < n) ... }].
    Only loops that lower densely can be strip-mined; a split on a
    variable that drives sparse iteration is an error.

    [parallel] marks one index variable for parallel execution: the
    kernel-top loop driving it (a dense loop binding the variable, or a
    sparse loop recovering its coordinate) is wrapped in
    {!Imp.ParallelFor}, annotated with the workspace arrays each chunk
    must privatize and the result's append staging (counter, crd/vals
    arrays, pos) the executor concatenates in chunk order. Lowering
    fails (["cannot parallelize …"]) when no kernel-top loop drives the
    variable — it is merged by coiteration or nested inside another
    loop — or when the result's pos array is not finalized against that
    same loop. *)
val lower :
  ?name:string ->
  ?splits:(Taco_ir.Var.Index_var.t * int) list ->
  ?single_precision:Tensor_var.t list ->
  ?semiring:Taco_ir.Semiring.t ->
  ?parallel:Taco_ir.Var.Index_var.t ->
  mode:mode ->
  Taco_ir.Cin.stmt ->
  (kernel_info, string) result

(** [single_precision] lists tensors (typically workspaces) whose stored
    values are rounded to IEEE single precision on every write — the
    mixed-precision facility of paper §III (e.g. accumulate a single
    precision product stream in a double workspace, or vice versa).
    Storage stays 64-bit; only the value range is narrowed, which is what
    determines the numerics. *)

(** [semiring] (default {!Taco_ir.Semiring.plus_times}) reinterprets the
    statement's [+]/[*] as the semiring's add/mul: accumulation becomes
    the additive monoid's reduce, sparsity exploits the semiring zero and
    its annihilator law, and workspace/result zeroing writes the semiring
    zero (an explicit fill when it is not all-zero bits, e.g. min-plus
    +inf). Negation, subtraction, division and mixed precision are only
    defined under (+, ×). *)

(** {2 Parameter naming conventions}

    For a tensor [T] with storage levels 1-based:
    - every level has an [T<l>_dimension] int parameter;
    - compressed levels add [T<l>_pos] and [T<l>_crd] int arrays;
    - values live in [T_vals].

    In [Assemble] mode the result's [pos]/[crd]/[vals] arrays are
    allocated inside the kernel and read back by name; its dimensions
    remain parameters. *)

val dimension_var : Tensor_var.t -> int -> string

val pos_var : Tensor_var.t -> int -> string

val crd_var : Tensor_var.t -> int -> string

val vals_var : Tensor_var.t -> string
