(** Index-variable extents (paper §IV: each index variable ranges over
    one extent). Lowered loops read a variable's extent from one
    operand's [T<l>_dimension] and trust every other tensor mode the
    variable indexes to match; binding tensors to a kernel checks that
    trust against the groups computed here. *)

open Var

(** A tensor mode (0-based, in mode order) and the index variable of
    the access that ranges over it. *)
type member = { tensor : Tensor_var.t; mode : int; var : Index_var.t }

(** The members that must share one extent, one list per extent, each
    in first-access order. Workspace modes join the variables that
    index them (a precompute's consumer [w(jc)] and producer [w(jp)]
    are one extent), but are not members: no tensor is bound to them. *)
type t = member list list

(** The groups of a statement. *)
val of_stmt : Cin.stmt -> t

(** [check t bound] raises [Diag.Error] (stage [Execute], code
    [E_EXEC_DIMS]) naming the variable, both tensors and both extents
    when two members of a group that [bound] gives dimensions disagree.
    [bound] pairs tensors with their dimensions, by mode; a member whose
    tensor is absent is not checked. *)
val check : t -> (Tensor_var.t * int array) list -> unit

(** [dims t bound tv]: [tv]'s extent in each mode, that of the first
    bound member of the mode's group, [None] where none is bound.
    Assumes [check t bound] passed. *)
val dims : t -> (Tensor_var.t * int array) list -> Tensor_var.t -> int option array

(** [infer t bound tv]: {!check}, then [tv]'s dimensions from {!dims};
    [E_EXEC_DIMS] when some mode's group has no bound member. *)
val infer : t -> (Tensor_var.t * int array) list -> Tensor_var.t -> int array
