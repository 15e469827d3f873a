(** Helpers for hand-writing imperative-IR kernels (the library baselines
    that stand in for Eigen, Intel MKL and SPLATT).

    All baselines are expressed in the same imperative IR as generated
    code and run through the same executor, so benchmark comparisons
    measure algorithm structure, not host-language overhead. *)

open Taco_lower

(** Expression shorthand. *)

val v : string -> Imp.expr

val i : int -> Imp.expr

val f : float -> Imp.expr

val ( +: ) : Imp.expr -> Imp.expr -> Imp.expr

val ( -: ) : Imp.expr -> Imp.expr -> Imp.expr

val ( *: ) : Imp.expr -> Imp.expr -> Imp.expr

val ( <: ) : Imp.expr -> Imp.expr -> Imp.expr

val ( >=: ) : Imp.expr -> Imp.expr -> Imp.expr

val ( =: ) : Imp.expr -> Imp.expr -> Imp.expr

val ( &&: ) : Imp.expr -> Imp.expr -> Imp.expr

val idx : string -> Imp.expr -> Imp.expr

(** Statement shorthand. *)

val decl_int : string -> Imp.expr -> Imp.stmt

val set : string -> Imp.expr -> Imp.stmt

val store : string -> Imp.expr -> Imp.expr -> Imp.stmt

val store_add : string -> Imp.expr -> Imp.expr -> Imp.stmt

val for_ : string -> Imp.expr -> Imp.expr -> Imp.stmt list -> Imp.stmt

val while_ : Imp.expr -> Imp.stmt list -> Imp.stmt

val if_ : Imp.expr -> Imp.stmt list -> Imp.stmt

val if_else : Imp.expr -> Imp.stmt list -> Imp.stmt list -> Imp.stmt

val incr : string -> Imp.stmt

(** Parameter shorthand. *)

val p_int : string -> Imp.param

val p_iarr : ?output:bool -> string -> Imp.param

val p_farr : ?output:bool -> string -> Imp.param

(** CSR parameter block for tensor name [t]: [t1_dimension, t2_dimension,
    t2_pos, t2_crd, t_vals]. *)
val csr_params : ?output:bool -> string -> Imp.param list

(** Wrap a hand-written kernel as a {!Lower.kernel_info} so the standard
    runner applies. [result]/[inputs] must use naming consistent with the
    kernel's parameters. The info has no extents: binding checks no
    operand's dimensions against another's. *)
val info :
  mode:Lower.mode ->
  result:Taco_ir.Var.Tensor_var.t ->
  inputs:Taco_ir.Var.Tensor_var.t list ->
  Imp.kernel ->
  Lower.kernel_info
