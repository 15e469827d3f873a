(** Concrete index notation (paper §IV): index notation extended with
    constructs that fix the order of loops and the placement and identity
    of temporaries, while staying above the level of sparse imperative
    code.

    Grammar (paper Fig. 3):
    {v
    statement := assignment | forall | where | sequence
    assignment := access = expr | access += expr
    forall := ∀index statement
    where := statement where statement
    sequence := statement ; statement
    v} *)

open Var

type access = { tensor : Tensor_var.t; indices : Index_var.t list }

type expr =
  | Literal of float
  | Access of access
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type op = Assign | Accumulate

type stmt =
  | Assignment of { lhs : access; op : op; rhs : expr }
  | Forall of Index_var.t * stmt
  | Where of stmt * stmt  (** [Where (consumer, producer)] *)
  | Sequence of stmt * stmt

(** {2 Constructors} *)

val access : Tensor_var.t -> Index_var.t list -> access

val assign : access -> expr -> stmt

val accumulate : access -> expr -> stmt

val forall : Index_var.t -> stmt -> stmt

(** [foralls [i; j; k] s] is [∀i ∀j ∀k s]. *)
val foralls : Index_var.t list -> stmt -> stmt

val where : consumer:stmt -> producer:stmt -> stmt

val sequence : stmt -> stmt -> stmt

(** {2 Analysis} *)

val equal_expr : expr -> expr -> bool

val equal_stmt : stmt -> stmt -> bool

(** Index variables occurring in an expression, first-use order. *)
val expr_vars : expr -> Index_var.t list

(** Index variables used anywhere in a statement (bound or free). *)
val stmt_vars : stmt -> Index_var.t list

(** [uses_var s v]: does [v] occur in any access or forall binder of [s]? *)
val uses_var : stmt -> Index_var.t -> bool

(** Every access of an expression, left to right, repeats kept. *)
val expr_accesses : expr -> access list

(** Every access of a statement: each assignment's left-hand side, then
    its right-hand side's; consumers before producers. Repeats kept. *)
val stmt_accesses : stmt -> access list

val tensors_read : stmt -> Tensor_var.t list

val tensors_written : stmt -> Tensor_var.t list

val tensors : stmt -> Tensor_var.t list

val contains_sequence : stmt -> bool

(** [contains_expr haystack needle] — structural subexpression test. *)
val contains_expr : expr -> expr -> bool

(** [subst_expr ~from ~into e] replaces every structural occurrence. *)
val subst_expr : from:expr -> into:expr -> expr -> expr

(** Substitute in every assignment right-hand side of a statement. *)
val subst_stmt : from:expr -> into:expr -> stmt -> stmt

(** [rename_var ~from ~into s] alpha-renames an index variable (binders and
    uses). *)
val rename_var : from:Index_var.t -> into:Index_var.t -> stmt -> stmt

(** [zero_tensor tv e] replaces accesses to [tv] by literal 0 and
    simplifies; used when a merge-lattice point has exhausted [tv]. *)
val zero_tensor : Tensor_var.t -> expr -> expr

(** Algebraic simplification: [0*x → 0], [0+x → x], [x/1 → x], … *)
val simplify : expr -> expr

(** Semiring-aware identity/annihilator elimination: [Add] is read as
    the semiring add (identity [zero]), [Mul] as the semiring mul
    (identity [one]; [zero] annihilates only when [annihilates]).
    Performs no constant folding — under min-plus, [3 + 4] is 3. *)
val simplify_sr : zero:float -> one:float -> annihilates:bool -> expr -> expr

(** Peel the outer forall nest: [∀i∀j S ↦ ([i;j], S)]. *)
val peel_foralls : stmt -> Index_var.t list * stmt

(** Well-formedness: access arities, all access indices bound by enclosing
    foralls, no duplicate binders on a path, where-producers write at least
    one tensor that the consumer reads. *)
val validate : stmt -> (unit, string) result

(** {2 Printing} *)

val pp_expr : Format.formatter -> expr -> unit

(** Mathematical form, e.g. [∀i (∀j A(i,j) = w(j)) where (∀k ∀j w(j) += B(i,k) * C(k,j))]. *)
val pp : Format.formatter -> stmt -> unit

val to_string : stmt -> string

(** Loop-nest pseudocode form (the gray right-hand column of the paper's
    examples). *)
val pp_pseudocode : Format.formatter -> stmt -> unit
