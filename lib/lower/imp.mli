(** Imperative low-level IR (paper Fig. 6, bottom box).

    The target of lowering: scalar declarations, array loads/stores,
    for/while loops, conditionals and the memory operations sparse
    assembly needs (alloc, geometric realloc, memset, coordinate sets). It
    pretty-prints to C ({!Codegen_c}) and compiles to closures for
    execution ({!Taco_exec.Compile}). *)

type dtype = Int | Float | Bool

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Min
  | Max
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Var of string
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Load of string * expr  (** array variable, index *)
  | Binop of binop * expr * expr
  | Not of expr
  | Ternary of expr * expr * expr  (** [cond ? a : b] *)
  | Round_single of expr
      (** Round a double to the nearest IEEE single (mixed-precision
          storage, paper §III). *)

(** Merge metadata for the append stage of a parallel loop: each domain
    appends into a private copy of the staging buffers starting at the
    shared counter's pre-loop value; after the barrier the segments are
    concatenated in chunk order. [pa_pos] names a CSR-style position
    array whose entries for a chunk's rows are rebased by the chunk's
    start offset. *)
type par_append = {
  pa_counter : string;  (** append counter scalar (e.g. [pA2]) *)
  pa_arrays : string list;  (** appended arrays sharing the counter (crd, vals) *)
  pa_pos : string option;  (** position array closed per iteration, if any *)
}

(** Execution metadata attached to a [ParallelFor]: which arrays and
    sets each domain must own privately (dense workspaces and their
    coordinate tracking), and the append stage to concatenate after the barrier.
    Everything else is shared: inputs are read-only and non-staged
    output writes are indexed by the loop variable, hence disjoint
    across chunks. *)
type par_info = { par_private : string list; par_stage : par_append option }

(** Non-plus additive reductions for semiring accumulation: emitted in
    C as [fmin]/[fmax]/a short-circuiting boolean-or over 0./1.
    encodings. The default (+, ×) semiring keeps using {!Store_add}. *)
type reduce = Red_min | Red_max | Red_or

type stmt =
  | Decl of dtype * string * expr
  | Assign of string * expr
  | Store of string * expr * expr  (** [arr[idx] = v] *)
  | Store_add of string * expr * expr  (** [arr[idx] += v] *)
  | Store_reduce of reduce * string * expr * expr
      (** [arr[idx] = reduce(arr[idx], v)] — float arrays only *)
  | Alloc of dtype * string * expr  (** array of [size] elements, zeroed *)
  | Realloc of string * expr  (** grow array to a new capacity, keeping contents *)
  | Memset of string * expr  (** zero the first [n] elements *)
  | Fill of string * expr * expr
      (** [Fill (arr, n, v)]: set the first [n] elements of a float
          array to the value [v] — the zeroing path for semirings whose
          additive identity is not all-zero bits (e.g. +inf), where
          {!Memset} would scribble the wrong value *)
  | For of string * expr * expr * stmt list  (** [for (v = lo; v < hi; v++)] *)
  | ParallelFor of string * expr * expr * stmt list * par_info
      (** [For] whose iterations are split into contiguous chunks across
          domains; results are bit-identical to the sequential loop for
          every domain count (see {!Taco_exec.Compile}). *)
  | While of expr * stmt list
  | If of expr * stmt list * stmt list
  | Set_alloc of string * expr
      (** [Set_alloc (s, n)]: an empty set of coordinates in [\[0, n)].
          Each executor owns its layout; both charge the memory budget
          {!set_elems}[ n] elements, in one allocation. *)
  | Set_insert of string * expr  (** add a coordinate to a set *)
  | Set_drain of string * string * stmt list
      (** [Set_drain (s, v, body)]: run [body] once per member of [s],
          bound to the int [v], in ascending order, removing each member
          as it goes: the set ends empty. [body] must not insert into
          [s]. *)
  | Comment of string

type param = {
  p_name : string;
  p_dtype : dtype;
  p_array : bool;
  p_output : bool;  (** written by the kernel *)
}

type kernel = { k_name : string; k_params : param list; k_body : stmt list }

(** The elements a coordinate set over [\[0, n)] is charged against the
    memory budget, at 8 bytes each: one 64-bit word per 64 coordinates
    plus one summary word per 64 words, at least 1 — the layout of the
    C renderings. *)
val set_elems : int -> int

(** {2 Smart constructors with constant folding} *)

val add : expr -> expr -> expr

val sub : expr -> expr -> expr

val mul : expr -> expr -> expr

val min_ : expr -> expr -> expr

val eq : expr -> expr -> expr

val lt : expr -> expr -> expr

val and_ : expr -> expr -> expr

(** Fold a non-empty list with [min_]. *)
val min_list : expr list -> expr

(** Conjunction of a non-empty list. *)
val and_list : expr list -> expr

(** {2 Analysis} *)

(** Free variables of an expression (scalars and array names). *)
val expr_vars : expr -> string list

(** All variable names declared in a statement list (scalars, loop
    variables and arrays). *)
val declared : stmt list -> string list

(** Check the kernel: every used variable is a parameter or declared
    before use, declarations are unique per scope path, loop variables
    fresh. Returns the first problem found. *)
val check : kernel -> (unit, string) result

(** Total number of expression and statement nodes in the kernel body —
    the IR size metric the [lower] trace span reports. *)
val node_count : kernel -> int

(** Full verifier pass over a lowered kernel: {!check}'s def-before-use
    discipline plus type consistency (arithmetic/comparison/logical
    operand types, declaration and store types) and array/scalar arity
    (scalars never indexed, arrays never used bare). Runs after lowering
    and before compilation so type errors name the offending variable at
    the IR level instead of surfacing from the executor. *)
val validate : kernel -> (unit, string) result

val pp_expr : Format.formatter -> expr -> unit

val pp_stmt : Format.formatter -> stmt -> unit
