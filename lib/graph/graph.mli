(** Graph algorithms as fixpoints of semiring-generalized kernels.

    Every workload iterates a compiled sparse kernel — SpMV under the
    appropriate semiring, or a (+, ×) spgemm — to a fixpoint in an
    OCaml driver. Kernels are compiled once per
    (operation, semiring, format, backend) and cached, in the style of
    {!Taco_ops.Ops}.

    Graphs are adjacency matrices in any sparse or dense matrix format:
    entry (i, j) is the weight of the directed edge i → j. A stored
    value of 0 is indistinguishable from a structural zero, so edge
    weights must be non-zero (BFS/PageRank/triangles use 0/1
    adjacencies; Bellman-Ford requires strictly positive weights). *)

module Tensor = Taco_tensor.Tensor
module Semiring = Taco_ir.Semiring

(** Executor selection for every compiled kernel an algorithm uses;
    [`Native] downgrades to closures when no C compiler is available
    (see {!Taco_exec.Compile.backend}). *)
type backend = Taco_exec.Compile.backend

(** {2 Semiring kernels} *)

(** [spmv ?backend sr a x] = y with y(i) = ⊕{_j} a(i,j) ⊗ x(j) under
    [sr]; absent entries of [a] act as the semiring zero. The result is
    a dense vector. *)
val spmv :
  ?backend:backend -> Semiring.t -> Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** [vadd ?backend sr x y] = elementwise x(i) ⊕ y(i) of two dense
    vectors (e.g. the relaxation min under min-plus). *)
val vadd :
  ?backend:backend -> Semiring.t -> Tensor.t -> Tensor.t -> (Tensor.t, string) result

(** Wrap a float array as a dense vector tensor. *)
val dense_vector : float array -> Tensor.t

(** {2 Fixpoint driver} *)

(** [fixpoint ?max_iters step init] iterates [step it state] until it
    returns [None] (converged; the last state is returned along with
    the number of steps taken) or [max_iters] is hit (an error). *)
val fixpoint :
  ?max_iters:int ->
  (int -> 'a -> ('a option, string) result) ->
  'a ->
  ('a * int, string) result

(** {2 Workloads} *)

(** [pagerank ?backend ?damping ?tol ?max_iters a] ranks the nodes of
    the 0/1 adjacency [a] by power iteration on the column-stochastic
    transition matrix ((+, ×) SpMV per step), with teleport and a
    uniform redistribution of dangling-node mass. Returns the rank
    vector (sums to 1) and the iteration count. *)
val pagerank :
  ?backend:backend ->
  ?damping:float ->
  ?tol:float ->
  ?max_iters:int ->
  Tensor.t ->
  (float array * int, string) result

(** [bfs ?backend a ~src] runs breadth-first search from [src] by
    iterating a boolean or-and SpMV of the frontier to fixpoint.
    Returns hop levels ([levels.(src) = 0], unreachable nodes [-1]) and
    the number of frontier expansions. *)
val bfs : ?backend:backend -> Tensor.t -> src:int -> (int array * int, string) result

(** [bellman_ford ?backend a ~src] computes single-source shortest
    distances over the strictly-positive edge weights of [a] by
    iterating a min-plus SpMV relaxation to fixpoint. Returns distances
    ([infinity] for unreachable nodes) and the number of relaxation
    rounds. *)
val bellman_ford :
  ?backend:backend -> Tensor.t -> src:int -> (float array * int, string) result

(** [triangle_count ?backend a] counts triangles in the undirected
    simple graph whose symmetric 0/1 adjacency is [a], as
    inner(A, A·A) / 6 — a (+, ×) spgemm masked by the adjacency's
    sparsity through the inner product. *)
val triangle_count : ?backend:backend -> Tensor.t -> (float, string) result

(** Drop the cached kernels (a {!Taco.Memo} named [graph], 64 entries). *)
val cache_clear : unit -> unit
