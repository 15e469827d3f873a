(** Merge lattices (taco PLDI'17 §5, used here to lower forall statements
    over expressions that coiterate sparse data structures).

    A lattice point is the set of sparse iterators that are still
    "present". Multiplication intersects points (both operands must be
    present for the term to be nonzero), addition takes the union closure
    (either side alone still contributes). The lattice drives merge-loop
    generation: one while loop per point, case branches for sub-points. *)

(** Iterators are identified by indices the caller assigns (one per sparse
    access participating at the forall variable). *)
type point = int list  (** sorted, distinct iterator ids *)

type t = {
  points : point list;
      (** all points, sorted by decreasing cardinality; never contains the
          empty point *)
  needs_full : bool;
      (** the expression can be nonzero with every sparse iterator
          exhausted (e.g. a dense operand joins a union): the loop must
          cover the whole dimension *)
}

(** [build ~sparse_id expr] — [sparse_id] maps each access to [Some id]
    when it is a sparse iterator at the loop variable, [None] otherwise
    (dense operands, workspaces, accesses not indexed by the variable). *)
val build : sparse_id:(Taco_ir.Cin.access -> int option) -> Taco_ir.Cin.expr -> t

(** Sub-points of [p] within the lattice (subsets of [p], including [p]
    itself), by decreasing cardinality. *)
val sub_points : t -> point -> point list

val pp : Format.formatter -> t -> unit
