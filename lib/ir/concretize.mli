(** Concretization: index notation → concrete index notation (paper §VI).

    Two steps:
    + insert forall statements — free index variables nested outside
      reduction variables;
    + handle reductions. By default a reduction that spans the whole
      right-hand side becomes an incrementing assignment under the
      reduction foralls (the form the paper's examples use, e.g.
      [∀ijk A(i,j) += B(i,k)*C(k,j)]). With [~scalar_temps:true], every
      [Sum] instead becomes a where statement whose producer reduces into
      a fresh scalar temporary, the literal rule of §VI. *)

(** [run ?scalar_temps stmt] fails when the statement does not validate. *)
val run : ?scalar_temps:bool -> Index_notation.t -> (Cin.stmt, string) result
