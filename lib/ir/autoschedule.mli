(** A scheduling policy system (the future work the paper's §I proposes
    building on top of the scheduling API): drive a statement to a
    lowerable, efficient form automatically.

    Two policies are provided. {!run} is the original breadth-first
    policy: iterate reorders and the §V-C workspace heuristics until the
    supplied [lowerable] check accepts the statement, and return the
    first acceptance. {!search} is the cost-ranked policy: explore the
    same move space best-first under the statistics-driven cost model
    ({!Cost}), collect every lowerable schedule within the budget, and
    return the cheapest — falling back to the breadth-first plan unless
    the estimated win is decisive. The result records which steps were
    taken, so users can audit (and replay through the manual API) what
    the policy chose. *)

open Var

type step =
  | Reordered of Index_var.t * Index_var.t
  | Precomputed of Heuristics.suggestion * Tensor_var.t  (** and its workspace *)
  | Parallelized of Index_var.t
      (** advisory: the plan's outermost loop can run in parallel *)

val step_to_string : step -> string

(** [run ~lowerable stmt] — [lowerable] returns [Ok ()] or the lowering
    error message for a candidate statement (pass
    [fun s -> Result.map ignore (Lower.lower ~mode s)] from the caller;
    this module cannot depend on the lowering library). *)
val run :
  lowerable:(Cin.stmt -> (unit, string) result) ->
  Cin.stmt ->
  (Cin.stmt * step list, string) result

(** {2 Cost-ranked search} *)

(** A chosen plan: the scheduled statement, the steps that produced it,
    an advisory parallelization of the outermost loop (only proposed
    when statistics say the kernel is large enough to amortize domain
    startup, and only when provably race-free), and its estimated cost
    under the model. *)
type plan = {
  p_stmt : Cin.stmt;
  p_steps : step list;
  p_par : Index_var.t option;
  p_cost : float;
}

(** Search audit trail, surfaced by [tacocli --explain]. *)
type explain = {
  e_considered : int;  (** states examined by the best-first search *)
  e_lowerable : int;  (** lowerable schedules found (incl. the default) *)
  e_default_cost : float;  (** estimated cost of the breadth-first plan *)
  e_chosen_cost : float;
  e_search_ns : int64;  (** wall time spent searching *)
  e_cache_hit : bool;  (** plan served from the cache, search skipped *)
  e_top : (string * float) list;  (** up to 3 cheapest (schedule, cost) *)
}

(** [search ?stats ?key ~lowerable stmt] returns the cheapest lowerable
    plan under the cost model built from [stats] (per-tensor statistics
    keyed by tensor name; absent tensors use model defaults). The
    breadth-first plan is always in the candidate pool, and is kept
    unless a candidate beats it by a decisive margin — so the chosen
    plan is never estimated slower than {!run}'s.

    When [key] is given, the plan cache is consulted first and the
    chosen plan is stored under it: a cached plan whose statement still
    passes [lowerable] is returned without any search ([e_cache_hit]).
    Build keys from (expression structure, stats bucket); see
    {!Taco_stats.Stats.bucket}. *)
val search :
  ?stats:(string * Taco_stats.Stats.t) list ->
  ?key:string ->
  lowerable:(Cin.stmt -> (unit, string) result) ->
  Cin.stmt ->
  (plan * explain, string) result

(** Plan-cache counters: the {!Taco_support.Memo} named [plan] (256
    entries). *)
val cache_stats : unit -> Taco_support.Memo.stats

(** Drop all cached plans and reset the counters (tests). *)
val cache_clear : unit -> unit
