(** Assorted helpers shared across the compiler and the tensor substrate. *)

(** [binary_search a lo hi x] returns the position of [x] in the sorted
    slice [a.(lo) .. a.(hi-1)], or [None] when absent. *)
val binary_search : Ivec.t -> int -> int -> int -> int option

(** Sort [keys.(lo) .. keys.(hi-1)] in increasing order, permuting the
    corresponding slice of [payload] in lock step. *)
val sort_paired : Ivec.t -> float array -> int -> int -> unit

(** Timing helper: wall-clock seconds spent in the thunk. *)
val time : (unit -> 'a) -> 'a * float

(** [median xs] of a non-empty list. *)
val median : float list -> float

(** [string_of_list f sep xs]. *)
val string_of_list : ('a -> string) -> string -> 'a list -> string

(** [list_index_of x xs] is the position of the first occurrence. *)
val list_index_of : 'a -> 'a list -> int option

(** Deduplicate while preserving first-occurrence order. *)
val dedup_stable : 'a list -> 'a list

(** All subsets of a list, each subset preserving element order. *)
val subsets : 'a list -> 'a list list

(** [map_lefts f xs]: the [Left] payloads of [xs], in order, go to one
    call of [f], which returns one result per payload, in order; each
    result takes its [Left]'s place, and each [Right] payload stays in
    its own. For a batch step that applies to some elements of a
    list. Raises [Invalid_argument] when [f] returns too few results. *)
val map_lefts : ('a list -> 'b list) -> ('a, 'b) Either.t list -> 'b list
