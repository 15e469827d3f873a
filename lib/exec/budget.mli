(** Process-wide budget of extra domains.

    OCaml 5 domains are expensive to oversubscribe: the runtime
    recommends at most {!recommended} of them in total. Every component
    that spawns domains — the {!Compile} ParallelFor executor,
    {!Parallel.run_dense}'s clamped path and the {!Taco_service} worker
    pool — acquires permits here before spawning and releases them
    after joining, so their combined live count stays bounded even when
    a serve request itself executes a parallel kernel.

    A permit stands for one domain beyond the caller's own. The default
    capacity is [recommended () - 1]. Acquisition is best-effort:
    {!acquire} grants between [0] and [want] permits and never blocks,
    and a caller spawns one domain per permit granted, never more. A
    caller granted fewer permits runs the remaining work on its own
    domain: kernel chunks in its own loop, which the deterministic
    chunk merge makes observationally identical, and service workers as
    threads of the domain that created the pool. *)

(** [Domain.recommended_domain_count ()]. *)
val recommended : unit -> int

val capacity : unit -> int

(** Resize the pot (test/bench hook: force real multi-domain execution
    on small machines, or starve it to prove sequential degradation).
    Permits already held stay held; the new capacity bounds future
    grants. *)
val set_capacity : int -> unit

(** [acquire want] grants [min want available] permits (possibly 0). *)
val acquire : int -> int

(** Return permits granted by a previous {!acquire}. *)
val release : int -> unit

(** [set_mem_limit bytes] bounds individual kernel-side allocations
    (workspaces, reallocations, dense outputs): the executor rejects an
    allocation whose estimated size exceeds the limit with a stage-
    [Execute] diagnostic ([E_EXEC_MEM]) {e before} allocating, instead
    of running the process out of memory. [bytes <= 0] removes the
    limit (the default is unlimited). Process-wide. *)
val set_mem_limit : int -> unit

(** The current allocation limit in bytes ([max_int] when unlimited). *)
val mem_limit : unit -> int

(** Permits currently held across the process. *)
val live_extra : unit -> int

(** High-water mark of {!live_extra} since the last {!reset_peak} —
    the oversubscription witness asserted by the concurrency tests. *)
val peak_extra : unit -> int

val reset_peak : unit -> unit
