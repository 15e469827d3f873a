(** Carrier-local state.

    A carrier is what runs OCaml code: a domain, or one of the
    systhreads ([Thread.create]) that share it. [Domain.DLS] holds one
    value per domain, shared by all of that domain's threads; a key made
    here holds one value per carrier, so state such as a trace span
    stack or a metrics shard stays private to the thread that uses it
    even when a service runs its workers as threads of one domain.

    Reads take no lock. A carrier's value is built by [init] on its
    first {!get} and lives as long as the carrier's domain. *)

type 'a key

(** [new_key init] makes a key whose value on each carrier starts as
    [init ()]. *)
val new_key : (unit -> 'a) -> 'a key

(** The calling carrier's value. *)
val get : 'a key -> 'a

(** The calling carrier's id, unique in the process ([Thread.id] of the
    running thread; [0] on the main thread). *)
val id : unit -> int
