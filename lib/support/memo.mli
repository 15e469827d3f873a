(** Bounded, domain-safe, single-flight memo tables: the one cache
    implementation behind every memoized stage (compiled kernels, chosen
    plans, tensor statistics, the ops/graph kernel tables, compiler
    probes).

    Each table is bounded at creation and evicts oldest-inserted first
    (FIFO). Lookups and builds are single-flight: when several domains
    ask for the same missing key, one runs the build while the others
    block on it and then take its result (counted as [coalesced] hits).
    Only a build that returns is inserted; a raising build wakes the
    waiters, and they retry (the first to wake claims the build). A
    caller can claim several keys at once and build them in one go
    ({!Make.find_or_build_all}): the compile cache uses it to build a
    batch of kernels with one C compiler run.

    Counting happens here and only here. Every table named [name]
    feeds the {!Metrics} counters [taco_<name>_cache_hits_total],
    [taco_<name>_cache_misses_total],
    [taco_<name>_cache_evictions_total] and
    [taco_<name>_cache_coalesced_total], and the gauge
    [taco_<name>_cache_size]. *)

type stats = {
  hits : int;  (** Lookups served from the table without a build. *)
  misses : int;  (** Builds that returned and were inserted. *)
  entries : int;
  evictions : int;
  coalesced : int;
      (** Hits that waited for a concurrent in-flight build of the same
          key instead of building it again (a subset of [hits]). *)
}

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  (** [create ~name ~capacity] is an empty table holding at most
      [capacity] (>= 1) entries. [name] prefixes its metric names.
      Raises [Invalid_argument] on a non-positive capacity. *)
  val create : name:string -> capacity:int -> 'a t

  (** [find_or_build ?valid t key build] is the entry for [key], running
      [build] (once across all domains) when there is none. An entry
      that fails [valid] is treated as absent: the lookup counts as a
      miss and the rebuilt value replaces it. [valid] runs under the
      table's lock; [build] does not. Exceptions from [build] propagate
      to its caller and nothing is inserted. *)
  val find_or_build : ?valid:('a -> bool) -> 'a t -> K.t -> (unit -> 'a) -> 'a

  (** {!find_or_build} for a build that reports failure as [Error]: an
      [Error] is returned to the caller that built it and is not
      inserted, like an exception. *)
  val find_or_build_result :
    ?valid:('a -> bool) -> 'a t -> K.t -> (unit -> ('a, 'e) result) -> ('a, 'e) result

  (** [find_or_build_all t items build] is {!find_or_build_result} for
      several keys at once, each [(key, valid)] item with its own
      validity test; results come back in [items] order. Every key
      that has no valid entry and that no domain is building is
      claimed, and all claimed keys are built by one call of [build]
      with their positions in [items], in order; it must return one
      result per position, in the same order. [Ok] results are
      inserted, [Error]s are returned and not inserted. An item whose
      key repeats an earlier item's shares that item's result (a
      coalesced hit when it was built). Keys another domain is building
      are awaited after this call's own build, holding no claim, and
      count as coalesced hits; one whose build failed is claimed and
      built anew by a later call of [build]. An exception from [build]
      releases every key it was building and propagates. *)
  val find_or_build_all :
    'a t ->
    (K.t * ('a -> bool)) list ->
    (int list -> ('a, 'e) result list) ->
    ('a, 'e) result list

  (** [find ?valid t key] is the valid entry for [key], counted as a
      hit, or [None], counting nothing: a miss is counted by the build
      that follows it. Never waits for a build in flight. *)
  val find : ?valid:('a -> bool) -> 'a t -> K.t -> 'a option

  val stats : 'a t -> stats

  (** Drop every entry and reset the counters. A build in flight is
      still inserted when it finishes. *)
  val clear : 'a t -> unit
end

(** The string-keyed instance most callers use. *)
include module type of Make (String)
