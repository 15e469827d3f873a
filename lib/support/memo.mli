(** Bounded, domain-safe, single-flight memo tables: the one cache
    implementation behind every memoized stage (compiled kernels, chosen
    plans, tensor statistics, the ops/graph kernel tables, compiler
    probes).

    Each table is bounded at creation and evicts oldest-inserted first
    (FIFO). Lookups and builds are single-flight: when several domains
    ask for the same missing key, one runs the build while the others
    block on it and then take its result (counted as [coalesced] hits).
    Only a build that returns is inserted; a raising build wakes the
    waiters, and they retry (the first to wake claims the build).

    Counting happens here and only here. Every table named [name]
    feeds:
    - the {!Metrics} counters [taco_<name>_cache_hits_total],
      [taco_<name>_cache_misses_total],
      [taco_<name>_cache_evictions_total] and
      [taco_<name>_cache_coalesced_total], and the gauge
      [taco_<name>_cache_size];
    - the {!Trace} counters [<name>.cache.hit], [<name>.cache.miss] and
      [<name>.cache.evict]. *)

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
      [capacity] (>= 1) entries. [name] prefixes its metric and trace
      counter names. Raises [Invalid_argument] on a non-positive
      capacity. *)
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

  val stats : 'a t -> stats

  (** Drop every entry and reset the counters. A build in flight is
      still inserted when it finishes. *)
  val clear : 'a t -> unit
end

(** The string-keyed instance most callers use. *)
include module type of Make (String)
