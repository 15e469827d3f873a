(** Process-wide metrics: counters, gauges and log-linear latency
    histograms, cheap enough to leave enabled in a serving process.

    The registry mirrors {!Trace}'s discipline: everything is behind one
    [enabled] flag, and a disabled entry point returns after a single
    flag read — no clock, no allocation, no locking — so instrumented
    hot paths cost nothing when observability is off.

    {b Sharding.} Counter increments and histogram observations go to a
    per-carrier shard (one per domain or per thread of a domain, via
    {!Carrier}, the same pattern as {!Trace}'s span stacks), so workers
    record concurrently without contending on a lock. Shards are merged at scrape time
    ({!snapshot}, {!to_prometheus}, {!to_json}). A scrape that races
    recording carriers may observe a slightly stale view; after the
    recording carriers are joined the merge is exact. Gauges are
    last-write-wins process globals (sets are rare — queue depth, live
    workers), kept in a small mutex-guarded table.

    {b Histograms} are HDR-style log-linear: 16 sub-buckets per power of
    two, so any recorded duration is bucketed with a relative error of
    at most 1/16 (~6.25%), using a fixed ~600-slot int array per series
    per carrier and no allocation per observation. Values are
    nanoseconds; quantiles interpolate within the resolved bucket.

    {b Series identity} is (metric name, sorted label pairs). Metric
    names should already be valid Prometheus names
    ([[a-zA-Z_:][a-zA-Z0-9_:]*]); the encoders sanitize defensively.
    Histogram metrics are duration-valued by convention: name them
    [*_seconds] — the Prometheus and JSON encoders convert the stored
    nanoseconds to seconds on output.

    {b Pipeline stages.} {!enable} installs a {!Trace} span-close hook
    that feeds every closed span's duration into the
    [taco_stage_duration_seconds{stage=<span name>}] histogram, so the
    tracer and the metrics registry share one clock and one set of stage
    names — a request's [--trace] spans and its scraped stage histograms
    are the same measurements. *)

type labels = (string * string) list

val enabled : unit -> bool

(** Turn recording on and hook {!Trace} span closes into the
    [taco_stage_duration_seconds] histogram. *)
val enable : unit -> unit

(** Turn recording off and uninstall the {!Trace} hook. *)
val disable : unit -> unit

(** Drop every recorded series (all carriers' shards and the gauge
    table). Call while no other carrier is recording. *)
val reset : unit -> unit

(** {2 Recording} *)

(** [inc name] adds [by] (default 1) to the counter series
    [(name, labels)]. Labels default to none. *)
val inc : ?labels:labels -> ?by:int -> string -> unit

(** Last-write-wins gauge set. *)
val set_gauge : ?labels:labels -> string -> float -> unit

(** Record one duration (nanoseconds) into a histogram series. Negative
    values clamp to 0. *)
val observe_ns : ?labels:labels -> string -> int64 -> unit

(** Time [f] and record its duration into the histogram (the timing is
    skipped entirely when disabled). *)
val time : ?labels:labels -> string -> (unit -> 'a) -> 'a

(** {2 Log-linear buckets}

    The bucket machinery is exposed so other subsystems (tensor
    sparsity statistics in [Taco_stats]) can histogram arbitrary
    non-negative integers — segment lengths, fills — with the same
    ≤ 1/16 relative-error log-linear layout the latency histograms
    use. *)

(** Number of buckets in a log-linear histogram array. *)
val n_buckets : int

(** [bucket_of v] maps a non-negative integer to its bucket index in
    [\[0, n_buckets)]. Negative values clamp to 0. *)
val bucket_of : int -> int

(** [bucket_bounds i] is the (lower edge, width) of bucket [i] — the
    inverse of {!bucket_of} up to bucket resolution. *)
val bucket_bounds : int -> float * float

(** {2 Scraping} *)

(** A merged histogram: total count, summed nanoseconds, and the raw
    log-linear bucket counts. *)
type histogram = { h_count : int; h_sum_ns : float; h_buckets : int array }

(** [quantile h q] for [q] in [0,1]: an estimate of the [q]-quantile in
    nanoseconds, within one bucket width (≤ 1/16 relative error) of the
    true order statistic. 0 when the histogram is empty. *)
val quantile : histogram -> float -> float

type snapshot = {
  counters : ((string * labels) * int) list;
  gauges : ((string * labels) * float) list;
  histograms : ((string * labels) * histogram) list;
}

(** Merge all shards into a deterministic (name- then label-sorted)
    snapshot. *)
val snapshot : unit -> snapshot

(** [counter ?labels name] sums every counter series of family [name]
    whose labels include all of [labels] (default: every series of the
    family); 0 when none matches. *)
val counter : ?labels:labels -> string -> int

(** [quantile_ns name q] merges every histogram series of family [name]
    (or exactly the [(name, labels)] series when [labels] is given) and
    returns its [q]-quantile in nanoseconds; [None] when nothing was
    recorded. *)
val quantile_ns : ?labels:labels -> string -> float -> float option

(** Prometheus text exposition (version 0.0.4). Counters and gauges
    expose as their own types; histograms expose as summaries with
    [quantile] labels 0.5/0.9/0.99/0.999 plus [_sum]/[_count] (seconds).
    Families are sorted by name, series by labels, so output is
    deterministic for a deterministic recording. *)
val to_prometheus : unit -> string

(** The same snapshot as one JSON object
    [{"counters":[...],"gauges":[...],"histograms":[...]}], each series
    with its labels, histograms with count/sum and p50/p90/p99/p999 (in
    seconds, like the Prometheus encoder). *)
val to_json : unit -> string
