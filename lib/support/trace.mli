(** In-process tracing: spans and one-shot events for the compile
    pipeline and the kernel executor. Counts are not kept here: every
    process-wide count lives in the {!Metrics} registry.

    The tracer is a process-global buffer behind a single [enabled]
    flag. When disabled (the default) every entry point returns after
    one flag read — no clock reads, no allocation, no locking — so
    instrumented code paths cost nothing in production. When enabled,
    events carry monotonic-clock timestamps (nanoseconds, via the
    bechamel clock stub) and buffer in memory until exported as Chrome
    trace-event JSON ({!write_chrome}, loadable in [chrome://tracing]
    and Perfetto) or summarized as text ({!summary}).

    Two event kinds:
    - {b spans} ({!with_span}, {!span_complete}): begin/end pairs with
      nesting; exceptions still close the span;
    - {b instants} ({!instant}): one-shot markers.

    Span begin/end events are recorded in chronological buffer order;
    {!span_complete} records a retroactive "X" (complete) event for
    callers that measured a duration themselves. The exporter sorts by
    timestamp so the emitted JSON is monotonic either way.

    A [Logs] side channel: when the [taco.trace] source is at [Debug]
    level (see {!Obs.setup} and the [TACO_LOG] environment variable),
    span close also logs the span name and duration — and spans are
    timed-and-logged even with the buffer disabled, so [TACO_LOG=debug]
    alone gives a poor man's profile without any JSON machinery.

    Thread safety: the buffer is mutex-protected and the open-span stack
    is carrier-local (one stack per domain or per thread of a domain,
    via {!Carrier}), so concurrent workers can record spans without
    corrupting each other's nesting. Every event carries the recording
    carrier's id ({!Carrier.id}) and is exported with it as the Chrome
    [tid], letting viewers (and [bin/trace_check]) pair B/E events per
    carrier. {!set_args} attaches to the calling carrier's innermost
    open span. {!clear} resets the shared buffer and the calling
    carrier's stack; call it only while no other carrier has spans
    open. *)

(** Monotonic clock, nanoseconds. Usable independently of tracing. *)
val now_ns : unit -> int64

(** Is the buffer recording? *)
val enabled : unit -> bool

(** [enabled () || debug-logging on || a span hook is installed]:
    whether instrumented paths should bother gathering data (used by
    callers that compute span arguments eagerly, and to route execution
    through the instrumented path when only metrics are on). *)
val active : unit -> bool

(** A span-close callback: called with every closed span's name,
    category and measured duration — from {!with_span} (even when the
    buffer is disabled; the span is timed just for the hook) and
    {!span_complete}. Installed by [Metrics.enable] to feed per-stage
    latency histograms from the same measurements the tracer records. *)
type span_hook = name:string -> cat:string -> dur_ns:int64 -> unit

val set_span_hook : span_hook option -> unit

(** {2 Request ids}

    The current request id is carrier-local. While set, every event the
    carrier records carries an ["rid"] argument, so Chrome traces join
    against the service's per-request event log (and [bin/trace_check]
    can validate per-request invariants). *)

val set_request_id : int option -> unit

val request_id : unit -> int option

val enable : unit -> unit

val disable : unit -> unit

(** Drop all buffered events and open spans. *)
val clear : unit -> unit

(** [with_span name f] runs [f ()] inside a span. The span closes (and
    is recorded) even if [f] raises. [args] attach as Chrome event
    arguments; more can be added from inside [f] with {!set_args}. *)
val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Append arguments to the calling carrier's innermost open span (no-op
    when disabled or outside any span). *)
val set_args : (string * string) list -> unit

(** Record a complete span retroactively from a caller-measured start
    timestamp and duration (both from {!now_ns}). *)
val span_complete :
  ?cat:string -> ?args:(string * string) list -> ts:int64 -> dur_ns:int64 -> string -> unit

val instant : ?args:(string * string) list -> string -> unit

(** Number of buffered events (spans count twice: begin and end). *)
val event_count : unit -> int

(** Number of currently open spans across all carriers (0 when all spans
    are balanced). *)
val open_spans : unit -> int

(** The buffer as Chrome trace-event JSON, one line from
    {!Json.to_string}: an object with a ["traceEvents"] array, events
    sorted by timestamp. *)
val to_chrome_json : unit -> string

val write_chrome : string -> unit

(** Human-readable per-span-name aggregation (count, total, mean). *)
val summary : unit -> string
