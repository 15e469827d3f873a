(** Structured JSONL event log: one JSON object per line, appended to
    the file named by the [TACO_EVENTS] environment variable (or set
    programmatically with {!set_path}).

    The service emits one event per request — request id, expression,
    outcome, backend, and phase timings — keyed by the same request id
    that {!Trace} stamps on span events, so a Chrome trace and the event
    log are joinable per request.

    When no path is configured every entry point is a no-op after one
    flag read. Writes are mutex-serialized and flushed per line, so
    concurrent worker domains produce valid interleaved JSONL. *)

(** Is a sink configured? *)
val enabled : unit -> bool

(** Route events to [Some path] (appending; the file is opened lazily on
    the first emit) or disable with [None]. Overrides [TACO_EVENTS]. *)
val set_path : string option -> unit

(** [emit event fields] appends one event line; [event] becomes the
    ["event"] field and a ["ts_ns"] field (monotonic clock) is prepended
    automatically. No-op when disabled; write failures disable the sink
    with one warning rather than failing the request. *)
val emit : string -> (string * Json.t) list -> unit

(** Flush and close the sink (it reopens on the next emit). *)
val close : unit -> unit
