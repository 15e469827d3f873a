(** The serve line protocol ([tacocli serve]): parsing a session's
    [tensor] and [eval] lines into tensors and {!Service} requests, and
    rendering the answers. The session loop, the socket and the command
    line stay in [tacocli].

    A malformed line raises [Diag.Error] with code [E_SERVE_INPUT] whose
    message names the offending clause or field and its text; the
    session answers it as one ["error …"] line and keeps serving. *)

(** Raise the [E_SERVE_INPUT] diagnostic with a formatted message. *)
val fail_input : ('a, unit, string, 'b) format4 -> 'a

(** The [help] answer. *)
val help : string

(** ["keyword rest of line"] → [("keyword", "rest of line")], trimmed. *)
val split_word : string -> string * string

(** Space-separated words, empty ones dropped. *)
val words : string -> string list

(** [parse_format name order spec]: one [d] (dense) or [s] (compressed)
    letter per mode of tensor [name]; [""] means all dense. The one
    format-spec parser of both the serve protocol and the [-f] option. *)
val parse_format : string -> int -> string -> (Taco.Format.t, string) result

(** ["10,20"] → [[|10; 20|]]: the dimension list of a [tensor] line and
    of [tacocli]'s [-d]. Raises [E_SERVE_INPUT] unless every entry is an
    integer ({!random_tensor} checks that each is positive). *)
val dims_arg : string -> int array

(** [random_tensor prng ~density dims fmt]: a random tensor, every cell
    filled in an all-dense [fmt], else about [density] of them. Raises
    [E_SERVE_INPUT] unless every dimension is positive and [density] is
    in [0, 1]. The one generator of [tensor] lines and of [tacocli]'s
    [--run] inputs. *)
val random_tensor :
  Taco_support.Prng.t -> density:float -> int array -> Taco.Format.t -> Taco.Tensor.t

(** [make_tensor tensors [NAME; FMT; DIMS; opts…]] builds a
    {!random_tensor} ([density] default 0.05, [seed] default 42), binds
    it in [tensors] and returns the ["ok tensor NAME nnz=N"] answer. No
    size cap is applied. *)
val make_tensor : (string, Taco.Tensor.t) Hashtbl.t -> string list -> string

(** [build_request tensors "EXPR [; CLAUSE]…"]: the request and its
    [deadline] clause, if any. Operands are looked up in [tensors];
    unknown ones are left for the service to report. *)
val build_request :
  (string, Taco.Tensor.t) Hashtbl.t -> string -> Service.request * int option

(** The ["ok result …"] or ["error …"] answer to an evaluation. *)
val response_line : (Service.response, Taco.Diag.t) result -> string

(** The [stats] answer as one JSON line: the service's counters, the
    compile- and plan-cache counts, and p50/p99 wait and run latencies
    in µs from the metrics registry (merged over every backend and
    outcome series; 0 before any request). *)
val stats_line : Service.t -> string
