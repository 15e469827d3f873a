(** JSON values, their printers and a parser: the one JSON implementation
    behind bench reports, Chrome trace exports ({!Trace.to_chrome_json}),
    the {!Events} log, the serve [stats] line and the checkers that read
    them back.

    Floats print as the shortest of [%.15g], [%.16g] and [%.17g] that
    reads back to the same value ([0.1], [1.1e-08], [2]); a non-finite
    float prints as [null], so the output always parses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** One line, no whitespace: [{"a":1,"b":[true,null]}]. *)
val to_string : t -> string

(** The indented layout of the [BENCH_*.json] reports: two spaces per
    level, one member or element per line, [": "] after a key, and a
    trailing newline. *)
val to_string_pretty : t -> string

(** Parse one document. An integer literal that fits an [int] reads as
    [Int], any other number as [Float]; a number beyond the float range
    is refused. The error names the byte offset. Never raises. *)
val parse : string -> (t, string) result

(** {!parse} the whole file; an unreadable file is an [Error] too. *)
val of_file : string -> (t, string) result

(** {2 Accessors} *)

(** A document that does not have the expected shape; the message
    names what was looked for. *)
exception Bad of string

(** Raise {!Bad} with a formatted message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** [field obj k]: the member [k] of an [Obj]; [None] otherwise. *)
val field : t -> string -> t option

(** The string member [k]; {!Bad} naming [what] when it is missing or
    not a string. *)
val str_field : string -> t -> string -> string

(** The number member [k] ([Int] or [Float]); {!Bad} naming [what] when
    it is missing or not a number. *)
val num_field : string -> t -> string -> float
