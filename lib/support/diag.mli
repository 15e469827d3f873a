(** Structured diagnostics for the compile pipeline.

    Every user-facing failure carries the pipeline stage it arose in, a
    stable machine-readable error code, a human-readable message and
    optional named context (tensor, kernel, variable, line number, …).
    Stage boundaries return [('a, Diag.t) result]; deep execution paths
    that cannot thread a result (checked array accesses) raise {!Error}
    and the nearest boundary converts back to a result. *)

(** The pipeline stage a diagnostic originated in. *)
type stage =
  | Parse  (** index notation string → AST ([Taco_frontend.Parser]) *)
  | Concretize  (** index notation → concrete index notation *)
  | Reorder  (** reorder transformations on concrete index notation *)
  | Workspace  (** the workspace transformation ([precompute]) *)
  | Lower  (** concrete index notation → imperative IR *)
  | Compile  (** imperative IR → executable closures *)
  | Execute  (** running a compiled kernel *)
  | Tensor  (** tensor construction / structural validation *)
  | Io  (** tensor file readers and writers *)
  | Serve  (** the concurrent evaluation service ([Taco_service]) *)

type t = {
  stage : stage;
  code : string;  (** stable, grep-able, e.g. ["E_IO_SIZE_LINE"] *)
  message : string;
  context : (string * string) list;  (** named context, e.g. [("line", "7")] *)
}

exception Error of t

(** [make ~stage ~code ?context message] builds a diagnostic. *)
val make : stage:stage -> code:string -> ?context:(string * string) list -> string -> t

(** [error ~stage ~code ?context fmt …] formats a message and returns
    [Result.Error] carrying the diagnostic. *)
val error :
  stage:stage ->
  code:string ->
  ?context:(string * string) list ->
  ('a, unit, string, ('b, t) result) format4 ->
  'a

(** Like {!error} but raises {!Error} (for deep call paths). *)
val fail :
  stage:stage ->
  code:string ->
  ?context:(string * string) list ->
  ('a, unit, string, 'b) format4 ->
  'a

(** [of_msg ~stage ~code r] tags a plain [string]-error result. *)
val of_msg : stage:stage -> code:string -> ('a, string) result -> ('a, t) result

(** [to_result f] runs [f ()], catching {!Error}. *)
val to_result : (unit -> 'a) -> ('a, t) result

val stage_name : stage -> string

(** Render as ["stage error[CODE]: message (key=value, …)"]. *)
val to_string : t -> string

(** Drop the structure: [Result.map_error to_string]. *)
val flatten : ('a, t) result -> ('a, string) result

val pp : Format.formatter -> t -> unit
