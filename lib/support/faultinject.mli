(** Deterministic fault injection for chaos testing.

    Named fault points are woven through the compile pipeline, the
    executor and the serving layer (e.g. ["compile.build"],
    ["exec.alloc"], ["serve.worker"]). A disarmed point costs one
    mutable-flag read — the production default. {!configure} arms a set
    of rules against a seeded PRNG, so a chaos campaign's fault schedule
    is a pure function of the seed: the same seed fires the same faults
    at the same hits, which is what lets the chaos suite assert exact
    outcomes and the fuzz harness replay failures.

    Three actions:
    - {b Crash}: raise {!Taco_support.Diag.Error} (stage chosen by the
      fault site, code [E_FAULT_INJECTED], context naming the point), as
      if the component failed at that point;
    - {b Delay}: sleep for a fixed number of milliseconds, simulating a
      stall (slow compile, scheduling hiccup) so deadline paths fire;
    - {b Corrupt}: perturb one element of a float array at a
      {!corrupt} site, flipping a mantissa bit — the corruption must be
      caught downstream by a differential check (corrupt-and-detect).

    The registry is process-global and mutex-guarded; points may be hit
    from any domain. Tests should bracket campaigns with
    {!configure}/{!disarm} ([Fun.protect] recommended). *)

(** What an armed rule does when it fires. *)
type action =
  | Crash  (** raise [Diag.Error] with code [E_FAULT_INJECTED] *)
  | Delay of int  (** sleep this many milliseconds, then continue *)
  | Corrupt  (** perturb a float at a {!corrupt} site; no-op at {!hit} sites *)

type rule = {
  r_point : string;  (** fault-point name, e.g. ["compile.build"] *)
  r_action : action;
  r_prob : float;  (** firing probability per hit, in [0, 1] *)
  r_max_fires : int;  (** stop firing after this many; [<= 0] = unlimited *)
}

(** [rule ?prob ?max_fires point action] — [prob] defaults to [1.0],
    [max_fires] to unlimited. *)
val rule : ?prob:float -> ?max_fires:int -> string -> action -> rule

(** Arm the given rules against a fresh PRNG seeded with [seed],
    replacing any previous configuration and zeroing fire counts. *)
val configure : seed:int -> rule list -> unit

(** Disarm every point; fire counts are kept for post-mortem reads. *)
val disarm : unit -> unit

(** Is any rule armed? *)
val armed : unit -> bool

(** [hit ~stage point] — a Crash/Delay fault site. Returns immediately
    (one flag read) when disarmed or when no rule matches [point].
    A firing Crash rule raises [Diag.Error] at the given [stage]. *)
val hit : stage:Diag.stage -> string -> unit

(** [corrupted ~stage point] — a Corrupt fault site for an artifact
    that is not a float array: [true] when a Corrupt rule on [point]
    fires, leaving the corruption to the caller. Crash/Delay rules
    behave as at {!hit} sites. *)
val corrupted : stage:Diag.stage -> string -> bool

(** [corrupt point arr] — a Corrupt fault site: when a Corrupt rule on
    [point] fires and [arr] is nonempty, one element (PRNG-chosen) gets
    a low mantissa bit flipped. Crash/Delay rules on the point behave as
    at {!hit} sites (stage [Execute]). *)
val corrupt : string -> float array -> unit

(** Times the named point has fired since the last {!configure}. Every
    fire also counts in the registry series
    [taco_faults_injected_total{point}] (see {!Metrics}) and is recorded
    as a [fault.fire] trace instant (argument [point]) carrying the
    request id of the domain that hit it. *)
val fires : string -> int
