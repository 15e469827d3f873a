(* Deterministic fault injection. The armed flag is the only state read
   on the hot path: a disarmed [hit]/[corrupt] is one load and a branch,
   so the points woven through the pipeline cost nothing in production.
   The armed registry (rules, PRNG, fire counts) lives behind a mutex so
   worker domains hitting points concurrently draw from one seeded
   stream — the fault schedule is a function of the seed and the global
   hit order, which is deterministic for the single-domain campaigns the
   chaos tests run and reproducible enough for multi-domain ones. *)

type action = Crash | Delay of int | Corrupt

type rule = { r_point : string; r_action : action; r_prob : float; r_max_fires : int }

let rule ?(prob = 1.0) ?(max_fires = 0) point action =
  { r_point = point; r_action = action; r_prob = prob; r_max_fires = max_fires }

type state = {
  prng : Prng.t;
  rules : (string, rule * int ref) Hashtbl.t;  (* point -> rule, fires *)
  counts : (string, int) Hashtbl.t;  (* survives disarm, for post-mortems *)
}

let armed_flag = ref false

let registry : state option ref = ref None

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let configure ~seed rules =
  locked (fun () ->
      let tbl = Hashtbl.create 8 in
      List.iter (fun r -> Hashtbl.replace tbl r.r_point (r, ref 0)) rules;
      registry := Some { prng = Prng.create seed; rules = tbl; counts = Hashtbl.create 8 };
      armed_flag := rules <> [])

let disarm () =
  locked (fun () ->
      (match !registry with
      | Some st -> Hashtbl.reset st.rules
      | None -> ());
      armed_flag := false)

let armed () = !armed_flag

let fires point =
  locked (fun () ->
      match !registry with
      | None -> 0
      | Some st -> Option.value ~default:0 (Hashtbl.find_opt st.counts point))

let total_fires () =
  locked (fun () ->
      match !registry with
      | None -> 0
      | Some st -> Hashtbl.fold (fun _ n acc -> acc + n) st.counts 0)

(* Decide under the mutex whether [point] fires, returning the action to
   perform outside it (sleeping under the registry mutex would serialize
   unrelated points). *)
let draw point =
  locked (fun () ->
      match !registry with
      | None -> None
      | Some st -> (
          match Hashtbl.find_opt st.rules point with
          | None -> None
          | Some (r, fired) ->
              if r.r_max_fires > 0 && !fired >= r.r_max_fires then None
              else if not (r.r_prob >= 1.0 || Prng.bool st.prng r.r_prob) then None
              else begin
                incr fired;
                Hashtbl.replace st.counts point
                  (1 + Option.value ~default:0 (Hashtbl.find_opt st.counts point));
                Some (r.r_action, st.prng)
              end))

let crash ~stage point =
  Trace.add "fault.injected" 1;
  Diag.fail ~stage ~code:"E_FAULT_INJECTED"
    ~context:[ ("fault_point", point) ]
    "injected fault at %s" point

(* Crash and Delay act here; a firing Corrupt rule is returned for the
   site to act on. *)
let fire ~stage point =
  match draw point with
  | None -> None
  | Some (Crash, _) -> crash ~stage point
  | Some (Delay ms, _) ->
      Unix.sleepf (float_of_int ms /. 1000.);
      None
  | Some (Corrupt, prng) -> Some prng

let hit ~stage point = if !armed_flag then ignore (fire ~stage point : Prng.t option)

let corrupted ~stage point =
  !armed_flag
  &&
  match fire ~stage point with
  | None -> false
  | Some _ ->
      Trace.add "fault.corrupted" 1;
      true

let corrupt point arr =
  if !armed_flag then
    match fire ~stage:Diag.Execute point with
    | Some prng when Array.length arr > 0 ->
        let i = locked (fun () -> Prng.int prng (Array.length arr)) in
        (* Flip a low mantissa bit: a perturbation no float identity
           can hide, so any bitwise differential check downstream must
           catch it. *)
        arr.(i) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float arr.(i)) 1L);
        Trace.add "fault.corrupted" 1
    | Some _ | None -> ()
