(* The repository benchmark: drives one workload through the evaluation
   service for a fixed time, checks every output, and prints one JSON
   line of metrics. Build and run it through run.py:

     python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 45 --trace 0

   Traffic is the serving mix bench/loadgen.ml documents (EXPERIMENTS.md,
   "Evaluation service throughput"): SpGEMM with the paper's Fig. 2
   workspace schedule, SpAdd off the merge lattice, and MTTKRP with the
   §VIII-C workspace schedule, on 400x400 operands at 2% density, cycled
   in that order with 8 requests outstanding against a one-worker
   service (loadgen's fastest pool width on a small host). Unlike
   loadgen, every request asks for the native C backend, so the two
   workloads differ only in cache state:
   - serve_warm: the same three requests over and over; every request
     still parses, schedules, lowers and optimizes, then hits the
     compiled-kernel cache and runs the loaded kernel.
   - cold_compile: request [i] names its result tensor [A<i>], a name
     that reaches the emitted C, so every request is a new kernel: a
     compile-cache miss, a C compiler run and a dlopen of a fresh shared
     object.

   Outputs are checked twice: once against reference evaluators written
   here (plain loops sharing no code with the compiler), and then every
   request's output must be bit-identical to that checked output. A
   request that fell back from native to closures counts as failed.

   Host-normalized times. On a small shared virtual machine the speed of
   a core drifts by a third and more over seconds to minutes as other
   load on the host comes and goes, so raw times of the same program
   spread too widely between runs to bound a regression. run.py
   therefore pins the whole run to one core, and the benchmark times a
   fixed reference job (below: plain OCaml sharing no code with the
   library, run in a child process of its own so the program's heap
   cannot slow it) on that core before and after every slice of the
   measurement. A slice lasts at least one second and
   [slice_requests] requests, and ends by draining the requests in
   flight. Every time measured in a slice is scaled by
   [reference_scale_ms] / (mean of the reference times around it):
   milliseconds as they would read on a host where the reference job
   takes [reference_scale_ms]. A change to the program moves these
   numbers as it moves wall time; a change in the host's speed moves
   the reference job too and cancels.

   --trace 0 reports the end-to-end metrics, all host-normalized:
   mean_ms and p90_ms of request latency (submit to result, queue wait
   included; cold_compile finishes about 350 requests in 45 s, and p95
   over those spread twice as widely between runs as p90, which still
   has 35 samples beyond it); cpu_ms_per_op, the processor time of the
   process and of the C compilers it ran, per request, which also counts
   the worker domain; and setup_s, the median of nine cold set-ups — this process's
   own and eight in fresh child processes, since a fresh process is what
   a user starts — each scaled by the reference times just before and
   after it.

   --trace 1 turns on the metrics registry, whose span hook times every
   pipeline stage, and reports per-layer numbers, not normalized: mean
   milliseconds per call of each stage over the whole run (set-up
   included, so the build stages show on serve_warm too), the time per
   request spent outside kernel execution, compile-cache and native
   build counts over the measured window, the raw mean latency and the
   median reference job time. *)

open Taco
module Service = Taco_service.Service
module Prng = Taco_support.Prng

let failf fmt = Printf.ksprintf failwith fmt

let diag_or what = function Ok x -> x | Error d -> failf "%s: %s" what (Diag.to_string d)

let now_s () = Int64.to_float (Trace.now_ns ()) *. 1e-9

let timed f =
  let t0 = now_s () in
  let x = f () in
  (x, now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Reference evaluators and output checks                              *)
(* ------------------------------------------------------------------ *)

let entries t =
  let acc = ref [] in
  Tensor.iteri_stored (fun c v -> acc := (Array.copy c, v) :: !acc) t;
  List.rev !acc

let offset dims c =
  let o = ref 0 in
  Array.iteri (fun m x -> o := (!o * dims.(m)) + x) c;
  !o

(* Row-major dense copy of a tensor; absent entries read as 0. *)
let dense_of t =
  let dims = Tensor.dims t in
  let out = Array.make (Array.fold_left ( * ) 1 dims) 0. in
  Tensor.iteri_stored (fun c v -> out.(offset dims c) <- v) t;
  out

let ref_matmul b c =
  let n = (Tensor.dims b).(0) and m = (Tensor.dims c).(1) in
  let crows = Array.make (Tensor.dims c).(0) [] in
  List.iter (fun (cc, v) -> crows.(cc.(0)) <- (cc.(1), v) :: crows.(cc.(0))) (entries c);
  let out = Array.make (n * m) 0. in
  List.iter
    (fun (bc, bv) ->
      List.iter
        (fun (j, cv) ->
          let q = (bc.(0) * m) + j in
          out.(q) <- out.(q) +. (bv *. cv))
        crows.(bc.(1)))
    (entries b);
  out

let ref_add b c = Array.map2 ( +. ) (dense_of b) (dense_of c)

(* A(i,j) = B(i,k,l) * C(l,j) * D(k,j) with dense C and D. *)
let ref_mttkrp b c d =
  let n = (Tensor.dims b).(0) and r = (Tensor.dims c).(1) in
  let cd = dense_of c and dd = dense_of d in
  let out = Array.make (n * r) 0. in
  List.iter
    (fun (co, bv) ->
      let i = co.(0) and k = co.(1) and l = co.(2) in
      for j = 0 to r - 1 do
        let q = (i * r) + j in
        out.(q) <- out.(q) +. (bv *. cd.((l * r) + j) *. dd.((k * r) + j))
      done)
    (entries b);
  out

let close a b = a = b || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let check_against what expected t =
  let got = dense_of t in
  if Array.length got <> Array.length expected || not (Array.for_all2 close got expected)
  then failf "%s: output differs from the reference evaluator" what

let identical a b =
  Tensor.dims a = Tensor.dims b
  && List.for_all
       (fun l -> Tensor.level_data a l = Tensor.level_data b l)
       (List.init (Tensor.order a) Fun.id)
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       (Tensor.vals a) (Tensor.vals b)

(* ------------------------------------------------------------------ *)
(* Reference job                                                       *)
(* ------------------------------------------------------------------ *)

type expr = Var of int | Const of float | Add of expr * expr | Mul of expr * expr

(* A fixed job in the two shapes of the program's work, sharing no code
   with the library: a row-by-row sparse matrix product through a dense
   workspace (the kernels), and the generation and simplification of
   expression trees (the compiler). About 50 ms on one core. *)
let reference_job () =
  let st = Random.State.make [| 20191 |] in
  let n = 400 and per_row = 8 in
  let rows () =
    Array.init n (fun _ -> List.init per_row (fun _ -> (Random.State.int st n, Random.State.float st 1.)))
  in
  let b = rows () and c = rows () in
  let w = Array.make n 0. and mark = Array.make n false in
  let out = ref [] in
  for _ = 1 to 4 do
    out := [];
    Array.iteri
      (fun i bi ->
        let nz = ref [] in
        List.iter
          (fun (k, bv) ->
            List.iter
              (fun (j, cv) ->
                if not mark.(j) then begin
                  mark.(j) <- true;
                  nz := j :: !nz
                end;
                w.(j) <- w.(j) +. (bv *. cv))
              c.(k))
          bi;
        List.iter
          (fun j ->
            out := (i, j, w.(j)) :: !out;
            w.(j) <- 0.;
            mark.(j) <- false)
          (List.sort compare !nz))
      b
  done;
  let rec gen d =
    if d = 0 then if Random.State.bool st then Var (Random.State.int st 5) else Const (float (Random.State.int st 3))
    else if Random.State.bool st then Add (gen (d - 1), gen (d - 1))
    else Mul (gen (d - 1), gen (d - 1))
  in
  let rec simp = function
    | Add (a, b) -> (
        match (simp a, simp b) with
        | Const 0., x | x, Const 0. -> x
        | Const x, Const y -> Const (x +. y)
        | x, y -> Add (x, y))
    | Mul (a, b) -> (
        match (simp a, simp b) with
        | Const 0., _ | _, Const 0. -> Const 0.
        | Const 1., x | x, Const 1. -> x
        | Const x, Const y -> Const (x *. y)
        | x, y -> Mul (x, y))
    | x -> x
  in
  let tbl = Hashtbl.create 4096 in
  for _ = 1 to 300 do
    let t = simp (gen 10) in
    Hashtbl.replace tbl (Hashtbl.hash t) t
  done;
  ignore (Sys.opaque_identity (!out, tbl))

(* The --reference child: one run of the job per line read, answering
   with its milliseconds; exits at end of input. *)
let serve_reference () =
  reference_job ();
  try
    while true do
      ignore (input_line stdin);
      let (), dt = timed reference_job in
      Printf.printf "%.17g\n%!" (dt *. 1e3)
    done
  with End_of_file -> ()

let reference_scale_ms = 50.

type reference = {
  ask : unit -> float;  (** time one run of the reference job, in ms *)
  close : unit -> unit;  (** end the child and wait for it *)
}

let start_reference () =
  let ic, oc = Unix.open_process_args Sys.executable_name [| Sys.executable_name; "--reference" |] in
  let ask () =
    output_char oc '\n';
    flush oc;
    match float_of_string_opt (input_line ic) with
    | Some ms when ms > 0. -> ms
    | _ -> failwith "the reference child answered nonsense"
  in
  { ask; close = (fun () -> ignore (Unix.close_process (ic, oc))) }

(* ------------------------------------------------------------------ *)
(* Request mix                                                         *)
(* ------------------------------------------------------------------ *)

type kind = {
  k_name : string;
  k_request : string -> Service.request;  (** for a result tensor name *)
  k_expected : unit -> float array;  (** reference evaluator *)
}

(* loadgen's three kernel structures, built the same way from [prng]. *)
let request_kinds prng =
  let n = 400 and density = 0.02 in
  let csr2 () = Gen.random_density prng ~dims:[| n; n |] ~density Format.csr in
  let dense2 dims = Tensor.of_dense (Gen.random_dense prng dims) Format.dense_matrix in
  let b = csr2 () in
  let c = csr2 () in
  let nk = max 8 (n / 8) in
  let bt = Gen.random_density prng ~dims:[| n; nk; nk |] ~density (Format.csf 3) in
  let cm = dense2 [| nk; 16 |] in
  let dm = dense2 [| nk; 16 |] in
  let request ?directives ?result_format ~inputs expr result =
    Service.request ?directives ?result_format ~backend:`Native ~expr:(result ^ expr) ~inputs ()
  in
  [|
    {
      k_name = "spgemm";
      k_request =
        request
          ~directives:
            [
              Service.Reorder ("k", "j");
              Service.Precompute { expr = "B(i,k) * C(k,j)"; over = [ "j" ]; workspace = "w" };
            ]
          ~result_format:Format.csr
          ~inputs:[ ("B", b); ("C", c) ]
          "(i,j) = B(i,k) * C(k,j)";
      k_expected = (fun () -> ref_matmul b c);
    };
    {
      k_name = "spadd";
      k_request =
        request ~result_format:Format.csr ~inputs:[ ("B", b); ("C", c) ] "(i,j) = B(i,j) + C(i,j)";
      k_expected = (fun () -> ref_add b c);
    };
    {
      k_name = "mttkrp";
      k_request =
        request
          ~directives:
            [
              Service.Reorder ("j", "k");
              Service.Reorder ("j", "l");
              Service.Precompute { expr = "B(i,k,l) * C(l,j)"; over = [ "j" ]; workspace = "w" };
            ]
          ~inputs:[ ("B", bt); ("C", cm); ("D", dm) ]
          "(i,j) = B(i,k,l) * C(l,j) * D(k,j)";
      k_expected = (fun () -> ref_mttkrp bt cm dm);
    };
  |]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Processor seconds of this process and its waited-for children (the C
   compiler). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

type slice = {
  lat_ms : float array;  (** one latency per finished request *)
  slice_cpu_s : float;
  ref_ms : float;  (** mean reference job time before and after the slice *)
}

type window = {
  slices : slice list;
  attempted : int;
  failed : int;
}

type instance = {
  check : unit -> unit;  (** compare the set-up outputs against the reference evaluators *)
  measure : float -> reference -> window;
  teardown : unit -> unit;
}

let ms_since t0 = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) *. 1e-6

let outstanding_requests = 8

let slice_seconds = 1.

let slice_requests = 32

(* Set-up: start the pool and serve one request of each kind, which
   compiles every kernel. [result i] names the result tensor of request
   [i], counting the set-up's own requests first. *)
let service_workload ~result seed =
  let kinds = request_kinds (Prng.create seed) in
  let nkinds = Array.length kinds in
  let svc = Service.create ~domains:1 ~queue_depth:64 () in
  let request i = kinds.(i mod nkinds).k_request (result i) in
  let refs = Array.init nkinds (fun q -> (diag_or kinds.(q).k_name (Service.eval svc (request q))).Service.tensor) in
  let check () =
    Array.iteri (fun q k -> check_against k.k_name (k.k_expected ()) refs.(q)) kinds;
    if (Service.stats svc).Service.backend_downgraded > 0 then failf "a native build fell back to closures"
  in
  (* Closed loop: [outstanding_requests] in flight, awaited in FIFO
     order (the service's queue order), in slices separated by runs of
     the reference job. *)
  let measure seconds reference =
    let attempted = ref 0 and failed = ref 0 in
    let downgraded0 = (Service.stats svc).Service.backend_downgraded in
    let outstanding = Queue.create () in
    let lat = ref [] and finished = ref 0 in
    let finish () =
      let q, t, ticket = Queue.pop outstanding in
      let outcome = Service.await ticket in
      lat := ms_since t :: !lat;
      incr finished;
      match outcome with
      | Ok r when identical r.Service.tensor refs.(q) -> ()
      | Ok _ | Error _ -> incr failed
    in
    let slices = ref [] and ref_before = ref (reference.ask ()) in
    let stop = now_s () +. seconds in
    while now_s () < stop do
      lat := [];
      finished := 0;
      let cpu0 = cpu_s () and slice_end = now_s () +. slice_seconds in
      while now_s () < slice_end || !finished < slice_requests do
        while Queue.length outstanding < outstanding_requests do
          let i = nkinds + !attempted in
          incr attempted;
          let t = Trace.now_ns () in
          match Service.submit svc (request i) with
          | Ok ticket -> Queue.push (i mod nkinds, t, ticket) outstanding
          | Error _ -> incr failed
        done;
        finish ()
      done;
      while not (Queue.is_empty outstanding) do
        finish ()
      done;
      let slice_cpu_s = cpu_s () -. cpu0 in
      let ref_after = reference.ask () in
      slices := { lat_ms = Array.of_list !lat; slice_cpu_s; ref_ms = (!ref_before +. ref_after) /. 2. } :: !slices;
      ref_before := ref_after
    done;
    let failed = !failed + (Service.stats svc).Service.backend_downgraded - downgraded0 in
    { slices = List.rev !slices; attempted = !attempted; failed }
  in
  { check; measure; teardown = (fun () -> Service.shutdown svc) }

let workloads =
  [
    ("serve_warm", service_workload ~result:(fun _ -> "A"));
    ("cold_compile", service_workload ~result:(fun i -> "A" ^ string_of_int i));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let lo = int_of_float x in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((x -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))

(* Host-normalized: scaled to a reference job time of [reference_scale_ms]. *)
let normalize ~ref_ms x = x *. reference_scale_ms /. ref_ms

(* (count, total ns) of every pipeline stage the span hook timed. *)
let stage_totals () =
  let s = Metrics.snapshot () in
  List.filter_map
    (fun ((name, labels), h) ->
      match (name, labels) with
      | "taco_stage_duration_seconds", [ ("stage", stage) ] ->
          Some (stage, (h.Metrics.h_count, h.Metrics.h_sum_ns))
      | _ -> None)
    s.Metrics.histograms

(* Mean milliseconds per call over the stages matching [pred], per call
   of [per] (default: the matched stages' own calls). *)
let mean_ms ?per stages pred =
  let calls, ns =
    List.fold_left
      (fun (c, t) (stage, (n, s)) -> if pred stage then (c + n, t +. s) else (c, t))
      (0, 0.) stages
  in
  let calls =
    match per with
    | None -> calls
    | Some stage -> Option.fold ~none:0 ~some:fst (List.assoc_opt stage stages)
  in
  if calls = 0 then 0. else ns /. float_of_int calls *. 1e-6

(* Totals at a window boundary. *)
type window_counts = {
  cache : Compile.cache_stats;
  native_builds : int;
  exec_ns : float;
}

let window_counts () =
  {
    cache = Compile.cache_stats ();
    native_builds = (Compile.backend_stats ()).Compile.native_builds;
    exec_ns = Option.fold ~none:0. ~some:snd (List.assoc_opt "exec.run" (stage_totals ()));
  }

let per_layer (w : window) (before : window_counts) (after : window_counts) =
  let stages = stage_totals () in
  let is = String.equal in
  let lat = Array.concat (List.map (fun s -> s.lat_ms) w.slices) in
  let outside_ms =
    (Array.fold_left ( +. ) 0. lat -. ((after.exec_ns -. before.exec_ns) *. 1e-6))
    /. float_of_int (max 1 (Array.length lat))
  in
  let count f = float_of_int (f after - f before) in
  [
    ("frontend_ms", "ms", mean_ms ~per:"concretize" stages (fun s -> s = "parse" || s = "concretize"));
    ("lower_ms", "ms", mean_ms stages (is "lower"));
    ("opt_ms", "ms", mean_ms ~per:"compile" stages (String.starts_with ~prefix:"opt."));
    ("emit_ms", "ms", mean_ms stages (is "native.emit"));
    ("cc_ms", "ms", mean_ms stages (is "native.cc"));
    ("dlopen_ms", "ms", mean_ms stages (is "native.dlopen"));
    ("kernel_run_ms", "ms", mean_ms stages (is "exec.run"));
    ("serve_wait_ms", "ms", mean_ms stages (is "serve.wait"));
    ("outside_kernel_ms", "ms", outside_ms);
    ("wall_mean_ms", "ms", mean lat);
    ("reference_ms", "ms", median (List.map (fun s -> s.ref_ms) w.slices));
    ("compile_cache_hits", "count", count (fun c -> c.cache.Compile.hits));
    ("compile_cache_misses", "count", count (fun c -> c.cache.Compile.misses));
    ("native_builds", "count", count (fun c -> c.native_builds));
  ]

let end_to_end (w : window) setups =
  let lat =
    Array.concat (List.map (fun s -> Array.map (normalize ~ref_ms:s.ref_ms) s.lat_ms) w.slices)
  in
  let cpu_ms = List.fold_left (fun a s -> a +. normalize ~ref_ms:s.ref_ms (s.slice_cpu_s *. 1e3)) 0. w.slices in
  Array.sort compare lat;
  [
    ("mean_ms", "ms", mean lat);
    ("p90_ms", "ms", percentile lat 0.90);
    ("cpu_ms_per_op", "ms", cpu_ms /. float_of_int (max 1 (Array.length lat)));
    ("setup_s", "s", median setups);
  ]

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result ~correct (w : window) metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct w.attempted w.failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let child_setups = 8

(* Time one cold set-up in a fresh copy of this program. *)
let child_setup ~workload ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let lines = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Scanf.sscanf_opt (String.trim lines) "setup_s %f" Fun.id with
      | Some s -> s
      | None -> failf "set-up child printed %S" lines)
  | _ -> failf "set-up child for %s failed" workload

(* Run [f], which returns a set-up time in seconds, between two runs of
   the reference job, and normalize it by their mean. *)
let normalized_setup reference f =
  let r0 = reference.ask () in
  let x, s = f () in
  let r1 = reference.ask () in
  (x, normalize ~ref_ms:((r0 +. r1) /. 2.) s)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]\n\
     workloads: serve_warm, cold_compile";
  exit 2

let run ~workload ~seed ~seconds ~trace setup reference =
  if trace then Metrics.enable ();
  let children =
    if trace then []
    else
      List.init child_setups (fun _ ->
          snd (normalized_setup reference (fun () -> ((), child_setup ~workload ~seed))))
  in
  let inst, own = normalized_setup reference (fun () -> timed (fun () -> setup seed)) in
  let checked =
    match inst.check () with
    | () -> true
    | exception Failure msg ->
        prerr_endline msg;
        false
  in
  let before = if trace then Some (window_counts ()) else None in
  let w = inst.measure seconds reference in
  let metrics =
    match before with
    | Some before -> per_layer w before (window_counts ())
    | None -> end_to_end w (own :: children)
  in
  inst.teardown ();
  print_result ~correct:(checked && w.failed = 0) w metrics

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref false in
  let setup_only = ref false and reference = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := (match int_of_string_opt s with Some s -> s | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some s when s > 0. -> s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--setup-only" :: rest ->
        setup_only := true;
        parse rest
    | "--reference" :: rest ->
        reference := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !reference then serve_reference ()
  else
    let setup = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
    if !setup_only then begin
      let inst, dt = timed (fun () -> setup !seed) in
      inst.teardown ();
      Printf.printf "setup_s %.17g\n" dt
    end
    else
      let reference = start_reference () in
      Fun.protect ~finally:reference.close (fun () ->
          run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace setup reference)
