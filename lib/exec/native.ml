(* Native execution backend: render lowered kernels to C
   (Codegen_c.emit_exec), build them with the system C compiler into a
   per-process temp directory, dlopen the shared object and call each
   kernel's entry point through the flat ABI implemented by
   native_stubs.c.

   This is the paper's actual execution model — taco emits C and a
   system compiler turns it into the code that runs — where the rest of
   the executor interprets Imp IR through OCaml closures. The backend
   is strictly optional: every failure between "is there a compiler?"
   and "did dlsym find the entry point?" is reported as [Error reason]
   and the caller (Compile) downgrades to the closure executor.

   One build path, in batches. [load] takes a list of kernels and
   builds them as one translation unit: one prelude, one entry point
   per kernel, one cc, one dlopen, one dlsym per kernel. A build is
   mostly fixed per-process cost (compiler start-up and link), so a
   batch of eight costs about a third of eight builds. A single kernel,
   and every tier-up, is the batch of one. When a batch of several
   fails to build, each kernel is rebuilt on its own, so one bad kernel
   fails with its own reason and the rest still load.

   Two compiler tiers. [load] builds at tier 0 ([-O0]), which halves
   the cost of a compile-cache miss. Every run of a tier-0 kernel adds
   its time to the kernel's account; the run that pushes the account
   past its build's tier-0 cc time starts a tier-1
   ([-O3 -march=native]) build of that kernel alone as a child process
   (break-even: a kernel that has run as long as a cc process took has
   earned the better build; a kernel built in a batch is charged the
   whole batch's cc time, the measured price of the one cc process its
   tier-up starts). Later runs poll the child without blocking; on
   success the new entry point replaces the old one atomically. Both tiers compile plain IEEE arithmetic without
   contraction or fast-math; tier 1's vector loops do each element's
   operations in the same order as tier 0's scalar ones, so the tiers
   are bit-identical and the swap needs no new cache key. At most one
   tier-up is in flight per process; a failed one (a compiler that
   rejects [-march=native] included) leaves its kernel on tier 0 for
   good.

   Artifact hygiene: the .c/.so/.log files are unlinked as soon as the
   .so is mapped — on Linux dlopen holds the inode alive, so nothing is
   left on disk for the lifetime of the process and nothing needs
   cleanup on exit. Shared objects are never unmapped: a run on another
   domain may still be inside a replaced tier-0 entry. [cleanup] (called
   from Service.shutdown and at_exit) kills any in-flight tier-up,
   sweeps whatever a failed build may have left and removes the process
   directory. Set TACO_NATIVE_KEEP=1 to keep the sources and shared
   objects of loaded builds for debugging; kept files are not swept. *)

module Imp = Taco_lower.Imp
module Codegen_c = Taco_lower.Codegen_c
module Diag = Taco_support.Diag
module Fault = Taco_support.Faultinject
module Metrics = Taco_support.Metrics
module Trace = Taco_support.Trace
module Memo = Taco_support.Memo
module Util = Taco_support.Util

type phases = { emit_ns : int64; cc_ns : int64; dlopen_ns : int64; kernels : int }

(* One loaded shared object. *)
type entry = {
  e_fn : nativeint;  (** resolved entry point *)
  e_tier : int;
  e_phases : phases;
}

type loaded = {
  l_name : string;  (** kernel name, for spans and diagnostics *)
  l_kernel : Imp.kernel;  (** rebuilt at tier 1 on tier-up *)
  l_cc : string list;  (** the compiler it was built with, for the tier-up *)
  l_entry : entry Atomic.t;  (** what runs call; replaced once, on tier-up *)
  l_arr_kinds : int array;
      (** per array-parameter kind, in parameter order: 0 int32
          Bigarray, 1 float array; both cross by pointer *)
  l_esc_kinds : int array;
      (** per escape, in escape order: 0 int array, 1 float array *)
  l_escapes : (string * int) list;
      (** allocated arrays handed back by the kernel, with their
          escape index *)
  l_ran_ns : int Atomic.t;  (** tier-0 account: run time so far at tier 0 *)
  l_tierup : bool Atomic.t;  (** a tier-up was claimed; never a second *)
}

(* Layout contract with native_stubs.c: field order here is Field(i)
   there. Do not reorder. *)
type spec = {
  cs_ints : int array;
  cs_floats : float array;
  cs_arrays : Obj.t array;
  cs_kinds : int array;
  cs_esc_kinds : int array;
  cs_mem_limit : int64;
  cs_deadline : int64;
  cs_read_esc : int array;
  cs_read_src : int array;
  cs_read_arg : int array;
}

external nat_dlopen : string -> nativeint = "taco_nat_dlopen"
external nat_dlsym : nativeint -> string -> nativeint = "taco_nat_dlsym"
external nat_dlclose : nativeint -> unit = "taco_nat_dlclose"
external nat_call : nativeint -> spec -> int * Obj.t array = "taco_nat_call"

(* ------------------------------------------------------------------ *)
(* Compiler resolution and availability probing                       *)
(* ------------------------------------------------------------------ *)

(* TACO_CC split on whitespace into an argv prefix (no shell), so
   "ccache cc" or "cc -g0" work; unset or blank means "cc". *)
let compiler_argv () =
  let words s =
    String.split_on_char ' ' (String.map (function '\t' | '\n' -> ' ' | c -> c) s)
    |> List.filter (( <> ) "")
  in
  match words (Option.value ~default:"" (Sys.getenv_opt "TACO_CC")) with
  | [] -> [ "cc" ]
  | argv -> argv

let compiler () = String.concat " " (compiler_argv ())

(* Part of the kernel-cache key: a compiled entry is only valid for the
   compiler that built it (TACO_CC can change between calls, e.g. the
   bogus-compiler tests). *)
let compiler_id = compiler

let rec waitpid flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

(* How child [pid] ended: [Ok ()] on exit code 0, otherwise [Error]
   describing how; [None] while it still runs (with [WNOHANG]). *)
let exit_of flags pid =
  match waitpid flags pid with
  | 0, _ -> None
  | _, Unix.WEXITED 0 -> Some (Ok ())
  | _, Unix.WEXITED n -> Some (Error (Printf.sprintf "exited with %d" n))
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Some (Error (Printf.sprintf "was killed by signal %d" n))
  | exception Unix.Unix_error (e, _, _) ->
      Some (Error ("could not be waited for: " ^ Unix.error_message e))

(* Start [argv] directly, without a shell: stdin and stdout on
   /dev/null, stderr on [stderr] (a file path) or /dev/null. A program
   that cannot be started is an [Error], never an exception. *)
let spawn ?stderr argv =
  try
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        let err =
          match stderr with
          | None -> null
          | Some path ->
              Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
        in
        Fun.protect
          ~finally:(fun () -> if err != null then Unix.close err)
          (fun () -> Ok (Unix.create_process argv.(0) argv null null err)))
  with Unix.Unix_error (e, _, _) -> Error ("could not be started: " ^ Unix.error_message e)

let probes : bool Memo.t = Memo.create ~name:"cc_probe" ~capacity:16

(* One [cc -dumpversion] probe per distinct compiler string, cached for
   the process. *)
let probe argv =
  Memo.find_or_build probes (String.concat " " argv) (fun () ->
      match spawn (Array.of_list (argv @ [ "-dumpversion" ])) with
      | Ok pid -> exit_of [] pid = Some (Ok ())
      | Error _ -> false)

let available () = probe (compiler_argv ())

(* ------------------------------------------------------------------ *)
(* Temp-directory and artifact bookkeeping                            *)
(* ------------------------------------------------------------------ *)

(* TACO_NATIVE_KEEP set and not blank. *)
let keep_artifacts () =
  match Sys.getenv_opt "TACO_NATIVE_KEEP" with None | Some "" -> false | Some _ -> true

(* Per-process build sequence number, part of every artifact name. *)
let build_seq = Atomic.make 0

let art_mutex = Mutex.create ()
let artifacts : (string, unit) Hashtbl.t = Hashtbl.create 16
let tmp_dir : string option ref = ref None

let track path =
  Mutex.lock art_mutex;
  Hashtbl.replace artifacts path ();
  Mutex.unlock art_mutex

let untrack path =
  Mutex.lock art_mutex;
  Hashtbl.remove artifacts path;
  Mutex.unlock art_mutex

let untrack_remove path =
  (try Sys.remove path with Sys_error _ -> ());
  untrack path

(* The per-process build directory, created on first use (and again
   after a [cleanup]). A read-only tmpdir (or any mkdir failure) is an
   [Error]: the caller counts it as a downgrade and serves the request
   through closures. *)
let ensure_dir () =
  Mutex.lock art_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock art_mutex)
    (fun () ->
      match !tmp_dir with
      | Some d -> Ok d
      | None -> (
          let root = try Filename.get_temp_dir_name () with _ -> "/tmp" in
          let d =
            Filename.concat root (Printf.sprintf "taco_native_%d" (Unix.getpid ()))
          in
          try
            if not (Sys.file_exists d) then Sys.mkdir d 0o700;
            tmp_dir := Some d;
            Ok d
          with Sys_error m ->
            Error (Printf.sprintf "cannot create native build dir %s: %s" d m)))

(* ------------------------------------------------------------------ *)
(* Building: start a cc child, then wait for it or poll it            *)
(* ------------------------------------------------------------------ *)

(* A build whose cc child is running: one translation unit holding
   [b_names]' kernels, in entry-point order. *)
type build = {
  b_cc : string;  (** the compiler command, for messages *)
  b_names : string list;
  b_rids : int list;  (** request ids the batch's kernels serve *)
  b_tier : int;
  b_pid : int;
  b_base : string;  (** artifact path without extension *)
  b_emit_ns : int64;
  b_cc_start : int64;
  b_corrupt : bool;  (** an injected fault garbles the shared object *)
}

let top_tier = 1

(* The flags that differ between tiers; the rest of the command line is
   shared. Tier 1 targets the host's instruction set: the host is the
   process that loads the .so. *)
let tier_flags tier = if tier = 0 then [ "-O0" ] else [ "-O3"; "-march=native" ]

let artifact_files base = [ base ^ ".c"; base ^ ".so"; base ^ ".log" ]

let discard base = List.iter untrack_remove (artifact_files base)

let write_file path contents =
  try
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
    Ok ()
  with Sys_error m -> Error (Printf.sprintf "cannot write %s: %s" path m)

let read_log path =
  try
    In_channel.with_open_bin path (fun ic ->
        let s = In_channel.input_all ic in
        let s = String.trim s in
        if String.length s > 400 then String.sub s 0 400 ^ "..." else s)
  with Sys_error _ -> ""

let names_arg names = String.concat "," names

(* Emit one translation unit for [kernels] and start compiler [cc] (an
   argv prefix) on it. A build is the fault point [native.build], a
   tier-up [native.tierup]: an injected crash fails it here, an
   injected corruption garbles the shared object it builds. *)
let start ~cc ~tier ~rids (kernels : Imp.kernel list) : (build, string) result =
  let ( let* ) = Result.bind in
  let point = if tier > 0 then "native.tierup" else "native.build" in
  let* corrupt =
    match Fault.corrupted ~stage:Diag.Compile point with
    | corrupt -> Ok corrupt
    | exception Diag.Error d -> Error (Diag.to_string d)
  in
  let* dir = ensure_dir () in
  let cc_name = String.concat " " cc in
  let names = List.map (fun k -> k.Imp.k_name) kernels in
  let t0 = Trace.now_ns () in
  let src =
    Trace.with_span ~cat:"exec" ~args:[ ("kernel", names_arg names) ] "native.emit" (fun () ->
        Codegen_c.emit_exec kernels)
  in
  let emit_ns = Int64.sub (Trace.now_ns ()) t0 in
  (* The digest names the source for anyone keeping artifacts; the
     sequence number keeps two concurrent builds of the same source
     (uncached compiles, a tier-up, or two cache keys that emit the same
     C) from sharing, and deleting, each other's files. *)
  let tag = Digest.to_hex (Digest.string (cc_name ^ "\x00" ^ src)) in
  let base =
    Filename.concat dir
      (Printf.sprintf "k_%s_%d_t%d" tag (Atomic.fetch_and_add build_seq 1) tier)
  in
  List.iter track (artifact_files base);
  let discarding r =
    if Result.is_error r then discard base;
    r
  in
  let* () = discarding (write_file (base ^ ".c") src) in
  (* -ffp-contract=off: the closure executor evaluates a*b+c as
     multiply-then-add with intermediate rounding; letting gcc fuse it
     into fma would break bit-identity — with the closures, and between
     the tiers. -nostdlib: the kernel calls libc only through the
     runtime table, so the link skips the C start files and libc's
     linker script; the few calls cc itself emits (memset, memcpy,
     malloc) resolve at dlopen against the libc the host process
     already maps. Static libgcc keeps the compiler's
     helper routines resolvable; OpenMP kernels name libgomp, their
     one shared-library dependency. *)
  let argv =
    cc
    @ tier_flags tier
    @ [ "-shared"; "-fPIC"; "-ffp-contract=off"; "-nostdlib" ]
    @ [ "-o"; base ^ ".so"; base ^ ".c" ]
    @ (if List.exists Codegen_c.has_parallel kernels then [ "-fopenmp"; "-lgomp" ] else [])
    @ [ "-lgcc" ]
  in
  let cc_start = Trace.now_ns () in
  let* pid =
    discarding
      (Result.map_error
         (fun how -> Printf.sprintf "%s %s building %s" cc_name how (names_arg names))
         (spawn ~stderr:(base ^ ".log") (Array.of_list argv)))
  in
  Ok
    {
      b_cc = cc_name;
      b_names = names;
      b_rids = rids;
      b_tier = tier;
      b_pid = pid;
      b_base = base;
      b_emit_ns = emit_ns;
      b_cc_start = cc_start;
      b_corrupt = corrupt;
    }

(* The cc child has ended with [status]: dlopen what it built and
   resolve one entry point per kernel. Records the [native.cc] span,
   from start to reap, and counts the cc process. *)
let finish b status : (entry list, string) result =
  let t2 = Trace.now_ns () in
  let names = names_arg b.b_names in
  let args = [ ("kernel", names); ("tier", string_of_int b.b_tier) ] in
  let rids =
    match b.b_rids with
    | [] -> []
    | rids -> [ ("rids", String.concat "," (List.map string_of_int rids)) ]
  in
  Trace.span_complete ~cat:"exec"
    ~args:(args @ (("kernels", string_of_int (List.length b.b_names)) :: rids))
    ~ts:b.b_cc_start ~dur_ns:(Int64.sub t2 b.b_cc_start) "native.cc";
  let sofile = b.b_base ^ ".so" in
  let fail e =
    discard b.b_base;
    Error e
  in
  let r =
    match status with
    | Error how ->
        let log = read_log (b.b_base ^ ".log") in
        fail
          (Printf.sprintf "%s %s building %s%s" b.b_cc how names
             (if log = "" then "" else ": " ^ log))
    | Ok () -> (
        if b.b_corrupt then ignore (write_file sofile "corrupted by an injected fault");
        let handle =
          Trace.with_span ~cat:"exec" ~args "native.dlopen" (fun () -> nat_dlopen sofile)
        in
        let t3 = Trace.now_ns () in
        if handle = 0n then fail (Printf.sprintf "dlopen failed for %s" names)
        else
          let fns = List.mapi (fun i _ -> nat_dlsym handle (Codegen_c.entry_name i)) b.b_names in
          match List.find_index (( = ) 0n) fns with
          | Some i ->
              nat_dlclose handle;
              fail
                (Printf.sprintf "dlsym(%s) failed for %s" (Codegen_c.entry_name i)
                   (List.nth b.b_names i))
          | None ->
              (* Mapped: drop the on-disk files now (the inode stays
                 alive) unless asked to keep them, in which case they
                 leave the sweep's list too. *)
              if keep_artifacts () then begin
                untrack_remove (b.b_base ^ ".log");
                List.iter untrack [ b.b_base ^ ".c"; sofile ]
              end
              else discard b.b_base;
              let phases =
                {
                  emit_ns = b.b_emit_ns;
                  cc_ns = Int64.sub t2 b.b_cc_start;
                  dlopen_ns = Int64.sub t3 t2;
                  kernels = List.length fns;
                }
              in
              Ok (List.map (fun fn -> { e_fn = fn; e_tier = b.b_tier; e_phases = phases }) fns))
  in
  Metrics.inc
    ~labels:[ ("tier", string_of_int b.b_tier); ("outcome", if Result.is_ok r then "ok" else "failed") ]
    "taco_native_cc_total";
  r

let wait b = finish b (Option.value ~default:(Error "still running") (exit_of [] b.b_pid))

(* [None] while the compiler is still running. *)
let poll b = Option.map (finish b) (exit_of [ Unix.WNOHANG ] b.b_pid)

(* Start a build of [kernels] and wait for it. *)
let build ~cc ~tier ~rids kernels = Result.bind (start ~cc ~tier ~rids kernels) wait

(* Every kernel's build outcome passes through here once: the registry
   counts kernel builds by tier and outcome. *)
let count tier r =
  Metrics.inc
    ~labels:[ ("tier", string_of_int tier); ("outcome", if Result.is_ok r then "ok" else "failed") ]
    "taco_native_builds_total";
  r

let arr_kinds kernel =
  kernel.Imp.k_params
  |> List.filter (fun p -> p.Imp.p_array)
  |> List.map (fun p ->
         match p.Imp.p_dtype with
         | Imp.Float -> 1
         | Imp.Int -> 0
         | Imp.Bool -> invalid_arg "Native.load: bool parameter")
  |> Array.of_list

let loaded_of kernel cc e =
  let escapes = Codegen_c.exec_escapes kernel in
  {
    l_name = kernel.Imp.k_name;
    l_kernel = kernel;
    l_cc = cc;
    l_entry = Atomic.make e;
    l_arr_kinds = arr_kinds kernel;
    l_esc_kinds = Array.of_list (List.map (fun (_, t) -> if t = Imp.Int then 0 else 1) escapes);
    l_escapes = List.mapi (fun i (nm, _) -> (nm, i)) escapes;
    l_ran_ns = Atomic.make 0;
    l_tierup = Atomic.make false;
  }

(* Emit, compile at tier 0 and load every kernel the ABI can express,
   all in one translation unit: one cc, one dlopen, one dlsym per
   kernel. When that build fails and held more than one kernel, each is
   rebuilt on its own, so a kernel that cannot build fails with its own
   reason and the rest still load. Every failure is an [Error reason]
   for the caller's counted downgrade — nothing in here raises on the
   expected paths (no compiler, compile error, read-only tmpdir,
   dlopen/dlsym failure). *)
let load ?rids (kernels : Imp.kernel list) : (loaded, string) result list =
  let cc = compiler_argv () and tier = 0 in
  let rids = match rids with Some r -> r | None -> List.map (fun _ -> None) kernels in
  let rids_of items = List.filter_map snd items |> List.sort_uniq compare in
  let single item = Result.map List.hd (build ~cc ~tier ~rids:(rids_of [ item ]) [ fst item ]) in
  let build_all batch =
    let built =
      match batch with
      | [] | [ _ ] -> List.map single batch
      | _ -> (
          match build ~cc ~tier ~rids:(rids_of batch) (List.map fst batch) with
          | Ok entries -> List.map Result.ok entries
          | Error reason ->
              Trace.instant
                ~args:[ ("kernels", string_of_int (List.length batch)); ("reason", reason) ]
                "native.batch.failed";
              List.map single batch)
    in
    List.map2 (fun (k, _) r -> Result.map (loaded_of k cc) (count tier r)) batch built
  in
  List.map2
    (fun k rid ->
      match Codegen_c.exec_unsupported k with
      | Some r -> Either.Right (Error ("kernel not expressible natively: " ^ r))
      | None ->
          if probe cc then Either.Left (k, rid)
          else Either.Right (Error (Printf.sprintf "C compiler %S unavailable" (String.concat " " cc))))
    kernels rids
  |> Util.map_lefts build_all

let tier l = (Atomic.get l.l_entry).e_tier

let phases l = (Atomic.get l.l_entry).e_phases

(* ------------------------------------------------------------------ *)
(* Tier-up                                                             *)
(* ------------------------------------------------------------------ *)

(* The one tier-up in flight, if any. Runs only try-lock the mutex, so
   a run never waits on another domain's poll. *)
let tierup_mutex = Mutex.create ()
let inflight : (loaded * build) option Atomic.t = Atomic.make None

let with_tierup_lock f =
  Mutex.lock tierup_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock tierup_mutex) f

let try_tierup_lock f =
  if Mutex.try_lock tierup_mutex then
    Fun.protect ~finally:(fun () -> Mutex.unlock tierup_mutex) f

(* Swap a finished tier-1 build in, or leave the kernel on tier 0 for
   good. Call with the tier-up lock held. *)
let install l r =
  match count top_tier (Result.map List.hd r) with
  | Ok e -> Atomic.set l.l_entry e
  | Error reason ->
      Trace.instant ~args:[ ("kernel", l.l_name); ("reason", reason) ] "native.tierup.failed"

let claim l = Atomic.compare_and_set l.l_tierup false true

let poll_tierup () =
  try_tierup_lock (fun () ->
      match Atomic.get inflight with
      | None -> ()
      | Some (l, b) ->
          Option.iter
            (fun r ->
              Atomic.set inflight None;
              install l r)
            (poll b))

(* Break-even: once a tier-0 kernel has run for as long as its build's
   cc process took, start its tier-1 build — unless one is already in
   flight. A batch's kernel is charged the whole batch's cc time: a
   tier-up is a cc process of its own, whatever the batch shared. *)
let account l e dt =
  let ran = Atomic.fetch_and_add l.l_ran_ns dt + dt in
  let idle () = Option.is_none (Atomic.get inflight) in
  if ran > Int64.to_int e.e_phases.cc_ns && (not (Atomic.get l.l_tierup)) && idle () then
    try_tierup_lock (fun () ->
        if idle () && claim l then
          match start ~cc:l.l_cc ~tier:top_tier ~rids:[] [ l.l_kernel ] with
          | Ok b -> Atomic.set inflight (Some (l, b))
          | Error reason -> install l (Error reason))

let promote l =
  with_tierup_lock (fun () ->
      match Atomic.get inflight with
      | Some (l', b) when l' == l ->
          Atomic.set inflight None;
          install l (wait b)
      | _ -> if claim l then install l (build ~cc:l.l_cc ~tier:top_tier ~rids:[] [ l.l_kernel ]))

let run (l : loaded) (s : spec) : int * Obj.t array =
  let e = Atomic.get l.l_entry in
  let call () =
    Trace.with_span ~cat:"exec" ~args:[ ("kernel", l.l_name) ] "native.run" (fun () ->
        nat_call e.e_fn s)
  in
  let r =
    if e.e_tier = top_tier then call ()
    else begin
      let t0 = Trace.now_ns () in
      let r = call () in
      account l e (Int64.to_int (Int64.sub (Trace.now_ns ()) t0));
      r
    end
  in
  if Option.is_some (Atomic.get inflight) then poll_tierup ();
  r

(* ------------------------------------------------------------------ *)
(* Cleanup                                                             *)
(* ------------------------------------------------------------------ *)

(* Kill and reap an in-flight tier-up (it counts as failed; its kernel
   stays on tier 0), remove every artifact still on disk, then the
   process directory itself (which only succeeds once empty). Loaded
   .so handles stay valid: their inodes are alive until process exit. *)
let cleanup () =
  with_tierup_lock (fun () ->
      Option.iter
        (fun (l, b) ->
          Atomic.set inflight None;
          (try Unix.kill b.b_pid Sys.sigkill with Unix.Unix_error _ -> ());
          install l (wait b))
        (Atomic.get inflight));
  let paths =
    Mutex.lock art_mutex;
    let ps = Hashtbl.fold (fun p () acc -> p :: acc) artifacts [] in
    Hashtbl.reset artifacts;
    Mutex.unlock art_mutex;
    ps
  in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  Mutex.lock art_mutex;
  (match !tmp_dir with
  | None -> ()
  | Some d -> (
      try
        Sys.rmdir d;
        tmp_dir := None
      with Sys_error _ -> ()));
  Mutex.unlock art_mutex

let () = at_exit (fun () -> if not (keep_artifacts ()) then cleanup ())
