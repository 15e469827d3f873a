(* Native execution backend: render a lowered kernel to C
   (Codegen_c.emit_exec), build it with the system C compiler into a
   per-process temp directory, dlopen the shared object and call its
   entry point through the flat ABI implemented by native_stubs.c.

   This is the paper's actual execution model — taco emits C and a
   system compiler turns it into the code that runs — where the rest of
   the executor interprets Imp IR through OCaml closures. The backend
   is strictly optional: every failure between "is there a compiler?"
   and "did dlsym find the entry point?" is reported as [Error reason]
   and the caller (Compile) downgrades to the closure executor.

   Artifact hygiene: the .c/.so/.log files are unlinked as soon as the
   .so is mapped — on Linux dlopen holds the inode alive, so nothing is
   left on disk for the lifetime of the process and nothing needs
   cleanup on exit. [cleanup] (called from Service.shutdown and at_exit)
   sweeps whatever a failed load may have left and removes the process
   directory. Set TACO_NATIVE_KEEP=1 to keep sources for debugging. *)

module Imp = Taco_lower.Imp
module Codegen_c = Taco_lower.Codegen_c
module Trace = Taco_support.Trace

type phases = { emit_ns : int64; cc_ns : int64; dlopen_ns : int64 }

type loaded = {
  l_name : string;  (** kernel name, for spans and diagnostics *)
  l_fn : nativeint;  (** resolved taco_entry pointer *)
  l_handle : nativeint;  (** dlopen handle (never closed while cached) *)
  l_arr_kinds : int array;
      (** per array-parameter marshalling kind, in parameter order:
          0 int input, 1 float in-place, 2 int output (copied back) *)
  l_esc_kinds : int array;
      (** per escape, in escape order: 0 int array, 1 float array *)
  l_escapes : (string * int) list;
      (** allocated arrays handed back by the kernel, with their
          escape index *)
  l_phases : phases;
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

let compiler () =
  match Sys.getenv_opt "TACO_CC" with Some c when c <> "" -> c | _ -> "cc"

(* Part of the kernel-cache key: a compiled entry is only valid for the
   compiler that built it (TACO_CC can change between calls, e.g. the
   bogus-compiler tests). *)
let compiler_id = compiler

(* Run [argv] directly, without a shell: stdin and stdout on /dev/null,
   stderr on [stderr] (a file path) or /dev/null. [Ok ()] on exit code
   0, otherwise [Error] describing how it ended; a program that cannot
   be started is an [Error] too, never an exception. *)
let run_command ?stderr argv =
  let rec wait pid =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
  in
  match
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
          (fun () -> wait (Unix.create_process argv.(0) argv null null err)))
  with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "exited with %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "was killed by signal %d" n)
  | exception Unix.Unix_error (e, _, _) ->
      Error ("could not be started: " ^ Unix.error_message e)

let probe_tbl : (string, bool) Hashtbl.t = Hashtbl.create 4
let probe_mutex = Mutex.create ()

(* One [cc -dumpversion] probe per distinct compiler string, cached for
   the process. *)
let available () =
  let cc = compiler () in
  Mutex.lock probe_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock probe_mutex)
    (fun () ->
      match Hashtbl.find_opt probe_tbl cc with
      | Some ok -> ok
      | None ->
          let ok = Result.is_ok (run_command [| cc; "-dumpversion" |]) in
          Hashtbl.add probe_tbl cc ok;
          ok)

(* ------------------------------------------------------------------ *)
(* Temp-directory and artifact bookkeeping                            *)
(* ------------------------------------------------------------------ *)

let keep_artifacts () = Sys.getenv_opt "TACO_NATIVE_KEEP" <> None

(* Per-process build sequence number, part of every artifact name. *)
let build_seq = Atomic.make 0

let art_mutex = Mutex.create ()
let artifacts : (string, unit) Hashtbl.t = Hashtbl.create 16
let tmp_dir : string option ref = ref None

let track path =
  Mutex.lock art_mutex;
  Hashtbl.replace artifacts path ();
  Mutex.unlock art_mutex

let untrack_remove path =
  (try Sys.remove path with Sys_error _ -> ());
  Mutex.lock art_mutex;
  Hashtbl.remove artifacts path;
  Mutex.unlock art_mutex

(* Remove every artifact still on disk and the process directory itself
   (which only succeeds once empty). Loaded .so handles stay valid:
   their inodes are alive until process exit. *)
let cleanup () =
  let paths =
    Mutex.lock art_mutex;
    let ps = Hashtbl.fold (fun p () acc -> p :: acc) artifacts [] in
    Hashtbl.reset artifacts;
    Mutex.unlock art_mutex;
    ps
  in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  match !tmp_dir with
  | None -> ()
  | Some d -> ( try Sys.rmdir d with Sys_error _ -> ())

let () = at_exit (fun () -> if not (keep_artifacts ()) then cleanup ())

(* The per-process build directory, created on first use. A read-only
   tmpdir (or any mkdir failure) is an [Error]: the caller counts it as
   a downgrade and serves the request through closures. *)
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
(* Building and loading                                               *)
(* ------------------------------------------------------------------ *)

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

let arr_kinds kernel =
  let written = Codegen_c.written_arrays kernel in
  kernel.Imp.k_params
  |> List.filter (fun p -> p.Imp.p_array)
  |> List.map (fun p ->
         match p.Imp.p_dtype with
         | Imp.Float -> 1
         | Imp.Int -> if List.mem p.Imp.p_name written then 2 else 0
         | Imp.Bool -> invalid_arg "Native.load: bool parameter")
  |> Array.of_list

(* Emit, compile, load. Every failure is an [Error reason] for the
   caller's counted downgrade — nothing in here raises on the expected
   paths (no compiler, compile error, read-only tmpdir, dlopen/dlsym
   failure). *)
let load (kernel : Imp.kernel) : (loaded, string) result =
  match Codegen_c.exec_unsupported kernel with
  | Some r -> Error ("kernel not expressible natively: " ^ r)
  | None -> (
      if not (available ()) then
        Error (Printf.sprintf "C compiler %S unavailable" (compiler ()))
      else
        match ensure_dir () with
        | Error e -> Error e
        | Ok dir -> (
            let name = kernel.Imp.k_name in
            let t0 = Trace.now_ns () in
            let src =
              Trace.with_span ~cat:"exec" ~args:[ ("kernel", name) ] "native.emit"
                (fun () -> Codegen_c.emit_exec kernel)
            in
            let t1 = Trace.now_ns () in
            let cc = compiler () in
            (* The digest names the source for anyone keeping artifacts;
               the sequence number keeps two concurrent builds of the
               same source (uncached compiles, or two cache keys that
               emit the same C) from sharing, and deleting, each other's
               files. *)
            let tag = Digest.to_hex (Digest.string (cc ^ "\x00" ^ src)) in
            let base =
              Filename.concat dir
                (Printf.sprintf "k_%s_%d" tag (Atomic.fetch_and_add build_seq 1))
            in
            let cfile = base ^ ".c" and sofile = base ^ ".so" and logfile = base ^ ".log" in
            List.iter track [ cfile; sofile; logfile ];
            let discard () = List.iter untrack_remove [ cfile; sofile; logfile ] in
            match write_file cfile src with
            | Error e ->
                discard ();
                Error e
            | Ok () -> (
                (* -ffp-contract=off: the closure executor evaluates a*b+c
                   as multiply-then-add with intermediate rounding; letting
                   gcc fuse it into fma would break bit-identity. *)
                let argv =
                  Array.of_list
                    ([ cc; "-O3"; "-shared"; "-fPIC"; "-ffp-contract=off" ]
                    @ (if Codegen_c.has_parallel kernel then [ "-fopenmp" ] else [])
                    @ [ "-o"; sofile; cfile ])
                in
                let status =
                  Trace.with_span ~cat:"exec" ~args:[ ("kernel", name) ] "native.cc"
                    (fun () -> run_command ~stderr:logfile argv)
                in
                let t2 = Trace.now_ns () in
                match status with
                | Error how ->
                    let log = read_log logfile in
                    discard ();
                    Error
                      (Printf.sprintf "%s %s building %s%s" cc how name
                         (if log = "" then "" else ": " ^ log))
                | Ok () ->
                    let handle =
                      Trace.with_span ~cat:"exec" ~args:[ ("kernel", name) ] "native.dlopen"
                        (fun () -> nat_dlopen sofile)
                    in
                    let t3 = Trace.now_ns () in
                    if handle = 0n then begin
                      discard ();
                      Error (Printf.sprintf "dlopen failed for %s" name)
                    end
                    else
                      let fn = nat_dlsym handle Codegen_c.entry_name in
                      if fn = 0n then begin
                        nat_dlclose handle;
                        discard ();
                        Error (Printf.sprintf "dlsym(%s) failed for %s" Codegen_c.entry_name name)
                      end
                      else begin
                        (* Mapped: drop the on-disk files now (the inode
                           stays alive) unless asked to keep them. *)
                        if keep_artifacts () then untrack_remove logfile else discard ();
                        let escapes = Codegen_c.exec_escapes kernel in
                        Ok
                          {
                            l_name = name;
                            l_fn = fn;
                            l_handle = handle;
                            l_arr_kinds = arr_kinds kernel;
                            l_esc_kinds =
                              Array.of_list
                                (List.map
                                   (fun (_, t) -> if t = Imp.Int then 0 else 1)
                                   escapes);
                            l_escapes = List.mapi (fun i (nm, _) -> (nm, i)) escapes;
                            l_phases =
                              {
                                emit_ns = Int64.sub t1 t0;
                                cc_ns = Int64.sub t2 t1;
                                dlopen_ns = Int64.sub t3 t2;
                              };
                          }
                      end)))

let run (l : loaded) (s : spec) : int * Obj.t array =
  Trace.with_span ~cat:"exec" ~args:[ ("kernel", l.l_name) ] "native.run"
    (fun () -> nat_call l.l_fn s)
