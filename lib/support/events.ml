(* JSONL event sink. The path comes from TACO_EVENTS (read once) or
   set_path; the channel opens lazily and appends, one flushed line per
   emit under a mutex so worker domains interleave whole lines. *)

let mutex = Mutex.create ()

(* [path] is the configured sink; [oc] the lazily opened channel. *)
let path : string option ref = ref (Sys.getenv_opt "TACO_EVENTS")
let oc : out_channel option ref = ref None

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let enabled () = !path <> None

let close_locked () =
  match !oc with
  | None -> ()
  | Some ch ->
      (try close_out ch with Sys_error _ -> ());
      oc := None

let close () = locked close_locked

let set_path p =
  locked (fun () ->
      close_locked ();
      path := p)

let emit event fields =
  if !path <> None then begin
    let line =
      Json.(
        to_string
          (Obj (("event", Str event) :: ("ts_ns", Int (Int64.to_int (Trace.now_ns ()))) :: fields)))
      ^ "\n"
    in
    locked (fun () ->
        match !path with
        | None -> ()
        | Some p -> (
            let chan =
              match !oc with
              | Some ch -> Some ch
              | None -> (
                  match open_out_gen [ Open_append; Open_creat ] 0o644 p with
                  | ch ->
                      oc := Some ch;
                      Some ch
                  | exception Sys_error msg ->
                      Printf.eprintf "taco: TACO_EVENTS: cannot open %s: %s (disabling)\n%!" p
                        msg;
                      path := None;
                      None)
            in
            match chan with
            | None -> ()
            | Some ch -> (
                try
                  output_string ch line;
                  flush ch
                with Sys_error msg ->
                  Printf.eprintf "taco: TACO_EVENTS: write failed: %s (disabling)\n%!" msg;
                  close_locked ();
                  path := None)))
  end
