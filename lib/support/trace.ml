(* Process-global trace buffer. Everything is guarded by [on]: the
   disabled path is one ref read per call so instrumentation can stay
   compiled into hot paths. See trace.mli for the model. *)

let src = Logs.Src.create "taco.trace" ~doc:"Taco trace spans"

module Log = (val Logs.src_log src : Logs.LOG)

let now_ns = Monotonic_clock.now

(* A span begin; [sp_args] is mutable so [set_args] can attach data
   discovered while the span body runs (node counts, run stats). *)
type span = {
  sp_name : string;
  sp_cat : string;
  sp_ts : int64;
  sp_tid : int;
  mutable sp_args : (string * string) list;
}

type event =
  | E_begin of span
  | E_end of { e_name : string; e_ts : int64; e_tid : int }
  | E_complete of {
      x_name : string;
      x_cat : string;
      x_ts : int64;
      x_dur : int64;
      x_tid : int;
      x_args : (string * string) list;
    }
  | E_instant of { i_name : string; i_ts : int64; i_tid : int; i_args : (string * string) list }

let on = ref false
let mutex = Mutex.create ()

(* Most recent first; reversed (then ts-sorted) at export. *)
let events : event list ref = ref []
let n_events = ref 0

(* Each carrier (a domain, or one thread of it; see Carrier) has its own
   open-span stack and request id: a worker nests its own spans and
   never sees (or corrupts) another's stack. The event buffer stays
   shared behind the mutex; events carry the carrier id so exporters
   can pair B/E per carrier. *)
type carrier = { mutable stack : span list; mutable rid : int option }

let carrier_key = Carrier.new_key (fun () -> { stack = []; rid = None })

let my_carrier () = Carrier.get carrier_key

let tid = Carrier.id

(* Global count of open spans across all carriers (the stacks of other
   carriers cannot be walked); guarded by [mutex]. *)
let open_count = ref 0

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let push e =
  events := e :: !events;
  incr n_events

let enabled () = !on

let logging () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

(* Span-close hook (installed by Metrics.enable): called with every
   closed span's duration, whether or not the buffer is recording, so
   per-stage latency histograms share the tracer's clock and names. *)
type span_hook = name:string -> cat:string -> dur_ns:int64 -> unit

let span_hook : span_hook option ref = ref None

let set_span_hook h = span_hook := h

let hook_on () = Option.is_some !span_hook

let call_hook name cat dur_ns =
  match !span_hook with None -> () | Some f -> f ~name ~cat ~dur_ns

let active () = !on || logging () || hook_on ()

(* The current request id is carrier-local, like the span stack: a
   worker serves one request at a time, and every event it records while
   the id is set is stamped with it (an ["rid"] argument), making trace
   output joinable with the service's per-request event log. *)
let set_request_id rid = (my_carrier ()).rid <- rid

let request_id () = (my_carrier ()).rid

let rid_args args =
  match request_id () with
  | None -> args
  | Some r -> ("rid", string_of_int r) :: args

let enable () = on := true
let disable () = on := false

let clear () =
  locked (fun () ->
      events := [];
      n_events := 0;
      open_count := 0);
  (* Only the calling carrier's stack is reachable; other carriers'
     stacks unwind on their own as their [with_span] frames return. *)
  (my_carrier ()).stack <- []

let ms_of_ns ns = Int64.to_float ns /. 1e6

let log_span name t0 t1 =
  Log.debug (fun m -> m "span %s: %.3f ms" name (ms_of_ns (Int64.sub t1 t0)))

let with_span ?(cat = "taco") ?(args = []) name f =
  if !on then begin
    let t = tid () in
    let sp =
      { sp_name = name; sp_cat = cat; sp_ts = now_ns (); sp_tid = t; sp_args = rid_args args }
    in
    let c = my_carrier () in
    locked (fun () ->
        push (E_begin sp);
        incr open_count);
    c.stack <- sp :: c.stack;
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        (match c.stack with _ :: tl -> c.stack <- tl | [] -> ());
        locked (fun () ->
            decr open_count;
            push (E_end { e_name = name; e_ts = t1; e_tid = t }));
        call_hook name cat (Int64.sub t1 sp.sp_ts);
        log_span name sp.sp_ts t1)
      f
  end
  else if logging () || hook_on () then begin
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        call_hook name cat (Int64.sub t1 t0);
        log_span name t0 t1)
      f
  end
  else f ()

let set_args kv =
  if !on then
    match (my_carrier ()).stack with
    | sp :: _ -> locked (fun () -> sp.sp_args <- sp.sp_args @ kv)
    | [] -> ()

let span_complete ?(cat = "taco") ?(args = []) ~ts ~dur_ns name =
  if !on then begin
    let t = tid () in
    let args = rid_args args in
    locked (fun () ->
        push
          (E_complete
             { x_name = name; x_cat = cat; x_ts = ts; x_dur = dur_ns; x_tid = t; x_args = args }))
  end;
  call_hook name cat dur_ns;
  if logging () then log_span name ts (Int64.add ts dur_ns)

let instant ?(args = []) name =
  if !on then
    let t = tid () in
    let args = rid_args args in
    locked (fun () -> push (E_instant { i_name = name; i_ts = now_ns (); i_tid = t; i_args = args }))

let event_count () = locked (fun () -> !n_events)
let open_spans () = locked (fun () -> !open_count)

(* ---- export ---- *)

let event_ts = function
  | E_begin sp -> sp.sp_ts
  | E_end e -> e.e_ts
  | E_complete x -> x.x_ts
  | E_instant i -> i.i_ts

(* Chronological order with a stable tiebreak on buffer order, so
   retroactive X events (whose ts is their start) interleave correctly
   with B/E pairs recorded around them. *)
let snapshot () =
  let evs = locked (fun () -> List.rev !events) in
  List.stable_sort (fun a b -> Int64.compare (event_ts a) (event_ts b)) evs

let to_chrome_json () =
  let evs = snapshot () in
  let t0 = match evs with [] -> 0L | e :: _ -> event_ts e in
  (* Microseconds relative to the first event, as floats so distinct ns
     timestamps stay distinct. *)
  let us ns = Json.Float (Int64.to_float ns /. 1e3) in
  let event name ?cat ph ts tid rest =
    Json.Obj
      ((("name", Json.Str name) :: Option.to_list (Option.map (fun c -> ("cat", Json.Str c)) cat))
      @ ("ph", Json.Str ph) :: ("ts", us (Int64.sub ts t0)) :: ("pid", Json.Int 1)
        :: ("tid", Json.Int tid) :: rest)
  in
  let args kvs = [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ] in
  let json = function
    | E_begin sp -> event sp.sp_name ~cat:sp.sp_cat "B" sp.sp_ts sp.sp_tid (args sp.sp_args)
    | E_end e -> event e.e_name "E" e.e_ts e.e_tid []
    | E_complete x ->
        event x.x_name ~cat:x.x_cat "X" x.x_ts x.x_tid (("dur", us x.x_dur) :: args x.x_args)
    | E_instant i -> event i.i_name "i" i.i_ts i.i_tid (("s", Json.Str "t") :: args i.i_args)
  in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ms"); ("traceEvents", Json.List (List.map json evs)) ])
  ^ "\n"

let write_chrome path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_chrome_json ()))

(* ---- text summary ---- *)

let summary () =
  let evs = snapshot () in
  (* Pair B/E events with an explicit stack per carrier (concurrent
     carriers interleave their pairs in the buffer); X events contribute
     directly. Aggregates keyed by span name. *)
  let agg : (string, int * int64) Hashtbl.t = Hashtbl.create 16 in
  let record name dur =
    let n, tot = try Hashtbl.find agg name with Not_found -> (0, 0L) in
    Hashtbl.replace agg name (n + 1, Int64.add tot dur)
  in
  let order : string list ref = ref [] in
  let seen name = if not (List.mem name !order) then order := name :: !order in
  let stacks : (int, (string * int64) list) Hashtbl.t = Hashtbl.create 4 in
  let stk t = try Hashtbl.find stacks t with Not_found -> [] in
  List.iter
    (fun e ->
      match e with
      | E_begin sp ->
          seen sp.sp_name;
          Hashtbl.replace stacks sp.sp_tid ((sp.sp_name, sp.sp_ts) :: stk sp.sp_tid)
      | E_end e -> (
          match stk e.e_tid with
          | (name, t0) :: tl when name = e.e_name ->
              Hashtbl.replace stacks e.e_tid tl;
              record name (Int64.sub e.e_ts t0)
          | _ -> ())
      | E_complete x ->
          seen x.x_name;
          record x.x_name x.x_dur
      | E_instant _ -> ())
    evs;
  let b = Buffer.create 1024 in
  Buffer.add_string b "trace summary\n";
  Buffer.add_string b
    (Printf.sprintf "  %-28s %6s %12s %12s\n" "span" "count" "total(ms)" "mean(ms)");
  List.iter
    (fun name ->
      match Hashtbl.find_opt agg name with
      | None -> ()
      | Some (n, tot) ->
          let tot_ms = ms_of_ns tot in
          Buffer.add_string b
            (Printf.sprintf "  %-28s %6d %12.3f %12.3f\n" name n tot_ms
               (tot_ms /. float_of_int n)))
    (List.rev !order);
  Buffer.contents b
