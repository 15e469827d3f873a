(* Process-wide metrics registry. Counters and histograms shard per
   carrier (domain or thread, see Carrier) and merge at scrape time; gauges are rare
   last-write-wins sets behind a mutex. Everything is gated on [on] so
   the disabled path is one ref read, mirroring Trace. See metrics.mli
   for the model. *)

type labels = (string * string) list

(* ------------------------------------------------------------------ *)
(* Log-linear buckets                                                  *)
(* ------------------------------------------------------------------ *)

(* 16 sub-buckets per power of two: relative bucket width 1/16. Values
   are nanosecond durations; everything at or above 2^40 ns (~18 min)
   lands in one overflow bucket. *)
let sub_bits = 4
let sub = 1 lsl sub_bits
let max_exp = 40
let n_buckets = sub + ((max_exp - sub_bits) * sub) + 1

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < sub then v
  else begin
    let e = ref sub_bits and x = ref (v lsr sub_bits) in
    while !x > 1 do
      incr e;
      x := !x lsr 1
    done;
    if !e >= max_exp then n_buckets - 1
    else ((!e - sub_bits + 1) * sub) + ((v lsr (!e - sub_bits)) land (sub - 1))
  end

(* Lower edge and width of bucket [i] (inverse of [bucket_of]). *)
let bucket_bounds i =
  if i < sub then (float_of_int i, 1.)
  else if i = n_buckets - 1 then (Float.ldexp 1. max_exp, Float.ldexp 1. max_exp)
  else begin
    let e = sub_bits + (i lsr sub_bits) - 1 in
    let width = 1 lsl (e - sub_bits) in
    let lower = (1 lsl e) + ((i land (sub - 1)) * width) in
    (float_of_int lower, float_of_int width)
  end

type histogram = { h_count : int; h_sum_ns : float; h_buckets : int array }

let quantile h q =
  if h.h_count <= 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = Float.max 1. (q *. float_of_int h.h_count) in
    let cum = ref 0. and res = ref 0. and found = ref false in
    Array.iteri
      (fun i c ->
        if (not !found) && c > 0 then begin
          let before = !cum in
          cum := !cum +. float_of_int c;
          if !cum >= target then begin
            let lower, width = bucket_bounds i in
            res := lower +. ((target -. before) /. float_of_int c *. width);
            found := true
          end
        end)
      h.h_buckets;
    !res
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type cell = Counter of { mutable c : int } | Hist of hist_cell
and hist_cell = { counts : int array; mutable sum_ns : float; mutable n : int }

type shard = ((string * labels), cell) Hashtbl.t

let on = ref false
let mutex = Mutex.create ()
let shards : shard list ref = ref []
let gauges : (string * labels, float) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let shard_key : shard Carrier.key =
  Carrier.new_key (fun () ->
      let s : shard = Hashtbl.create 32 in
      locked (fun () -> shards := s :: !shards);
      s)

let my_shard () = Carrier.get shard_key

let norm_labels = function
  | ([] | [ _ ]) as ls -> ls
  | ls -> List.sort compare ls

let enabled () = !on

let inc ?(labels = []) ?(by = 1) name =
  if !on then begin
    let key = (name, norm_labels labels) in
    let tbl = my_shard () in
    match Hashtbl.find_opt tbl key with
    | Some (Counter c) -> c.c <- c.c + by
    | Some (Hist _) -> ()
    | None -> Hashtbl.replace tbl key (Counter { c = by })
  end

let set_gauge ?(labels = []) name v =
  if !on then
    let key = (name, norm_labels labels) in
    locked (fun () -> Hashtbl.replace gauges key v)

let observe_ns ?(labels = []) name ns =
  if !on then begin
    let key = (name, norm_labels labels) in
    let tbl = my_shard () in
    let h =
      match Hashtbl.find_opt tbl key with
      | Some (Hist h) -> h
      | Some (Counter _) | None ->
          let h = { counts = Array.make n_buckets 0; sum_ns = 0.; n = 0 } in
          Hashtbl.replace tbl key (Hist h);
          h
    in
    let v = Int64.to_int (Int64.max 0L ns) in
    let b = bucket_of v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.sum_ns <- h.sum_ns +. float_of_int v;
    h.n <- h.n + 1
  end

let time ?labels name f =
  if !on then begin
    let t0 = Trace.now_ns () in
    Fun.protect
      ~finally:(fun () -> observe_ns ?labels name (Int64.sub (Trace.now_ns ()) t0))
      f
  end
  else f ()

(* The Trace hook: every closed span becomes one observation of the
   per-stage histogram, so --trace spans and scraped stage latencies are
   the same measurements on the same clock. *)
let stage_hook ~name ~cat:_ ~dur_ns =
  observe_ns ~labels:[ ("stage", name) ] "taco_stage_duration_seconds" dur_ns

let enable () =
  on := true;
  Trace.set_span_hook (Some stage_hook)

let disable () =
  on := false;
  Trace.set_span_hook None

let reset () =
  locked (fun () ->
      List.iter Hashtbl.reset !shards;
      Hashtbl.reset gauges)

(* ------------------------------------------------------------------ *)
(* Scraping                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  counters : ((string * labels) * int) list;
  gauges : ((string * labels) * float) list;
  histograms : ((string * labels) * histogram) list;
}

let snapshot () =
  let counters : (string * labels, int) Hashtbl.t = Hashtbl.create 16 in
  let hists : (string * labels, histogram) Hashtbl.t = Hashtbl.create 16 in
  let gauge_list =
    locked (fun () ->
        List.iter
          (fun (shard : shard) ->
            Hashtbl.iter
              (fun key cell ->
                match cell with
                | Counter c ->
                    let prev = Option.value ~default:0 (Hashtbl.find_opt counters key) in
                    Hashtbl.replace counters key (prev + c.c)
                | Hist h ->
                    let merged =
                      match Hashtbl.find_opt hists key with
                      | None ->
                          {
                            h_count = h.n;
                            h_sum_ns = h.sum_ns;
                            h_buckets = Array.copy h.counts;
                          }
                      | Some m ->
                          Array.iteri
                            (fun i c -> m.h_buckets.(i) <- m.h_buckets.(i) + c)
                            h.counts;
                          {
                            m with
                            h_count = m.h_count + h.n;
                            h_sum_ns = m.h_sum_ns +. h.sum_ns;
                          }
                    in
                    Hashtbl.replace hists key merged)
              shard)
          !shards;
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges [])
  in
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  {
    counters = sorted counters;
    gauges = List.sort compare gauge_list;
    histograms = sorted hists;
  }

let counter ?(labels = []) name =
  let matches (n, ls) = n = name && List.for_all (fun l -> List.mem l ls) labels in
  locked (fun () ->
      List.fold_left
        (fun acc (shard : shard) ->
          Hashtbl.fold
            (fun key cell acc ->
              match cell with Counter c when matches key -> acc + c.c | _ -> acc)
            shard acc)
        0 !shards)

let quantile_ns ?labels name q =
  let snap = snapshot () in
  let matching =
    List.filter
      (fun ((n, ls), _) ->
        n = name
        && match labels with None -> true | Some want -> ls = norm_labels want)
      snap.histograms
  in
  match matching with
  | [] -> None
  | series ->
      let merged =
        List.fold_left
          (fun acc (_, h) ->
            Array.iteri (fun i c -> acc.h_buckets.(i) <- acc.h_buckets.(i) + c) h.h_buckets;
            {
              acc with
              h_count = acc.h_count + h.h_count;
              h_sum_ns = acc.h_sum_ns +. h.h_sum_ns;
            })
          { h_count = 0; h_sum_ns = 0.; h_buckets = Array.make n_buckets 0 }
          series
      in
      if merged.h_count = 0 then None else Some (quantile merged q)

(* ------------------------------------------------------------------ *)
(* Encoders                                                            *)
(* ------------------------------------------------------------------ *)

let valid_name_char i c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | '0' .. '9' -> i > 0
  | _ -> false

let sanitize_name s =
  if s = "" then "_"
  else String.mapi (fun i c -> if valid_name_char i c then c else '_') s

let sanitize_label s =
  let s = if s = "" then "_" else s in
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    s

let escape_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let label_block ?extra ls =
  let ls = match extra with None -> ls | Some kv -> ls @ [ kv ] in
  if ls = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize_label k) (escape_value v)) ls)
    ^ "}"

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

(* (Prometheus quantile label, q) *)
let quantile_points = [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99); ("0.999", 0.999) ]

let to_prometheus () =
  let snap = snapshot () in
  let b = Buffer.create 4096 in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun ((name, ls), v) ->
      let name = sanitize_name name in
      type_line name "counter";
      Buffer.add_string b (Printf.sprintf "%s%s %d\n" name (label_block ls) v))
    snap.counters;
  List.iter
    (fun ((name, ls), v) ->
      let name = sanitize_name name in
      type_line name "gauge";
      Buffer.add_string b (Printf.sprintf "%s%s %s\n" name (label_block ls) (fmt_float v)))
    snap.gauges;
  List.iter
    (fun ((name, ls), h) ->
      let name = sanitize_name name in
      type_line name "summary";
      List.iter
        (fun (qs, q) ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" name
               (label_block ~extra:("quantile", qs) ls)
               (fmt_float (quantile h q /. 1e9))))
        quantile_points;
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %s\n" name (label_block ls) (fmt_float (h.h_sum_ns /. 1e9)));
      Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" name (label_block ls) h.h_count))
    snap.histograms;
  Buffer.contents b
