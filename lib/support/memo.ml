(* Bounded single-flight memo tables. See memo.mli for the contract. *)

type stats = { hits : int; misses : int; entries : int; evictions : int; coalesced : int }

(* Raised through [find_or_build] to abort a build that returned [Error]. *)
exception Build_failed

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'a t = {
    name : string;
    capacity : int;
    lock : Mutex.t;
    (* Broadcast whenever an in-flight build ends, returning or not. *)
    built : Condition.t;
    table : 'a H.t;
    (* Insertion order; every key in [table] is here exactly once. *)
    order : K.t Queue.t;
    in_flight : unit H.t;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable coalesced : int;
  }

  let create ~name ~capacity =
    if capacity <= 0 then invalid_arg "Memo.create: capacity must be positive";
    {
      name;
      capacity;
      lock = Mutex.create ();
      built = Condition.create ();
      table = H.create 16;
      order = Queue.create ();
      in_flight = H.create 8;
      hits = 0;
      misses = 0;
      evictions = 0;
      coalesced = 0;
    }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* Under the lock. Returns how many entries were evicted. *)
  let rec evict t dropped =
    if H.length t.table <= t.capacity then dropped
    else
      match Queue.take_opt t.order with
      | None -> dropped
      | Some old ->
          H.remove t.table old;
          t.evictions <- t.evictions + 1;
          evict t (dropped + 1)

  (* Counter names are built only while their store is recording. *)
  let count t ?trace metric n =
    (match trace with
    | Some event when Trace.enabled () -> Trace.add (t.name ^ ".cache." ^ event) n
    | _ -> ());
    if Metrics.enabled () then Metrics.inc ~by:n ("taco_" ^ t.name ^ "_cache_" ^ metric ^ "_total")

  let publish_size t entries =
    if Metrics.enabled () then
      Metrics.set_gauge ("taco_" ^ t.name ^ "_cache_size") (float_of_int entries)

  let find_or_build ?(valid = fun _ -> true) t key build =
    (* Under the lock, either take a valid entry (a hit), or wait for the
       domain already building this key and look again (a coalesced
       hit, or a retry if that build raised), or claim the build. *)
    let rec acquire ~waited =
      match H.find_opt t.table key with
      | Some v when valid v ->
          t.hits <- t.hits + 1;
          if waited then t.coalesced <- t.coalesced + 1;
          `Hit (v, waited)
      | _ when H.mem t.in_flight key ->
          Condition.wait t.built t.lock;
          acquire ~waited:true
      | _ ->
          H.replace t.in_flight key ();
          `Build
    in
    match locked t (fun () -> acquire ~waited:false) with
    | `Hit (v, waited) ->
        count t ~trace:"hit" "hits" 1;
        if waited then count t "coalesced" 1;
        v
    | `Build ->
        let release () =
          H.remove t.in_flight key;
          Condition.broadcast t.built
        in
        let v =
          try build ()
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            locked t release;
            Printexc.raise_with_backtrace e bt
        in
        let dropped, entries =
          locked t (fun () ->
              t.misses <- t.misses + 1;
              if not (H.mem t.table key) then Queue.push key t.order;
              H.replace t.table key v;
              let dropped = evict t 0 in
              release ();
              (dropped, H.length t.table))
        in
        count t ~trace:"miss" "misses" 1;
        if dropped > 0 then count t ~trace:"evict" "evictions" dropped;
        publish_size t entries;
        v

  let find_or_build_result ?valid t key build =
    let error = ref None in
    let build () =
      match build () with
      | Ok v -> v
      | Error e ->
          error := Some e;
          raise Build_failed
    in
    match find_or_build ?valid t key build with
    | v -> Ok v
    | exception Build_failed when Option.is_some !error -> Error (Option.get !error)

  let stats t =
    locked t (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          entries = H.length t.table;
          evictions = t.evictions;
          coalesced = t.coalesced;
        })

  let clear t =
    locked t (fun () ->
        (* In-flight markers belong to their building domains; leave them
           so each build's release still pairs up. *)
        H.reset t.table;
        Queue.clear t.order;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0;
        t.coalesced <- 0);
    publish_size t 0
end

include Make (String)
