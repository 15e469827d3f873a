(* Bounded single-flight memo tables. See memo.mli for the contract. *)

type stats = { hits : int; misses : int; entries : int; evictions : int; coalesced : int }

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'a t = {
    (* Registry series names, built once in [create]. *)
    hits_n : string;
    misses_n : string;
    evictions_n : string;
    coalesced_n : string;
    size_n : string;
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
    let series kind = "taco_" ^ name ^ "_cache_" ^ kind in
    {
      hits_n = series "hits_total";
      misses_n = series "misses_total";
      evictions_n = series "evictions_total";
      coalesced_n = series "coalesced_total";
      size_n = series "size";
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

  let publish_size t entries =
    if Metrics.enabled () then Metrics.set_gauge t.size_n (float_of_int entries)

  (* Resolve [items] (key, validity) into [out], building the keys no
     domain holds or builds through one call of [build]. Each round
     classifies the pending items under the lock: a valid entry is a
     hit; a key claimed earlier in the same round shares that claim; a
     key another domain is building is deferred; any other key is
     claimed. The claimed keys are built together, inserted when Ok and
     released. The deferred items then wait — holding no claim, so two
     domains waiting on each other's keys cannot deadlock — until
     their keys leave flight, and go round again: a hit then counts as
     coalesced, and a key whose build failed is claimed anew. *)
  let find_or_build_all t items build =
    let items = Array.of_list items in
    let out = Array.make (Array.length items) None in
    let rec round pending ~waited =
      let mine = H.create 8 in
      let classify () =
        List.fold_left
          (fun (hits, claimed, shared, deferred) i ->
            let key, valid = items.(i) in
            match H.find_opt mine key with
            | Some j -> (hits, claimed, (i, j) :: shared, deferred)
            | None -> (
                match H.find_opt t.table key with
                | Some v when valid v ->
                    t.hits <- t.hits + 1;
                    if waited then t.coalesced <- t.coalesced + 1;
                    out.(i) <- Some (Ok v);
                    (hits + 1, claimed, shared, deferred)
                | _ when H.mem t.in_flight key -> (hits, claimed, shared, i :: deferred)
                | _ ->
                    H.replace t.in_flight key ();
                    H.replace mine key i;
                    (hits, i :: claimed, shared, deferred)))
          (0, [], [], []) pending
      in
      let hits, claimed, shared, deferred = locked t classify in
      let claimed = List.rev claimed in
      if hits > 0 then begin
        Metrics.inc ~by:hits t.hits_n;
        if waited then Metrics.inc ~by:hits t.coalesced_n
      end;
      let release () =
        List.iter (fun i -> H.remove t.in_flight (fst items.(i))) claimed;
        Condition.broadcast t.built
      in
      if claimed <> [] then begin
        let results =
          try List.combine claimed (build claimed)
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            locked t release;
            Printexc.raise_with_backtrace e bt
        in
        let built, shared_hits, dropped, entries =
          locked t (fun () ->
              let built =
                List.fold_left
                  (fun n (i, r) ->
                    out.(i) <- Some r;
                    match r with
                    | Ok v ->
                        let key = fst items.(i) in
                        t.misses <- t.misses + 1;
                        if not (H.mem t.table key) then Queue.push key t.order;
                        H.replace t.table key v;
                        n + 1
                    | Error _ -> n)
                  0 results
              in
              (* A repeated key shares its claim's result; a built one
                 counts as a coalesced hit. *)
              let shared_hits =
                List.fold_left
                  (fun n (i, j) ->
                    out.(i) <- out.(j);
                    match out.(j) with Some (Ok _) -> n + 1 | _ -> n)
                  0 shared
              in
              t.hits <- t.hits + shared_hits;
              t.coalesced <- t.coalesced + shared_hits;
              let dropped = evict t 0 in
              release ();
              (built, shared_hits, dropped, H.length t.table))
        in
        if built > 0 then Metrics.inc ~by:built t.misses_n;
        if shared_hits > 0 then begin
          Metrics.inc ~by:shared_hits t.hits_n;
          Metrics.inc ~by:shared_hits t.coalesced_n
        end;
        if dropped > 0 then Metrics.inc ~by:dropped t.evictions_n;
        publish_size t entries
      end;
      if deferred <> [] then begin
        locked t (fun () ->
            while List.exists (fun i -> H.mem t.in_flight (fst items.(i))) deferred do
              Condition.wait t.built t.lock
            done);
        round (List.rev deferred) ~waited:true
      end
    in
    round (List.init (Array.length items) Fun.id) ~waited:false;
    Array.to_list (Array.map Option.get out)

  let find ?(valid = fun _ -> true) t key =
    let found =
      locked t (fun () ->
          match H.find_opt t.table key with
          | Some v when valid v ->
              t.hits <- t.hits + 1;
              Some v
          | _ -> None)
    in
    if Option.is_some found then Metrics.inc t.hits_n;
    found

  let find_or_build_result ?(valid = fun _ -> true) t key build =
    match find_or_build_all t [ (key, valid) ] (fun _ -> [ build () ]) with
    | [ r ] -> r
    | _ -> assert false

  type never = |

  let find_or_build ?valid t key build =
    match find_or_build_result ?valid t key (fun () -> Ok (build ())) with
    | Ok v -> v
    | Error (_ : never) -> .

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
