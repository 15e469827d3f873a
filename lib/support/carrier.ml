(* Carrier-local state: per domain (Domain.DLS), a map from the ids of
   that domain's threads to their values. Thread ids are unique in the
   process, so the id alone names the carrier within its domain. The
   map is immutable and swapped with compare-and-set, so a read needs
   no lock, and a thread preempted while adding its own entry cannot
   drop another thread's. *)

module M = Map.Make (Int)

type 'a key = { cells : 'a M.t Atomic.t Domain.DLS.key; init : unit -> 'a }

let id () = Thread.id (Thread.self ())

let new_key init =
  (* A domain's map is built before any of its threads can race for
     it: a spawned domain's as it starts (split from its parent), the
     calling domain's now. *)
  let cells =
    Domain.DLS.new_key
      ~split_from_parent:(fun _ -> Atomic.make M.empty)
      (fun () -> Atomic.make M.empty)
  in
  ignore (Domain.DLS.get cells);
  { cells; init }

let get k =
  let cell = Domain.DLS.get k.cells in
  let me = id () in
  match M.find me (Atomic.get cell) with
  | v -> v
  | exception Not_found ->
      let v = k.init () in
      let rec add () =
        let m = Atomic.get cell in
        if not (Atomic.compare_and_set cell m (M.add me v m)) then add ()
      in
      add ();
      v
