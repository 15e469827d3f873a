(* Process-wide budget of extra domains (beyond the one running the
   caller). Both components that spawn domains — the ParallelFor
   executor and the service worker pool — draw permits from this one
   pot and spawn one domain per permit granted, no more, so their
   combined live domain count stays
   within what the hardware offers even when a serve request itself
   runs a parallel kernel. Work beyond the grant runs on the caller's
   domain: chunks in its own loop, service workers as its threads. *)

type state = {
  mutable capacity : int;  (* total permits *)
  mutable available : int;  (* permits not currently held *)
  mutable live : int;  (* permits currently held *)
  mutable peak : int;  (* high-water mark of [live] *)
}

let s =
  let c = max 0 (Domain.recommended_domain_count () - 1) in
  { capacity = c; available = c; live = 0; peak = 0 }

let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let recommended () = Domain.recommended_domain_count ()

let capacity () = locked (fun () -> s.capacity)

let set_capacity n =
  locked (fun () ->
      let n = max 0 n in
      let in_use = s.live in
      s.capacity <- n;
      s.available <- max 0 (n - in_use))

let acquire want =
  locked (fun () ->
      let got = min (max 0 want) s.available in
      s.available <- s.available - got;
      s.live <- s.live + got;
      if s.live > s.peak then s.peak <- s.live;
      got)

let release got =
  if got < 0 then invalid_arg "Budget.release: negative permit count";
  locked (fun () ->
      s.live <- max 0 (s.live - got);
      s.available <- min (s.capacity - s.live) (s.available + got) |> max 0)

(* Byte budget for kernel-side allocations (workspaces, assembled
   outputs, dense results). A plain ref, not mutex-guarded: the guard in
   the executor reads it once per allocation, and a torn read can only
   make one allocation use the old or the new limit — both of which were
   valid limits. [max_int] means unlimited (the default). *)
let mem_limit_bytes = ref max_int

let set_mem_limit n = mem_limit_bytes := (if n <= 0 then max_int else n)

let mem_limit () = !mem_limit_bytes

let live_extra () = locked (fun () -> s.live)

let peak_extra () = locked (fun () -> s.peak)

let reset_peak () = locked (fun () -> s.peak <- s.live)
