open Imp

let profile_counters = "taco_prof"

let profile_slots = 6

(* Counter slots: 0 iterations, 1 scalar ops, 2 allocations, 3
   allocated elements, 4 zeroed elements, 5 reallocations. *)
let profile k =
  let bump slot e = Store_add (profile_counters, Int_lit slot, e) in
  let at_least lo = function Int_lit n -> Int_lit (max lo n) | e -> Binop (Max, Int_lit lo, e) in
  (* Imp has no early exit: a block either runs to its end or the run
     fails (and a failed run's counters are never read back). So the
     fixed counts of a block's statements are added once, at its head;
     only extents that vary at run time are counted in front of their
     statement. *)
  let rec block ?(trips = 0) ss =
    let count p = List.length (List.filter p ss) in
    let fixed =
      [
        (0, trips);
        ( 1,
          count (function
            | Decl _ | Assign _ | Store _ | Store_add _ | Store_reduce _ | Set_insert _ -> true
            | _ -> false) );
        (2, count (function Alloc _ | Set_alloc _ -> true | _ -> false));
        (5, count (function Realloc _ -> true | _ -> false));
      ]
    in
    List.filter_map (fun (slot, n) -> if n = 0 then None else Some (bump slot (Int_lit n))) fixed
    @ List.concat_map stmt ss
  and stmt = function
    | For (v, lo, hi, b) | ParallelFor (v, lo, hi, b, _) ->
        [ bump 0 (at_least 0 (sub hi lo)); For (v, lo, hi, block b) ]
    | While (c, b) -> [ While (c, block ~trips:1 b) ]
    | Set_drain (s, v, b) -> [ Set_drain (s, v, block ~trips:1 b) ]
    | If (c, t, e) -> [ If (c, block t, block e) ]
    | Alloc (_, _, n) as s ->
        let m = at_least 1 n in
        [ bump 3 m; bump 4 m; s ]
    | Set_alloc (_, n) as s ->
        (* {!Imp.set_elems} as an expression. *)
        let div a b = Binop (Div, a, Int_lit b) in
        let words = div (add (at_least 0 n) (Int_lit 63)) 64 in
        let m = at_least 1 (add words (div (add words (Int_lit 63)) 64)) in
        [ bump 3 m; bump 4 m; s ]
    | (Memset (_, n) | Fill (_, n, _)) as s -> [ bump 4 (at_least 0 n); s ]
    | s -> [ s ]
  in
  match validate k with
  | Error msg -> Error (Printf.sprintf "precondition: %s" msg)
  | Ok () -> (
      if
        List.exists (fun p -> p.p_name = profile_counters) k.k_params
        || List.mem profile_counters (declared k.k_body)
      then Error (Printf.sprintf "%s is already a kernel variable" profile_counters)
      else
        let body = Alloc (Int, profile_counters, Int_lit profile_slots) :: block k.k_body in
        let k' = { k with k_body = body } in
        match validate k' with
        | Error msg -> Error (Printf.sprintf "profile broke the kernel: %s" msg)
        | Ok () -> Ok k')
