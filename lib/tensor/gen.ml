module Prng = Taco_support.Prng

let component_count dims =
  (* Detect overflow while multiplying dimensions. *)
  Array.fold_left
    (fun acc d ->
      match acc with
      | None -> None
      | Some p -> if p > max_int / d then None else Some (p * d))
    (Some 1) dims

let unflatten dims flat =
  let n = Array.length dims in
  let coord = Array.make n 0 in
  let rest = ref flat in
  for m = n - 1 downto 0 do
    coord.(m) <- !rest mod dims.(m);
    rest := !rest / dims.(m)
  done;
  coord

let random_coo prng ~dims ~nnz =
  let coo = Coo.create dims in
  (match component_count dims with
  | Some total when nnz <= total ->
      let flats = Prng.sample_without_replacement prng ~n:total ~k:nnz in
      Array.iter (fun flat -> Coo.push coo (unflatten dims flat) (Prng.float prng)) flats
  | Some _ -> invalid_arg "Gen.random_coo: nnz exceeds component count"
  | None ->
      (* Component count overflows; draw coordinates independently and
         reject duplicates. Collisions are vanishingly rare here. *)
      let seen = Hashtbl.create (2 * nnz) in
      let drawn = ref 0 in
      while !drawn < nnz do
        let coord = Array.map (fun d -> Prng.int prng d) dims in
        let key = Array.to_list coord in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          Coo.push coo coord (Prng.float prng);
          incr drawn
        end
      done);
  coo

let random prng ~dims ~nnz fmt = Tensor.pack (random_coo prng ~dims ~nnz) fmt

let random_density prng ~dims ~density fmt =
  let total =
    match component_count dims with
    | Some t -> float_of_int t
    | None -> Array.fold_left (fun acc d -> acc *. float_of_int d) 1. dims
  in
  let nnz = if density <= 0. then 0 else max 1 (int_of_float (density *. total)) in
  random prng ~dims ~nnz fmt

let random_dense prng dims = Dense.init dims (fun _ -> Prng.float prng)

let clustered3 prng ~dims ~nnz ~avg_fiber =
  if Array.length dims <> 3 then invalid_arg "Gen.clustered3: order-3 only";
  if avg_fiber < 1. then invalid_arg "Gen.clustered3: avg_fiber < 1";
  let coo = Coo.create dims in
  let placed = ref 0 in
  while !placed < nnz do
    let i = Prng.int prng dims.(0) and k = Prng.int prng dims.(1) in
    (* Fiber lengths uniform in [1, 2*avg-1], mean = avg. *)
    let len = 1 + Prng.int prng (max 1 ((2 * int_of_float avg_fiber) - 1)) in
    let len = min len (min dims.(2) (nnz - !placed)) in
    let ls = Prng.sample_without_replacement prng ~n:dims.(2) ~k:len in
    Array.iter
      (fun l ->
        Coo.push coo [| i; k; l |] (Prng.float prng);
        incr placed)
      ls
  done;
  coo
