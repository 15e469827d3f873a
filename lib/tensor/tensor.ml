module Dyn = Taco_support.Dyn_array
module Util = Taco_support.Util
module Diag = Taco_support.Diag
module Ivec = Taco_support.Ivec

type level_data =
  | Dense_data of { size : int }
  | Compressed_data of { pos : Ivec.t; crd : Ivec.t }

(* Inline element access: the index arrays' type is named here. *)
let ( .%() ) (a : Ivec.t) i = Int32.to_int (Bigarray.Array1.get a i)

let ilen (a : Ivec.t) = Bigarray.Array1.dim a

(* Native kernels index with int32: a dimension (and so a coordinate
   below it) or a position past Int32.max_int has no representation
   there, whichever backend runs, so it is refused where it enters. *)
let range_error ~field ~level v =
  Diag.fail ~stage:Diag.Tensor ~code:"E_TENSOR_RANGE"
    ~context:[ ("field", field); ("level", string_of_int level); ("value", string_of_int v) ]
    "%s %d at level %d does not fit int32" field v level

let check_dims fmt dims =
  Array.iteri
    (fun m d ->
      if not (Ivec.fits d) then
        range_error ~field:"dimension" ~level:(Format.level_of_mode fmt m) d)
    dims

type t = {
  dims : int array;
  format : Format.t;
  levels : level_data array;
  vals : float array;
}

let dims t = Array.copy t.dims

let order t = Array.length t.dims

let format t = t.format

let level_data t l =
  if l < 0 || l >= order t then invalid_arg "Tensor.level_data";
  t.levels.(l)

let vals t = t.vals

let stored t = Array.length t.vals

let validate t =
  let ( let* ) r f = Result.bind r f in
  let n = order t in
  let* () =
    if Array.length t.levels <> n then Error "level count differs from order" else Ok ()
  in
  let rec check l parent_positions =
    if l = n then
      if Array.length t.vals <> parent_positions then
        Error
          (Printf.sprintf "vals has %d entries, expected %d" (Array.length t.vals)
             parent_positions)
      else Ok ()
    else
      let dim = t.dims.(Format.mode_of_level t.format l) in
      match t.levels.(l) with
      | Dense_data { size } ->
          if size <> dim then Error (Printf.sprintf "dense level %d size mismatch" l)
          else check (l + 1) (parent_positions * size)
      | Compressed_data { pos; crd } ->
          if ilen pos <> parent_positions + 1 then
            Error (Printf.sprintf "level %d pos has wrong length" l)
          else if pos.%(0) <> 0 then Error (Printf.sprintf "level %d pos.(0) <> 0" l)
          else begin
            (* Monotone first: then pos.(parent_positions) bounds every
               position, and one length test covers every crd read. *)
            let ok = ref (Ok ()) in
            for p = parent_positions - 1 downto 0 do
              if pos.%(p) > pos.%(p + 1) then
                ok := Error (Printf.sprintf "level %d pos not monotone at %d" l p)
            done;
            let* () = !ok in
            let* () =
              if ilen crd < pos.%(parent_positions) then
                Error (Printf.sprintf "level %d crd too short" l)
              else Ok ()
            in
            for p = 0 to parent_positions - 1 do
              for k = pos.%(p) to pos.%(p + 1) - 1 do
                if crd.%(k) < 0 || crd.%(k) >= dim then
                  ok := Error (Printf.sprintf "level %d crd out of bounds at %d" l k);
                if k > pos.%(p) && crd.%(k - 1) >= crd.%(k) then
                  ok := Error (Printf.sprintf "level %d crd not strictly sorted at %d" l k)
              done
            done;
            let* () = !ok in
            check (l + 1) pos.%(parent_positions)
          end
  in
  check 0 1

let of_parts ~dims ~format ~levels ~vals =
  if Array.length dims = Format.order format then check_dims format dims;
  let t = { dims = Array.copy dims; format; levels; vals } in
  match validate t with Ok () -> t | Error msg -> invalid_arg ("Tensor.of_parts: " ^ msg)

let pack coo fmt =
  let n_modes = Coo.order coo in
  if Format.order fmt <> n_modes then invalid_arg "Tensor.pack: format order mismatch";
  let dims = Coo.dims coo in
  check_dims fmt dims;
  let perm = Array.of_list (Format.mode_order fmt) in
  let coords, in_vals = Coo.sorted_unique ~perm coo in
  let n = Array.length in_vals in
  (* Segments: ranges of [coords] rows per position at the current level.
     Represented as flat (lo, hi) pairs. *)
  let seg_lo = ref (Dyn.Int.create ()) and seg_hi = ref (Dyn.Int.create ()) in
  Dyn.Int.push !seg_lo 0;
  Dyn.Int.push !seg_hi n;
  let levels = Array.make n_modes (Dense_data { size = 0 }) in
  for l = 0 to n_modes - 1 do
    let mode = perm.(l) in
    let dim = dims.(mode) in
    let coord_at k = coords.(k).(mode) in
    let next_lo = Dyn.Int.create () and next_hi = Dyn.Int.create () in
    (match Format.level fmt l with
    | Level.Dense ->
        levels.(l) <- Dense_data { size = dim };
        for s = 0 to Dyn.Int.length !seg_lo - 1 do
          let lo = Dyn.Int.get !seg_lo s and hi = Dyn.Int.get !seg_hi s in
          let p = ref lo in
          for v = 0 to dim - 1 do
            let start = !p in
            while !p < hi && coord_at !p = v do
              incr p
            done;
            Dyn.Int.push next_lo start;
            Dyn.Int.push next_hi !p
          done
        done
    | Level.Compressed ->
        let pos = Dyn.Int.create () and crd = Dyn.Int.create () in
        Dyn.Int.push pos 0;
        for s = 0 to Dyn.Int.length !seg_lo - 1 do
          let lo = Dyn.Int.get !seg_lo s and hi = Dyn.Int.get !seg_hi s in
          let p = ref lo in
          while !p < hi do
            let v = coord_at !p in
            let start = !p in
            while !p < hi && coord_at !p = v do
              incr p
            done;
            Dyn.Int.push crd v;
            Dyn.Int.push next_lo start;
            Dyn.Int.push next_hi !p
          done;
          Dyn.Int.push pos (Dyn.Int.length crd)
        done;
        if not (Ivec.fits (Dyn.Int.length crd)) then
          range_error ~field:"pos" ~level:l (Dyn.Int.length crd);
        levels.(l) <- Compressed_data { pos = Dyn.Int.to_ivec pos; crd = Dyn.Int.to_ivec crd });
    seg_lo := next_lo;
    seg_hi := next_hi
  done;
  let n_out = Dyn.Int.length !seg_lo in
  let out_vals = Array.make n_out 0. in
  for s = 0 to n_out - 1 do
    let lo = Dyn.Int.get !seg_lo s and hi = Dyn.Int.get !seg_hi s in
    let acc = ref 0. in
    for k = lo to hi - 1 do
      acc := !acc +. in_vals.(k)
    done;
    out_vals.(s) <- !acc
  done;
  { dims; format = fmt; levels; vals = out_vals }

let of_dense d fmt = pack (Coo.of_dense d) fmt

(* All-dense formats skip [pack]: every level is [Dense_data] and the
   values are one zeroed block, exactly what packing an empty COO
   yields (including its rejection of non-positive dims). *)
let zero dims fmt =
  if not (Format.is_all_dense fmt) then pack (Coo.create dims) fmt
  else begin
    if Array.exists (fun d -> d <= 0) dims then invalid_arg "Tensor.zero: non-positive dim";
    if Format.order fmt <> Array.length dims then
      invalid_arg "Tensor.zero: format order mismatch";
    let dims = Array.copy dims in
    {
      dims;
      format = fmt;
      levels =
        Array.init (Array.length dims) (fun l ->
            Dense_data { size = dims.(Format.mode_of_level fmt l) });
      vals = Array.make (Array.fold_left ( * ) 1 dims) 0.;
    }
  end

let of_csr ~rows ~cols pos crd vals =
  of_parts ~dims:[| rows; cols |] ~format:Format.csr
    ~levels:[| Dense_data { size = rows }; Compressed_data { pos; crd } |]
    ~vals

let get t coord =
  if Array.length coord <> order t then invalid_arg "Tensor.get: rank mismatch";
  let n = order t in
  let rec walk l pos =
    if l = n then t.vals.(pos)
    else
      let c = coord.(Format.mode_of_level t.format l) in
      match t.levels.(l) with
      | Dense_data { size } ->
          if c < 0 || c >= size then invalid_arg "Tensor.get: out of bounds";
          walk (l + 1) ((pos * size) + c)
      | Compressed_data { pos = pa; crd } -> (
          match Util.binary_search crd pa.%(pos) pa.%(pos + 1) c with
          | Some k -> walk (l + 1) k
          | None -> 0.)
  in
  walk 0 0

let iteri_stored f t =
  let n = order t in
  let coord = Array.make n 0 in
  let rec walk l pos =
    if l = n then f coord t.vals.(pos)
    else
      let mode = Format.mode_of_level t.format l in
      match t.levels.(l) with
      | Dense_data { size } ->
          for c = 0 to size - 1 do
            coord.(mode) <- c;
            walk (l + 1) ((pos * size) + c)
          done
      | Compressed_data { pos = pa; crd } ->
          for k = pa.%(pos) to pa.%(pos + 1) - 1 do
            coord.(mode) <- crd.%(k);
            walk (l + 1) k
          done
  in
  walk 0 0

let nnz t =
  let count = ref 0 in
  Array.iter (fun v -> if v <> 0. then incr count) t.vals;
  !count

let to_dense t =
  let d = Dense.create t.dims in
  iteri_stored (fun coord v -> Dense.set d coord v) t;
  d

let csr_arrays t =
  if not (Format.equal t.format Format.csr) then
    invalid_arg "Tensor.csr_arrays: tensor is not CSR";
  match t.levels with
  | [| Dense_data _; Compressed_data { pos; crd } |] -> (pos, crd, t.vals)
  | _ -> invalid_arg "Tensor.csr_arrays: malformed CSR"

let repack t fmt =
  let coo = Coo.create t.dims in
  iteri_stored (fun coord v -> if v <> 0. then Coo.push coo coord v) t;
  pack coo fmt

let split_rows t ~parts =
  if parts <= 0 then invalid_arg "Tensor.split_rows: parts must be positive";
  let mode0 = Format.mode_of_level t.format 0 in
  let dim0 = t.dims.(mode0) in
  (* Balance by cumulative nonzero count along the level-0 coordinate. *)
  let counts = Array.make dim0 0 in
  iteri_stored (fun c v -> if v <> 0. then counts.(c.(mode0)) <- counts.(c.(mode0)) + 1) t;
  let total = Array.fold_left ( + ) 0 counts in
  let boundaries = Array.make (parts + 1) dim0 in
  boundaries.(0) <- 0;
  let acc = ref 0 and next = ref 1 in
  for r = 0 to dim0 - 1 do
    acc := !acc + counts.(r);
    while !next < parts && !acc * parts >= total * !next do
      boundaries.(!next) <- r + 1;
      incr next
    done
  done;
  for p = !next to parts - 1 do
    boundaries.(p) <- dim0
  done;
  let part_of = Array.make dim0 (parts - 1) in
  for p = 0 to parts - 1 do
    for r = boundaries.(p) to boundaries.(p + 1) - 1 do
      part_of.(r) <- p
    done
  done;
  let coos = Array.init parts (fun _ -> Coo.create t.dims) in
  iteri_stored
    (fun c v -> if v <> 0. then Coo.push coos.(part_of.(c.(mode0))) (Array.copy c) v)
    t;
  Array.to_list (Array.map (fun coo -> pack coo t.format) coos)

let equal ?(eps = 1e-9) a b =
  a.dims = b.dims && Dense.equal ~eps (to_dense a) (to_dense b)

let pp fmt t =
  Stdlib.Format.fprintf fmt "tensor[%s] %s (%d stored, %d nonzero)"
    (Util.string_of_list string_of_int "x" (Array.to_list t.dims))
    (Format.to_string t.format) (stored t) (nnz t)
