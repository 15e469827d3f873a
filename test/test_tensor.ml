module F = Taco_tensor.Format
module L = Taco_tensor.Level
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module Coo = Taco_tensor.Coo
module Gen = Taco_tensor.Gen
module Suite = Taco_tensor.Suite
module Prng = Taco_support.Prng
module Ivec = Taco_support.Ivec

let check_dense = Helpers.check_dense

(* ------------------------------------------------------------------ *)
(* Dense                                                               *)
(* ------------------------------------------------------------------ *)

let test_dense_get_set () =
  let d = D.create [| 2; 3 |] in
  D.set d [| 1; 2 |] 5.;
  D.add_at d [| 1; 2 |] 1.5;
  Alcotest.(check (float 0.)) "get" 6.5 (D.get d [| 1; 2 |]);
  Alcotest.(check (float 0.)) "other cells zero" 0. (D.get d [| 0; 0 |]);
  Alcotest.(check int) "nnz" 1 (D.nnz d);
  Alcotest.(check int) "size" 6 (D.size d)

let test_dense_row_major () =
  let d = D.init [| 2; 3 |] (fun c -> float_of_int ((c.(0) * 3) + c.(1))) in
  Alcotest.(check (array (float 0.))) "row-major layout"
    [| 0.; 1.; 2.; 3.; 4.; 5. |] (D.buffer d)

let test_dense_bounds () =
  let d = D.create [| 2; 2 |] in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Dense.offset: out of bounds")
    (fun () -> ignore (D.get d [| 2; 0 |]));
  Alcotest.check_raises "rank mismatch" (Invalid_argument "Dense.offset: rank mismatch")
    (fun () -> ignore (D.get d [| 0 |]))

let test_dense_scalar () =
  let d = D.create [||] in
  Alcotest.(check int) "scalar size" 1 (D.size d);
  D.set d [||] 3.;
  Alcotest.(check (float 0.)) "scalar get" 3. (D.get d [||])

let test_dense_map2 () =
  let a = D.init [| 2; 2 |] (fun c -> float_of_int c.(0)) in
  let b = D.init [| 2; 2 |] (fun c -> float_of_int c.(1)) in
  let s = D.map2 ( +. ) a b in
  Alcotest.(check (float 0.)) "sum at (1,1)" 2. (D.get s [| 1; 1 |])

(* ------------------------------------------------------------------ *)
(* Formats                                                             *)
(* ------------------------------------------------------------------ *)

let test_format_accessors () =
  Alcotest.(check int) "csr order" 2 (F.order F.csr);
  Alcotest.(check bool) "csr level 0 dense" true (L.equal (F.level F.csr 0) L.Dense);
  Alcotest.(check bool) "csr level 1 compressed" true
    (L.equal (F.level F.csr 1) L.Compressed);
  Alcotest.(check int) "csc stores columns first" 1 (F.mode_of_level F.csc 0);
  Alcotest.(check int) "csc level of mode 0" 1 (F.level_of_mode F.csc 0);
  Alcotest.(check bool) "dense_matrix all dense" true (F.is_all_dense F.dense_matrix);
  Alcotest.(check bool) "csf all compressed" true (F.is_all_compressed (F.csf 3))

let test_format_invalid () =
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Format.make: mode_order is not a permutation") (fun () ->
      ignore (F.make [ L.Dense; L.Dense ] ~mode_order:[ 0; 0 ]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Format.make: levels and mode_order lengths differ") (fun () ->
      ignore (F.make [ L.Dense ] ~mode_order:[ 0; 1 ]))

(* ------------------------------------------------------------------ *)
(* COO                                                                 *)
(* ------------------------------------------------------------------ *)

let test_coo_duplicates_sum () =
  let c = Coo.create [| 3; 3 |] in
  Coo.push c [| 1; 2 |] 1.5;
  Coo.push c [| 1; 2 |] 2.5;
  Coo.push c [| 0; 0 |] 1.;
  let coords, vals = Coo.sorted_unique ~perm:[| 0; 1 |] c in
  Alcotest.(check int) "two unique entries" 2 (Array.length vals);
  Alcotest.(check (array int)) "first coordinate" [| 0; 0 |] coords.(0);
  Alcotest.(check (float 0.)) "summed value" 4. vals.(1)

let test_coo_permuted_sort () =
  let c = Coo.create [| 2; 2 |] in
  Coo.push c [| 0; 1 |] 1.;
  Coo.push c [| 1; 0 |] 2.;
  (* Column-major permutation sorts by column first. *)
  let coords, _ = Coo.sorted_unique ~perm:[| 1; 0 |] c in
  Alcotest.(check (array int)) "column 0 first" [| 1; 0 |] coords.(0)

let test_coo_bounds () =
  let c = Coo.create [| 2; 2 |] in
  Alcotest.check_raises "coordinate out of bounds"
    (Invalid_argument "Coo.push: coordinate out of bounds") (fun () ->
      Coo.push c [| 0; 5 |] 1.)

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

let all_formats_2d =
  [
    ("csr", F.csr);
    ("csc", F.csc);
    ("dcsr", F.dcsr);
    ("dense", F.dense_matrix);
    ("dense_then_dense_swapped", F.make [ L.Dense; L.Dense ] ~mode_order:[ 1; 0 ]);
    ("compressed_dense", F.of_levels [ L.Compressed; L.Dense ]);
  ]

let test_pack_roundtrip_formats () =
  let d =
    D.init [| 4; 5 |] (fun c ->
        if (c.(0) + (2 * c.(1))) mod 3 = 0 then float_of_int ((c.(0) * 5) + c.(1) + 1)
        else 0.)
  in
  List.iter
    (fun (name, fmt) ->
      let t = T.of_dense d fmt in
      Helpers.get (T.validate t) |> ignore;
      check_dense (name ^ " roundtrip") d (T.to_dense t))
    all_formats_2d

let test_pack_get () =
  let prng = Prng.create 3 in
  let coo = Gen.random_coo prng ~dims:[| 6; 7 |] ~nnz:15 in
  let reference = Coo.to_dense coo in
  List.iter
    (fun (name, fmt) ->
      let t = T.pack coo fmt in
      D.iteri
        (fun coord expected ->
          if T.get t (Array.copy coord) <> expected then
            Alcotest.fail (Printf.sprintf "%s: get mismatch" name))
        reference)
    all_formats_2d

let test_pack_empty () =
  let t = T.zero [| 3; 4 |] F.csr in
  Alcotest.(check int) "no nonzeros" 0 (T.nnz t);
  check_dense "empty tensor" (D.create [| 3; 4 |]) (T.to_dense t)

let test_pack_csf_3d () =
  let prng = Prng.create 4 in
  let coo = Gen.random_coo prng ~dims:[| 3; 4; 5 |] ~nnz:10 in
  let t = T.pack coo (F.csf 3) in
  Helpers.get (T.validate t) |> ignore;
  check_dense "csf roundtrip" (Coo.to_dense coo) (T.to_dense t);
  Alcotest.(check int) "stored equals nnz for csf" 10 (T.stored t)

let test_csr_arrays () =
  let coo = Coo.create [| 2; 4 |] in
  Coo.push coo [| 0; 1 |] 10.;
  Coo.push coo [| 0; 3 |] 20.;
  Coo.push coo [| 1; 2 |] 30.;
  let t = T.pack coo F.csr in
  let pos, crd, vals = T.csr_arrays t in
  Alcotest.(check (array int)) "pos" [| 0; 2; 3 |] (Ivec.to_array pos);
  Alcotest.(check (array int)) "crd" [| 1; 3; 2 |] (Ivec.to_array crd);
  Alcotest.(check (array (float 0.))) "vals" [| 10.; 20.; 30. |] vals

let test_of_csr_validates () =
  Alcotest.(check bool) "invalid pos rejected" true
    (match T.of_csr ~rows:2 ~cols:2 (Ivec.of_array [| 0; 2; 1 |]) (Ivec.of_array [| 0; 1 |]) [| 1.; 2. |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unsorted crd rejected" true
    (match T.of_csr ~rows:1 ~cols:3 (Ivec.of_array [| 0; 2 |]) (Ivec.of_array [| 2; 1 |]) [| 1.; 2. |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A dimension past Int32.max_int has no int32 index array: pack and
   of_parts refuse it with a diagnostic naming the field and level. *)
let test_int32_dims () =
  let big = Int32.to_int Int32.max_int + 1 in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Taco_support.Diag.Error d ->
        Alcotest.(check (list (option string)))
          (what ^ ": code, field, level")
          [ Some "E_TENSOR_RANGE"; Some "dimension"; Some "1" ]
          (Some d.Taco_support.Diag.code
          :: List.map (fun k -> List.assoc_opt k d.Taco_support.Diag.context) [ "field"; "level" ])
  in
  refused "pack" (fun () -> T.pack (Coo.create [| 2; big |]) F.dcsr);
  refused "of_parts" (fun () ->
      T.of_parts ~dims:[| 1; big |] ~format:F.dense_matrix
        ~levels:[| T.Dense_data { size = 1 }; T.Dense_data { size = big } |]
        ~vals:[||]);
  let at_max = T.pack (Coo.create [| 2; Int32.to_int Int32.max_int |]) F.dcsr in
  Alcotest.(check bool) "Int32.max_int packs" true (T.validate at_max = Ok ())

(* A dims array whose length is not the format's order is a named
   of_parts error, not a tensor with too few levels or an exception from
   deep inside the level walk. *)
let test_of_parts_arity () =
  Alcotest.check_raises "one dim for CSR"
    (Invalid_argument "Tensor.of_parts: dims has 1 entries, format order 2") (fun () ->
      ignore
        (T.of_parts ~dims:[| 2 |] ~format:F.csr ~levels:[| T.Dense_data { size = 2 } |]
           ~vals:[| 1.; 2. |]));
  Alcotest.check_raises "three dims for CSR"
    (Invalid_argument "Tensor.of_parts: dims has 3 entries, format order 2") (fun () ->
      ignore
        (T.of_parts ~dims:[| 2; 2; 2 |] ~format:F.csr
           ~levels:
             [|
               T.Dense_data { size = 2 };
               T.Compressed_data { pos = Ivec.of_array [| 0; 0; 0 |]; crd = Ivec.empty };
               T.Dense_data { size = 2 };
             |]
           ~vals:[||]))

(* The reference for [Tensor.validate]'s verdicts and messages: a plain
   scan that checks every coordinate against its bounds and its
   predecessor without stopping, so it names the last crd violation in
   forward order, and at one k "not strictly sorted" wins over "out of
   bounds". *)
let reference_validate ~dims ~format ~levels ~vals =
  let ( .%() ) = Ivec.get in
  let ( let* ) r f = Result.bind r f in
  let n = Array.length dims in
  let* () =
    if Array.length levels <> n then Error "level count differs from order" else Ok ()
  in
  let rec check l parent_positions =
    if l = n then
      if Array.length vals <> parent_positions then
        Error
          (Printf.sprintf "vals has %d entries, expected %d" (Array.length vals)
             parent_positions)
      else Ok ()
    else
      let dim = dims.(F.mode_of_level format l) in
      match levels.(l) with
      | T.Dense_data { size } ->
          if size <> dim then Error (Printf.sprintf "dense level %d size mismatch" l)
          else check (l + 1) (parent_positions * size)
      | T.Compressed_data { pos; crd } ->
          if Ivec.length pos <> parent_positions + 1 then
            Error (Printf.sprintf "level %d pos has wrong length" l)
          else if pos.%(0) <> 0 then Error (Printf.sprintf "level %d pos.(0) <> 0" l)
          else begin
            let ok = ref (Ok ()) in
            for p = parent_positions - 1 downto 0 do
              if pos.%(p) > pos.%(p + 1) then
                ok := Error (Printf.sprintf "level %d pos not monotone at %d" l p)
            done;
            let* () = !ok in
            let* () =
              if Ivec.length crd < pos.%(parent_positions) then
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

(* Damage one compressed level of [levels] in place (the Ivecs are
   copies): a coordinate swapped, duplicated, negative, at dim - 1, at
   dim or anywhere near the range; a pos entry moved; crd cut short;
   pos.(0) made nonzero. *)
let mutate prng ~dims ~format levels =
  let compressed =
    List.filter
      (fun l -> match levels.(l) with T.Compressed_data _ -> true | T.Dense_data _ -> false)
      (List.init (Array.length levels) Fun.id)
  in
  let l = List.nth compressed (Prng.int prng (List.length compressed)) in
  let dim = dims.(F.mode_of_level format l) in
  match levels.(l) with
  | T.Dense_data _ -> assert false
  | T.Compressed_data { pos; crd } -> (
      let nc = Ivec.length crd and np = Ivec.length pos in
      let some_k () = Prng.int prng nc in
      match Prng.int prng 9 with
      | 0 when nc >= 2 ->
          let k = Prng.int prng (nc - 1) in
          let c = Ivec.get crd k in
          Ivec.set crd k (Ivec.get crd (k + 1));
          Ivec.set crd (k + 1) c
      | 1 when nc >= 2 ->
          let k = 1 + Prng.int prng (nc - 1) in
          Ivec.set crd k (Ivec.get crd (k - 1))
      | 2 when nc > 0 -> Ivec.set crd (some_k ()) (-1 - Prng.int prng 3)
      | 3 when nc > 0 -> Ivec.set crd (some_k ()) (dim - 1)
      | 4 when nc > 0 -> Ivec.set crd (some_k ()) dim
      | 5 when np >= 2 -> Ivec.set pos (1 + Prng.int prng (np - 1)) (Prng.int prng (nc + 2))
      | 6 when nc > 0 -> levels.(l) <- T.Compressed_data { pos; crd = Ivec.sub crd 0 (nc - 1) }
      | 7 -> Ivec.set pos 0 (1 + Prng.int prng 2)
      | _ when nc > 0 -> Ivec.set crd (some_k ()) (Prng.int prng (dim + 4) - 2)
      | _ -> ())

(* The one-pass validate must give exactly the reference's verdict and
   message on seeded mutants of CSR, DCSR and CSF level data: small
   shapes with empty segments, nnz = 0, and up to four violations per
   mutant, in one segment or across several. *)
let test_validate_diagnostics () =
  let prng = Prng.create 2718 in
  let formats = [| ("csr", F.csr, 2); ("dcsr", F.dcsr, 2); ("csf", F.csf 3, 3) |] in
  let seen = Hashtbl.create 8 in
  let kind msg =
    List.find_opt (Helpers.contains msg)
      [
        "crd out of bounds"; "crd not strictly sorted"; "pos not monotone"; "crd too short";
        "pos.(0) <> 0"; "vals has"; "pos has wrong length";
      ]
  in
  for i = 1 to 3000 do
    let name, format, order = formats.(i mod Array.length formats) in
    let dims = Array.init order (fun _ -> 1 + Prng.int prng 7) in
    let size = Array.fold_left ( * ) 1 dims in
    let nnz = if Prng.int prng 8 = 0 then 0 else Prng.int prng (size + 1) in
    let t = T.pack (Gen.random_coo prng ~dims ~nnz) format in
    let levels =
      Array.init order (fun l ->
          match T.level_data t l with
          | T.Dense_data _ as d -> d
          | T.Compressed_data { pos; crd } ->
              T.Compressed_data
                { pos = Ivec.sub pos 0 (Ivec.length pos); crd = Ivec.sub crd 0 (Ivec.length crd) })
    in
    for _ = 1 to Prng.int prng 5 do
      mutate prng ~dims ~format levels
    done;
    let vals = T.vals t in
    let expected = reference_validate ~dims ~format ~levels ~vals in
    let prefix = "Tensor.of_parts: " in
    let got =
      match T.of_parts ~dims ~format ~levels ~vals with
      | (_ : T.t) -> Ok ()
      | exception Invalid_argument m when String.starts_with ~prefix m ->
          let n = String.length prefix in
          Error (String.sub m n (String.length m - n))
    in
    if got <> expected then
      Alcotest.failf "%s mutant %d: validate gave %s, reference %s" name i
        (match got with Ok () -> "Ok" | Error e -> e)
        (match expected with Ok () -> "Ok" | Error e -> e);
    Hashtbl.replace seen
      (match expected with Ok () -> Some "ok" | Error e -> kind e)
      ()
  done;
  (* Every verdict the mutations aim at was produced. *)
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen (Some k)) then Alcotest.failf "no mutant gave %S" k)
    [ "ok"; "crd out of bounds"; "crd not strictly sorted"; "pos not monotone";
      "crd too short"; "pos.(0) <> 0" ]

let test_repack () =
  let prng = Prng.create 5 in
  let t = Gen.random prng ~dims:[| 5; 5 |] ~nnz:8 F.csr in
  let u = T.repack t F.csc in
  Alcotest.(check bool) "csc format" true (F.equal (T.format u) F.csc);
  check_dense "repack preserves values" (T.to_dense t) (T.to_dense u)

let test_equal () =
  let prng = Prng.create 6 in
  let t = Gen.random prng ~dims:[| 4; 4 |] ~nnz:5 F.csr in
  let u = T.repack t F.dcsr in
  Alcotest.(check bool) "equal across formats" true (T.equal t u)

(* ------------------------------------------------------------------ *)
(* Generators and the Table I suite                                    *)
(* ------------------------------------------------------------------ *)

let test_gen_exact_nnz () =
  let prng = Prng.create 7 in
  let t = Gen.random prng ~dims:[| 30; 40 |] ~nnz:100 F.csr in
  Alcotest.(check int) "stored = requested" 100 (T.stored t)

let test_gen_density () =
  let prng = Prng.create 8 in
  let t = Gen.random_density prng ~dims:[| 50; 50 |] ~density:0.02 F.csr in
  Alcotest.(check int) "density 2% of 2500" 50 (T.stored t)

(* Density 0 (or below) is an empty tensor; a positive density too
   small for one entry keeps the floor of one. *)
let test_gen_density_zero () =
  let prng = Prng.create 10 in
  List.iter
    (fun (density, dims, fmt, want) ->
      let t = Gen.random_density prng ~dims ~density fmt in
      Alcotest.(check int) (Printf.sprintf "density %g, order %d" density (Array.length dims))
        want (T.stored t))
    [
      (0., [| 40; 30 |], F.csr, 0);
      (-0.5, [| 40; 30 |], F.csr, 0);
      (0., [| 6; 5; 4 |], F.csf 3, 0);
      (1e-9, [| 40; 30 |], F.csr, 1);
    ]

let test_gen_overflow_dims () =
  (* Component count overflows 63-bit ints; falls back to rejection. *)
  let prng = Prng.create 9 in
  let coo =
    Gen.random_coo prng ~dims:[| 1 lsl 21; 1 lsl 21; 1 lsl 21 |] ~nnz:50
  in
  Alcotest.(check int) "entries drawn" 50 (Coo.length coo)

let test_suite_matrices () =
  Alcotest.(check int) "11 matrices" 11 (List.length Suite.matrices);
  let pwtk = List.nth Suite.matrices 9 in
  Alcotest.(check string) "pwtk name" "pwtk" pwtk.Suite.name;
  let scaled = Suite.scaled_matrix_entry ~scale:4 pwtk in
  Alcotest.(check int) "scaled rows" (217918 / 4) scaled.Suite.rows;
  Alcotest.(check int) "scaled nnz" (11524432 / 16) scaled.Suite.nnz

let test_suite_generate () =
  let e = List.hd Suite.matrices in
  let t = Suite.generate_matrix ~seed:1 ~scale:32 e in
  Helpers.get (T.validate t) |> ignore;
  let scaled = Suite.scaled_matrix_entry ~scale:32 e in
  Alcotest.(check int) "rows" scaled.Suite.rows (T.dims t).(0);
  let stored = T.stored t in
  (* The band may collide with the uniform fill; within 10%. *)
  if abs (stored - scaled.Suite.nnz) > scaled.Suite.nnz / 10 then
    Alcotest.failf "nnz %d too far from target %d" stored scaled.Suite.nnz

let test_suite_tensor_standins () =
  Alcotest.(check int) "3 tensors" 3 (List.length Suite.tensor_standins);
  let fb = List.hd Suite.tensor_standins in
  Alcotest.(check string) "facebook full size" "Facebook" fb.Suite.t_name;
  Alcotest.(check int) "facebook nnz published" 737_934 fb.Suite.t_nnz

let prop_pack_roundtrip =
  Helpers.qcheck_case ~count:30 "pack/unpack roundtrip on random matrices"
    QCheck.(pair (0 -- 1000) (0 -- 5))
    (fun (seed, fmt_idx) ->
      let _, fmt = List.nth all_formats_2d fmt_idx in
      let prng = Prng.create seed in
      let nnz = Prng.int prng 20 in
      let coo = Gen.random_coo prng ~dims:[| 6; 8 |] ~nnz in
      let t = T.pack coo fmt in
      T.validate t = Ok () && D.equal ~eps:0. (Coo.to_dense coo) (T.to_dense t))

let prop_get_matches_dense =
  Helpers.qcheck_case ~count:30 "random access agrees with dense"
    QCheck.(0 -- 1000)
    (fun seed ->
      let prng = Prng.create seed in
      let t = Gen.random prng ~dims:[| 5; 5 |] ~nnz:(Prng.int prng 12) F.dcsr in
      let d = T.to_dense t in
      let ok = ref true in
      D.iteri (fun c v -> if T.get t (Array.copy c) <> v then ok := false) d;
      !ok)

(* [zero] builds all-dense formats directly; it must be exactly what
   packing an empty COO yields — dims, levels and value bits — or raise
   where that raises (a zero-size dimension). *)
let test_zero_matches_pack () =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (List.cons x) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  let same a b = F.equal (T.format a) (T.format b) && T.bit_identical a b in
  let outcome f = match f () with t -> Ok t | exception Invalid_argument _ -> Error () in
  let check fmt dims =
    let what =
      Printf.sprintf "%s over [%s]" (F.to_string fmt)
        (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
    in
    match
      (outcome (fun () -> T.zero dims fmt), outcome (fun () -> T.pack (Coo.create dims) fmt))
    with
    | Ok z, Ok p -> if not (same z p) then Alcotest.failf "%s: zero differs from pack" what
    | Error (), Error () -> ()
    | Ok _, Error () | Error (), Ok _ ->
        Alcotest.failf "%s: zero and pack disagree on rejection" what
  in
  let shapes = [| [| 3; 1; 4 |]; [| 2; 0; 5 |]; [| 0; 2; 3 |] |] in
  for order = 1 to 3 do
    List.iter
      (fun mode_order ->
        let fmt = F.make (List.init order (fun _ -> L.Dense)) ~mode_order in
        Array.iter (fun dims -> check fmt (Array.sub dims 0 order)) shapes;
        check fmt (Array.make (order + 1) 2))
      (perms (List.init order Fun.id))
  done;
  (* Non-dense formats still go through pack. *)
  List.iter
    (fun fmt -> check fmt [| 4; 3 |])
    [ F.csr; F.make [ L.Dense; L.Compressed ] ~mode_order:[ 1; 0 ] ]

let () =
  Alcotest.run "tensor"
    [
      ( "dense",
        [
          Alcotest.test_case "get/set/add_at" `Quick test_dense_get_set;
          Alcotest.test_case "row-major layout" `Quick test_dense_row_major;
          Alcotest.test_case "bounds" `Quick test_dense_bounds;
          Alcotest.test_case "order-0 scalar" `Quick test_dense_scalar;
          Alcotest.test_case "map2" `Quick test_dense_map2;
        ] );
      ( "format",
        [
          Alcotest.test_case "accessors" `Quick test_format_accessors;
          Alcotest.test_case "invalid formats" `Quick test_format_invalid;
        ] );
      ( "coo",
        [
          Alcotest.test_case "duplicates summed" `Quick test_coo_duplicates_sum;
          Alcotest.test_case "permuted sort" `Quick test_coo_permuted_sort;
          Alcotest.test_case "bounds" `Quick test_coo_bounds;
        ] );
      ( "pack",
        [
          Alcotest.test_case "roundtrip across formats" `Quick test_pack_roundtrip_formats;
          Alcotest.test_case "random access" `Quick test_pack_get;
          Alcotest.test_case "empty tensor" `Quick test_pack_empty;
          Alcotest.test_case "3d csf" `Quick test_pack_csf_3d;
          Alcotest.test_case "csr arrays" `Quick test_csr_arrays;
          Alcotest.test_case "of_csr validation" `Quick test_of_csr_validates;
          Alcotest.test_case "int32 dimensions" `Quick test_int32_dims;
          Alcotest.test_case "of_parts dims/format arity" `Quick test_of_parts_arity;
          Alcotest.test_case "validate diagnostics match the forward scan" `Quick
            test_validate_diagnostics;
          Alcotest.test_case "repack" `Quick test_repack;
          Alcotest.test_case "logical equality" `Quick test_equal;
          Alcotest.test_case "dense zero equals packed empty" `Quick test_zero_matches_pack;
          prop_pack_roundtrip;
          prop_get_matches_dense;
        ] );
      ( "generators",
        [
          Alcotest.test_case "exact nnz" `Quick test_gen_exact_nnz;
          Alcotest.test_case "density target" `Quick test_gen_density;
          Alcotest.test_case "density zero is empty" `Quick test_gen_density_zero;
          Alcotest.test_case "overflowing dims" `Quick test_gen_overflow_dims;
          Alcotest.test_case "table I entries" `Quick test_suite_matrices;
          Alcotest.test_case "table I generation" `Quick test_suite_generate;
          Alcotest.test_case "frostt stand-ins" `Quick test_suite_tensor_standins;
        ] );
    ]
