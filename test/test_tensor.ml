module F = Taco_tensor.Format
module L = Taco_tensor.Level
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module Coo = Taco_tensor.Coo
module Gen = Taco_tensor.Gen
module Suite = Taco_tensor.Suite
module Prng = Taco_support.Prng

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
  Alcotest.(check (array int)) "pos" [| 0; 2; 3 |] pos;
  Alcotest.(check (array int)) "crd" [| 1; 3; 2 |] crd;
  Alcotest.(check (array (float 0.))) "vals" [| 10.; 20.; 30. |] vals

let test_of_csr_validates () =
  Alcotest.(check bool) "invalid pos rejected" true
    (match T.of_csr ~rows:2 ~cols:2 [| 0; 2; 1 |] [| 0; 1 |] [| 1.; 2. |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unsorted crd rejected" true
    (match T.of_csr ~rows:1 ~cols:3 [| 0; 2 |] [| 2; 1 |] [| 1.; 2. |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

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
  let same a b =
    T.dims a = T.dims b
    && F.equal (T.format a) (T.format b)
    && List.for_all (fun l -> T.level_data a l = T.level_data b l) (List.init (T.order a) Fun.id)
    && Array.map Int64.bits_of_float (T.vals a) = Array.map Int64.bits_of_float (T.vals b)
  in
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
          Alcotest.test_case "overflowing dims" `Quick test_gen_overflow_dims;
          Alcotest.test_case "table I entries" `Quick test_suite_matrices;
          Alcotest.test_case "table I generation" `Quick test_suite_generate;
          Alcotest.test_case "frostt stand-ins" `Quick test_suite_tensor_standins;
        ] );
    ]
