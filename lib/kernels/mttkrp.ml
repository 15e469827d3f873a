open Build
open Taco_lower
module TV = Taco_ir.Var.Tensor_var
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense

let a_var = TV.make "A" ~order:2 ~format:F.dense_matrix

let b_var = TV.make "B" ~order:3 ~format:(F.csf 3)

let c_var = TV.make "C" ~order:2 ~format:F.dense_matrix

let d_var = TV.make "D" ~order:2 ~format:F.dense_matrix

let params =
  [
    p_int "A1_dimension";
    p_int "A2_dimension";
    p_farr ~output:true "A_vals";
    p_int "B1_dimension";
    p_iarr "B1_pos";
    p_iarr "B1_crd";
    p_int "B2_dimension";
    p_iarr "B2_pos";
    p_iarr "B2_crd";
    p_int "B3_dimension";
    p_iarr "B3_pos";
    p_iarr "B3_crd";
    p_farr "B_vals";
    p_int "C1_dimension";
    p_int "C2_dimension";
    p_farr "C_vals";
    p_int "D1_dimension";
    p_int "D2_dimension";
    p_farr "D_vals";
  ]

(* SPLATT-style: accumulate the fiber's B·C partial products into a row
   workspace, then multiply by D once per (i,k) — the structure of the
   paper's Fig. 9. *)
let splatt_like =
  let body =
    [
      Imp.Memset ("A_vals", v "A1_dimension" *: v "A2_dimension");
      Imp.Alloc (Imp.Float, "w_vals", v "A2_dimension");
      for_ "pB1" (idx "B1_pos" (i 0)) (idx "B1_pos" (i 1))
        [
          decl_int "i" (idx "B1_crd" (v "pB1"));
          decl_int "pA2_base" (v "i" *: v "A2_dimension");
          for_ "pB2" (idx "B2_pos" (v "pB1")) (idx "B2_pos" (v "pB1" +: i 1))
            [
              decl_int "k" (idx "B2_crd" (v "pB2"));
              decl_int "pD2_base" (v "k" *: v "D2_dimension");
              for_ "pB3" (idx "B3_pos" (v "pB2")) (idx "B3_pos" (v "pB2" +: i 1))
                [
                  decl_int "l" (idx "B3_crd" (v "pB3"));
                  Imp.Decl (Imp.Float, "B_val", idx "B_vals" (v "pB3"));
                  decl_int "pC2_base" (v "l" *: v "C2_dimension");
                  for_ "j" (i 0) (v "A2_dimension")
                    [
                      store_add "w_vals" (v "j")
                        (v "B_val" *: idx "C_vals" (v "pC2_base" +: v "j"));
                    ];
                ];
              for_ "j" (i 0) (v "A2_dimension")
                [
                  store_add "A_vals" (v "pA2_base" +: v "j")
                    (idx "w_vals" (v "j") *: idx "D_vals" (v "pD2_base" +: v "j"));
                  store "w_vals" (v "j") (f 0.);
                ];
            ];
        ];
    ]
  in
  info ~mode:Lower.Compute ~result:a_var ~inputs:[ b_var; c_var; d_var ]
    { Imp.k_name = "mttkrp_splatt_like"; k_params = params; k_body = body }

let reference b c d =
  let dims = T.dims b in
  let jdim = (D.dims c).(1) in
  if (D.dims c).(0) <> dims.(2) || (D.dims d).(0) <> dims.(1) || (D.dims d).(1) <> jdim
  then invalid_arg "Mttkrp.reference: shape mismatch";
  let a = D.create [| dims.(0); jdim |] in
  T.iteri_stored
    (fun coord value ->
      if value <> 0. then begin
        let bi = coord.(0) and bk = coord.(1) and bl = coord.(2) in
        for j = 0 to jdim - 1 do
          D.add_at a [| bi; j |] (value *. D.get c [| bl; j |] *. D.get d [| bk; j |])
        done
      end)
    b;
  a
