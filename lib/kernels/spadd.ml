open Build
open Taco_lower
module TV = Taco_ir.Var.Tensor_var
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module Dyn = Taco_support.Dyn_array
module Ivec = Taco_support.Ivec

let a_var = TV.make "A" ~order:2 ~format:F.csr

let b_var = TV.make "B" ~order:2 ~format:F.csr

let c_var = TV.make "C" ~order:2 ~format:F.csr

let params =
  [ p_int "A1_dimension"; p_int "A2_dimension" ] @ csr_params "B" @ csr_params "C"

let b_end = idx "B2_pos" (v "i" +: i 1)

let c_end = idx "C2_pos" (v "i" +: i 1)

(* Two-way merge of row i; [emit j value] produces the output action. *)
let merge_row emit =
  [
    set "pB2" (idx "B2_pos" (v "i"));
    set "pC2" (idx "C2_pos" (v "i"));
    while_
      ((v "pB2" <: b_end) &&: (v "pC2" <: c_end))
      ([
         decl_int "jB" (idx "B2_crd" (v "pB2"));
         decl_int "jC" (idx "C2_crd" (v "pC2"));
         decl_int "j" (Imp.Binop (Imp.Min, v "jB", v "jC"));
       ]
      @ [
          if_else
            ((v "jB" =: v "j") &&: (v "jC" =: v "j"))
            (emit (v "j") (idx "B_vals" (v "pB2") +: idx "C_vals" (v "pC2")))
            [
              if_else (v "jB" =: v "j")
                (emit (v "j") (idx "B_vals" (v "pB2")))
                (emit (v "j") (idx "C_vals" (v "pC2")));
            ];
          if_ (v "jB" =: v "j") [ incr "pB2" ];
          if_ (v "jC" =: v "j") [ incr "pC2" ];
        ]);
    while_ (v "pB2" <: b_end)
      (decl_int "j" (idx "B2_crd" (v "pB2")) :: emit (v "j") (idx "B_vals" (v "pB2"))
      @ [ incr "pB2" ]);
    while_ (v "pC2" <: c_end)
      (decl_int "j" (idx "C2_crd" (v "pC2")) :: emit (v "j") (idx "C_vals" (v "pC2"))
      @ [ incr "pC2" ]);
  ]

let grow =
  if_
    (v "pA2" >=: v "A2_cap")
    [
      set "A2_cap" (v "A2_cap" *: i 2);
      Imp.Realloc ("A2_crd", v "A2_cap");
      Imp.Realloc ("A_vals", v "A2_cap");
    ]

(* Single-pass merge with geometric growth (Eigen-style). *)
let eigen_like =
  let emit j value =
    [ grow; store "A2_crd" (v "pA2") j; store "A_vals" (v "pA2") value; incr "pA2" ]
  in
  let body =
    [
      Imp.Alloc (Imp.Int, "A2_pos", v "A1_dimension" +: i 1);
      store "A2_pos" (i 0) (i 0);
      decl_int "A2_cap" (i 1024);
      Imp.Alloc (Imp.Int, "A2_crd", v "A2_cap");
      Imp.Alloc (Imp.Float, "A_vals", v "A2_cap");
      decl_int "pA2" (i 0);
      decl_int "pB2" (i 0);
      decl_int "pC2" (i 0);
      for_ "i" (i 0) (v "A1_dimension")
        (merge_row emit @ [ store "A2_pos" (v "i" +: i 1) (v "pA2") ]);
    ]
  in
  info
    ~mode:(Lower.Assemble { emit_values = true; sorted = true })
    ~result:a_var ~inputs:[ b_var; c_var ]
    { Imp.k_name = "spadd_eigen_like"; k_params = params; k_body = body }

(* Two-pass inspector-executor (MKL-style): a symbolic merge counts each
   row, then a numeric merge fills exactly-sized arrays. *)
let mkl_like =
  let count _j _value = [ incr "row_nnz" ] in
  let emit j value =
    [ store "A2_crd" (v "pA2") j; store "A_vals" (v "pA2") value; incr "pA2" ]
  in
  let body =
    [
      Imp.Alloc (Imp.Int, "A2_pos", v "A1_dimension" +: i 1);
      store "A2_pos" (i 0) (i 0);
      decl_int "pB2" (i 0);
      decl_int "pC2" (i 0);
      decl_int "row_nnz" (i 0);
      for_ "i" (i 0) (v "A1_dimension")
        ([ set "row_nnz" (i 0) ]
        @ merge_row count
        @ [ store "A2_pos" (v "i" +: i 1) (idx "A2_pos" (v "i") +: v "row_nnz") ]);
      Imp.Alloc (Imp.Int, "A2_crd", idx "A2_pos" (v "A1_dimension") +: i 1);
      Imp.Alloc (Imp.Float, "A_vals", idx "A2_pos" (v "A1_dimension") +: i 1);
      decl_int "pA2" (i 0);
      for_ "i" (i 0) (v "A1_dimension") (merge_row emit);
    ]
  in
  info
    ~mode:(Lower.Assemble { emit_values = true; sorted = true })
    ~result:a_var ~inputs:[ b_var; c_var ]
    { Imp.k_name = "spadd_mkl_like"; k_params = params; k_body = body }

(* Plain OCaml sorted merge: the oracle used by the tests. *)
let merge_add b c =
  let bdims = T.dims b and cdims = T.dims c in
  if bdims <> cdims then invalid_arg "Spadd.merge_add: shape mismatch";
  let m = bdims.(0) and n = bdims.(1) in
  let b_pos, b_crd, b_vals = T.csr_arrays b in
  let c_pos, c_crd, c_vals = T.csr_arrays c in
  let pos = Ivec.create (m + 1) in
  let crd = Dyn.Int.create () in
  let vals = Dyn.Float.create () in
  for row = 0 to m - 1 do
    let pb = ref (Ivec.get b_pos row) and pc = ref (Ivec.get c_pos row) in
    let push j x =
      Dyn.Int.push crd j;
      Dyn.Float.push vals x
    in
    while !pb < Ivec.get b_pos (row + 1) && !pc < Ivec.get c_pos (row + 1) do
      let jb = Ivec.get b_crd !pb and jc = Ivec.get c_crd !pc in
      if jb = jc then begin
        push jb (b_vals.(!pb) +. c_vals.(!pc));
        Stdlib.incr pb;
        Stdlib.incr pc
      end
      else if jb < jc then begin
        push jb b_vals.(!pb);
        Stdlib.incr pb
      end
      else begin
        push jc c_vals.(!pc);
        Stdlib.incr pc
      end
    done;
    while !pb < Ivec.get b_pos (row + 1) do
      push (Ivec.get b_crd !pb) b_vals.(!pb);
      Stdlib.incr pb
    done;
    while !pc < Ivec.get c_pos (row + 1) do
      push (Ivec.get c_crd !pc) c_vals.(!pc);
      Stdlib.incr pc
    done;
    Ivec.set pos (row + 1) (Dyn.Int.length crd)
  done;
  T.of_csr ~rows:m ~cols:n pos (Dyn.Int.to_ivec crd) (Dyn.Float.to_array vals)
