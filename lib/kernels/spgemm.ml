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

(* Shared multiply-row phase: scatter row i of B·C into w_vals. *)
let scatter_row ?(track = false) ?(values = true) () =
  let mark =
    if track then
      [
        if_
          (Imp.Not (idx "w_mask" (v "j")))
          [ store "w_mask" (v "j") (Imp.Bool_lit true); store "w_list" (v "w_list_size") (v "j"); incr "w_list_size" ];
      ]
    else [ store "w_mask" (v "j") (Imp.Bool_lit true) ]
  in
  for_ "pB2" (idx "B2_pos" (v "i")) (idx "B2_pos" (v "i" +: i 1))
    ([ decl_int "k" (idx "B2_crd" (v "pB2")) ]
    @ (if values then [ Imp.Decl (Imp.Float, "B_val", idx "B_vals" (v "pB2")) ] else [])
    @ [
        for_ "pC2" (idx "C2_pos" (v "k")) (idx "C2_pos" (v "k" +: i 1))
          ([ decl_int "j" (idx "C2_crd" (v "pC2")) ]
          @ mark
          @
          if values then [ store_add "w_vals" (v "j") (v "B_val" *: idx "C_vals" (v "pC2")) ]
          else []);
      ])

(* Eigen-style: the product is evaluated into an unsorted row-major
   temporary, then converted to the destination through transposition
   (Eigen materializes sparse products in the opposite storage order and
   converts; the two conversion passes are what sorts the coordinates and
   what costs extra relative to the direct Gustavson gather). *)
let eigen_like =
  let grow_tmp =
    if_
      (v "pT2" >=: v "tmp_cap")
      [
        set "tmp_cap" (v "tmp_cap" *: i 2);
        Imp.Realloc ("tmp_crd", v "tmp_cap");
        Imp.Realloc ("tmp_vals", v "tmp_cap");
      ]
  in
  let body =
    [
      (* Pass 1: Gustavson with an unsorted gather into a temporary. *)
      Imp.Alloc (Imp.Int, "tmp_pos", v "A1_dimension" +: i 1);
      store "tmp_pos" (i 0) (i 0);
      decl_int "tmp_cap" (i 1024);
      Imp.Alloc (Imp.Int, "tmp_crd", i 1024);
      Imp.Alloc (Imp.Float, "tmp_vals", i 1024);
      Imp.Alloc (Imp.Float, "w_vals", v "A2_dimension");
      Imp.Alloc (Imp.Bool, "w_mask", v "A2_dimension");
      Imp.Alloc (Imp.Int, "w_list", v "A2_dimension");
      decl_int "w_list_size" (i 0);
      decl_int "pT2" (i 0);
      for_ "i" (i 0) (v "A1_dimension")
        [
          set "w_list_size" (i 0);
          scatter_row ~track:true ();
          for_ "q" (i 0) (v "w_list_size")
            [
              decl_int "j" (idx "w_list" (v "q"));
              grow_tmp;
              store "tmp_crd" (v "pT2") (v "j");
              store "tmp_vals" (v "pT2") (idx "w_vals" (v "j"));
              incr "pT2";
              store "w_vals" (v "j") (f 0.);
              store "w_mask" (v "j") (Imp.Bool_lit false);
            ];
          store "tmp_pos" (v "i" +: i 1) (v "pT2");
        ];
      decl_int "nnz" (idx "tmp_pos" (v "A1_dimension"));
      (* Pass 2: convert to column-major (counting sort by column). *)
      Imp.Alloc (Imp.Int, "col_pos", v "A2_dimension" +: i 1);
      Imp.Alloc (Imp.Int, "col_cur", v "A2_dimension");
      Imp.Alloc (Imp.Int, "cs_row", Imp.add (v "nnz") (i 1));
      Imp.Alloc (Imp.Float, "cs_vals", Imp.add (v "nnz") (i 1));
      for_ "p" (i 0) (v "nnz")
        [ store_add "col_pos" (idx "tmp_crd" (v "p") +: i 1) (i 1) ];
      for_ "jcol" (i 0) (v "A2_dimension")
        [
          store_add "col_pos" (v "jcol" +: i 1) (idx "col_pos" (v "jcol"));
          store "col_cur" (v "jcol") (idx "col_pos" (v "jcol"));
        ];
      for_ "i" (i 0) (v "A1_dimension")
        [
          for_ "p" (idx "tmp_pos" (v "i")) (idx "tmp_pos" (v "i" +: i 1))
            [
              decl_int "jcol" (idx "tmp_crd" (v "p"));
              decl_int "q" (idx "col_cur" (v "jcol"));
              store "cs_row" (v "q") (v "i");
              store "cs_vals" (v "q") (idx "tmp_vals" (v "p"));
              store "col_cur" (v "jcol") (v "q" +: i 1);
            ];
        ];
      (* Pass 3: convert back to row-major; rows come out sorted. *)
      Imp.Alloc (Imp.Int, "A2_pos", v "A1_dimension" +: i 1);
      Imp.Alloc (Imp.Int, "row_cur", v "A1_dimension");
      Imp.Alloc (Imp.Int, "A2_crd", Imp.add (v "nnz") (i 1));
      Imp.Alloc (Imp.Float, "A_vals", Imp.add (v "nnz") (i 1));
      for_ "p" (i 0) (v "nnz") [ store_add "A2_pos" (idx "cs_row" (v "p") +: i 1) (i 1) ];
      for_ "i" (i 0) (v "A1_dimension")
        [
          store_add "A2_pos" (v "i" +: i 1) (idx "A2_pos" (v "i"));
          store "row_cur" (v "i") (idx "A2_pos" (v "i"));
        ];
      for_ "jcol" (i 0) (v "A2_dimension")
        [
          for_ "p" (idx "col_pos" (v "jcol")) (idx "col_pos" (v "jcol" +: i 1))
            [
              decl_int "r" (idx "cs_row" (v "p"));
              decl_int "q" (idx "row_cur" (v "r"));
              store "A2_crd" (v "q") (v "jcol");
              store "A_vals" (v "q") (idx "cs_vals" (v "p"));
              store "row_cur" (v "r") (v "q" +: i 1);
            ];
        ];
    ]
  in
  info
    ~mode:(Lower.Assemble { emit_values = true; sorted = true })
    ~result:a_var ~inputs:[ b_var; c_var ]
    { Imp.k_name = "spgemm_eigen_like"; k_params = params; k_body = body }

(* MKL-style inspector-executor: a symbolic pass sizes rows exactly, a
   numeric pass fills unsorted values. *)
let mkl_like =
  let reset_tracking =
    for_ "q" (i 0) (v "w_list_size")
      [ store "w_mask" (idx "w_list" (v "q")) (Imp.Bool_lit false) ]
  in
  let body =
    [
      Imp.Alloc (Imp.Int, "A2_pos", v "A1_dimension" +: i 1);
      store "A2_pos" (i 0) (i 0);
      Imp.Alloc (Imp.Float, "w_vals", v "A2_dimension");
      Imp.Alloc (Imp.Bool, "w_mask", v "A2_dimension");
      Imp.Alloc (Imp.Int, "w_list", v "A2_dimension");
      decl_int "w_list_size" (i 0);
      (* Symbolic pass: structure only. *)
      for_ "i" (i 0) (v "A1_dimension")
        [
          set "w_list_size" (i 0);
          scatter_row ~track:true ~values:false ();
          reset_tracking;
          store "A2_pos" (v "i" +: i 1) (idx "A2_pos" (v "i") +: v "w_list_size");
        ];
      (* Exact allocation. *)
      Imp.Alloc (Imp.Int, "A2_crd", idx "A2_pos" (v "A1_dimension") +: i 1);
      Imp.Alloc (Imp.Float, "A_vals", idx "A2_pos" (v "A1_dimension") +: i 1);
      (* Numeric pass: recompute and gather, unsorted. *)
      for_ "i" (i 0) (v "A1_dimension")
        [
          set "w_list_size" (i 0);
          scatter_row ~track:true ~values:true ();
          decl_int "pA2" (idx "A2_pos" (v "i"));
          for_ "q" (i 0) (v "w_list_size")
            [
              decl_int "j" (idx "w_list" (v "q"));
              store "A2_crd" (v "pA2" +: v "q") (v "j");
              store "A_vals" (v "pA2" +: v "q") (idx "w_vals" (v "j"));
              store "w_vals" (v "j") (f 0.);
              store "w_mask" (v "j") (Imp.Bool_lit false);
            ];
        ];
    ]
  in
  info
    ~mode:(Lower.Assemble { emit_values = true; sorted = false })
    ~result:a_var ~inputs:[ b_var; c_var ]
    { Imp.k_name = "spgemm_mkl_like"; k_params = params; k_body = body }

(* Plain OCaml Gustavson, sorted: the oracle used by the tests. *)
let gustavson b c =
  let bdims = T.dims b and cdims = T.dims c in
  if bdims.(1) <> cdims.(0) then invalid_arg "Spgemm.gustavson: inner dimensions differ";
  let m = bdims.(0) and n = cdims.(1) in
  let b_pos, b_crd, b_vals = T.csr_arrays b in
  let c_pos, c_crd, c_vals = T.csr_arrays c in
  let w = Array.make n 0. in
  let mask = Array.make n false in
  let rowlist = Array.make n 0 in
  let pos = Ivec.create (m + 1) in
  let crd = Dyn.Int.create () in
  let vals = Dyn.Float.create () in
  for row = 0 to m - 1 do
    let cnt = ref 0 in
    for pb = Ivec.get b_pos row to Ivec.get b_pos (row + 1) - 1 do
      let k = Ivec.get b_crd pb in
      for pc = Ivec.get c_pos k to Ivec.get c_pos (k + 1) - 1 do
        let j = Ivec.get c_crd pc in
        if not mask.(j) then begin
          mask.(j) <- true;
          rowlist.(!cnt) <- j;
          Stdlib.incr cnt
        end;
        w.(j) <- w.(j) +. (b_vals.(pb) *. c_vals.(pc))
      done
    done;
    let live = Array.sub rowlist 0 !cnt in
    Array.sort compare live;
    Array.iter
      (fun j ->
        Dyn.Int.push crd j;
        Dyn.Float.push vals w.(j);
        w.(j) <- 0.;
        mask.(j) <- false)
      live;
    Ivec.set pos (row + 1) (Dyn.Int.length crd)
  done;
  T.of_csr ~rows:m ~cols:n pos (Dyn.Int.to_ivec crd) (Dyn.Float.to_array vals)

(* Hash-map workspace: open addressing with linear probing; keys stored
   as j+1 so 0 means empty. A coordinate set records the row's keys;
   draining it visits them in ascending order, gathering and clearing
   each one's slot. *)
let hash_workspace ~capacity =
  if capacity land (capacity - 1) <> 0 then
    invalid_arg "Spgemm.hash_workspace: capacity must be a power of two";
  let cap = i capacity in
  (* slot = j mod capacity, then linear probing. *)
  let probe ~slot_var j body_when_found =
    [
      decl_int slot_var (j -: (Imp.Binop (Imp.Div, j, cap) *: cap));
      decl_int "key" (j +: i 1);
      while_
        (Imp.Not
           (Imp.Binop
              ( Imp.Or,
                idx "h_keys" (v slot_var) =: i 0,
                idx "h_keys" (v slot_var) =: v "key" )))
        [
          set slot_var (v slot_var +: i 1);
          if_ (v slot_var >=: cap) [ set slot_var (i 0) ];
        ];
    ]
    @ body_when_found
  in
  let grow =
    if_
      (v "pA2" >=: v "A2_cap")
      [
        set "A2_cap" (v "A2_cap" *: i 2);
        Imp.Realloc ("A2_crd", v "A2_cap");
        Imp.Realloc ("A_vals", v "A2_cap");
      ]
  in
  let body =
    [
      Imp.Alloc (Imp.Int, "A2_pos", v "A1_dimension" +: i 1);
      store "A2_pos" (i 0) (i 0);
      decl_int "A2_cap" (i 1024);
      Imp.Alloc (Imp.Int, "A2_crd", i 1024);
      Imp.Alloc (Imp.Float, "A_vals", i 1024);
      Imp.Alloc (Imp.Int, "h_keys", cap);
      Imp.Alloc (Imp.Float, "h_vals", cap);
      Imp.Set_alloc ("w_set", v "A2_dimension");
      decl_int "pA2" (i 0);
      for_ "i" (i 0) (v "A1_dimension")
        [
          for_ "pB2" (idx "B2_pos" (v "i")) (idx "B2_pos" (v "i" +: i 1))
            [
              decl_int "k" (idx "B2_crd" (v "pB2"));
              Imp.Decl (Imp.Float, "B_val", idx "B_vals" (v "pB2"));
              for_ "pC2" (idx "C2_pos" (v "k")) (idx "C2_pos" (v "k" +: i 1))
                ([ decl_int "j" (idx "C2_crd" (v "pC2")) ]
                @ probe ~slot_var:"slot" (v "j")
                    [
                      if_
                        (idx "h_keys" (v "slot") =: i 0)
                        [ store "h_keys" (v "slot") (v "key"); Imp.Set_insert ("w_set", v "j") ];
                      store_add "h_vals" (v "slot") (v "B_val" *: idx "C_vals" (v "pC2"));
                    ]);
            ];
          Imp.Set_drain
            ( "w_set",
              "j",
              probe ~slot_var:"slot" (v "j")
                [
                  grow;
                  store "A2_crd" (v "pA2") (v "j");
                  store "A_vals" (v "pA2") (idx "h_vals" (v "slot"));
                  incr "pA2";
                  store "h_keys" (v "slot") (i 0);
                  store "h_vals" (v "slot") (f 0.);
                ] );
          store "A2_pos" (v "i" +: i 1) (v "pA2");
        ];
    ]
  in
  info
    ~mode:(Lower.Assemble { emit_values = true; sorted = true })
    ~result:a_var ~inputs:[ b_var; c_var ]
    { Imp.k_name = "spgemm_hash_workspace"; k_params = params; k_body = body }
