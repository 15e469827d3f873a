open Taco_lower

let v name = Imp.Var name

let i n = Imp.Int_lit n

let f x = Imp.Float_lit x

let ( +: ) a b = Imp.Binop (Imp.Add, a, b)

let ( -: ) a b = Imp.Binop (Imp.Sub, a, b)

let ( *: ) a b = Imp.Binop (Imp.Mul, a, b)

let ( <: ) a b = Imp.Binop (Imp.Lt, a, b)

let ( >=: ) a b = Imp.Binop (Imp.Ge, a, b)

let ( =: ) a b = Imp.Binop (Imp.Eq, a, b)

let ( &&: ) a b = Imp.Binop (Imp.And, a, b)

let idx a e = Imp.Load (a, e)

let decl_int name e = Imp.Decl (Imp.Int, name, e)

let set name e = Imp.Assign (name, e)

let store a idx e = Imp.Store (a, idx, e)

let store_add a idx e = Imp.Store_add (a, idx, e)

let for_ var lo hi body = Imp.For (var, lo, hi, body)

let while_ c body = Imp.While (c, body)

let if_ c t = Imp.If (c, t, [])

let if_else c t e = Imp.If (c, t, e)

let incr name = Imp.Assign (name, Imp.Binop (Imp.Add, Imp.Var name, Imp.Int_lit 1))

let p_int name = { Imp.p_name = name; p_dtype = Imp.Int; p_array = false; p_output = false }

let p_iarr ?(output = false) name =
  { Imp.p_name = name; p_dtype = Imp.Int; p_array = true; p_output = output }

let p_farr ?(output = false) name =
  { Imp.p_name = name; p_dtype = Imp.Float; p_array = true; p_output = output }

let csr_params ?(output = false) t =
  [
    p_int (t ^ "1_dimension");
    p_int (t ^ "2_dimension");
    p_iarr ~output (t ^ "2_pos");
    p_iarr ~output (t ^ "2_crd");
    p_farr ~output (t ^ "_vals");
  ]

let info ~mode ~result ~inputs kernel =
  (match Imp.validate kernel with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Build.info: kernel %s: %s" kernel.Imp.k_name e));
  { Lower.kernel; inputs; result; mode; extents = [] }
