type dtype = Int | Float | Bool

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Min
  | Max
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Var of string
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Load of string * expr
  | Binop of binop * expr * expr
  | Not of expr
  | Ternary of expr * expr * expr
  | Round_single of expr

type par_append = {
  pa_counter : string;
  pa_arrays : string list;
  pa_pos : string option;
}

type par_info = { par_private : string list; par_stage : par_append option }

type reduce = Red_min | Red_max | Red_or

type stmt =
  | Decl of dtype * string * expr
  | Assign of string * expr
  | Store of string * expr * expr
  | Store_add of string * expr * expr
  | Store_reduce of reduce * string * expr * expr
  | Alloc of dtype * string * expr
  | Realloc of string * expr
  | Memset of string * expr
  | Fill of string * expr * expr
  | For of string * expr * expr * stmt list
  | ParallelFor of string * expr * expr * stmt list * par_info
  | While of expr * stmt list
  | If of expr * stmt list * stmt list
  | Set_alloc of string * expr
  | Set_insert of string * expr
  | Set_drain of string * string * stmt list
  | Comment of string

type param = { p_name : string; p_dtype : dtype; p_array : bool; p_output : bool }

type kernel = { k_name : string; k_params : param list; k_body : stmt list }

let set_elems n =
  let words = (max 0 n + 63) / 64 in
  max 1 (words + ((words + 63) / 64))

let add a b =
  match (a, b) with
  | Int_lit 0, e | e, Int_lit 0 -> e
  | Int_lit x, Int_lit y -> Int_lit (x + y)
  | a, b -> Binop (Add, a, b)

let sub a b =
  match (a, b) with
  | e, Int_lit 0 -> e
  | Int_lit x, Int_lit y -> Int_lit (x - y)
  | a, b -> Binop (Sub, a, b)

let mul a b =
  match (a, b) with
  | Int_lit 0, _ | _, Int_lit 0 -> Int_lit 0
  | Int_lit 1, e | e, Int_lit 1 -> e
  | Int_lit x, Int_lit y -> Int_lit (x * y)
  | a, b -> Binop (Mul, a, b)

let min_ a b = if a = b then a else Binop (Min, a, b)

let eq a b = Binop (Eq, a, b)

let lt a b = Binop (Lt, a, b)

let and_ a b =
  match (a, b) with
  | Bool_lit true, e | e, Bool_lit true -> e
  | a, b -> Binop (And, a, b)

let min_list = function
  | [] -> invalid_arg "Imp.min_list: empty"
  | x :: rest -> List.fold_left min_ x rest

let and_list = function
  | [] -> invalid_arg "Imp.and_list: empty"
  | x :: rest -> List.fold_left and_ x rest

let rec expr_vars = function
  | Var v -> [ v ]
  | Int_lit _ | Float_lit _ | Bool_lit _ -> []
  | Load (a, i) -> a :: expr_vars i
  | Binop (_, a, b) -> expr_vars a @ expr_vars b
  | Not e | Round_single e -> expr_vars e
  | Ternary (c, a, b) -> expr_vars c @ expr_vars a @ expr_vars b

let rec declared_stmt = function
  | Decl (_, v, _) | Alloc (_, v, _) | Set_alloc (v, _) -> [ v ]
  | For (v, _, _, body) | ParallelFor (v, _, _, body, _) | Set_drain (_, v, body) ->
      v :: declared body
  | While (_, body) -> declared body
  | If (_, t, e) -> declared t @ declared e
  | Assign _ | Store _ | Store_add _ | Store_reduce _ | Realloc _ | Memset _ | Fill _
  | Set_insert _ | Comment _ ->
      []

and declared stmts = List.concat_map declared_stmt stmts

let rec expr_nodes = function
  | Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> 1
  | Load (_, i) -> 1 + expr_nodes i
  | Binop (_, a, b) -> 1 + expr_nodes a + expr_nodes b
  | Not e | Round_single e -> 1 + expr_nodes e
  | Ternary (c, a, b) -> 1 + expr_nodes c + expr_nodes a + expr_nodes b

let rec stmt_nodes = function
  | Decl (_, _, e) | Assign (_, e) | Alloc (_, _, e) | Realloc (_, e) | Memset (_, e)
  | Set_alloc (_, e) | Set_insert (_, e) ->
      1 + expr_nodes e
  | Store (_, i, v) | Store_add (_, i, v) | Store_reduce (_, _, i, v) | Fill (_, i, v) ->
      1 + expr_nodes i + expr_nodes v
  | Set_drain (_, _, body) -> 1 + stmts_nodes body
  | For (_, lo, hi, body) | ParallelFor (_, lo, hi, body, _) ->
      1 + expr_nodes lo + expr_nodes hi + stmts_nodes body
  | While (c, body) -> 1 + expr_nodes c + stmts_nodes body
  | If (c, t, e) -> 1 + expr_nodes c + stmts_nodes t + stmts_nodes e
  | Comment _ -> 1

and stmts_nodes body = List.fold_left (fun acc s -> acc + stmt_nodes s) 0 body

let node_count kernel = stmts_nodes kernel.k_body

let check kernel =
  let exception Problem of string in
  let known = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace known p.p_name ()) kernel.k_params;
  let use_expr e =
    List.iter
      (fun v ->
        if not (Hashtbl.mem known v) then
          raise (Problem (Printf.sprintf "variable %s used before declaration" v)))
      (expr_vars e)
  in
  let use_var v =
    if not (Hashtbl.mem known v) then
      raise (Problem (Printf.sprintf "variable %s used before declaration" v))
  in
  let declare v =
    (* Loop variables and block-scoped declarations may shadow/repeat on
       sibling paths; we only require definition before use. *)
    Hashtbl.replace known v ()
  in
  let rec go_stmt = function
    | Decl (_, v, e) ->
        use_expr e;
        declare v
    | Assign (v, e) ->
        use_expr e;
        use_var v
    | Store (a, i, v) | Store_add (a, i, v) | Store_reduce (_, a, i, v) | Fill (a, i, v) ->
        use_var a;
        use_expr i;
        use_expr v
    | Alloc (_, v, n) ->
        use_expr n;
        declare v
    | Realloc (v, n) ->
        use_var v;
        use_expr n
    | Memset (v, n) ->
        use_var v;
        use_expr n
    | For (v, lo, hi, body) ->
        use_expr lo;
        use_expr hi;
        declare v;
        List.iter go_stmt body
    | ParallelFor (v, lo, hi, body, info) ->
        use_expr lo;
        use_expr hi;
        (* The merge metadata names arrays and counters that must already
           exist at loop entry (workspaces and staging buffers are
           allocated before the parallel region). *)
        List.iter use_var info.par_private;
        Option.iter
          (fun st ->
            use_var st.pa_counter;
            List.iter use_var st.pa_arrays;
            Option.iter use_var st.pa_pos)
          info.par_stage;
        declare v;
        List.iter go_stmt body
    | While (c, body) ->
        use_expr c;
        List.iter go_stmt body
    | If (c, t, e) ->
        use_expr c;
        List.iter go_stmt t;
        List.iter go_stmt e
    | Set_alloc (v, n) ->
        use_expr n;
        declare v
    | Set_insert (v, j) ->
        use_var v;
        use_expr j
    | Set_drain (s, v, body) ->
        use_var s;
        declare v;
        List.iter go_stmt body
    | Comment _ -> ()
  in
  match List.iter go_stmt kernel.k_body with
  | () -> Ok ()
  | exception Problem msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Typed validation                                                    *)
(* ------------------------------------------------------------------ *)

let dtype_str = function Int -> "int" | Float -> "float" | Bool -> "bool"

let validate kernel =
  let exception Problem of string in
  let problem fmt = Printf.ksprintf (fun s -> raise (Problem s)) fmt in
  (* name -> (dtype, is_array); populated in declaration order so the
     pass checks def-before-use and typing together. *)
  let env : (string, dtype * bool) Hashtbl.t = Hashtbl.create 32 in
  (* Coordinate sets, a kind of their own: never read as values. *)
  let sets : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let not_set name what = if Hashtbl.mem sets name then problem "set %s %s" name what in
  let declare name dtype arr =
    not_set name "redeclared as a variable";
    match Hashtbl.find_opt env name with
    | Some (t, a) when t <> dtype || a <> arr ->
        problem "variable %s redeclared as %s%s (was %s%s)" name (dtype_str dtype)
          (if arr then " array" else "") (dtype_str t) (if a then " array" else "")
    | Some _ | None -> Hashtbl.replace env name (dtype, arr)
  in
  List.iter (fun p -> declare p.p_name p.p_dtype p.p_array) kernel.k_params;
  let scalar name =
    not_set name "used as a scalar";
    match Hashtbl.find_opt env name with
    | Some (t, false) -> t
    | Some (_, true) -> problem "array %s used as a scalar" name
    | None -> problem "variable %s used before declaration" name
  in
  let array name =
    not_set name "used as an array";
    match Hashtbl.find_opt env name with
    | Some (t, true) -> t
    | Some (_, false) -> problem "scalar %s indexed as an array" name
    | None -> problem "array %s used before declaration" name
  in
  let set name =
    if not (Hashtbl.mem sets name) then
      if Hashtbl.mem env name then problem "%s is not a set" name
      else problem "set %s used before declaration" name
  in
  let rec infer = function
    | Var v -> scalar v
    | Int_lit _ -> Int
    | Float_lit _ -> Float
    | Bool_lit _ -> Bool
    | Load (a, i) ->
        let t = array a in
        expect Int i "array index";
        t
    | Binop ((Add | Sub | Mul | Div | Min | Max), a, b) -> (
        match (infer a, infer b) with
        | Int, Int -> Int
        | Float, Float -> Float
        | ta, tb ->
            if ta <> tb then problem "arithmetic on mixed types (%s vs %s)" (dtype_str ta) (dtype_str tb)
            else problem "arithmetic on bools")
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge), a, b) ->
        let ta = infer a and tb = infer b in
        if ta <> tb then problem "comparison on mixed types (%s vs %s)" (dtype_str ta) (dtype_str tb);
        Bool
    | Binop ((And | Or), a, b) ->
        expect Bool a "logical operand";
        expect Bool b "logical operand";
        Bool
    | Not e ->
        expect Bool e "negated expression";
        Bool
    | Round_single e ->
        expect Float e "round_single operand";
        Float
    | Ternary (c, a, b) ->
        expect Bool c "ternary condition";
        let ta = infer a and tb = infer b in
        if ta <> tb then problem "ternary branches of mixed type (%s vs %s)" (dtype_str ta) (dtype_str tb);
        ta
  and expect t e what =
    let t' = infer e in
    if t' <> t then problem "%s has type %s, expected %s" what (dtype_str t') (dtype_str t)
  in
  let rec go_stmt = function
    | Decl (t, v, e) ->
        expect t e (Printf.sprintf "initializer of %s" v);
        declare v t false
    | Assign (v, e) ->
        let t = scalar v in
        expect t e (Printf.sprintf "assignment to %s" v)
    | Store (a, i, v) ->
        let t = array a in
        expect Int i (Printf.sprintf "index into %s" a);
        expect t v (Printf.sprintf "value stored into %s" a)
    | Store_add (a, i, v) ->
        let t = array a in
        if t = Bool then problem "+= on bool array %s" a;
        expect Int i (Printf.sprintf "index into %s" a);
        expect t v (Printf.sprintf "value accumulated into %s" a)
    | Store_reduce (_, a, i, v) ->
        if array a <> Float then problem "reduce-store on non-float array %s" a;
        expect Int i (Printf.sprintf "index into %s" a);
        expect Float v (Printf.sprintf "value reduced into %s" a)
    | Alloc (t, v, n) ->
        expect Int n (Printf.sprintf "allocation size of %s" v);
        declare v t true
    | Realloc (v, n) ->
        ignore (array v : dtype);
        expect Int n (Printf.sprintf "reallocation size of %s" v)
    | Memset (v, n) ->
        ignore (array v : dtype);
        expect Int n (Printf.sprintf "memset length of %s" v)
    | Fill (a, n, v) ->
        if array a <> Float then problem "fill on non-float array %s" a;
        expect Int n (Printf.sprintf "fill length of %s" a);
        expect Float v (Printf.sprintf "fill value of %s" a)
    | For (v, lo, hi, body) ->
        expect Int lo "loop lower bound";
        expect Int hi "loop upper bound";
        declare v Int false;
        List.iter go_stmt body
    | ParallelFor (v, lo, hi, body, info) ->
        expect Int lo "parallel loop lower bound";
        expect Int hi "parallel loop upper bound";
        List.iter
          (fun a -> if not (Hashtbl.mem sets a) then ignore (array a : dtype))
          info.par_private;
        Option.iter
          (fun st ->
            if scalar st.pa_counter <> Int then
              problem "append counter %s is not an int scalar" st.pa_counter;
            List.iter (fun a -> ignore (array a : dtype)) st.pa_arrays;
            Option.iter
              (fun p ->
                if array p <> Int then problem "pos array %s is not an int array" p)
              st.pa_pos)
          info.par_stage;
        declare v Int false;
        List.iter go_stmt body
    | While (c, body) ->
        expect Bool c "while condition";
        List.iter go_stmt body
    | If (c, t, e) ->
        expect Bool c "if condition";
        List.iter go_stmt t;
        List.iter go_stmt e
    | Set_alloc (v, n) ->
        expect Int n (Printf.sprintf "extent of set %s" v);
        if Hashtbl.mem env v then problem "variable %s redeclared as a set" v;
        Hashtbl.replace sets v ()
    | Set_insert (v, j) ->
        set v;
        expect Int j (Printf.sprintf "coordinate inserted into %s" v)
    | Set_drain (s, v, body) ->
        set s;
        declare v Int false;
        List.iter go_stmt body
    | Comment _ -> ()
  in
  match List.iter go_stmt kernel.k_body with
  | () -> Ok ()
  | exception Problem msg -> Error msg

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let reduce_str = function Red_min -> "min" | Red_max -> "max" | Red_or -> "or"

let rec pp_expr fmt = function
  | Var v -> Format.pp_print_string fmt v
  | Int_lit n -> Format.pp_print_int fmt n
  | Float_lit v -> Format.fprintf fmt "%g" v
  | Bool_lit b -> Format.pp_print_bool fmt b
  | Load (a, i) -> Format.fprintf fmt "%s[%a]" a pp_expr i
  | Binop ((Min | Max) as op, a, b) ->
      Format.fprintf fmt "%s(%a, %a)" (binop_str op) pp_expr a pp_expr b
  | Binop (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Not e -> Format.fprintf fmt "!(%a)" pp_expr e
  | Round_single e -> Format.fprintf fmt "(double)(float)(%a)" pp_expr e
  | Ternary (c, a, b) ->
      Format.fprintf fmt "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b

let rec pp_stmt fmt s = pp_stmt_indent fmt 0 s

and pp_stmt_indent fmt n s =
  let ind = String.make (2 * n) ' ' in
  match s with
  | Decl (_, v, e) -> Format.fprintf fmt "%s%s = %a;@." ind v pp_expr e
  | Assign (v, e) -> Format.fprintf fmt "%s%s = %a;@." ind v pp_expr e
  | Store (a, i, v) -> Format.fprintf fmt "%s%s[%a] = %a;@." ind a pp_expr i pp_expr v
  | Store_add (a, i, v) ->
      Format.fprintf fmt "%s%s[%a] += %a;@." ind a pp_expr i pp_expr v
  | Store_reduce (r, a, i, v) ->
      Format.fprintf fmt "%s%s[%a] = %s(%s[%a], %a);@." ind a pp_expr i (reduce_str r) a
        pp_expr i pp_expr v
  | Alloc (_, v, e) -> Format.fprintf fmt "%s%s = alloc(%a);@." ind v pp_expr e
  | Realloc (v, e) -> Format.fprintf fmt "%s%s = realloc(%a);@." ind v pp_expr e
  | Memset (v, e) -> Format.fprintf fmt "%smemset(%s, 0, %a);@." ind v pp_expr e
  | Fill (a, n, v) ->
      Format.fprintf fmt "%sfill(%s, %a, %a);@." ind a pp_expr n pp_expr v
  | For (v, lo, hi, body) ->
      Format.fprintf fmt "%sfor (%s = %a; %s < %a; %s++) {@." ind v pp_expr lo v
        pp_expr hi v;
      List.iter (pp_stmt_indent fmt (n + 1)) body;
      Format.fprintf fmt "%s}@." ind
  | ParallelFor (v, lo, hi, body, _) ->
      Format.fprintf fmt "%sparallel for (%s = %a; %s < %a; %s++) {@." ind v
        pp_expr lo v pp_expr hi v;
      List.iter (pp_stmt_indent fmt (n + 1)) body;
      Format.fprintf fmt "%s}@." ind
  | While (c, body) ->
      Format.fprintf fmt "%swhile (%a) {@." ind pp_expr c;
      List.iter (pp_stmt_indent fmt (n + 1)) body;
      Format.fprintf fmt "%s}@." ind
  | If (c, t, []) ->
      Format.fprintf fmt "%sif (%a) {@." ind pp_expr c;
      List.iter (pp_stmt_indent fmt (n + 1)) t;
      Format.fprintf fmt "%s}@." ind
  | If (c, t, e) ->
      Format.fprintf fmt "%sif (%a) {@." ind pp_expr c;
      List.iter (pp_stmt_indent fmt (n + 1)) t;
      Format.fprintf fmt "%s} else {@." ind;
      List.iter (pp_stmt_indent fmt (n + 1)) e;
      Format.fprintf fmt "%s}@." ind
  | Set_alloc (v, e) -> Format.fprintf fmt "%s%s = set(%a);@." ind v pp_expr e
  | Set_insert (v, e) -> Format.fprintf fmt "%sinsert(%s, %a);@." ind v pp_expr e
  | Set_drain (s, v, body) ->
      Format.fprintf fmt "%sdrain (%s in %s) {@." ind v s;
      List.iter (pp_stmt_indent fmt (n + 1)) body;
      Format.fprintf fmt "%s}@." ind
  | Comment c -> Format.fprintf fmt "%s// %s@." ind c
