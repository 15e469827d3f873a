let ctype = function Imp.Int -> "int32_t" | Imp.Float -> "double" | Imp.Bool -> "bool"

let binop_str = function
  | Imp.Add -> "+"
  | Imp.Sub -> "-"
  | Imp.Mul -> "*"
  | Imp.Div -> "/"
  | Imp.Min -> "TACO_MIN"
  | Imp.Max -> "TACO_MAX"
  | Imp.Eq -> "=="
  | Imp.Ne -> "!="
  | Imp.Lt -> "<"
  | Imp.Le -> "<="
  | Imp.Gt -> ">"
  | Imp.Ge -> ">="
  | Imp.And -> "&&"
  | Imp.Or -> "||"

(* Non-finite literals (the min-plus zero is +inf) have no C literal
   syntax; they render as the INFINITY/NAN macros. A NaN keeps its
   sign and payload, which a native result must reproduce bit for bit:
   [inf - inf] folds to x86's negative default NaN, and OCaml's [nan]
   has payload 1. The builtins place the payload below the quiet bit,
   as IEEE 754 does. *)
let float_lit v =
  if v = Float.infinity then "INFINITY"
  else if v = Float.neg_infinity then "(-INFINITY)"
  else if Float.is_nan v then
    let bits = Int64.bits_of_float v in
    let payload = Int64.logand bits 0x7_ffff_ffff_ffffL in
    let quiet = Int64.logand bits 0x8_0000_0000_0000L <> 0L in
    let nan =
      if quiet && payload = 0L then "NAN"
      else Printf.sprintf "__builtin_nan%s(\"0x%Lx\")" (if quiet then "" else "s") payload
    in
    if Int64.compare bits 0L < 0 then "(-" ^ nan ^ ")" else nan
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let rec expr buf = function
  | Imp.Var v -> Buffer.add_string buf v
  | Imp.Int_lit n -> Buffer.add_string buf (string_of_int n)
  | Imp.Float_lit v -> Buffer.add_string buf (float_lit v)
  | Imp.Bool_lit b -> Buffer.add_string buf (if b then "1" else "0")
  | Imp.Load (a, i) ->
      Buffer.add_string buf a;
      Buffer.add_char buf '[';
      expr buf i;
      Buffer.add_char buf ']'
  | Imp.Binop (((Imp.Min | Imp.Max) as op), a, b) ->
      Buffer.add_string buf (binop_str op);
      Buffer.add_char buf '(';
      expr buf a;
      Buffer.add_string buf ", ";
      expr buf b;
      Buffer.add_char buf ')'
  | Imp.Binop (op, a, b) ->
      Buffer.add_char buf '(';
      expr buf a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_str op);
      Buffer.add_char buf ' ';
      expr buf b;
      Buffer.add_char buf ')'
  | Imp.Not e ->
      Buffer.add_string buf "!(";
      expr buf e;
      Buffer.add_char buf ')'
  | Imp.Ternary (c, a, b) ->
      Buffer.add_char buf '(';
      expr buf c;
      Buffer.add_string buf " ? ";
      expr buf a;
      Buffer.add_string buf " : ";
      expr buf b;
      Buffer.add_char buf ')'
  | Imp.Round_single e ->
      Buffer.add_string buf "(double)(float)(";
      expr buf e;
      Buffer.add_char buf ')'

let estr e =
  let buf = Buffer.create 32 in
  expr buf e;
  Buffer.contents buf

(* A reduce-store as a single C statement. Min/max go through fmin/fmax
   (math.h in the paper rendering); boolean-or reads as a
   short-circuiting test over the 0./1. encoding. *)
let reduce_line r a i v =
  match r with
  | Imp.Red_min -> Printf.sprintf "%s[%s] = fmin(%s[%s], %s);" a i a i v
  | Imp.Red_max -> Printf.sprintf "%s[%s] = fmax(%s[%s], %s);" a i a i v
  | Imp.Red_or ->
      Printf.sprintf "%s[%s] = ((%s[%s] != 0.0) || ((%s) != 0.0)) ? 1.0 : 0.0;" a i a i v

(* The exec rendering of a reduce-store. Min/max replace the stored
   value only by a strictly smaller (larger) one, as the closures do.
   fmin/fmax would leave open which of two equal zeros, or which NaN,
   comes back, and gcc treats them as commutative: an -O0 and an -O3
   build of one max-times kernel returned +0.0 and -0.0 for the max of
   +0.0 and -0.0. *)
let exec_reduce_line r a i v =
  let keep_unless op =
    Printf.sprintf "{ double taco_red = %s; if (taco_red %s %s[%s]) %s[%s] = taco_red; }" v op a i
      a i
  in
  match r with
  | Imp.Red_min -> keep_unless "<"
  | Imp.Red_max -> keep_unless ">"
  | Imp.Red_or -> reduce_line r a i v

(* ------------------------------------------------------------------ *)
(* Static analyses shared by the inspection renderer and the native-  *)
(* backend (exec) renderer.                                           *)
(* ------------------------------------------------------------------ *)

(* Names whose value is read somewhere in [body]: every variable in an
   expression plus every array whose pointer is consumed by a builtin
   (memset/realloc and stores read the pointer) and every set inserted
   into or drained. A declared name absent from this set would trip
   gcc's -Wunused-variable / -Wunused-but-set-variable under -Wall
   -Werror. *)
let used_tbl body =
  let tbl = Hashtbl.create 64 in
  let add v = Hashtbl.replace tbl v () in
  let add_e e = List.iter add (Imp.expr_vars e) in
  let rec go = function
    | Imp.Decl (_, _, e) | Imp.Assign (_, e) | Imp.Alloc (_, _, e) -> add_e e
    | Imp.Store (a, i, v) | Imp.Store_add (a, i, v) | Imp.Store_reduce (_, a, i, v)
    | Imp.Fill (a, i, v) ->
        add a;
        add_e i;
        add_e v
    | Imp.Realloc (v, n) | Imp.Memset (v, n) ->
        add v;
        add_e n
    | Imp.For (_, lo, hi, b) | Imp.ParallelFor (_, lo, hi, b, _) ->
        add_e lo;
        add_e hi;
        List.iter go b
    | Imp.While (c, b) ->
        add_e c;
        List.iter go b
    | Imp.If (c, t, e) ->
        add_e c;
        List.iter go t;
        List.iter go e
    | Imp.Set_alloc (_, n) -> add_e n
    | Imp.Set_insert (v, j) ->
        add v;
        add_e j
    | Imp.Set_drain (v, _, b) ->
        add v;
        List.iter go b
    | Imp.Comment _ -> ()
  in
  List.iter go body;
  tbl

(* Whether the scalar [v] is read in [ss], the rest of the block that
   declares it: gcc's -Wunused-variable and -Wunused-but-set-variable
   judge each declaration by its own scope, so a read of another
   declaration of the same name elsewhere in the kernel does not count.
   A nested redeclaration of [v] (a [Decl], or a loop's own variable)
   shadows it to the end of that block. *)
let read_in_scope v ss =
  let reads e = List.mem v (Imp.expr_vars e) in
  let rec go = function
    | [] -> false
    | Imp.Decl (_, v', _) :: _ when v' = v -> false
    | (Imp.For (v', _, _, _) | Imp.ParallelFor (v', _, _, _, _) | Imp.Set_drain (_, v', _))
      :: rest
      when v' = v ->
        go rest
    | s :: rest ->
        (match s with
        | Imp.Decl (_, _, e) | Imp.Assign (_, e) | Imp.Alloc (_, _, e) | Imp.Realloc (_, e)
        | Imp.Memset (_, e) | Imp.Set_alloc (_, e) | Imp.Set_insert (_, e) ->
            reads e
        | Imp.Store (_, i, x) | Imp.Store_add (_, i, x) | Imp.Store_reduce (_, _, i, x)
        | Imp.Fill (_, i, x) ->
            reads i || reads x
        | Imp.Set_drain (_, _, b) -> go b
        | Imp.For (_, lo, hi, b) | Imp.ParallelFor (_, lo, hi, b, _) -> reads lo || reads hi || go b
        | Imp.While (c, b) -> reads c || go b
        | Imp.If (c, t, e) -> reads c || go t || go e
        | Imp.Comment _ -> false)
        || go rest
  in
  go ss

(* Array names the kernel writes through (store, +=, memset, realloc).
   Everything else can be passed as [const]. *)
let written_arrays kernel =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | Imp.Store (a, _, _) | Imp.Store_add (a, _, _) | Imp.Store_reduce (_, a, _, _) ->
        Hashtbl.replace tbl a ()
    | Imp.Memset (a, _) | Imp.Fill (a, _, _) | Imp.Realloc (a, _) -> Hashtbl.replace tbl a ()
    | Imp.Alloc (_, v, _) -> Hashtbl.replace tbl v ()
    | Imp.For (_, _, _, b)
    | Imp.ParallelFor (_, _, _, b, _)
    | Imp.While (_, b)
    | Imp.Set_drain (_, _, b) ->
        List.iter go b
    | Imp.If (_, t, e) ->
        List.iter go t;
        List.iter go e
    | Imp.Decl _ | Imp.Assign _ | Imp.Set_alloc _ | Imp.Set_insert _ | Imp.Comment _ -> ()
  in
  List.iter go kernel.Imp.k_body;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []

let rec stmt_exists p s =
  p s
  ||
  match s with
  | Imp.For (_, _, _, b) | Imp.ParallelFor (_, _, _, b, _) | Imp.While (_, b) | Imp.Set_drain (_, _, b)
    ->
      List.exists (stmt_exists p) b
  | Imp.If (_, t, e) -> List.exists (stmt_exists p) t || List.exists (stmt_exists p) e
  | _ -> false

let body_has p body = List.exists (stmt_exists p) body

let rec expr_exists p e =
  p e
  ||
  match e with
  | Imp.Load (_, i) -> expr_exists p i
  | Imp.Binop (_, a, b) -> expr_exists p a || expr_exists p b
  | Imp.Not a | Imp.Round_single a -> expr_exists p a
  | Imp.Ternary (c, a, b) -> expr_exists p c || expr_exists p a || expr_exists p b
  | Imp.Var _ | Imp.Int_lit _ | Imp.Float_lit _ | Imp.Bool_lit _ -> false

let stmt_exprs = function
  | Imp.Decl (_, _, e) | Imp.Assign (_, e) | Imp.Alloc (_, _, e)
  | Imp.Realloc (_, e)
  | Imp.Memset (_, e)
  | Imp.Set_alloc (_, e)
  | Imp.Set_insert (_, e) ->
      [ e ]
  | Imp.Store (_, i, v)
  | Imp.Store_add (_, i, v)
  | Imp.Store_reduce (_, _, i, v)
  | Imp.Fill (_, i, v) ->
      [ i; v ]
  | Imp.Set_drain _ -> []
  | Imp.For (_, lo, hi, _) | Imp.ParallelFor (_, lo, hi, _, _) -> [ lo; hi ]
  | Imp.While (c, _) -> [ c ]
  | Imp.If (c, _, _) -> [ c ]
  | Imp.Comment _ -> []

(* Math names are needed by fmin/fmax (min/max reduce-stores in the
   paper rendering) and by the INFINITY/NAN macros that render
   non-finite float literals (the min-plus semiring zeroes arrays with
   +inf): math.h in the paper rendering, builtins in the exec one. *)
let needs_math body =
  let nonfinite = function
    | Imp.Float_lit v -> not (Float.is_finite v)
    | Imp.Var _ | Imp.Int_lit _ | Imp.Bool_lit _ | Imp.Load _ | Imp.Binop _
    | Imp.Not _ | Imp.Ternary _ | Imp.Round_single _ ->
        false
  in
  body_has
    (fun s ->
      (match s with
      | Imp.Store_reduce ((Imp.Red_min | Imp.Red_max), _, _, _) -> true
      | _ -> false)
      || List.exists (expr_exists nonfinite) (stmt_exprs s))
    body

let has_parallel kernel =
  body_has (function Imp.ParallelFor _ -> true | _ -> false) kernel.Imp.k_body

(* Buffers the kernel allocates, in first-allocation order
   (deduplicated: a buffer re-allocated on several branches keeps one
   entry): an array with its element type, a coordinate set with
   [None]. *)
let alloc_list body =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add v t =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := (v, t) :: !out
    end
  in
  let rec go = function
    | Imp.Alloc (t, v, _) -> add v (Some t)
    | Imp.Set_alloc (v, _) -> add v None
    | Imp.For (_, _, _, b) | Imp.ParallelFor (_, _, _, b, _) | Imp.While (_, b) | Imp.Set_drain (_, _, b)
      ->
        List.iter go b
    | Imp.If (_, t, e) ->
        List.iter go t;
        List.iter go e
    | _ -> ()
  in
  List.iter go body;
  List.rev !out

(* The arrays the exec rendering hands back to the host: every allocated
   int/float array, in first-Alloc order. Bool workspaces and coordinate
   sets stay internal (the host ABI has no bool buffers, and no reader
   ever asks for them). *)
let exec_escapes kernel =
  List.filter_map
    (function v, Some ((Imp.Int | Imp.Float) as t) -> Some (v, t) | _, (Some Imp.Bool | None) -> None)
    (alloc_list kernel.Imp.k_body)

(* The C element type of an allocated buffer: a set's words are
   uint64_t. *)
let buffer_ctype = function Some t -> ctype t | None -> "uint64_t"

(* Scalars assigned inside [body] (used to decide whether a ParallelFor
   body mutates state declared outside itself). *)
let assign_targets body =
  let out = ref [] in
  let rec go = function
    | Imp.Assign (v, _) -> out := v :: !out
    | Imp.For (_, _, _, b) | Imp.ParallelFor (_, _, _, b, _) | Imp.While (_, b) | Imp.Set_drain (_, _, b)
      ->
        List.iter go b
    | Imp.If (_, t, e) ->
        List.iter go t;
        List.iter go e
    | _ -> ()
  in
  List.iter go body;
  !out

(* Kernels the exec rendering cannot express under the flat ABI. *)
let exec_unsupported kernel =
  let allocs = alloc_list kernel.Imp.k_body in
  if List.exists (fun p -> p.Imp.p_dtype = Imp.Bool) kernel.Imp.k_params then
    Some "bool parameter"
  else if
    body_has
      (function
        | Imp.Realloc (v, _) -> not (List.mem_assoc v allocs) | _ -> false)
      kernel.Imp.k_body
  then Some "realloc of a parameter array"
  else None

(* Rename arrays (used when giving OpenMP threads private workspace
   copies). Scalars and arrays share one namespace, so renaming [Var]
   too is safe and keeps the substitution total. *)
let rec subst_expr f = function
  | Imp.Var v -> Imp.Var (f v)
  | (Imp.Int_lit _ | Imp.Float_lit _ | Imp.Bool_lit _) as e -> e
  | Imp.Load (a, i) -> Imp.Load (f a, subst_expr f i)
  | Imp.Binop (op, a, b) -> Imp.Binop (op, subst_expr f a, subst_expr f b)
  | Imp.Not e -> Imp.Not (subst_expr f e)
  | Imp.Ternary (c, a, b) ->
      Imp.Ternary (subst_expr f c, subst_expr f a, subst_expr f b)
  | Imp.Round_single e -> Imp.Round_single (subst_expr f e)

let rec subst_stmt f s =
  let e = subst_expr f in
  match s with
  | Imp.Decl (t, v, x) -> Imp.Decl (t, v, e x)
  | Imp.Assign (v, x) -> Imp.Assign (f v, e x)
  | Imp.Store (a, i, x) -> Imp.Store (f a, e i, e x)
  | Imp.Store_add (a, i, x) -> Imp.Store_add (f a, e i, e x)
  | Imp.Store_reduce (r, a, i, x) -> Imp.Store_reduce (r, f a, e i, e x)
  | Imp.Alloc (t, v, n) -> Imp.Alloc (t, v, e n)
  | Imp.Realloc (v, n) -> Imp.Realloc (f v, e n)
  | Imp.Memset (v, n) -> Imp.Memset (f v, e n)
  | Imp.Fill (a, n, x) -> Imp.Fill (f a, e n, e x)
  | Imp.For (v, lo, hi, b) -> Imp.For (v, e lo, e hi, List.map (subst_stmt f) b)
  | Imp.ParallelFor (v, lo, hi, b, info) ->
      Imp.ParallelFor (v, e lo, e hi, List.map (subst_stmt f) b, info)
  | Imp.While (c, b) -> Imp.While (e c, List.map (subst_stmt f) b)
  | Imp.If (c, t, el) ->
      Imp.If (e c, List.map (subst_stmt f) t, List.map (subst_stmt f) el)
  | Imp.Set_alloc (v, n) -> Imp.Set_alloc (f v, e n)
  | Imp.Set_insert (v, j) -> Imp.Set_insert (f v, e j)
  | Imp.Set_drain (v, x, b) -> Imp.Set_drain (f v, x, List.map (subst_stmt f) b)
  | Imp.Comment _ as c -> c

(* ------------------------------------------------------------------ *)
(* Coordinate sets, in both renderings. A set over [0, n) is one      *)
(* uint64_t buffer: [words] = ceil(n/64) occupancy words, bit j & 63  *)
(* of word j >> 6 for coordinate j, then ceil(words/64) summary       *)
(* words, bit (j >> 6) & 63 of summary word j >> 12 set while word    *)
(* j >> 6 may be nonzero. Two scalars bound the summary words inserts *)
(* touched since the last drain, [lo, hi), so an empty row scans      *)
(* nothing and a banded one a window. An insert sets both bits and    *)
(* widens the window with no branch. A drain walks the window's       *)
(* summary words, skipping zero ones without a store, and, with       *)
(* __builtin_ctzll, the words they flag and their bits, in ascending  *)
(* order, zeroing each word it reads: O(window + words touched +      *)
(* members) per drain, the window at most n/4096.                     *)
(* ------------------------------------------------------------------ *)

(* The C scalars of set [s]: its word count and its window. *)
type set_scalars = { words : string; lo : string; hi : string }

let set_scalars prefix s =
  { words = prefix ^ s ^ "_words"; lo = prefix ^ s ^ "_lo"; hi = prefix ^ s ^ "_hi" }

(* The word count of a set over [n] coordinates, as int64_t. *)
let set_words_c n = Printf.sprintf "(((int64_t)TACO_MAX(%s, 0) + 63) >> 6)" (estr n)

(* Elements of the buffer: {!Imp.set_elems}. *)
let set_elems_c words = Printf.sprintf "%s + ((%s + 63) >> 6)" words words

(* An empty window: [lo] past every summary word. *)
let set_reset_line c = Printf.sprintf "%s = %s; %s = 0;" c.lo c.words c.hi

let set_insert_lines s c j =
  let j = estr j in
  [
    Printf.sprintf "%s[%s >> 6] |= (uint64_t)1 << (%s & 63);" s j j;
    Printf.sprintf "%s[%s + (%s >> 12)] |= (uint64_t)1 << ((%s >> 6) & 63);" s c.words j j;
    Printf.sprintf "%s = TACO_MIN(%s, %s >> 12); %s = TACO_MAX(%s, (%s >> 12) + 1);" c.lo c.lo j c.hi
      c.hi j;
  ]

(* The loops of a drain binding [v]: [open_lines], then the body three
   levels deeper, then [close_lines]. *)
let set_drain_lines s c v =
  let sw = s ^ "_sw" and wi = s ^ "_wi" and ww = s ^ "_ww" and si = s ^ "_s" in
  ( [
      Printf.sprintf "for (int32_t %s = %s; %s < %s; %s++) {" si c.lo si c.hi si;
      Printf.sprintf "  uint64_t %s = %s[%s + %s];" sw s c.words si;
      Printf.sprintf "  if (%s == 0) continue;" sw;
      Printf.sprintf "  %s[%s + %s] = 0;" s c.words si;
      Printf.sprintf "  for (; %s != 0; %s &= %s - 1) {" sw sw sw;
      Printf.sprintf "    int32_t %s = (%s << 6) | __builtin_ctzll(%s);" wi si sw;
      Printf.sprintf "    for (uint64_t %s = %s[%s]; %s != 0; %s &= %s - 1) {" ww s wi ww ww ww;
      Printf.sprintf "      int32_t %s = (%s << 6) | __builtin_ctzll(%s);" v wi ww;
    ],
    [ "    }"; Printf.sprintf "    %s[%s] = 0;" s wi; "  }"; "}"; set_reset_line c ] )

(* ------------------------------------------------------------------ *)
(* Inspection rendering (paper Fig. 6 style): one C function with the *)
(* tensor buffers as parameters, allocations as plain calloc.         *)
(* ------------------------------------------------------------------ *)

(* [unused]: arrays the kernel never reads (a kernel-wide test: each
   is allocated once). A scalar is judged by its own scope, [rest]: the
   statements after it in its block, as gcc's -Wunused-variable does. *)
let rec block ~unused ~sets buf ind = function
  | [] -> ()
  | s :: rest ->
      stmt ~unused ~sets ~rest buf ind s;
      block ~unused ~sets buf ind rest

(* [sets]: the kernel's coordinate sets, whose window scalars a
   parallel loop privatizing them names too. *)
and stmt ~unused ~sets ~rest buf ind s =
  let pad () = Buffer.add_string buf (String.make (2 * ind) ' ') in
  let line fmt = Printf.ksprintf (fun s -> pad (); Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let nested b = block ~unused ~sets buf (ind + 1) b in
  match s with
  | Imp.Decl (t, v, e) ->
      line "%s %s = %s;%s" (ctype t) v (estr e)
        (if read_in_scope v rest then "" else " (void)" ^ v ^ ";")
  | Imp.Assign (v, e) -> line "%s = %s;" v (estr e)
  | Imp.Store (a, i, v) -> line "%s[%s] = %s;" a (estr i) (estr v)
  | Imp.Store_add (a, i, v) -> line "%s[%s] += %s;" a (estr i) (estr v)
  | Imp.Store_reduce (r, a, i, v) -> line "%s" (reduce_line r a (estr i) (estr v))
  | Imp.Alloc (t, v, n) ->
      line "%s* %s = (%s*)calloc(%s, sizeof(%s));%s" (ctype t) v (ctype t) (estr n) (ctype t)
        (if unused v then " (void)" ^ v ^ ";" else "")
  | Imp.Realloc (v, n) -> line "%s = realloc(%s, %s * sizeof(*%s));" v v (estr n) v
  | Imp.Memset (v, n) -> line "memset(%s, 0, %s * sizeof(*%s));" v (estr n) v
  | Imp.Fill (a, n, v) ->
      line "for (int32_t taco_fi = 0; taco_fi < %s; taco_fi++) %s[taco_fi] = %s;" (estr n) a
        (estr v)
  | Imp.For (v, lo, hi, body) ->
      line "for (int32_t %s = %s; %s < %s; %s++) {" v (estr lo) v (estr hi) v;
      nested body;
      line "}"
  | Imp.ParallelFor (v, lo, hi, body, info) ->
      (* Annotation for inspection: the closure executor implements the
         chunked schedule itself, but the C rendering shows what a system
         compiler would be told. Workspaces are [firstprivate] — every
         chunk starts from a copy of the pre-loop workspace, which is
         OpenMP's copy-in clause (plain [private] would leave them
         uninitialized) — and ordered-append staging is spelled out so
         the concatenation contract is reviewable. *)
      let privates =
        match info.Imp.par_private with
        | [] -> ""
        | ps ->
            let names p =
              if List.mem p sets then
                let c = set_scalars "" p in
                [ p; c.lo; c.hi ]
              else [ p ]
            in
            " firstprivate(" ^ String.concat ", " (List.concat_map names ps) ^ ")"
      in
      let stage =
        match info.Imp.par_stage with
        | None -> ""
        | Some st ->
            Printf.sprintf " // taco: ordered-append(%s: %s%s)" st.Imp.pa_counter
              (String.concat ", " st.Imp.pa_arrays)
              (match st.Imp.pa_pos with None -> "" | Some p -> "; pos " ^ p)
      in
      line "#pragma omp parallel for schedule(static)%s%s" privates stage;
      line "for (int32_t %s = %s; %s < %s; %s++) {" v (estr lo) v (estr hi) v;
      nested body;
      line "}"
  | Imp.While (c, body) ->
      line "while (%s) {" (estr c);
      nested body;
      line "}"
  | Imp.If (c, t, []) ->
      line "if (%s) {" (estr c);
      nested t;
      line "}"
  | Imp.If (c, [], e) ->
      (* Else-only Ifs print as a negated test rather than an empty
         then-block. *)
      line "if (%s) {" (estr (Imp.Not c));
      nested e;
      line "}"
  | Imp.If (c, t, e) ->
      line "if (%s) {" (estr c);
      nested t;
      line "} else {";
      nested e;
      line "}"
  | Imp.Set_alloc (v, n) ->
      let c = set_scalars "" v in
      line "int64_t %s = %s;" c.words (set_words_c n);
      line "int64_t %s = %s, %s = 0;%s" c.lo c.words c.hi
        (if unused v then Printf.sprintf " (void)%s; (void)%s;" c.lo c.hi else "");
      line "uint64_t* %s = (uint64_t*)calloc(%s, sizeof(uint64_t));%s" v (set_elems_c c.words)
        (if unused v then " (void)" ^ v ^ ";" else "")
  | Imp.Set_insert (v, j) -> List.iter (line "%s") (set_insert_lines v (set_scalars "" v) j)
  | Imp.Set_drain (v, x, body) ->
      let open_lines, close_lines = set_drain_lines v (set_scalars "" v) x in
      List.iter (line "%s") open_lines;
      block ~unused ~sets buf (ind + 3) body;
      List.iter (line "%s") close_lines
  | Imp.Comment c -> line "// %s" c

let min_max_macros =
  "#define TACO_MIN(a, b) ((a) < (b) ? (a) : (b))\n#define TACO_MAX(a, b) ((a) > (b) ? (a) : (b))\n"

let prelude ~math buf =
  Buffer.add_string buf "#include <stdint.h>\n#include <stdbool.h>\n#include <stdlib.h>\n#include <string.h>\n";
  if math then Buffer.add_string buf "#include <math.h>\n";
  Buffer.add_string buf min_max_macros

let emit_untraced kernel =
  let buf = Buffer.create 2048 in
  prelude ~math:(needs_math kernel.Imp.k_body) buf;
  Buffer.add_char buf '\n';
  let written = written_arrays kernel in
  let param p =
    let t = ctype p.Imp.p_dtype in
    if p.Imp.p_array then
      if List.mem p.Imp.p_name written then Printf.sprintf "%s* restrict %s" t p.Imp.p_name
      else Printf.sprintf "const %s* restrict %s" t p.Imp.p_name
    else Printf.sprintf "%s %s" t p.Imp.p_name
  in
  Buffer.add_string buf
    (Printf.sprintf "int %s(%s) {\n" kernel.Imp.k_name
       (String.concat ", " (List.map param kernel.Imp.k_params)));
  let used = used_tbl kernel.Imp.k_body in
  let sets =
    List.filter_map (function v, None -> Some v | _, Some _ -> None) (alloc_list kernel.Imp.k_body)
  in
  block ~unused:(fun v -> not (Hashtbl.mem used v)) ~sets buf 1 kernel.Imp.k_body;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf

let emit kernel =
  Taco_support.Trace.with_span ~cat:"lower"
    ~args:[ ("kernel", kernel.Imp.k_name) ]
    "codegen_c"
    (fun () -> emit_untraced kernel)

(* ------------------------------------------------------------------ *)
(* Exec rendering: the translation unit the native backend compiles   *)
(* with the system C compiler and calls through dlopen: one prelude,  *)
(* then one exported entry point per kernel, all with a flat ABI:     *)
(*                                                                    *)
(*   int taco_entry_<i>(const int64_t* iargs, const double* fargs,    *)
(*                      void** aargs, void** esc, int64_t* esc_len,   *)
(*                      int64_t mem_limit, int64_t deadline_ns,       *)
(*                      const taco_rt_t* rt)                          *)
(*                                                                    *)
(* Scalar parameters arrive in iargs/fargs and array parameters in    *)
(* aargs, each in kernel-parameter order. Arrays the kernel allocates *)
(* (workspaces and assembled outputs) are returned through esc[] /    *)
(* esc_len[] in {!exec_escapes} order; ownership of those buffers     *)
(* passes to the caller on success. Return codes: 0 ok, 1 allocation  *)
(* failed or exceeded [mem_limit] (host maps it to E_EXEC_MEM), 2     *)
(* deadline expired (E_EXEC_CANCELLED). On a nonzero return every     *)
(* kernel allocation has been freed and esc[] is untouched.           *)
(*                                                                    *)
(* [rt] is the kernel runtime table the host implements once          *)
(* (native_stubs.c), so no kernel includes a header or links libc:    *)
(*   alloc(rt, p, &cap, n, size, limit)  release p, then [max 1 n]    *)
(*                                   zeroed elements; NULL past the   *)
(*                                   budget                           *)
(*   grow(rt, p, &cap, n, size, limit)  grow to [max cap n], zeroed   *)
(*                                   tail; on failure p is released   *)
(*                                   and NULL returned                *)
(*   now_ns()                        CLOCK_MONOTONIC, the Trace clock *)
(*   release(p)                      free a table allocation          *)
(*   refused                         the call's refusal record: alloc *)
(*                                   and grow take the table so a     *)
(*                                   refusal on any thread reaches it *)
(* The budget check is element-count > limit/8 on the clamped size,   *)
(* the closure executor's rule, so results and E_EXEC_MEM boundaries  *)
(* are bit-identical; outermost For loops poll the deadline every 256 *)
(* iterations. The host passes -ffp-contract=off so the compiler      *)
(* cannot fuse a*b+c into fma and change rounding.                    *)
(* ------------------------------------------------------------------ *)

type ectx = {
  ebuf : Buffer.t;
  allocs : (string * Imp.dtype option) list;
  mutable uses_fail : bool;
  mutable par_id : int;
}

(* A ParallelFor the exec rendering can hand to OpenMP directly: no
   ordered-append staging, every private an allocated array (each
   thread gets a heap copy; a coordinate set's window scalars would
   need private copies too, and sets only arise in assembly, which
   stages its append), no allocation inside the body, and no
   assignment to scalars declared outside the body. Anything else runs
   sequentially (the closure executor's chunk-merge protocol has no
   cheap OpenMP equivalent, and a goto out of a parallel region —
   which the allocation failure paths need — is illegal C). *)
let omp_parallelizable ctx body info =
  info.Imp.par_stage = None
  && List.for_all
       (fun p -> match List.assoc_opt p ctx.allocs with Some (Some _) -> true | Some None | None -> false)
       info.Imp.par_private
  && (not
        (body_has
           (function Imp.Alloc _ | Imp.Set_alloc _ | Imp.Realloc _ -> true | _ -> false)
           body))
  &&
  let decl = Imp.declared body in
  List.for_all (fun v -> List.mem v decl) (assign_targets body)

let rec block ctx ind ~depth = function
  | [] -> ()
  | s :: rest ->
      stmt_exec ctx ind ~depth ~rest s;
      block ctx ind ~depth rest

(* [rest]: the statements after [s] in its block. *)
and stmt_exec ctx ind ~depth ~rest s =
  let buf = ctx.ebuf in
  let pad () = Buffer.add_string buf (String.make (2 * ind) ' ') in
  let line fmt = Printf.ksprintf (fun s -> pad (); Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let fail rc = Printf.sprintf "{ taco_rc = %d; goto taco_fail; }" rc in
  match s with
  | Imp.Decl (t, v, e) ->
      line "%s %s = %s;%s" (ctype t) v (estr e)
        (if read_in_scope v rest then "" else " (void)" ^ v ^ ";")
  | Imp.Assign (v, e) -> line "%s = %s;" v (estr e)
  | Imp.Store (a, i, v) -> line "%s[%s] = %s;" a (estr i) (estr v)
  | Imp.Store_add (a, i, v) -> line "%s[%s] += %s;" a (estr i) (estr v)
  | Imp.Store_reduce (r, a, i, v) -> line "%s" (exec_reduce_line r a (estr i) (estr v))
  | Imp.Alloc (_, v, n) ->
      ctx.uses_fail <- true;
      line "if (!(%s = taco_rt->alloc(taco_rt, %s, &taco_cap_%s, %s, sizeof(*%s), taco_mem_limit))) %s" v v
        v (estr n) v (fail 1)
  | Imp.Realloc (v, n) ->
      ctx.uses_fail <- true;
      line "if (!(%s = taco_rt->grow(taco_rt, %s, &taco_cap_%s, %s, sizeof(*%s), taco_mem_limit))) %s" v v v
        (estr n) v (fail 1)
  | Imp.Memset (v, n) -> line "__builtin_memset(%s, 0, (size_t)(%s) * sizeof(*%s));" v (estr n) v
  | Imp.Fill (a, n, v) ->
      line "for (int32_t taco_fi = 0; taco_fi < %s; taco_fi++) %s[taco_fi] = %s;" (estr n) a
        (estr v)
  | Imp.For (v, lo, hi, body) ->
      line "for (int32_t %s = %s; %s < %s; %s++) {" v (estr lo) v (estr hi) v;
      if depth = 0 then begin
        ctx.uses_fail <- true;
        line "  if (taco_deadline_ns != INT64_MAX && (%s & %d) == 0 && taco_rt->now_ns() > taco_deadline_ns) %s"
          v 255 (fail 2)
      end;
      block ctx (ind + 1) ~depth:(depth + 1) body;
      line "}"
  | Imp.ParallelFor (v, lo, hi, body, info) ->
      if not (omp_parallelizable ctx body info) then begin
        line "// taco: parallel loop run sequentially by the native backend (staged append)";
        stmt_exec ctx ind ~depth ~rest (Imp.For (v, lo, hi, body))
      end
      else begin
        let id = ctx.par_id in
        ctx.par_id <- ctx.par_id + 1;
        let privates =
          List.map (fun p -> (p, buffer_ctype (List.assoc p ctx.allocs))) info.Imp.par_private
        in
        let pv p = Printf.sprintf "taco_pv%d_%s" id p in
        let body =
          if privates = [] then body
          else
            let f a = if List.mem_assoc a privates then pv a else a in
            List.map (subst_stmt f) body
        in
        (* No deadline poll inside these loops: a goto out of an OpenMP
           region is illegal C, so parallel loops are not cancellable
           mid-flight (the host documents this narrowing). *)
        if privates = [] then begin
          line "#pragma omp parallel for schedule(static)";
          line "for (int32_t %s = %s; %s < %s; %s++) {" v (estr lo) v (estr hi) v;
          block ctx (ind + 1) ~depth:(depth + 1) body;
          line "}"
        end
        else begin
          ctx.uses_fail <- true;
          line "{";
          line "  int taco_oom%d = 0;" id;
          line "  #pragma omp parallel reduction(|:taco_oom%d)" id;
          line "  {";
          List.iter
            (fun (p, t) ->
              line "    %s* %s = (%s*)__builtin_malloc((size_t)TACO_MAX(taco_cap_%s, 1) * sizeof(%s));"
                t (pv p) t p t)
            privates;
          line "    int taco_ok%d = %s;" id
            (String.concat " && " (List.map (fun (p, _) -> pv p ^ " != NULL") privates));
          line "    if (taco_ok%d) {" id;
          List.iter
            (fun (p, t) ->
              line "      __builtin_memcpy(%s, %s, (size_t)taco_cap_%s * sizeof(%s));" (pv p) p p t)
            privates;
          line "    } else {";
          line "      taco_oom%d = 1;" id;
          line "    }";
          line "    #pragma omp for schedule(static)";
          line "    for (int32_t %s = %s; %s < %s; %s++) {" v (estr lo) v (estr hi) v;
          line "      if (taco_ok%d) {" id;
          block ctx (ind + 4) ~depth:(depth + 1) body;
          line "      }";
          line "    }";
          List.iter (fun (p, _) -> line "    taco_rt->release(%s);" (pv p)) privates;
          line "  }";
          line "  if (taco_oom%d) %s" id (fail 1);
          line "}"
        end
      end
  | Imp.While (c, body) ->
      line "while (%s) {" (estr c);
      block ctx (ind + 1) ~depth:(depth + 1) body;
      line "}"
  | Imp.If (c, t, []) ->
      line "if (%s) {" (estr c);
      block ctx (ind + 1) ~depth t;
      line "}"
  | Imp.If (c, [], e) ->
      line "if (%s) {" (estr (Imp.Not c));
      block ctx (ind + 1) ~depth e;
      line "}"
  | Imp.If (c, t, e) ->
      line "if (%s) {" (estr c);
      block ctx (ind + 1) ~depth t;
      line "} else {";
      block ctx (ind + 1) ~depth e;
      line "}"
  | Imp.Set_alloc (v, n) ->
      ctx.uses_fail <- true;
      let c = set_scalars "taco_" v in
      line "%s = %s;" c.words (set_words_c n);
      line "%s" (set_reset_line c);
      line "if (!(%s = taco_rt->alloc(taco_rt, %s, &taco_cap_%s, %s, sizeof(*%s), taco_mem_limit))) %s" v v
        v (set_elems_c c.words) v (fail 1)
  | Imp.Set_insert (v, j) -> List.iter (line "%s") (set_insert_lines v (set_scalars "taco_" v) j)
  | Imp.Set_drain (v, x, body) ->
      let open_lines, close_lines = set_drain_lines v (set_scalars "taco_" v) x in
      List.iter (line "%s") open_lines;
      block ctx (ind + 3) ~depth:(depth + 1) body;
      List.iter (line "%s") close_lines
  | Imp.Comment c -> line "// %s" c

(* Kernel [i] of a translation unit exports [taco_entry_<i>]. *)
let entry_name i = Printf.sprintf "taco_entry_%d" i

(* One kernel's exported function, [entry_name i]. *)
let exec_function buf i kernel =
  (match exec_unsupported kernel with
  | Some r -> invalid_arg ("Codegen_c.emit_exec: " ^ r)
  | None -> ());
  let body = kernel.Imp.k_body in
  let allocs = alloc_list body in
  let escapes = exec_escapes kernel in
  let written = written_arrays kernel in
  let used = used_tbl body in
  let ctx = { ebuf = Buffer.create 4096; allocs; uses_fail = false; par_id = 0 } in
  block ctx 1 ~depth:0 body;
  Buffer.add_string buf
    (Printf.sprintf
       "\n// kernel %s\n\
        int %s(const int64_t* taco_iargs, const double* taco_fargs, void** taco_aargs,\n\
       \               void** taco_esc, int64_t* taco_esc_len, int64_t taco_mem_limit,\n\
       \               int64_t taco_deadline_ns, const taco_rt_t* taco_rt) {\n"
       kernel.Imp.k_name (entry_name i));
  Buffer.add_string buf
    "  (void)taco_iargs; (void)taco_fargs; (void)taco_aargs; (void)taco_esc;\n\
    \  (void)taco_esc_len; (void)taco_mem_limit; (void)taco_deadline_ns; (void)taco_rt;\n";
  if ctx.uses_fail then Buffer.add_string buf "  int taco_rc = 0;\n";
  (* Parameter bindings, in kernel-parameter order with one running
     index per argument bank. *)
  let ii = ref 0 and fi = ref 0 and ai = ref 0 in
  List.iter
    (fun p ->
      let n = p.Imp.p_name in
      let silence = if Hashtbl.mem used n then "" else Printf.sprintf " (void)%s;" n in
      (if not p.Imp.p_array then begin
         match p.Imp.p_dtype with
         | Imp.Int ->
             Buffer.add_string buf
               (Printf.sprintf "  int32_t %s = (int32_t)taco_iargs[%d];%s\n" n !ii silence);
             incr ii
         | Imp.Float ->
             Buffer.add_string buf
               (Printf.sprintf "  double %s = taco_fargs[%d];%s\n" n !fi silence);
             incr fi
         | Imp.Bool -> invalid_arg "Codegen_c.emit_exec: bool parameter"
       end
       else
         let t = ctype p.Imp.p_dtype in
         let decl =
           if List.mem n written then Printf.sprintf "  %s* restrict %s = (%s*)taco_aargs[%d];%s\n" t n t !ai silence
           else Printf.sprintf "  const %s* restrict %s = (const %s*)taco_aargs[%d];%s\n" t n t !ai silence
         in
         Buffer.add_string buf decl;
         incr ai))
    kernel.Imp.k_params;
  (* Allocated arrays: declared up front (NULL) with a capacity tracker
     so re-allocation, the zeroed realloc tail and the escape lengths
     all have one source of truth, and so the failure path can free
     everything unconditionally. *)
  List.iter
    (fun (v, t) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s* %s = NULL; int64_t taco_cap_%s = 0;\n" (buffer_ctype t) v v))
    allocs;
  List.iter
    (function
      | v, None ->
          let c = set_scalars "taco_" v in
          Buffer.add_string buf
            (Printf.sprintf "  int64_t %s = 0, %s = 0, %s = 0;\n" c.words c.lo c.hi)
      | _, Some _ -> ())
    allocs;
  Buffer.add_string buf (Buffer.contents ctx.ebuf);
  (* Success epilogue: hand escaping buffers to the host, free the rest. *)
  List.iteri
    (fun i (v, _) ->
      Buffer.add_string buf
        (Printf.sprintf "  taco_esc[%d] = %s; taco_esc_len[%d] = taco_cap_%s;\n" i v i v))
    escapes;
  List.iter
    (fun (v, _) ->
      if not (List.mem_assoc v escapes) then
        Buffer.add_string buf (Printf.sprintf "  taco_rt->release(%s);\n" v))
    allocs;
  Buffer.add_string buf "  return 0;\n";
  if ctx.uses_fail then begin
    Buffer.add_string buf "taco_fail:\n";
    List.iter (fun (v, _) -> Buffer.add_string buf (Printf.sprintf "  taco_rt->release(%s);\n" v)) allocs;
    Buffer.add_string buf "  return taco_rc;\n"
  end;
  Buffer.add_string buf "}\n"

(* The prelude appears once: the typedefs, the math names if any kernel
   needs them, the min/max macros and the runtime table. *)
let emit_exec_untraced kernels =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "// taco native rendering\n";
  (* No #include: the few names the kernels use come from compiler
     builtins, so cc parses no header. *)
  Buffer.add_string buf
    "typedef __INT32_TYPE__ int32_t;\n\
     typedef __INT64_TYPE__ int64_t;\n\
     typedef __UINT64_TYPE__ uint64_t;\n\
     typedef __SIZE_TYPE__ size_t;\n\
     #define bool _Bool\n\
     #define NULL ((void*)0)\n\
     #define INT64_MAX __INT64_MAX__\n";
  if List.exists (fun k -> needs_math k.Imp.k_body) kernels then
    Buffer.add_string buf
      "#define INFINITY __builtin_inf()\n\
       #define NAN __builtin_nan(\"\")\n";
  Buffer.add_string buf min_max_macros;
  (* Layout contract with native_stubs.c, which fills the table. *)
  Buffer.add_string buf
    "typedef struct taco_rt {\n\
    \  void* (*alloc)(const struct taco_rt* rt, void* p, int64_t* cap, int64_t n, size_t size, int64_t limit);\n\
    \  void* (*grow)(const struct taco_rt* rt, void* p, int64_t* cap, int64_t n, size_t size, int64_t limit);\n\
    \  int64_t (*now_ns)(void);\n\
    \  void (*release)(void* p);\n\
    \  int64_t* refused;\n\
     } taco_rt_t;\n";
  List.iteri (exec_function buf) kernels;
  Buffer.contents buf

let emit_exec kernels =
  Taco_support.Trace.with_span ~cat:"lower"
    ~args:[ ("kernels", String.concat "," (List.map (fun k -> k.Imp.k_name) kernels)) ]
    "codegen_c.exec"
    (fun () -> emit_exec_untraced kernels)
