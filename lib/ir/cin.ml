open Var

type access = { tensor : Tensor_var.t; indices : Index_var.t list }

type expr =
  | Literal of float
  | Access of access
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type op = Assign | Accumulate

type stmt =
  | Assignment of { lhs : access; op : op; rhs : expr }
  | Forall of Index_var.t * stmt
  | Where of stmt * stmt
  | Sequence of stmt * stmt

let access tensor indices =
  if List.length indices <> Tensor_var.order tensor then
    invalid_arg "Cin.access: arity mismatch";
  { tensor; indices }

let assign lhs rhs = Assignment { lhs; op = Assign; rhs }

let accumulate lhs rhs = Assignment { lhs; op = Accumulate; rhs }

let forall v s = Forall (v, s)

let foralls vars s = List.fold_right forall vars s

let where ~consumer ~producer = Where (consumer, producer)

let sequence a b = Sequence (a, b)

let equal_access a b =
  Tensor_var.equal a.tensor b.tensor
  && List.length a.indices = List.length b.indices
  && List.for_all2 Index_var.equal a.indices b.indices

let rec equal_expr a b =
  match (a, b) with
  | Literal x, Literal y -> x = y
  | Access x, Access y -> equal_access x y
  | Neg x, Neg y -> equal_expr x y
  | Add (x1, x2), Add (y1, y2)
  | Sub (x1, x2), Sub (y1, y2)
  | Mul (x1, x2), Mul (y1, y2)
  | Div (x1, x2), Div (y1, y2) -> equal_expr x1 y1 && equal_expr x2 y2
  | (Literal _ | Access _ | Neg _ | Add _ | Sub _ | Mul _ | Div _), _ -> false

let rec equal_stmt a b =
  match (a, b) with
  | Assignment x, Assignment y ->
      equal_access x.lhs y.lhs && x.op = y.op && equal_expr x.rhs y.rhs
  | Forall (v, s), Forall (w, t) -> Index_var.equal v w && equal_stmt s t
  | Where (c1, p1), Where (c2, p2) -> equal_stmt c1 c2 && equal_stmt p1 p2
  | Sequence (s1, s2), Sequence (t1, t2) -> equal_stmt s1 t1 && equal_stmt s2 t2
  | (Assignment _ | Forall _ | Where _ | Sequence _), _ -> false

let dedup = Taco_support.Util.dedup_stable

let rec expr_vars_raw = function
  | Literal _ -> []
  | Access a -> a.indices
  | Neg e -> expr_vars_raw e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr_vars_raw a @ expr_vars_raw b

let expr_vars e = dedup (expr_vars_raw e)

let rec stmt_vars_raw = function
  | Assignment { lhs; rhs; _ } -> lhs.indices @ expr_vars_raw rhs
  | Forall (v, s) -> v :: stmt_vars_raw s
  | Where (c, p) -> stmt_vars_raw c @ stmt_vars_raw p
  | Sequence (a, b) -> stmt_vars_raw a @ stmt_vars_raw b

let stmt_vars s = dedup (stmt_vars_raw s)

let uses_var s v = List.exists (Index_var.equal v) (stmt_vars_raw s)

let rec expr_accesses = function
  | Literal _ -> []
  | Access a -> [ a ]
  | Neg e -> expr_accesses e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr_accesses a @ expr_accesses b

let rec stmt_accesses = function
  | Assignment { lhs; rhs; _ } -> lhs :: expr_accesses rhs
  | Forall (_, s) -> stmt_accesses s
  | Where (c, p) -> stmt_accesses c @ stmt_accesses p
  | Sequence (a, b) -> stmt_accesses a @ stmt_accesses b

let rec expr_tensors = function
  | Literal _ -> []
  | Access a -> [ a.tensor ]
  | Neg e -> expr_tensors e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr_tensors a @ expr_tensors b

let rec reads = function
  | Assignment { rhs; _ } -> expr_tensors rhs
  | Forall (_, s) -> reads s
  | Where (c, p) -> reads c @ reads p
  | Sequence (a, b) -> reads a @ reads b

let rec writes = function
  | Assignment { lhs; _ } -> [ lhs.tensor ]
  | Forall (_, s) -> writes s
  | Where (c, p) -> writes c @ writes p
  | Sequence (a, b) -> writes a @ writes b

let tensors_read s = dedup (reads s)

let tensors_written s = dedup (writes s)

let tensors s = dedup (writes s @ reads s)

let rec contains_sequence = function
  | Assignment _ -> false
  | Forall (_, s) -> contains_sequence s
  | Where (c, p) -> contains_sequence c || contains_sequence p
  | Sequence _ -> true

let rec contains_expr haystack needle =
  equal_expr haystack needle
  ||
  match haystack with
  | Literal _ | Access _ -> false
  | Neg e -> contains_expr e needle
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      contains_expr a needle || contains_expr b needle

let rec subst_expr ~from ~into e =
  if equal_expr e from then into
  else
    match e with
    | Literal _ | Access _ -> e
    | Neg a -> Neg (subst_expr ~from ~into a)
    | Add (a, b) -> Add (subst_expr ~from ~into a, subst_expr ~from ~into b)
    | Sub (a, b) -> Sub (subst_expr ~from ~into a, subst_expr ~from ~into b)
    | Mul (a, b) -> Mul (subst_expr ~from ~into a, subst_expr ~from ~into b)
    | Div (a, b) -> Div (subst_expr ~from ~into a, subst_expr ~from ~into b)

let rec subst_stmt ~from ~into = function
  | Assignment { lhs; op; rhs } ->
      Assignment { lhs; op; rhs = subst_expr ~from ~into rhs }
  | Forall (v, s) -> Forall (v, subst_stmt ~from ~into s)
  | Where (c, p) -> Where (subst_stmt ~from ~into c, subst_stmt ~from ~into p)
  | Sequence (a, b) -> Sequence (subst_stmt ~from ~into a, subst_stmt ~from ~into b)

let rename_in_access ~from ~into a =
  {
    a with
    indices =
      List.map (fun v -> if Index_var.equal v from then into else v) a.indices;
  }

let rec rename_in_expr ~from ~into = function
  | Literal v -> Literal v
  | Access a -> Access (rename_in_access ~from ~into a)
  | Neg e -> Neg (rename_in_expr ~from ~into e)
  | Add (a, b) -> Add (rename_in_expr ~from ~into a, rename_in_expr ~from ~into b)
  | Sub (a, b) -> Sub (rename_in_expr ~from ~into a, rename_in_expr ~from ~into b)
  | Mul (a, b) -> Mul (rename_in_expr ~from ~into a, rename_in_expr ~from ~into b)
  | Div (a, b) -> Div (rename_in_expr ~from ~into a, rename_in_expr ~from ~into b)

let rec rename_var ~from ~into = function
  | Assignment { lhs; op; rhs } ->
      Assignment
        {
          lhs = rename_in_access ~from ~into lhs;
          op;
          rhs = rename_in_expr ~from ~into rhs;
        }
  | Forall (v, s) ->
      Forall
        ( (if Index_var.equal v from then into else v),
          rename_var ~from ~into s )
  | Where (c, p) -> Where (rename_var ~from ~into c, rename_var ~from ~into p)
  | Sequence (a, b) ->
      Sequence (rename_var ~from ~into a, rename_var ~from ~into b)

let is_zero = function Literal 0. -> true | Literal _ | Access _ | Neg _ | Add _ | Sub _ | Mul _ | Div _ -> false

let is_one = function Literal 1. -> true | Literal _ | Access _ | Neg _ | Add _ | Sub _ | Mul _ | Div _ -> false

let rec simplify e =
  match e with
  | Literal _ | Access _ -> e
  | Neg a -> (
      match simplify a with
      | Literal v -> Literal (-.v)
      | a' -> Neg a')
  | Add (a, b) -> (
      match (simplify a, simplify b) with
      | a', b' when is_zero a' -> b'
      | a', b' when is_zero b' -> a'
      | Literal x, Literal y -> Literal (x +. y)
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (simplify a, simplify b) with
      | a', b' when is_zero b' -> a'
      | a', b' when is_zero a' -> simplify (Neg b')
      | Literal x, Literal y -> Literal (x -. y)
      | a', b' -> Sub (a', b'))
  | Mul (a, b) -> (
      match (simplify a, simplify b) with
      | a', _ when is_zero a' -> Literal 0.
      | _, b' when is_zero b' -> Literal 0.
      | a', b' when is_one a' -> b'
      | a', b' when is_one b' -> a'
      | Literal x, Literal y -> Literal (x *. y)
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> (
      match (simplify a, simplify b) with
      | a', _ when is_zero a' -> Literal 0.
      | a', b' when is_one b' -> a'
      | Literal x, Literal y when y <> 0. -> Literal (x /. y)
      | a', b' -> Div (a', b'))

let is_lit v = function
  | Literal x -> x = v
  | Access _ | Neg _ | Add _ | Sub _ | Mul _ | Div _ -> false

(* Identity/annihilator elimination under a semiring reading of the
   tree: [Add] is the semiring add (identity [zero]) and [Mul] the
   semiring mul (identity [one]; [zero] annihilates only when the
   semiring says so). No constant folding — [Literal 3. + Literal 4.]
   is min-plus 3, not 7, so folding with float (+) would lie. *)
let rec simplify_sr ~zero ~one ~annihilates e =
  let s = simplify_sr ~zero ~one ~annihilates in
  match e with
  | Literal _ | Access _ -> e
  | Neg a -> Neg (s a)
  | Add (a, b) -> (
      match (s a, s b) with
      | a', b' when is_lit zero a' -> b'
      | a', b' when is_lit zero b' -> a'
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> Sub (s a, s b)
  | Mul (a, b) -> (
      match (s a, s b) with
      | a', _ when annihilates && is_lit zero a' -> Literal zero
      | _, b' when annihilates && is_lit zero b' -> Literal zero
      | a', b' when is_lit one a' -> b'
      | a', b' when is_lit one b' -> a'
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> Div (s a, s b)

let rec zero_tensor_raw tv = function
  | Literal v -> Literal v
  | Access a -> if Tensor_var.equal a.tensor tv then Literal 0. else Access a
  | Neg e -> Neg (zero_tensor_raw tv e)
  | Add (a, b) -> Add (zero_tensor_raw tv a, zero_tensor_raw tv b)
  | Sub (a, b) -> Sub (zero_tensor_raw tv a, zero_tensor_raw tv b)
  | Mul (a, b) -> Mul (zero_tensor_raw tv a, zero_tensor_raw tv b)
  | Div (a, b) -> Div (zero_tensor_raw tv a, zero_tensor_raw tv b)

let zero_tensor tv e = simplify (zero_tensor_raw tv e)

let rec peel_foralls = function
  | Forall (v, s) ->
      let vars, body = peel_foralls s in
      (v :: vars, body)
  | (Assignment _ | Where _ | Sequence _) as s -> ([], s)

let validate stmt =
  let ( let* ) r f = Result.bind r f in
  let check_access bound a =
    if List.length a.indices <> Tensor_var.order a.tensor then
      Error
        (Printf.sprintf "access to %s has %d indices but order %d"
           (Tensor_var.name a.tensor) (List.length a.indices)
           (Tensor_var.order a.tensor))
    else
      match
        List.find_opt
          (fun v -> not (List.exists (Index_var.equal v) bound))
          a.indices
      with
      | Some v ->
          Error
            (Printf.sprintf "index variable %s is not bound by a forall"
               (Index_var.name v))
      | None -> Ok ()
  in
  let rec check_expr bound = function
    | Literal _ -> Ok ()
    | Access a -> check_access bound a
    | Neg e -> check_expr bound e
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
        let* () = check_expr bound a in
        check_expr bound b
  in
  let rec check bound = function
    | Assignment { lhs; rhs; _ } ->
        let* () = check_access bound lhs in
        check_expr bound rhs
    | Forall (v, s) ->
        if List.exists (Index_var.equal v) bound then
          Error (Printf.sprintf "duplicate forall binder %s" (Index_var.name v))
        else check (v :: bound) s
    | Where (c, p) ->
        let* () = check bound p in
        let* () = check bound c in
        let written = tensors_written p in
        let read = tensors_read c in
        if List.exists (fun t -> List.exists (Tensor_var.equal t) read) written
        then Ok ()
        else Error "where-producer writes no tensor that the consumer reads"
    | Sequence (a, b) ->
        let* () = check bound a in
        check bound b
  in
  check [] stmt

let prec_expr = function
  | Literal _ | Access _ -> 3
  | Neg _ -> 2
  | Mul _ | Div _ -> 1
  | Add _ | Sub _ -> 0

let rec pp_expr fmt e =
  let child fmt c =
    if prec_expr c < prec_expr e then Format.fprintf fmt "(%a)" pp_expr c
    else pp_expr fmt c
  in
  match e with
  | Literal v -> Format.fprintf fmt "%g" v
  | Access { tensor; indices = [] } -> Tensor_var.pp fmt tensor
  | Access { tensor; indices } ->
      Format.fprintf fmt "%a(%s)" Tensor_var.pp tensor
        (String.concat "," (List.map Index_var.name indices))
  | Neg a -> Format.fprintf fmt "-%a" child a
  | Add (a, b) -> Format.fprintf fmt "%a + %a" child a child b
  | Sub (a, b) -> Format.fprintf fmt "%a - %a" child a child b
  | Mul (a, b) -> Format.fprintf fmt "%a * %a" child a child b
  | Div (a, b) -> Format.fprintf fmt "%a / %a" child a child b

let rec pp fmt = function
  | Assignment { lhs; op; rhs } ->
      let op = match op with Assign -> "=" | Accumulate -> "+=" in
      Format.fprintf fmt "%a %s %a" pp_expr (Access lhs) op pp_expr rhs
  | Forall (v, s) -> (
      (* Merge consecutive foralls: ∀i,k,j. *)
      let vars, body = peel_foralls (Forall (v, s)) in
      match body with
      | Assignment _ ->
          Format.fprintf fmt "@[<hov 2>∀%s %a@]"
            (String.concat "," (List.map Index_var.name vars))
            pp body
      | Where _ | Sequence _ | Forall _ ->
          Format.fprintf fmt "@[<hov 2>∀%s (%a)@]"
            (String.concat "," (List.map Index_var.name vars))
            pp body)
  | Where (c, p) ->
      Format.fprintf fmt "@[<hov 2>(%a)@ where@ (%a)@]" pp c pp p
  | Sequence (a, b) -> Format.fprintf fmt "@[<hov 2>%a ;@ %a@]" pp a pp b

let to_string s =
  let buf = Buffer.create 128 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt max_int;
  pp fmt s;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let pp_pseudocode fmt stmt =
  let indent n = String.make (2 * n) ' ' in
  let rec go depth = function
    | Assignment { lhs; op; rhs } ->
        let op = match op with Assign -> "=" | Accumulate -> "+=" in
        Format.fprintf fmt "%s%s %s %s@." (indent depth)
          (Format.asprintf "%a" pp_expr (Access lhs))
          op
          (Format.asprintf "%a" pp_expr rhs)
    | Forall (v, s) ->
        Format.fprintf fmt "%sfor %s ∈ %s@." (indent depth) (Index_var.name v)
          (String.uppercase_ascii (Index_var.name v));
        go (depth + 1) s
    | Where (c, p) ->
        let ws = tensors_written p in
        List.iter
          (fun w ->
            if Tensor_var.is_workspace w then
              Format.fprintf fmt "%s%s = 0@." (indent depth) (Tensor_var.name w))
          ws;
        go depth p;
        go depth c
    | Sequence (a, b) ->
        go depth a;
        go depth b
  in
  go 0 stmt
