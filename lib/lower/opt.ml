open Imp
module SS = Set.Make (String)
module SM = Map.Make (String)

type config = {
  simplify : bool;
  memset_fusion : bool;
  while_to_for : bool;
  branch_fusion : bool;
  cse : bool;
  licm : bool;
  dce : bool;
}

let all =
  {
    simplify = true;
    memset_fusion = true;
    while_to_for = true;
    branch_fusion = true;
    cse = true;
    licm = true;
    dce = true;
  }

let none =
  {
    simplify = false;
    memset_fusion = false;
    while_to_for = false;
    branch_fusion = false;
    cse = false;
    licm = false;
    dce = false;
  }

(* Rewrite-fire accounting: every pass bumps its domain's [fires]
   counter at each discrete rewrite it performs (a fold, a fused
   memset, a hoisted decl, a dropped statement, ...). [optimize_stats]
   resets the counter around each pass and reports the per-pass totals.
   The counter is per-domain, so optimizations running concurrently on
   several domains (e.g. service workers building on cache misses) each
   count only their own rewrites. *)
let fires = Domain.DLS.new_key (fun () -> ref 0)

let fire () = incr (Domain.DLS.get fires)

(* ------------------------------------------------------------------ *)
(* Shared analysis helpers                                             *)
(* ------------------------------------------------------------------ *)

type vkind = Vscalar of dtype | Varray of dtype

(* Flat typing environment of a validated kernel. Validation guarantees
   redeclarations agree on type/arity, so one map covers every scope. *)
let kernel_env (k : kernel) : vkind SM.t =
  let declare env name kind = SM.add name kind env in
  let env =
    List.fold_left
      (fun env p ->
        declare env p.p_name (if p.p_array then Varray p.p_dtype else Vscalar p.p_dtype))
      SM.empty k.k_params
  in
  let rec go_stmts env ss = List.fold_left go_stmt env ss
  and go_stmt env = function
    | Decl (t, v, _) -> declare env v (Vscalar t)
    | Alloc (t, v, _) -> declare env v (Varray t)
    | For (v, _, _, body) | ParallelFor (v, _, _, body, _) ->
        go_stmts (declare env v (Vscalar Int)) body
    | While (_, body) -> go_stmts env body
    | If (_, t, e) -> go_stmts (go_stmts env t) e
    | Assign _ | Store _ | Store_add _ | Store_reduce _ | Realloc _ | Memset _ | Fill _
    | Sort _ | Comment _ ->
        env
  in
  go_stmts env k.k_body

(* Only called on validated kernels; the fallbacks are unreachable. *)
let rec infer_type env = function
  | Var v -> ( match SM.find_opt v env with Some (Vscalar t) -> t | _ -> Int)
  | Int_lit _ -> Int
  | Float_lit _ -> Float
  | Bool_lit _ -> Bool
  | Load (a, _) -> ( match SM.find_opt a env with Some (Varray t) -> t | _ -> Float)
  | Binop ((Add | Sub | Mul | Div | Min | Max), a, _) -> infer_type env a
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> Bool
  | Not _ -> Bool
  | Ternary (_, a, _) -> infer_type env a
  | Round_single _ -> Float

let rec refs_into (scalars, arrays) = function
  | Var v -> (SS.add v scalars, arrays)
  | Int_lit _ | Float_lit _ | Bool_lit _ -> (scalars, arrays)
  | Load (a, i) -> refs_into (scalars, SS.add a arrays) i
  | Binop (_, a, b) -> refs_into (refs_into (scalars, arrays) a) b
  | Not e | Round_single e -> refs_into (scalars, arrays) e
  | Ternary (c, a, b) -> refs_into (refs_into (refs_into (scalars, arrays) c) a) b

let expr_refs e = refs_into (SS.empty, SS.empty) e

let expr_names e =
  let s, a = expr_refs e in
  SS.union s a

let rec expr_has p e =
  p e
  ||
  match e with
  | Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> false
  | Load (_, i) -> expr_has p i
  | Binop (_, a, b) -> expr_has p a || expr_has p b
  | Not a | Round_single a -> expr_has p a
  | Ternary (c, a, b) -> expr_has p c || expr_has p a || expr_has p b

let has_load e = expr_has (function Load _ -> true | _ -> false) e

let has_div e = expr_has (function Binop (Div, _, _) -> true | _ -> false) e

(* Scalars written by the statements: Assign targets, Decl'd names and
   loop variables, at any nesting depth. *)
let assigned_scalars ss =
  let rec go acc = function
    | Decl (_, v, _) | Assign (v, _) -> SS.add v acc
    | For (v, _, _, body) | ParallelFor (v, _, _, body, _) ->
        List.fold_left go (SS.add v acc) body
    | While (_, body) -> List.fold_left go acc body
    | If (_, t, e) -> List.fold_left go (List.fold_left go acc t) e
    | Store _ | Store_add _ | Store_reduce _ | Alloc _ | Realloc _ | Memset _ | Fill _
    | Sort _ | Comment _ ->
        acc
  in
  List.fold_left go SS.empty ss

(* Arrays written (or replaced) by the statements, at any depth. *)
let mutated_arrays ss =
  let rec go acc = function
    | Store (a, _, _) | Store_add (a, _, _) | Store_reduce (_, a, _, _) | Realloc (a, _)
    | Memset (a, _) | Fill (a, _, _) | Sort (a, _, _)
      ->
        SS.add a acc
    | Alloc (_, a, _) -> SS.add a acc
    | For (_, _, _, body) | ParallelFor (_, _, _, body, _) | While (_, body) ->
        List.fold_left go acc body
    | If (_, t, e) -> List.fold_left go (List.fold_left go acc t) e
    | Decl _ | Assign _ | Comment _ -> acc
  in
  List.fold_left go SS.empty ss

(* Assign targets only (no Decls, no loop variables): used by dead-code
   elimination to keep a declaration alive while a later assignment to
   the same name survives. *)
let assign_targets ss =
  let rec go acc = function
    | Assign (v, _) -> SS.add v acc
    | Decl _ -> acc
    | For (_, _, _, body) | ParallelFor (_, _, _, body, _) | While (_, body) ->
        List.fold_left go acc body
    | If (_, t, e) -> List.fold_left go (List.fold_left go acc t) e
    | Store _ | Store_add _ | Store_reduce _ | Alloc _ | Realloc _ | Memset _ | Fill _
    | Sort _ | Comment _ ->
        acc
  in
  List.fold_left go SS.empty ss

let map_stmt_exprs f =
  let rec go = function
    | Decl (t, v, e) -> Decl (t, v, f e)
    | Assign (v, e) -> Assign (v, f e)
    | Store (a, i, x) -> Store (a, f i, f x)
    | Store_add (a, i, x) -> Store_add (a, f i, f x)
    | Store_reduce (r, a, i, x) -> Store_reduce (r, a, f i, f x)
    | Alloc (t, v, n) -> Alloc (t, v, f n)
    | Realloc (a, n) -> Realloc (a, f n)
    | Memset (a, n) -> Memset (a, f n)
    | Fill (a, n, x) -> Fill (a, f n, f x)
    | Sort (a, lo, hi) -> Sort (a, f lo, f hi)
    | For (v, lo, hi, body) -> For (v, f lo, f hi, List.map go body)
    | ParallelFor (v, lo, hi, body, info) ->
        ParallelFor (v, f lo, f hi, List.map go body, info)
    | While (c, body) -> While (f c, List.map go body)
    | If (c, t, e) -> If (f c, List.map go t, List.map go e)
    | Comment _ as s -> s
  in
  go

(* ------------------------------------------------------------------ *)
(* Pass: simplify                                                      *)
(*                                                                     *)
(* Constant folding, algebraic identities, copy/constant propagation   *)
(* and statically-decided branches. Folding mirrors the executor       *)
(* exactly (same OCaml primitives, including IEEE float semantics), so *)
(* folded kernels produce bit-identical values. Float identities are   *)
(* restricted to exact ones (times/divide by 1.0); x +. 0.0 is NOT the *)
(* identity on -0.0 and is never applied. Integer division folds only  *)
(* with a nonzero literal divisor.                                     *)
(* ------------------------------------------------------------------ *)

let cmp_int op (x : int) (y : int) =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | _ -> assert false

let cmp_float op (x : float) (y : float) =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | _ -> assert false

(* Copy/constant substitution: var -> Var u | literal. A binding dies
   when its target or its source is reassigned. *)
let kill_var v subst =
  SM.filter
    (fun key value -> key <> v && (match value with Var u -> u <> v | _ -> true))
    subst

let kill_set vs subst =
  if SS.is_empty vs then subst
  else
    SM.filter
      (fun key value ->
        (not (SS.mem key vs)) && (match value with Var u -> not (SS.mem u vs) | _ -> true))
      subst

let rec simp_expr env subst e =
  match e with
  | Var v -> (
      match SM.find_opt v subst with
      | Some e' ->
          fire ();
          e'
      | None -> e)
  | Int_lit _ | Float_lit _ | Bool_lit _ -> e
  | Load (a, i) -> Load (a, simp_expr env subst i)
  | Binop (op, a, b) -> simp_binop env op (simp_expr env subst a) (simp_expr env subst b)
  | Not a -> (
      match simp_expr env subst a with
      | Bool_lit b ->
          fire ();
          Bool_lit (not b)
      | Not x ->
          fire ();
          x
      | a' -> Not a')
  | Ternary (c, a, b) -> (
      let c' = simp_expr env subst c in
      let a' = simp_expr env subst a in
      let b' = simp_expr env subst b in
      match c' with
      | Bool_lit true ->
          fire ();
          a'
      | Bool_lit false ->
          fire ();
          b'
      | Not c'' ->
          fire ();
          if a' = b' then a' else Ternary (c'', b', a')
      | _ ->
          if a' = b' then begin
            fire ();
            a'
          end
          else Ternary (c', a', b'))
  | Round_single a -> (
      match simp_expr env subst a with
      | Float_lit v ->
          fire ();
          Float_lit (Int32.float_of_bits (Int32.bits_of_float v))
      | a' -> Round_single a')

(* The fallthrough arm reconstructs [Binop (op, a, b)] from the very
   operands it matched on, so "did a rewrite fire" is a physical
   equality check on the result. *)
and simp_binop env op a b =
  let r = simp_binop_arms env op a b in
  (match r with
  | Binop (op', x, y) when op' = op && x == a && y == b -> ()
  | _ -> fire ());
  r

and simp_binop_arms env op a b =
  match (op, a, b) with
  | Add, Int_lit x, Int_lit y -> Int_lit (x + y)
  | Sub, Int_lit x, Int_lit y -> Int_lit (x - y)
  | Mul, Int_lit x, Int_lit y -> Int_lit (x * y)
  | Div, Int_lit x, Int_lit y when y <> 0 -> Int_lit (x / y)
  | Min, Int_lit x, Int_lit y -> Int_lit (min x y)
  | Max, Int_lit x, Int_lit y -> Int_lit (max x y)
  | Add, e, Int_lit 0 | Add, Int_lit 0, e -> e
  | Sub, e, Int_lit 0 -> e
  | Mul, e, Int_lit 1 | Mul, Int_lit 1, e -> e
  | Mul, _, Int_lit 0 | Mul, Int_lit 0, _ -> Int_lit 0
  | Div, e, Int_lit 1 -> e
  | Add, Float_lit x, Float_lit y -> Float_lit (x +. y)
  | Sub, Float_lit x, Float_lit y -> Float_lit (x -. y)
  | Mul, Float_lit x, Float_lit y -> Float_lit (x *. y)
  | Div, Float_lit x, Float_lit y -> Float_lit (x /. y)
  | Min, Float_lit x, Float_lit y -> Float_lit (Float.min x y)
  | Max, Float_lit x, Float_lit y -> Float_lit (Float.max x y)
  | Mul, e, Float_lit 1. | Mul, Float_lit 1., e -> e
  | Div, e, Float_lit 1. -> e
  | (Eq | Ne | Lt | Le | Gt | Ge), Int_lit x, Int_lit y -> Bool_lit (cmp_int op x y)
  | (Eq | Ne | Lt | Le | Gt | Ge), Float_lit x, Float_lit y -> Bool_lit (cmp_float op x y)
  (* Reflexive comparisons of one and the same integer scalar; floats
     are excluded (NaN <> NaN). *)
  | (Eq | Le | Ge), Var x, Var y when x = y && infer_type env (Var x) = Int -> Bool_lit true
  | (Ne | Lt | Gt), Var x, Var y when x = y && infer_type env (Var x) = Int ->
      Bool_lit false
  | (Min | Max), x, y when x = y -> x
  | And, Bool_lit true, e | And, e, Bool_lit true -> e
  | And, Bool_lit false, _ | And, _, Bool_lit false -> Bool_lit false
  | Or, Bool_lit false, e | Or, e, Bool_lit false -> e
  | Or, Bool_lit true, _ | Or, _, Bool_lit true -> Bool_lit true
  | _ -> Binop (op, a, b)

let record_binding v e subst =
  match e with
  | Var u when u <> v -> SM.add v e subst
  | Int_lit _ | Float_lit _ | Bool_lit _ -> SM.add v e subst
  | _ -> subst

let rec simp_stmts env subst ss =
  match ss with
  | [] -> ([], subst)
  | s :: rest ->
      let s', subst' = simp_stmt env subst s in
      let rest', subst'' = simp_stmts env subst' rest in
      (s' @ rest', subst'')

and simp_stmt env subst s =
  match s with
  | Decl (t, v, e) ->
      let e' = simp_expr env subst e in
      let subst = record_binding v e' (kill_var v subst) in
      ([ Decl (t, v, e') ], subst)
  | Assign (v, e) ->
      let e' = simp_expr env subst e in
      let subst = kill_var v subst in
      if e' = Var v then begin
        fire ();
        ([], subst)
      end
      else ([ Assign (v, e') ], record_binding v e' subst)
  | Store (a, i, x) -> ([ Store (a, simp_expr env subst i, simp_expr env subst x) ], subst)
  | Store_add (a, i, x) ->
      ([ Store_add (a, simp_expr env subst i, simp_expr env subst x) ], subst)
  | Store_reduce (r, a, i, x) ->
      ([ Store_reduce (r, a, simp_expr env subst i, simp_expr env subst x) ], subst)
  | Alloc (t, v, n) -> ([ Alloc (t, v, simp_expr env subst n) ], subst)
  | Realloc (a, n) -> ([ Realloc (a, simp_expr env subst n) ], subst)
  | Memset (a, n) -> ([ Memset (a, simp_expr env subst n) ], subst)
  | Fill (a, n, x) -> ([ Fill (a, simp_expr env subst n, simp_expr env subst x) ], subst)
  | Sort (a, lo, hi) -> ([ Sort (a, simp_expr env subst lo, simp_expr env subst hi) ], subst)
  | Comment _ -> ([ s ], subst)
  | If (c, t, e) -> (
      let c' = simp_expr env subst c in
      match c' with
      | Bool_lit true ->
          fire ();
          simp_stmts env subst t
      | Bool_lit false ->
          fire ();
          simp_stmts env subst e
      | _ ->
          let t', _ = simp_stmts env subst t in
          let e', _ = simp_stmts env subst e in
          let after = kill_set (assigned_scalars (t @ e)) subst in
          if t' = [] && e' = [] then begin
            fire ();
            ([], after)
          end
          else
            (* Branch flip: evaluating the un-negated condition is one
               expression node cheaper, and an empty then-branch gets
               the executor's else-only fast path. *)
            let c', t', e' =
              match c' with Not c'' -> (c'', e', t') | _ -> (c', t', e')
            in
            ([ If (c', t', e') ], after))
  | While (c, body) -> (
      (* Bindings invalidated anywhere in the body are dead for the
         condition and the body alike (the back edge re-executes both). *)
      let inner = kill_set (assigned_scalars body) subst in
      let c' = simp_expr env inner c in
      let body', _ = simp_stmts env inner body in
      match c' with
      | Bool_lit false ->
          fire ();
          ([], inner)
      | _ -> ([ While (c', body') ], inner))
  | For (v, lo, hi, body) ->
      (* lo/hi are evaluated once at entry: entry bindings apply. *)
      let lo' = simp_expr env subst lo in
      let hi' = simp_expr env subst hi in
      let inner = kill_set (SS.add v (assigned_scalars body)) subst in
      let body', _ = simp_stmts env inner body in
      ([ For (v, lo', hi', body') ], inner)
  | ParallelFor (v, lo, hi, body, info) ->
      (* Same as [For]: entry bindings are valid inside (each domain's
         private environment is a copy of the pre-loop state). *)
      let lo' = simp_expr env subst lo in
      let hi' = simp_expr env subst hi in
      let inner = kill_set (SS.add v (assigned_scalars body)) subst in
      let body', _ = simp_stmts env inner body in
      ([ ParallelFor (v, lo', hi', body', info) ], inner)

let simplify_pass k =
  let env = kernel_env k in
  { k with k_body = fst (simp_stmts env SM.empty k.k_body) }

(* ------------------------------------------------------------------ *)
(* Pass: memset fusion                                                 *)
(*                                                                     *)
(* Alloc already zeroes (the executor's Array.make and the C           *)
(* rendering's calloc), so a Memset of the same extent reachable from  *)
(* the Alloc through simple statements that neither write the array    *)
(* nor disturb the extent expression is redundant.                     *)
(* ------------------------------------------------------------------ *)

let memset_fusion_pass k =
  let rec fuse_list ss =
    let ss = List.map fuse_stmt ss in
    let rec go = function
      | [] -> []
      | (Alloc (_, v, n) as a) :: rest -> a :: go (absorb v n rest)
      | s :: rest -> s :: go rest
    and absorb v n ss =
      let n_names = expr_names n in
      let keeps_zero = function
        (* Statements that cannot write v or change what n evaluates to. *)
        | Decl (_, x, _) | Assign (x, _) -> not (SS.mem x n_names)
        (* Fill is an array write like the rest; it is never itself
           absorbed (scan only drops Memset), so a non-bit-zero fill of
           a freshly calloc'd workspace always survives this pass. *)
        | Store (a, _, _) | Store_add (a, _, _) | Store_reduce (_, a, _, _)
        | Realloc (a, _) | Memset (a, _) | Fill (a, _, _) | Sort (a, _, _) ->
            a <> v && not (SS.mem a n_names)
        | Alloc (_, x, _) -> x <> v && not (SS.mem x n_names)
        | Comment _ -> true
        | For _ | ParallelFor _ | While _ | If _ -> false
      in
      let rec scan = function
        | Memset (v', m) :: rest when v' = v && m = n ->
            fire ();
            rest
        | s :: rest when keeps_zero s -> s :: scan rest
        | ss -> ss
      in
      scan ss
    in
    go ss
  and fuse_stmt = function
    | For (v, lo, hi, body) -> For (v, lo, hi, fuse_list body)
    | ParallelFor (v, lo, hi, body, info) -> ParallelFor (v, lo, hi, fuse_list body, info)
    | While (c, body) -> While (c, fuse_list body)
    | If (c, t, e) -> If (c, fuse_list t, fuse_list e)
    | s -> s
  in
  { k with k_body = fuse_list k.k_body }

(* ------------------------------------------------------------------ *)
(* Pass: while -> for                                                  *)
(*                                                                     *)
(* while (p < bound) { body; p = p + 1 }  with p not otherwise written *)
(* and bound invariant becomes  for (p = p; p < bound; p++) { body }   *)
(* followed by p = max(p, bound): the executor's for loop leaves the   *)
(* slot at the last iteration's value (or untouched on a zero-trip     *)
(* loop), and tail merge loops read the position variable afterwards.  *)
(* The payoff is the executor evaluating the bound once instead of     *)
(* re-running the full condition closure every iteration.              *)
(* ------------------------------------------------------------------ *)

let rec subst_var p q = function
  | Var x when x = p -> Var q
  | (Var _ | Int_lit _ | Float_lit _ | Bool_lit _) as e -> e
  | Load (a, i) -> Load (a, subst_var p q i)
  | Binop (op, a, b) -> Binop (op, subst_var p q a, subst_var p q b)
  | Not e -> Not (subst_var p q e)
  | Ternary (c, t, e) -> Ternary (subst_var p q c, subst_var p q t, subst_var p q e)
  | Round_single e -> Round_single (subst_var p q e)

let while_to_for_pass k =
  (* The for loop gets a fresh variable rather than reusing [p]: reusing
     it would redeclare a live variable (fine in the flat-scoped
     executor, but it renders as self-initializing shadowing in C). [p]
     itself is then untouched by the loop, so the fix-up reads its entry
     value: max(p, bound) is [bound] if the loop ran (p < bound) and [p]
     unchanged otherwise — exactly where the while leaves it. *)
  let used = ref (SM.fold (fun name _ acc -> SS.add name acc) (kernel_env k) SS.empty) in
  let counter = ref 0 in
  let fresh () =
    let rec next () =
      let n = Printf.sprintf "_c%d" !counter in
      incr counter;
      if SS.mem n !used then next ()
      else begin
        used := SS.add n !used;
        n
      end
    in
    next ()
  in
  let rec rw_list ss = List.concat_map rw_stmt ss
  and rw_stmt = function
    | For (v, lo, hi, body) -> [ For (v, lo, hi, rw_list body) ]
    | ParallelFor (v, lo, hi, body, info) -> [ ParallelFor (v, lo, hi, rw_list body, info) ]
    | If (c, t, e) -> [ If (c, rw_list t, rw_list e) ]
    | While (c, body) -> (
        let body = rw_list body in
        match (c, List.rev body) with
        | ( Binop (Lt, Var p, bound),
            Assign (p', Binop (Add, Var p'', Int_lit 1)) :: rev_init )
          when p = p' && p = p'' ->
            let init = List.rev rev_init in
            let asg = assigned_scalars init in
            let b_scalars, b_arrays = expr_refs bound in
            let convertible =
              (not (SS.mem p asg))
              && SS.is_empty (SS.inter b_scalars asg)
              && SS.is_empty (SS.inter b_arrays (mutated_arrays init))
              && not (SS.mem p b_scalars)
            in
            if convertible then begin
              fire ();
              let q = fresh () in
              let init = List.map (map_stmt_exprs (subst_var p q)) init in
              [ For (q, Var p, bound, init); Assign (p, Binop (Max, Var p, bound)) ]
            end
            else [ While (c, body) ]
        | _ -> [ While (c, body) ])
    | s -> [ s ]
  in
  { k with k_body = rw_list k.k_body }

(* ------------------------------------------------------------------ *)
(* Pass: branch-implication fusion                                     *)
(*                                                                     *)
(* Merge-lattice lowering emits a case analysis followed by guarded    *)
(* pointer advances that re-test the comparisons the case analysis     *)
(* just decided:                                                       *)
(*                                                                     *)
(*   if (a && b) { both } else if (a) { left } else if (b) { right }   *)
(*   if (a) pB++;                                                      *)
(*   if (b) pC++;                                                      *)
(*                                                                     *)
(* In every arm of the case analysis the truth of [a] and [b] is       *)
(* already decided (the else of [a && b] plus [a] forces [b] false),   *)
(* so the trailing guards sink into the arms and their re-tests        *)
(* disappear:                                                          *)
(*                                                                     *)
(*   if (a && b) { both; pB++; pC++ }                                  *)
(*   else if (a) { left; pB++ }                                        *)
(*   else if (b) { right; pC++ }                                       *)
(*                                                                     *)
(* A guard sinks only when its condition is decided in every arm of    *)
(* the case analysis — the pass never duplicates an undecided guard —  *)
(* and only when no arm writes an operand (scalar or array) of any     *)
(* condition involved, so the truth values established when the head   *)
(* condition was evaluated still hold where the guard's body lands.    *)
(* Guard conditions containing division are left alone (sinking drops  *)
(* re-evaluations, and a division fault must not be skipped); dropped  *)
(* evaluations of loads fall in the tolerated bounds-fault divergence  *)
(* class. Guard bodies are duplicated at most once per arm, a          *)
(* compile-time cost only.                                             *)
(* ------------------------------------------------------------------ *)

let branch_fusion_pass k =
  let rec conjuncts = function
    | Binop (And, a, b) -> conjuncts a @ conjuncts b
    | e -> [ e ]
  in
  (* [trues] are conjuncts known to hold; each entry of [falses] is a
     conjunct set of which at least one member is false. A conjunct is
     decided false when every other member of such a set is known
     true. *)
  let decide g (trues, falses) =
    let known_true c = List.mem c trues in
    let known_false c =
      List.exists
        (fun f -> List.mem c f && List.for_all (fun x -> x = c || known_true x) f)
        falses
    in
    let gs = conjuncts g in
    if List.for_all known_true gs then Some true
    else if List.exists known_false gs then Some false
    else None
  in
  let try_sink target guard =
    match (target, guard) with
    | If (c, t, e), If (g, gt, ge) when not (has_div g) ->
        let gsc, gar = expr_refs g in
        let csc, car = expr_refs c in
        let cond_scalars = SS.union gsc csc and cond_arrays = SS.union gar car in
        let arms = t @ e in
        let safe =
          SS.is_empty (SS.inter (assigned_scalars arms) cond_scalars)
          && SS.is_empty (SS.inter (mutated_arrays arms) cond_arrays)
        in
        if not safe then None
        else
          let rec sink_arm ctx stmts =
            match decide g ctx with
            | Some true -> Some (stmts @ gt)
            | Some false -> Some (stmts @ ge)
            | None -> (
                match stmts with
                | [ If (c2, t2, e2) ] -> (
                    let trues, falses = ctx in
                    match
                      ( sink_arm (conjuncts c2 @ trues, falses) t2,
                        sink_arm (trues, conjuncts c2 :: falses) e2 )
                    with
                    | Some t2', Some e2' -> Some [ If (c2, t2', e2') ]
                    | _ -> None)
                | _ -> None)
          in
          let ctx_then = (conjuncts c, []) and ctx_else = ([], [ conjuncts c ]) in
          (match (sink_arm ctx_then t, sink_arm ctx_else e) with
          | Some t', Some e' -> Some (If (c, t', e'))
          | _ -> None)
    | _ -> None
  in
  let rec rw_list = function
    | [] -> []
    | s :: rest -> absorb (rw_stmt s) rest
  and rw_stmt = function
    | If (c, t, e) -> If (c, rw_list t, rw_list e)
    | For (v, lo, hi, body) -> For (v, lo, hi, rw_list body)
    | ParallelFor (v, lo, hi, body, info) -> ParallelFor (v, lo, hi, rw_list body, info)
    | While (c, body) -> While (c, rw_list body)
    | s -> s
  and absorb s rest =
    match (s, rest) with
    | (If _ as s), (If _ as g0) :: rest' -> (
        let g = rw_stmt g0 in
        match try_sink s g with
        | Some s' ->
            fire ();
            absorb s' rest'
        | None -> s :: absorb g rest')
    | _ -> s :: rw_list rest
  in
  { k with k_body = rw_list k.k_body }

(* ------------------------------------------------------------------ *)
(* Pass: common subexpression elimination                              *)
(*                                                                     *)
(* Local value numbering over pure scalar expressions (no loads, no    *)
(* division): an expression evaluated two or more times in a straight- *)
(* line region with no intervening write to its operands is computed   *)
(* once into a fresh temporary and the later occurrences read it. The  *)
(* payoff on the interpreted executor is direct: every expression node *)
(* is a closure call, so  jB == j  evaluated three times per merge     *)
(* iteration costs nine calls unoptimized and five once shared.        *)
(* Purity makes soundness trivial — the temporary's value is exactly   *)
(* what each occurrence would have computed, and occurrences are only  *)
(* rewritten while no operand has been reassigned (loop bodies drop    *)
(* every binding their iteration can invalidate before being entered). *)
(* ------------------------------------------------------------------ *)

let cse_pass k =
  let env = kernel_env k in
  let used = ref (SM.fold (fun name _ acc -> SS.add name acc) env SS.empty) in
  let counter = ref 0 in
  let fresh () =
    let rec next () =
      let n = Printf.sprintf "_t%d" !counter in
      incr counter;
      if SS.mem n !used then next ()
      else begin
        used := SS.add n !used;
        n
      end
    in
    next ()
  in
  (* Sharable: a compound pure expression over scalars. Loads are
     excluded (stores would have to invalidate them), and integer
     division is excluded so a fault cannot move across an earlier
     statement's fault. Expressions the executor already compiles to a
     single fused closure — comparisons and float arithmetic whose
     operands are variables or literals — are excluded too: sharing
     them saves nothing, while the temporary's declaration would add a
     statement per iteration. *)
  let atom = function Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> true | _ -> false in
  let fused_by_executor = function
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge), a, b) -> atom a && atom b
    | Binop ((Add | Sub | Mul | Div | Min | Max), a, b) ->
        infer_type env a = Float && atom a && atom b
    | _ -> false
  in
  let cse_ok e =
    (not (atom e))
    && (not (fused_by_executor e))
    && (not (has_load e))
    && (not (has_div e))
    && not (SS.is_empty (expr_names e))
  in
  (* Candidate subexpressions of [e], outermost first: an outer match
     absorbs its children, so parents are offered before children. *)
  let rec collect_cands acc e =
    let acc = if cse_ok e then acc @ [ e ] else acc in
    match e with
    | Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> acc
    | Load (_, i) -> collect_cands acc i
    | Binop (_, a, b) -> collect_cands (collect_cands acc a) b
    | Not a | Round_single a -> collect_cands acc a
    | Ternary (c, a, b) -> collect_cands (collect_cands (collect_cands acc c) a) b
  in
  (* Occurrences of [e] in [x]; a whole-expression match does not
     descend (the occurrence is replaced as a unit). *)
  let rec count_expr e x =
    if x = e then 1
    else
      match x with
      | Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> 0
      | Load (_, i) -> count_expr e i
      | Binop (_, a, b) -> count_expr e a + count_expr e b
      | Not a | Round_single a -> count_expr e a
      | Ternary (c, a, b) -> count_expr e c + count_expr e a + count_expr e b
  in
  (* Occurrences of [e] reachable from the list head before any write
     to one of its operand scalars. Branch-local kills stop the count
     inside that branch only (the rewrite phase re-checks kills at
     statement granularity, so an overcount merely materializes a
     temporary with fewer live uses than estimated — sound, just not
     profitable). Loops whose body writes an operand contribute
     nothing and end the scan. *)
  let rec count_stmts e vars ss =
    match ss with
    | [] -> 0
    | s :: rest ->
        let n, stop = count_stmt e vars s in
        if stop then n else n + count_stmts e vars rest
  and count_stmt e vars = function
    | Decl (_, v, x) | Assign (v, x) -> (count_expr e x, SS.mem v vars)
    | Alloc (_, v, n) -> (count_expr e n, SS.mem v vars)
    | Store (_, i, x) | Store_add (_, i, x) | Store_reduce (_, _, i, x) | Fill (_, i, x) ->
        (count_expr e i + count_expr e x, false)
    | Realloc (_, n) | Memset (_, n) -> (count_expr e n, false)
    | Sort (_, lo, hi) -> (count_expr e lo + count_expr e hi, false)
    | Comment _ -> (0, false)
    | If (c, t, el) ->
        let kills = not (SS.is_empty (SS.inter (assigned_scalars (t @ el)) vars)) in
        (count_expr e c + count_stmts e vars t + count_stmts e vars el, kills)
    | While (c, body) ->
        if SS.is_empty (SS.inter (assigned_scalars body) vars) then
          (count_expr e c + count_stmts e vars body, false)
        else (0, true)
    | For (v, lo, hi, body) | ParallelFor (v, lo, hi, body, _) ->
        let n = count_expr e lo + count_expr e hi in
        if SS.is_empty (SS.inter (SS.add v (assigned_scalars body)) vars) then
          (n + count_stmts e vars body, false)
        else (n, true)
  in
  (* avail: association list from expression to the temporary holding
     its value, valid at the current program point. *)
  let rec rw avail e =
    match List.assoc_opt e avail with
    | Some t -> Var t
    | None -> (
        match e with
        | Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> e
        | Load (a, i) -> Load (a, rw avail i)
        | Binop (op, a, b) -> Binop (op, rw avail a, rw avail b)
        | Not a -> Not (rw avail a)
        | Round_single a -> Round_single (rw avail a)
        | Ternary (c, a, b) -> Ternary (rw avail c, rw avail a, rw avail b))
  in
  let kill vs avail =
    if SS.is_empty vs then avail
    else List.filter (fun (e, _) -> SS.is_empty (SS.inter (expr_names e) vs)) avail
  in
  let kill1 v = kill (SS.singleton v) in
  (* Expressions a statement evaluates unconditionally at its own list
     level — the anchor positions where a new temporary may be
     introduced (dominating every later occurrence). While conditions
     re-evaluate per iteration and are left to licm. *)
  let immediate_exprs = function
    | Decl (_, _, e) | Assign (_, e) | Alloc (_, _, e) | Realloc (_, e) | Memset (_, e) ->
        [ e ]
    | Store (_, i, x) | Store_add (_, i, x) | Store_reduce (_, _, i, x) | Fill (_, i, x) ->
        [ i; x ]
    | Sort (_, lo, hi) -> [ lo; hi ]
    | If (c, _, _) -> [ c ]
    | For (_, lo, hi, _) | ParallelFor (_, lo, hi, _, _) -> [ lo; hi ]
    | While _ | Comment _ -> []
  in
  let rec go avail ss =
    match ss with
    | [] -> []
    | s :: rest ->
        let decls, avail =
          List.fold_left
            (fun acc e0 ->
              List.fold_left
                (fun (decls, avail) e ->
                  if List.mem_assoc e avail then (decls, avail)
                  else
                    let uses = count_stmts e (expr_names e) (s :: rest) in
                    if uses >= 2 then
                      let () = fire () in
                      let t = fresh () in
                      (decls @ [ Decl (infer_type env e, t, rw avail e) ], (e, t) :: avail)
                    else (decls, avail))
                acc (collect_cands [] e0))
            ([], avail) (immediate_exprs s)
        in
        let s', avail' = rw_stmt avail s in
        decls @ (s' :: go avail' rest)
  and rw_stmt avail s =
    match s with
    | Decl (t, v, e) -> (Decl (t, v, rw avail e), kill1 v avail)
    | Assign (v, e) -> (Assign (v, rw avail e), kill1 v avail)
    | Store (a, i, x) -> (Store (a, rw avail i, rw avail x), avail)
    | Store_add (a, i, x) -> (Store_add (a, rw avail i, rw avail x), avail)
    | Store_reduce (r, a, i, x) -> (Store_reduce (r, a, rw avail i, rw avail x), avail)
    | Alloc (t, v, n) -> (Alloc (t, v, rw avail n), kill1 v avail)
    | Realloc (a, n) -> (Realloc (a, rw avail n), avail)
    | Memset (a, n) -> (Memset (a, rw avail n), avail)
    | Fill (a, n, x) -> (Fill (a, rw avail n, rw avail x), avail)
    | Sort (a, lo, hi) -> (Sort (a, rw avail lo, rw avail hi), avail)
    | Comment _ -> (s, avail)
    | If (c, t, e) ->
        let c' = rw avail c in
        let t' = go avail t in
        let e' = go avail e in
        (If (c', t', e'), kill (assigned_scalars (t @ e)) avail)
    | While (c, body) ->
        (* The back edge re-executes condition and body with whatever
           the body wrote: only bindings the body cannot invalidate
           survive inside. *)
        let avail_in = kill (assigned_scalars body) avail in
        (While (rw avail_in c, go avail_in body), avail_in)
    | For (v, lo, hi, body) ->
        let lo' = rw avail lo and hi' = rw avail hi in
        let avail_in = kill (SS.add v (assigned_scalars body)) avail in
        (For (v, lo', hi', go avail_in body), avail_in)
    | ParallelFor (v, lo, hi, body, info) ->
        let lo' = rw avail lo and hi' = rw avail hi in
        let avail_in = kill (SS.add v (assigned_scalars body)) avail in
        (ParallelFor (v, lo', hi', go avail_in body, info), avail_in)
  in
  { k with k_body = go [] k.k_body }

(* ------------------------------------------------------------------ *)
(* Pass: loop-invariant code motion                                    *)
(*                                                                     *)
(* Hoists invariant compound expressions out of loops into fresh       *)
(* temporaries. Pure index arithmetic (no loads, no division) hoists   *)
(* from anywhere in the body. Expressions containing loads or division *)
(* hoist only from positions that execute on every iteration (the      *)
(* statement spine of a for body, or a while condition), because a     *)
(* zero-trip loop must not evaluate them; for-loop hoists of such      *)
(* expressions are additionally guarded with  lo < hi ? e : 0  so the  *)
(* load happens exactly when the original loop would have run it.      *)
(* ------------------------------------------------------------------ *)

let licm_pass k =
  let env = kernel_env k in
  let used = ref (SM.fold (fun name _ acc -> SS.add name acc) env SS.empty) in
  let counter = ref 0 in
  let fresh () =
    let rec next () =
      let n = Printf.sprintf "_h%d" !counter in
      incr counter;
      if SS.mem n !used then next ()
      else begin
        used := SS.add n !used;
        n
      end
    in
    next ()
  in
  let invariant ~asg ~muts e =
    let scalars, arrays = expr_refs e in
    SS.is_empty (SS.inter scalars asg) && SS.is_empty (SS.inter arrays muts)
  in
  let compound = function Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> false | _ -> true in
  (* Top-down maximal collection: an eligible invariant expression is
     taken whole; otherwise its children are searched. [effects_ok]
     permits loads and division (spine positions only). *)
  let rec collect_expr ~effects_ok ~asg ~muts acc e =
    if
      compound e
      && invariant ~asg ~muts e
      && (effects_ok || ((not (has_load e)) && not (has_div e)))
    then e :: acc
    else
      match e with
      | Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> acc
      | Load (_, i) -> collect_expr ~effects_ok ~asg ~muts acc i
      | Binop (_, a, b) ->
          collect_expr ~effects_ok ~asg ~muts (collect_expr ~effects_ok ~asg ~muts acc a) b
      | Not a | Round_single a -> collect_expr ~effects_ok ~asg ~muts acc a
      | Ternary (c, a, b) ->
          collect_expr ~effects_ok ~asg ~muts
            (collect_expr ~effects_ok ~asg ~muts
               (collect_expr ~effects_ok ~asg ~muts acc c)
               a)
            b
  in
  let rec collect_stmts ~spine ~asg ~muts acc ss =
    List.fold_left (collect_stmt ~spine ~asg ~muts) acc ss
  and collect_stmt ~spine ~asg ~muts acc s =
    let ce acc e = collect_expr ~effects_ok:spine ~asg ~muts acc e in
    match s with
    | Decl (_, _, e) | Assign (_, e) | Realloc (_, e) | Memset (_, e) -> ce acc e
    | Store (_, i, x) | Store_add (_, i, x) | Store_reduce (_, _, i, x) | Fill (_, i, x) ->
        ce (ce acc i) x
    | Alloc (_, _, n) -> ce acc n
    | Sort (_, lo, hi) -> ce (ce acc lo) hi
    | Comment _ -> acc
    | If (c, t, e) ->
        collect_stmts ~spine:false ~asg ~muts
          (collect_stmts ~spine:false ~asg ~muts (ce acc c) t)
          e
    | While (c, body) -> collect_stmts ~spine:false ~asg ~muts (ce acc c) body
    | For (_, lo, hi, body) -> collect_stmts ~spine:false ~asg ~muts (ce (ce acc lo) hi) body
    | ParallelFor (_, lo, hi, _, _) ->
        (* The parallel region is an optimization barrier: expressions
           inside it are never hoisted across it. Only the bounds, which
           evaluate on the spine at entry, are candidates. *)
        ce (ce acc lo) hi
  in
  let dedup cands =
    List.fold_left (fun acc e -> if List.mem e acc then acc else acc @ [ e ]) [] cands
  in
  let zero_lit = function Int -> Int_lit 0 | Float -> Float_lit 0. | Bool -> Bool_lit false in
  let rec replace ~from ~temp e =
    if e = from then temp
    else
      match e with
      | Var _ | Int_lit _ | Float_lit _ | Bool_lit _ -> e
      | Load (a, i) -> Load (a, replace ~from ~temp i)
      | Binop (op, a, b) -> Binop (op, replace ~from ~temp a, replace ~from ~temp b)
      | Not a -> Not (replace ~from ~temp a)
      | Round_single a -> Round_single (replace ~from ~temp a)
      | Ternary (c, a, b) ->
          Ternary (replace ~from ~temp c, replace ~from ~temp a, replace ~from ~temp b)
  in
  let apply_substs substs e =
    List.fold_left (fun e (from, temp) -> replace ~from ~temp e) e substs
  in
  (* guard = Some (lo, hi) wraps load/division hoists of a for loop. *)
  let mk_decls ~guard cands =
    List.fold_left
      (fun (decls, substs) e ->
        fire ();
        let t = infer_type env e in
        let name = fresh () in
        let e' = apply_substs substs e in
        let init =
          match guard with
          | Some (lo, hi) when has_load e' || has_div e' -> (
              match lt lo hi with
              | Bool_lit true -> e'
              | Bool_lit false -> zero_lit t
              | g -> Ternary (g, e', zero_lit t))
          | _ -> e'
        in
        (decls @ [ Decl (t, name, init) ], substs @ [ (e, Var name) ]))
      ([], []) cands
  in
  let rec licm_stmts ss = List.concat_map licm_stmt ss
  and licm_stmt s =
    match s with
    | If (c, t, e) -> [ If (c, licm_stmts t, licm_stmts e) ]
    | ParallelFor (v, lo, hi, body, info) ->
        (* Inner loops still hoist within the parallel body, but nothing
           crosses the parallel boundary itself. *)
        [ ParallelFor (v, lo, hi, licm_stmts body, info) ]
    | For (v, lo, hi, body) ->
        let body = licm_stmts body in
        let asg = SS.add v (assigned_scalars body) in
        let muts = mutated_arrays body in
        let cands =
          dedup (List.rev (collect_stmts ~spine:true ~asg ~muts [] body))
        in
        if cands = [] then [ For (v, lo, hi, body) ]
        else
          let decls, substs = mk_decls ~guard:(Some (lo, hi)) cands in
          decls @ [ For (v, lo, hi, List.map (map_stmt_exprs (apply_substs substs)) body) ]
    | While (c, body) ->
        let body = licm_stmts body in
        let asg = assigned_scalars body in
        let muts = mutated_arrays body in
        (* The condition evaluates at least once, so its invariant loads
           hoist unguarded; body positions may never execute and only
           give up pure arithmetic. *)
        let cands =
          dedup
            (List.rev
               (collect_stmts ~spine:false ~asg ~muts
                  (collect_expr ~effects_ok:true ~asg ~muts [] c)
                  body))
        in
        if cands = [] then [ While (c, body) ]
        else
          let decls, substs = mk_decls ~guard:None cands in
          decls
          @ [
              While
                (apply_substs substs c, List.map (map_stmt_exprs (apply_substs substs)) body);
            ]
    | s -> [ s ]
  in
  { k with k_body = licm_stmts k.k_body }

(* ------------------------------------------------------------------ *)
(* Pass: dead code elimination                                         *)
(*                                                                     *)
(* Backward liveness over scalars. Arrays are never removed, and       *)
(* parameters plus kernel-level declarations stay live at exit: the    *)
(* executor's run returns a reader over the final environment, so      *)
(* top-level names are externally observable. Loop bodies use the      *)
(* conservative "everything the body reads may be live around the back *)
(* edge" rule, refined once (two-pass) so that reads from statements   *)
(* already known dead do not keep others alive. A declaration is only  *)
(* dropped when no surviving later assignment still needs the name to  *)
(* have been declared (Imp.validate's def-before-use is flat).         *)
(* ------------------------------------------------------------------ *)

(* Upward-exposed reads of a statement list: variables that may be read
   before any definite (unconditional) scalar assignment to them. This
   is the gen set for loop liveness — a variable killed at the top of
   every iteration (like a per-iteration temporary) is not live around
   the back edge, which raw [stmt_reads] cannot see. Kills inside
   loops and single If branches are conditional, so they kill nothing;
   an If kills what both branches kill. *)
let rec ue_stmts ss =
  List.fold_left
    (fun (ue, kill) s ->
      let ue_s, kill_s = ue_stmt s in
      (SS.union ue (SS.diff ue_s kill), SS.union kill kill_s))
    (SS.empty, SS.empty) ss

and ue_stmt = function
  | Decl (_, v, e) | Assign (v, e) -> (expr_names e, SS.singleton v)
  | Alloc (_, v, n) -> (expr_names n, SS.singleton v)
  | Store (a, i, x) | Store_add (a, i, x) | Store_reduce (_, a, i, x) | Fill (a, i, x) ->
      (SS.add a (SS.union (expr_names i) (expr_names x)), SS.empty)
  | Realloc (a, n) | Memset (a, n) -> (SS.add a (expr_names n), SS.empty)
  | Sort (a, lo, hi) -> (SS.add a (SS.union (expr_names lo) (expr_names hi)), SS.empty)
  | Comment _ -> (SS.empty, SS.empty)
  | If (c, t, e) ->
      let ue_t, kill_t = ue_stmts t in
      let ue_e, kill_e = ue_stmts e in
      (SS.union (expr_names c) (SS.union ue_t ue_e), SS.inter kill_t kill_e)
  | While (c, body) ->
      let ue_b, _ = ue_stmts body in
      (SS.union (expr_names c) ue_b, SS.empty)
  | For (v, lo, hi, body) ->
      let ue_b, _ = ue_stmts body in
      ( SS.union (expr_names lo) (SS.union (expr_names hi) (SS.remove v ue_b)),
        SS.empty )
  | ParallelFor (v, lo, hi, body, info) ->
      let ue_b, _ = ue_stmts body in
      let meta =
        List.fold_left (fun acc a -> SS.add a acc)
          (match info.par_stage with
          | None -> SS.empty
          | Some st ->
              List.fold_left (fun acc a -> SS.add a acc)
                (SS.add st.pa_counter
                   (match st.pa_pos with None -> SS.empty | Some p -> SS.singleton p))
                st.pa_arrays)
          info.par_private
      in
      ( SS.union meta
          (SS.union (expr_names lo) (SS.union (expr_names hi) (SS.remove v ue_b))),
        SS.empty )

let dce_pass k =
  let protected =
    let from_params =
      List.fold_left (fun acc p -> SS.add p.p_name acc) SS.empty k.k_params
    in
    List.fold_left
      (fun acc s ->
        match s with Decl (_, v, _) | Alloc (_, v, _) -> SS.add v acc | _ -> acc)
      from_params k.k_body
  in
  let re acc e = SS.union acc (expr_names e) in
  let rec go_list ss ~live ~later =
    match ss with
    | [] -> ([], live, later)
    | s :: rest ->
        let rest', live_r, later_r = go_list rest ~live ~later in
        let s', live', later' = go_stmt s ~live:live_r ~later:later_r in
        (s' @ rest', live', later')
  and go_stmt s ~live ~later =
    match s with
    | Decl (_, v, e) ->
        if (not (SS.mem v live)) && (not (SS.mem v later)) && not (SS.mem v protected) then begin
          fire ();
          ([], live, later)
        end
        else ([ s ], re (SS.remove v live) e, later)
    | Assign (v, e) ->
        if (not (SS.mem v live)) && not (SS.mem v protected) then begin
          fire ();
          ([], live, later)
        end
        else ([ s ], re (SS.remove v live) e, SS.add v later)
    | Store (a, i, x) | Store_add (a, i, x) | Store_reduce (_, a, i, x) | Fill (a, i, x) ->
        ([ s ], SS.add a (re (re live i) x), later)
    | Alloc (_, _, n) -> ([ s ], re live n, later)
    | Realloc (a, n) | Memset (a, n) -> ([ s ], SS.add a (re live n), later)
    | Sort (a, lo, hi) -> ([ s ], SS.add a (re (re live lo) hi), later)
    | Comment _ -> ([ s ], live, later)
    | If (c, t, e) ->
        let t', live_t, later_t = go_list t ~live ~later:(SS.union later (assign_targets e)) in
        let e', live_e, later_e = go_list e ~live ~later:(SS.union later (assign_targets t)) in
        if t' = [] && e' = [] then begin
          fire ();
          ([], live, later)
        end
        else
          ( [ If (c, t', e') ],
            re (SS.union live_t live_e) c,
            SS.union later_t later_e )
    | While (c, body) ->
        let later_b = SS.union later (assign_targets body) in
        let out1 = SS.union live (re (fst (ue_stmts body)) c) in
        let body1, _, _ = go_list body ~live:out1 ~later:later_b in
        let out2 = SS.union live (re (fst (ue_stmts body1)) c) in
        let body2, live_in, later_in = go_list body ~live:out2 ~later:later_b in
        ([ While (c, body2) ], re (SS.union live live_in) c, later_in)
    | For (v, lo, hi, body) ->
        let later_b = SS.union later (assign_targets body) in
        let out1 = SS.union live (SS.remove v (fst (ue_stmts body))) in
        let body1, _, _ = go_list body ~live:out1 ~later:later_b in
        let out2 = SS.union live (SS.remove v (fst (ue_stmts body1))) in
        let body2, live_in, later_in = go_list body ~live:out2 ~later:later_b in
        if body2 = [] && (not (SS.mem v live)) && not (SS.mem v protected) then begin
          fire ();
          ([], live, later)
        end
        else ([ For (v, lo, hi, body2) ], re (re (SS.union live live_in) lo) hi, later_in)
    | ParallelFor (v, lo, hi, body, info) ->
        (* The merge reads the stage counter and arrays after the barrier,
           so they stay live at loop exit regardless of downstream code. *)
        let meta =
          List.fold_left (fun acc a -> SS.add a acc)
            (match info.par_stage with
            | None -> SS.empty
            | Some st ->
                List.fold_left (fun acc a -> SS.add a acc)
                  (SS.add st.pa_counter
                     (match st.pa_pos with None -> SS.empty | Some p -> SS.singleton p))
                  st.pa_arrays)
            info.par_private
        in
        let live = SS.union live meta in
        let later_b = SS.union later (assign_targets body) in
        let out1 = SS.union live (SS.remove v (fst (ue_stmts body))) in
        let body1, _, _ = go_list body ~live:out1 ~later:later_b in
        let out2 = SS.union live (SS.remove v (fst (ue_stmts body1))) in
        let body2, live_in, later_in = go_list body ~live:out2 ~later:later_b in
        ( [ ParallelFor (v, lo, hi, body2, info) ],
          re (re (SS.union live live_in) lo) hi,
          later_in )
  in
  let body, _, _ = go_list k.k_body ~live:protected ~later:SS.empty in
  { k with k_body = body }

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let passes config =
  List.filter_map
    (fun (name, enabled, f) -> if enabled then Some (name, f) else None)
    [
      ("simplify", config.simplify, simplify_pass);
      ("memset_fusion", config.memset_fusion, memset_fusion_pass);
      ("while_to_for", config.while_to_for, while_to_for_pass);
      (* branch_fusion runs before cse so sunk guard bodies are in
         place when uses are counted. *)
      ("branch_fusion", config.branch_fusion, branch_fusion_pass);
      (* cse runs after while_to_for (so it cannot disturb the p = p + 1
         pattern) and before licm (an invariant shared temporary then
         hoists like any other invariant declaration). *)
      ("cse", config.cse, cse_pass);
      ("licm", config.licm, licm_pass);
      (* licm introduces copy chains when a guard condition is itself
         invariant at the next level out; a second simplify collapses
         them so dce can drop the intermediate temporaries. *)
      ("simplify/cleanup", config.simplify && config.licm, simplify_pass);
      ("dce", config.dce, dce_pass);
    ]

type pass_stat = {
  ps_pass : string;
  ps_time_ns : int64;
  ps_nodes_before : int;
  ps_nodes_after : int;
  ps_fires : int;
}

module Trace = Taco_support.Trace

let optimize_stats ?(config = all) k =
  match passes config with
  | [] -> Ok (k, [])
  | ps -> (
      match validate k with
      | Error msg -> Error (Printf.sprintf "precondition: %s" msg)
      | Ok () ->
          let rec go k acc = function
            | [] -> Ok (k, List.rev acc)
            | (name, f) :: rest -> (
                let nodes_before = node_count k in
                let fires = Domain.DLS.get fires in
                fires := 0;
                Taco_support.Faultinject.hit ~stage:Taco_support.Diag.Compile "opt.pass";
                let t0 = Trace.now_ns () in
                let k' = f k in
                let dt = Int64.sub (Trace.now_ns ()) t0 in
                let pass_fires = !fires in
                let nodes_after = node_count k' in
                if Trace.active () then
                  Trace.span_complete ~cat:"opt" ~ts:t0 ~dur_ns:dt
                    ~args:
                      [
                        ("nodes_before", string_of_int nodes_before);
                        ("nodes_after", string_of_int nodes_after);
                        ("fires", string_of_int pass_fires);
                      ]
                    ("opt." ^ name);
                let st =
                  {
                    ps_pass = name;
                    ps_time_ns = dt;
                    ps_nodes_before = nodes_before;
                    ps_nodes_after = nodes_after;
                    ps_fires = pass_fires;
                  }
                in
                match validate k' with
                | Error msg -> Error (Printf.sprintf "pass %s broke the kernel: %s" name msg)
                | Ok () -> go k' (st :: acc) rest)
          in
          go k [] ps)

let optimize ?config k = Result.map fst (optimize_stats ?config k)

let optimize_exn ?config k =
  match optimize ?config k with Ok k -> k | Error msg -> invalid_arg ("Opt.optimize: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Profiling instrumentation                                           *)
(* ------------------------------------------------------------------ *)

let profile_counters = "taco_prof"

let profile_slots = 7

(* Counter slots: 0 iterations, 1 scalar ops, 2 allocations, 3
   allocated elements, 4 zeroed elements, 5 reallocations, 6 sorts. *)
let profile k =
  let bump slot e = Store_add (profile_counters, Int_lit slot, e) in
  let at_least lo = function Int_lit n -> Int_lit (max lo n) | e -> Binop (Max, Int_lit lo, e) in
  (* Imp has no early exit: a block either runs to its end or the run
     fails (and a failed run's counters are never read back). So the
     fixed counts of a block's statements are added once, at its head;
     only extents that vary at run time are counted in front of their
     statement. *)
  let rec block ?(trips = 0) ss =
    let count p = List.length (List.filter p ss) in
    let fixed =
      [
        (0, trips);
        ( 1,
          count (function
            | Decl _ | Assign _ | Store _ | Store_add _ | Store_reduce _ -> true
            | _ -> false) );
        (2, count (function Alloc _ -> true | _ -> false));
        (5, count (function Realloc _ -> true | _ -> false));
        (6, count (function Sort _ -> true | _ -> false));
      ]
    in
    List.filter_map (fun (slot, n) -> if n = 0 then None else Some (bump slot (Int_lit n))) fixed
    @ List.concat_map stmt ss
  and stmt = function
    | For (v, lo, hi, b) | ParallelFor (v, lo, hi, b, _) ->
        [ bump 0 (at_least 0 (sub hi lo)); For (v, lo, hi, block b) ]
    | While (c, b) -> [ While (c, block ~trips:1 b) ]
    | If (c, t, e) -> [ If (c, block t, block e) ]
    | Alloc (_, _, n) as s ->
        let m = at_least 1 n in
        [ bump 3 m; bump 4 m; s ]
    | (Memset (_, n) | Fill (_, n, _)) as s -> [ bump 4 (at_least 0 n); s ]
    | s -> [ s ]
  in
  match validate k with
  | Error msg -> Error (Printf.sprintf "precondition: %s" msg)
  | Ok () -> (
      if
        List.exists (fun p -> p.p_name = profile_counters) k.k_params
        || List.mem profile_counters (declared k.k_body)
      then Error (Printf.sprintf "%s is already a kernel variable" profile_counters)
      else
        let body = Alloc (Int, profile_counters, Int_lit profile_slots) :: block k.k_body in
        let k' = { k with k_body = body } in
        match validate k' with
        | Error msg -> Error (Printf.sprintf "profile broke the kernel: %s" msg)
        | Ok () -> Ok k')
