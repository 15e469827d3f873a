open Taco_ir.Var
module Cin = Taco_ir.Cin
module Semiring = Taco_ir.Semiring
module F = Taco_tensor.Format
module L = Taco_tensor.Level
module Util = Taco_support.Util

type mode = Compute | Assemble of { emit_values : bool; sorted : bool }

type kernel_info = {
  kernel : Imp.kernel;
  inputs : Tensor_var.t list;
  result : Tensor_var.t;
  mode : mode;
  extents : Taco_ir.Extent.t;
}

exception Lower_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

let dimension_var tv l = Printf.sprintf "%s%d_dimension" (Tensor_var.name tv) (l + 1)

let pos_var tv l = Printf.sprintf "%s%d_pos" (Tensor_var.name tv) (l + 1)

let crd_var tv l = Printf.sprintf "%s%d_crd" (Tensor_var.name tv) (l + 1)

let vals_var tv = Tensor_var.name tv ^ "_vals"

let scalar_var tv = Tensor_var.name tv ^ "_val"

(* Initial capacity of assembled crd/vals arrays, grown by doubling. *)
let initial_capacity = 1024

type append_info = { counter : string; assemble : bool; emit_values : bool; coord : Imp.expr }

type ctx = {
  bound : (string * Imp.expr) list;  (* index var -> coordinate *)
  cpos : ((string * int) * Imp.expr) list;  (* (tensor, level) -> position *)
  scaled : ((string * int) * Imp.expr) list;
      (* (tensor, dense level) -> parent position times the level's extent *)
  values : (Cin.access * Imp.expr) list;  (* input accesses bound to a scalar *)
  segs : (string * int) list;
      (* (tensor, compressed level) whose segment bounds an enclosing
         scope declared as p<T><l>_begin and p<T><l>_end *)
  ws_dims : (string, Imp.expr list) Hashtbl.t;  (* workspace -> extent per level *)
  append : append_info option;  (* active append target for the result *)
  track : string option;  (* workspace whose coordinates are tracked (producer side) *)
  wlist : string option;  (* workspace whose tracked coordinates drive the consumer loop *)
}

type state = {
  mutable top : Imp.stmt list;  (* kernel-top statements, in order *)
  mutable allocated : string list;  (* workspaces already allocated *)
  mutable reset_on_read : string list;  (* workspaces restored to zero after reads *)
  mutable tracked : string list;
      (* workspaces whose coordinates assembly tracks: in a coordinate
         set when sorted, else in a guard array and coordinate list *)
  mutable counter_declared : bool;
  mutable pos_close : (string option * Imp.stmt) list;
      (* pos-finalize statements keyed by the parent loop variable *)
  mutable append_parent : string option;
      (* parent loop variable of the result's pos finalize, recorded when
         the append state is created (drives the parallel pos merge) *)
  mode : mode;
  result : Tensor_var.t;
}

let rec rhs_accesses = function
  | Cin.Assignment { rhs; _ } -> Cin.expr_accesses rhs
  | Cin.Forall (_, s) -> rhs_accesses s
  | Cin.Where (c, p) -> rhs_accesses c @ rhs_accesses p
  | Cin.Sequence (a, b) -> rhs_accesses a @ rhs_accesses b

let rec assignments = function
  | Cin.Assignment { lhs; op; rhs } -> [ (lhs, op, rhs) ]
  | Cin.Forall (_, s) -> assignments s
  | Cin.Where (c, p) -> assignments c @ assignments p
  | Cin.Sequence (a, b) -> assignments a @ assignments b

let var_at_level (acc : Cin.access) l =
  List.nth acc.indices (F.mode_of_level (Tensor_var.format acc.tensor) l)

(* Storage level of [acc] indexed by variable [v], if any. *)
let level_of_var (acc : Cin.access) v =
  match Util.list_index_of v acc.indices with
  | None -> None
  | Some mode -> Some (F.level_of_mode (Tensor_var.format acc.tensor) mode)

let compressed_at (acc : Cin.access) v =
  match level_of_var acc v with
  | None -> false
  | Some l -> L.equal (F.level (Tensor_var.format acc.tensor) l) L.Compressed

(* Extent of storage level [l] of [tv]: a dimension parameter, or for a
   workspace the extent of the index variable that sized it. *)
let level_dim ctx tv l =
  match Hashtbl.find_opt ctx.ws_dims (Tensor_var.name tv) with
  | Some dims -> List.nth dims l
  | None -> Imp.Var (dimension_var tv l)

(* Position of [acc] within storage level [level], derived from resolved
   positions and bound dense coordinates. A dense level's position is
   p_k = p_{k-1} * N_k + i_k (Format Abstraction), its scaled parent
   p_{k-1} * N_k read from [ctx.scaled] where a loop declared it. *)
let rec locate ctx acc level =
  if level < 0 then Ok (Imp.Int_lit 0)
  else
    let key = (Tensor_var.name acc.Cin.tensor, level) in
    match List.assoc_opt key ctx.cpos with
    | Some p -> Ok p
    | None -> (
        let tv = acc.Cin.tensor in
        match F.level (Tensor_var.format tv) level with
        | L.Dense -> (
            let scaled =
              match List.assoc_opt key ctx.scaled with
              | Some s -> Ok s
              | None ->
                  Result.map
                    (fun p -> Imp.mul p (level_dim ctx tv level))
                    (locate ctx acc (level - 1))
            in
            let v = var_at_level acc level in
            match (scaled, List.assoc_opt (Index_var.name v) ctx.bound) with
            | (Error _ as e), _ -> e
            | Ok scaled, Some coord -> Ok (Imp.add scaled coord)
            | Ok _, None ->
                Error
                  (fun () ->
                    Printf.sprintf
                      "index variable %s of %s is not yet bound: the loop order is \
                       incompatible with the tensor's storage order (reorder first)"
                      (Index_var.name v) (Tensor_var.name tv)))
        | L.Compressed ->
            Error
              (fun () ->
                Printf.sprintf
                  "compressed level %d of %s is not driven by a loop; if the \
                   statement reduces into a sparse result, apply the workspace \
                   transformation (precompute) first"
                  (level + 1) (Tensor_var.name tv)))

let pos_at ctx acc level =
  match locate ctx acc level with Ok p -> p | Error msg -> raise (Lower_error (msg ()))

let value_of_access ctx (acc : Cin.access) =
  let tv = acc.Cin.tensor in
  if Tensor_var.order tv = 0 && Tensor_var.is_workspace tv then Imp.Var (scalar_var tv)
  else
    match List.find_opt (fun (a, _) -> a = acc) ctx.values with
    | Some (_, v) -> v
    | None -> Imp.Load (vals_var tv, pos_at ctx acc (Tensor_var.order tv - 1))

(* Imp expression builders for the semiring's operators. [Ternary]
   renders in C as [(c ? a : b)], so the boolean-encoded ops get
   short-circuit evaluation for free. Values stay doubles throughout:
   the or-and semiring encodes truth as 0./1. *)
let ne0 e = Imp.Binop (Imp.Ne, e, Imp.Float_lit 0.)

let sr_add (sr : Semiring.t) a b =
  match sr.Semiring.add with
  | Semiring.Add_plus -> Imp.Binop (Imp.Add, a, b)
  | Semiring.Add_min -> Imp.Binop (Imp.Min, a, b)
  | Semiring.Add_max -> Imp.Binop (Imp.Max, a, b)
  | Semiring.Add_or ->
      Imp.Ternary (Imp.Binop (Imp.Or, ne0 a, ne0 b), Imp.Float_lit 1., Imp.Float_lit 0.)

let sr_mul (sr : Semiring.t) a b =
  match sr.Semiring.mul with
  | Semiring.Mul_times -> Imp.Binop (Imp.Mul, a, b)
  | Semiring.Mul_plus -> Imp.Binop (Imp.Add, a, b)
  | Semiring.Mul_and ->
      Imp.Ternary (Imp.Binop (Imp.And, ne0 a, ne0 b), Imp.Float_lit 1., Imp.Float_lit 0.)

(* Array accumulation: (+, ×) keeps {!Imp.Store_add}; the other additive
   monoids map to a {!Imp.Store_reduce}. *)
let sr_reduce (sr : Semiring.t) =
  match sr.Semiring.add with
  | Semiring.Add_plus -> None
  | Semiring.Add_min -> Some Imp.Red_min
  | Semiring.Add_max -> Some Imp.Red_max
  | Semiring.Add_or -> Some Imp.Red_or

(* Arithmetic on two literals is computed here, with the executors' own
   IEEE operations, so the bits match an evaluation at run time. *)
let fold_lits = function
  | Imp.Binop (op, Imp.Float_lit x, Imp.Float_lit y) as e -> (
      match op with
      | Imp.Add -> Imp.Float_lit (x +. y)
      | Imp.Sub -> Imp.Float_lit (x -. y)
      | Imp.Mul -> Imp.Float_lit (x *. y)
      | Imp.Div -> Imp.Float_lit (x /. y)
      | _ -> e)
  | e -> e

let rec compile_expr sr ctx e =
  fold_lits
    (match e with
    | Cin.Literal v -> Imp.Float_lit v
    | Cin.Access a -> value_of_access ctx a
    | Cin.Neg e ->
        if not (Semiring.is_plus_times sr) then
          fail "negation is not defined under the %s semiring" sr.Semiring.name;
        Imp.Binop (Imp.Sub, Imp.Float_lit 0., compile_expr sr ctx e)
    | Cin.Add (a, b) -> sr_add sr (compile_expr sr ctx a) (compile_expr sr ctx b)
    | Cin.Sub (a, b) ->
        if not (Semiring.is_plus_times sr) then
          fail "subtraction is not defined under the %s semiring" sr.Semiring.name;
        Imp.Binop (Imp.Sub, compile_expr sr ctx a, compile_expr sr ctx b)
    | Cin.Mul (a, b) -> sr_mul sr (compile_expr sr ctx a) (compile_expr sr ctx b)
    | Cin.Div (a, b) ->
        if not (Semiring.is_plus_times sr) then
          fail "division is not defined under the %s semiring" sr.Semiring.name;
        Imp.Binop (Imp.Div, compile_expr sr ctx a, compile_expr sr ctx b))

(* Symbolically exhaust an access in a statement (merge-lattice branch
   bodies): its reads become the semiring zero and the statement
   simplifies. The (+, ×) path keeps the folding {!Cin.simplify} so its
   emitted kernels stay byte-identical. *)
let rec zero_access sr (acc : Cin.access) = function
  | Cin.Assignment { lhs; op; rhs } ->
      let zero = sr.Semiring.zero in
      let substituted =
        Cin.subst_expr ~from:(Cin.Access acc) ~into:(Cin.Literal zero) rhs
      in
      let rhs =
        if Semiring.is_plus_times sr then Cin.simplify substituted
        else
          Cin.simplify_sr ~zero ~one:sr.Semiring.one
            ~annihilates:sr.Semiring.annihilates substituted
      in
      Cin.Assignment { lhs; op; rhs }
  | Cin.Forall (v, s) -> Cin.Forall (v, zero_access sr acc s)
  | Cin.Where (c, p) -> Cin.Where (zero_access sr acc c, zero_access sr acc p)
  | Cin.Sequence (a, b) -> Cin.Sequence (zero_access sr acc a, zero_access sr acc b)

(* Drop statements that became no-ops after zero substitution. *)
let rec prune sr = function
  | Cin.Assignment { op = Cin.Accumulate; rhs = Cin.Literal z; _ }
    when z = sr.Semiring.zero ->
      None
  | Cin.Assignment _ as a -> Some a
  | Cin.Forall (v, s) -> Option.map (fun s -> Cin.Forall (v, s)) (prune sr s)
  | Cin.Where (c, p) -> (
      match prune sr c with
      | None -> None
      | Some c -> (
          match prune sr p with None -> Some c | Some p -> Some (Cin.Where (c, p))))
  | Cin.Sequence (a, b) -> (
      match (prune sr a, prune sr b) with
      | None, None -> None
      | Some a, None -> Some a
      | None, Some b -> Some b
      | Some a, Some b -> Some (Cin.Sequence (a, b)))

let product = List.fold_left Imp.mul (Imp.Int_lit 1)

(* Number of positions in the first [n] levels of a tensor parameter. *)
let dims_product tv n = product (List.init n (fun l -> Imp.Var (dimension_var tv l)))

let crd_capacity_var tv l = Printf.sprintf "%s%d_crd_capacity" (Tensor_var.name tv) (l + 1)

let append_counter_var tv l = Printf.sprintf "p%s%d" (Tensor_var.name tv) (l + 1)

let set_var name = name ^ "_set"

let seen_var name = name ^ "_seen"

let list_var name = name ^ "_list"

let list_size_var name = name ^ "_list_size"

(* The result's single compressed level in Compute/Assemble append mode;
   earlier levels must be dense for assembly. *)
let result_compressed_level tv =
  let fmt = Tensor_var.format tv in
  let order = Tensor_var.order tv in
  let rec go l acc =
    if l >= order then acc
    else
      match F.level fmt l with
      | L.Dense -> go (l + 1) acc
      | L.Compressed -> go (l + 1) (l :: acc)
  in
  match go 0 [] with [] -> None | [ l ] -> Some l | _ :: _ :: _ -> Some (-2)

let lower ?(name = "kernel") ?(splits = []) ?(single_precision = [])
    ?(semiring = Semiring.plus_times) ?parallel ~mode stmt =
  let build () =
    (match Cin.validate stmt with Ok () -> () | Error e -> fail "invalid statement: %s" e);
    let sr = semiring in
    if single_precision <> [] && not (Semiring.is_plus_times sr) then
      fail "mixed precision is only supported under the (+, ×) semiring";
    (* Zero the first [n] elements of a float array: memset when the
       semiring zero is all-zero bits, an explicit fill otherwise
       (min-plus zeroes with +inf, which memset cannot write). *)
    let zeroer arr n =
      if Semiring.zero_is_bits0 sr then Imp.Memset (arr, n)
      else Imp.Fill (arr, n, Imp.Float_lit sr.Semiring.zero)
    in
    (* Accumulate into a float array slot under the semiring add. *)
    let store_acc arr off rhs =
      match sr_reduce sr with
      | None -> Imp.Store_add (arr, off, rhs)
      | Some r -> Imp.Store_reduce (r, arr, off, rhs)
    in
    let result =
      match
        List.filter (fun tv -> not (Tensor_var.is_workspace tv)) (Cin.tensors_written stmt)
      with
      | [ r ] -> r
      | [] -> fail "the statement writes no result tensor"
      | rs ->
          fail "the statement writes %d result tensors; expected one" (List.length rs)
    in
    let all_accesses = Util.dedup_stable (Cin.stmt_accesses stmt) in
    let inputs =
      Util.dedup_stable
        (List.filter_map
           (fun (a : Cin.access) ->
             if Tensor_var.is_workspace a.tensor || Tensor_var.equal a.tensor result
             then None
             else Some a.tensor)
           all_accesses)
    in
    (* Index variable ranges from non-workspace accesses. *)
    let ranges : (string, Imp.expr) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (a : Cin.access) ->
        if not (Tensor_var.is_workspace a.tensor) then
          List.iteri
            (fun mode_idx v ->
              let key = Index_var.name v in
              if not (Hashtbl.mem ranges key) then
                let l = F.level_of_mode (Tensor_var.format a.tensor) mode_idx in
                Hashtbl.replace ranges key (Imp.Var (dimension_var a.tensor l)))
            a.indices)
      all_accesses;
    List.iter
      (fun v ->
        if not (Hashtbl.mem ranges (Index_var.name v)) then
          fail "cannot infer the range of index variable %s" (Index_var.name v))
      (Cin.stmt_vars stmt);
    let range v =
      Hashtbl.find ranges (Index_var.name v)
    in
    (* Workspace dimensions (used for allocation and dense offsets). *)
    let ws_dims : (string, Imp.expr list) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun (a : Cin.access) ->
        if Tensor_var.is_workspace a.tensor && Tensor_var.order a.tensor > 0 then
          let key = Tensor_var.name a.tensor in
          if not (Hashtbl.mem ws_dims key) then
            Hashtbl.replace ws_dims key (List.map range a.indices))
      all_accesses;
    let st =
      {
        top = [];
        allocated = [];
        reset_on_read = [];
        tracked = [];
        counter_declared = false;
        pos_close = [];
        append_parent = None;
        mode;
        result;
      }
    in
    let sorted = match mode with Assemble { sorted; _ } -> sorted | Compute -> false in
    (* The arrays and sets through which a tracked workspace records its
       coordinates. *)
    let tracking wname =
      if not (List.mem wname st.tracked) then []
      else if sorted then [ set_var wname ]
      else [ seen_var wname; list_var wname ]
    in
    let push_top s = st.top <- st.top @ [ s ] in
    (* Tensors accessed with several index lists: (tensor, level) would
       name several positions, so lower_body declares none of theirs. *)
    let multi_shape =
      List.filter_map
        (fun (a : Cin.access) ->
          if
            List.exists
              (fun (b : Cin.access) -> Tensor_var.equal a.tensor b.tensor && a <> b)
              all_accesses
          then Some a.tensor
          else None)
        all_accesses
    in
    (* --- assignment emission ------------------------------------------- *)
    let lower_assignment ctx (lhs : Cin.access) op rhs_cin =
      let rhs = compile_expr sr ctx rhs_cin in
      let tv = lhs.tensor in
      let single = List.exists (Tensor_var.equal tv) single_precision in
      let rhs = if single then Imp.Round_single rhs else rhs in
      (* Restore hoisted workspaces to zero after their values are read. *)
      let resets =
        List.concat_map
          (fun (a : Cin.access) ->
            let wname = Tensor_var.name a.tensor in
            if
              Tensor_var.is_workspace a.tensor
              && List.mem wname st.reset_on_read
              && Tensor_var.order a.tensor > 0
            then begin
              let off = pos_at ctx a (Tensor_var.order a.tensor - 1) in
              Imp.Store (vals_var a.tensor, off, Imp.Float_lit sr.Semiring.zero)
              ::
              (if List.mem wname st.tracked && not sorted then
                 [ Imp.Store (seen_var wname, off, Imp.Bool_lit false) ]
               else [])
            end
            else [])
          (Util.dedup_stable (Cin.expr_accesses rhs_cin))
      in
      let main =
        if Tensor_var.order tv = 0 && Tensor_var.is_workspace tv then
          match (op, single) with
          | Cin.Assign, _ -> [ Imp.Assign (scalar_var tv, rhs) ]
          | Cin.Accumulate, false ->
              [ Imp.Assign (scalar_var tv, sr_add sr (Imp.Var (scalar_var tv)) rhs) ]
          | Cin.Accumulate, true ->
              [
                Imp.Assign
                  ( scalar_var tv,
                    Imp.Round_single (Imp.Binop (Imp.Add, Imp.Var (scalar_var tv), rhs)) );
              ]
        else if F.is_all_dense (Tensor_var.format tv) then begin
          let off = pos_at ctx lhs (Tensor_var.order tv - 1) in
          let store =
            match (op, single) with
            | Cin.Assign, _ -> Imp.Store (vals_var tv, off, rhs)
            | Cin.Accumulate, false -> store_acc (vals_var tv) off rhs
            | Cin.Accumulate, true ->
                (* Round after every accumulation, as 32-bit storage would. *)
                Imp.Store
                  ( vals_var tv,
                    off,
                    Imp.Round_single (Imp.Binop (Imp.Add, Imp.Load (vals_var tv, off), rhs)) )
          in
          (* Workspace coordinate tracking during assembly: a set insert
             when sorted, else the guard and list of Fig. 8. *)
          let wname = Tensor_var.name tv in
          if ctx.track = Some wname && sorted then [ Imp.Set_insert (set_var wname, off); store ]
          else if ctx.track = Some wname then
            [
              Imp.If
                ( Imp.Not (Imp.Load (seen_var wname, off)),
                  [
                    Imp.Store (seen_var wname, off, Imp.Bool_lit true);
                    Imp.Store (list_var wname, Imp.Var (list_size_var wname), off);
                    Imp.Assign
                      (list_size_var wname, Imp.add (Imp.Var (list_size_var wname)) (Imp.Int_lit 1));
                  ],
                  [] );
              store;
            ]
          else [ store ]
        end
        else
          (* Compressed result. *)
          match ctx.append with
          | Some ap ->
              let l =
                match result_compressed_level tv with
                | Some l when l >= 0 -> l
                | Some _ | None -> fail "unsupported result format for append"
              in
              (if op = Cin.Accumulate then
                 fail
                   "cannot accumulate into a sparse result while appending; \
                    apply the workspace transformation (precompute)");
              let grow =
                if ap.assemble then
                  [
                    Imp.If
                      ( Imp.Binop (Imp.Ge, Imp.Var ap.counter, Imp.Var (crd_capacity_var tv l)),
                        [
                          Imp.Assign
                            (crd_capacity_var tv l, Imp.mul (Imp.Var (crd_capacity_var tv l)) (Imp.Int_lit 2));
                          Imp.Realloc (crd_var tv l, Imp.Var (crd_capacity_var tv l));
                        ]
                        @ (if ap.emit_values then
                             [ Imp.Realloc (vals_var tv, Imp.Var (crd_capacity_var tv l)) ]
                           else []),
                        [] );
                    Imp.Store (crd_var tv l, Imp.Var ap.counter, ap.coord);
                  ]
                else []
              in
              let value =
                if ap.emit_values then [ Imp.Store (vals_var tv, Imp.Var ap.counter, rhs) ]
                else []
              in
              grow @ value
              @ [ Imp.Assign (ap.counter, Imp.add (Imp.Var ap.counter) (Imp.Int_lit 1)) ]
          | None -> (
              let pos = pos_at ctx lhs (Tensor_var.order tv - 1) in
              match (op, single) with
              | Cin.Assign, _ -> [ Imp.Store (vals_var tv, pos, rhs) ]
              | Cin.Accumulate, false -> [ store_acc (vals_var tv) pos rhs ]
              | Cin.Accumulate, true ->
                  [
                    Imp.Store
                      ( vals_var tv,
                        pos,
                        Imp.Round_single
                          (Imp.Binop (Imp.Add, Imp.Load (vals_var tv, pos), rhs)) );
                  ])
      in
      main @ resets
    in
    (* --- forall lowering ------------------------------------------------ *)
    let rec lower_stmt ctx = function
      | Cin.Assignment { lhs; op; rhs } -> lower_assignment ctx lhs op rhs
      | Cin.Forall (v, body) -> lower_forall ctx v body
      | Cin.Where (c, p) -> lower_where ctx c p
      | Cin.Sequence (a, b) -> lower_stmt ctx a @ lower_stmt ctx b
    (* Lower [s] in a scope where the accesses [fresh] selects have just
       become resolvable (a loop bound one of their index variables).
       Declared here, once per scope rather than at every access below:
       - the scaled parent position p_{k-1} * N_k of each dense level k;
       - the segment bounds of an input's compressed level whose loop
         lies under another loop in [s];
       - the position of a written tensor's dense last level that an
         inner loop uses;
       - the value of an input that an inner loop reads: its position is
         in bounds here, so the read needs no guard. Written tensors'
         values stay loads. *)
    and lower_body ctx ~fresh s =
      let accs = List.filter fresh (Util.dedup_stable (Cin.stmt_accesses s)) in
      let resolved ctx a l = Result.to_option (locate ctx a l) in
      (* Accesses an inner loop reaches, and the variables of loops that
         lie under another loop in [s]. *)
      let rec looped = function
        | Cin.Assignment _ -> []
        | Cin.Forall (_, b) -> Cin.stmt_accesses b
        | Cin.Where (c, p) -> looped c @ looped p
        | Cin.Sequence (x, y) -> looped x @ looped y
      in
      let rec inner_vars depth = function
        | Cin.Assignment _ -> []
        | Cin.Forall (w, b) -> (if depth > 0 then [ w ] else []) @ inner_vars (depth + 1) b
        | Cin.Where (c, p) -> inner_vars depth c @ inner_vars depth p
        | Cin.Sequence (x, y) -> inner_vars depth x @ inner_vars depth y
      in
      let looped = looped s and inner_vars = inner_vars 0 s in
      let under_loop a = List.mem a looped in
      let nested v = List.exists (Index_var.equal v) inner_vars in
      let compound = function Imp.Var _ | Imp.Int_lit _ -> false | _ -> true in
      let bind (decls, ctx) (a : Cin.access) =
        let tv = a.tensor in
        let name = Tensor_var.name tv in
        let last = Tensor_var.order tv - 1 in
        let input = not (Tensor_var.is_workspace tv || Tensor_var.equal tv st.result) in
        let pv l = Printf.sprintf "p%s%d" name (l + 1) in
        let level (decls, ctx) l =
          let wanted =
            match F.level (Tensor_var.format tv) l with
            | L.Dense -> l > 0 && not (List.mem_assoc (name, l) ctx.scaled)
            | L.Compressed ->
                input && nested (var_at_level a l) && not (List.mem (name, l) ctx.segs)
          in
          match if wanted then resolved ctx a (l - 1) else None with
          | None -> (decls, ctx)
          | Some p -> (
              match F.level (Tensor_var.format tv) l with
              | L.Dense ->
                  let x = pv l ^ "_base" in
                  ( decls @ [ Imp.Decl (Imp.Int, x, Imp.mul p (level_dim ctx tv l)) ],
                    { ctx with scaled = ((name, l), Imp.Var x) :: ctx.scaled } )
              | L.Compressed ->
                  ( decls
                    @ [
                        Imp.Decl (Imp.Int, pv l ^ "_begin", Imp.Load (pos_var tv l, p));
                        Imp.Decl
                          (Imp.Int, pv l ^ "_end", Imp.Load (pos_var tv l, Imp.add p (Imp.Int_lit 1)));
                      ],
                    { ctx with segs = (name, l) :: ctx.segs } ))
        in
        let decls, ctx = List.fold_left level (decls, ctx) (List.init (last + 1) Fun.id) in
        match if under_loop a then resolved ctx a last else None with
        | Some p when input && not (List.mem_assoc a ctx.values) ->
            let x = scalar_var tv in
            ( decls @ [ Imp.Decl (Imp.Float, x, Imp.Load (vals_var tv, p)) ],
              { ctx with values = (a, Imp.Var x) :: ctx.values } )
        | Some p when (not input) && compound p && not (List.mem_assoc (name, last) ctx.cpos) ->
            ( decls @ [ Imp.Decl (Imp.Int, pv last, p) ],
              { ctx with cpos = ((name, last), Imp.Var (pv last)) :: ctx.cpos } )
        | Some _ | None -> (decls, ctx)
      in
      let decls, ctx =
        List.fold_left bind ([], ctx)
          (List.filter
             (fun (a : Cin.access) -> not (List.exists (Tensor_var.equal a.tensor) multi_shape))
             accs)
      in
      decls @ lower_stmt ctx s
    and lower_forall ctx v body =
      let vname = Index_var.name v in
      let body_accs = Util.dedup_stable (Cin.stmt_accesses body) in
      (* Sparse iterators at v among the operands. *)
      let sparse_iters =
        List.filter
          (fun (a : Cin.access) ->
            (not (Tensor_var.equal a.tensor st.result)) && compressed_at a v)
          body_accs
      in
      let result_acc =
        List.find_opt (fun (a : Cin.access) -> Tensor_var.equal a.tensor st.result) body_accs
      in
      let result_level_at_v =
        match result_acc with
        | Some a when compressed_at a v -> level_of_var a v
        | Some _ | None -> None
      in
      let bind_coord coord = (vname, coord) :: ctx.bound in
      let fresh (a : Cin.access) = List.exists (fun iv -> Index_var.name iv = vname) a.indices in
      (* Lower a lattice-branch body: exhaust absent iterators, prune. *)
      let branch ctx' present =
        let absent =
          List.filter
            (fun (a : Cin.access) -> not (List.memq a present))
            sparse_iters
        in
        let body' = List.fold_left (fun b a -> zero_access sr a b) body absent in
        match prune sr body' with None -> [] | Some b -> lower_body ctx' ~fresh b
      in
      (* Close a pending pos-finalize whose parent loop is v. *)
      let closes () =
        let mine, rest =
          List.partition (fun (parent, _) -> parent = Some vname) st.pos_close
        in
        st.pos_close <- rest;
        List.map snd mine
      in
      (* Create the append state for a compressed result driven by v. *)
      let make_append (lhs_acc : Cin.access) coord =
        let tv = lhs_acc.tensor in
        let l =
          match result_compressed_level tv with
          | Some l when l >= 0 -> l
          | Some _ -> fail "results with several compressed levels are not supported"
          | None -> fail "internal: append into dense result"
        in
        (* Scatter check: an enclosing loop that is not a result index
           would revisit positions (taco's unsupported case; fixed by the
           workspace transformation). *)
        List.iter
          (fun (bv, _) ->
            if not (List.exists (fun iv -> Index_var.name iv = bv) lhs_acc.indices) then
              fail
                "assignment into compressed result %s under loop %s scatters \
                 into sparse storage; apply the workspace transformation \
                 (precompute)"
                (Tensor_var.name tv) bv)
          ctx.bound;
        let counter = append_counter_var tv l in
        if not st.counter_declared then begin
          st.counter_declared <- true;
          push_top (Imp.Decl (Imp.Int, counter, Imp.Int_lit 0))
        end;
        (* Register the pos finalize in the parent loop. *)
        let parent_key, parent_pos =
          if l = 0 then (None, Imp.Int_lit 0)
          else
            let pv = var_at_level lhs_acc (l - 1) in
            (Some (Index_var.name pv), pos_at ctx lhs_acc (l - 1))
        in
        st.append_parent <- parent_key;
        if not (List.exists (fun (k, _) -> k = parent_key) st.pos_close) then
          st.pos_close <-
            ( parent_key,
              Imp.Store (pos_var tv l, Imp.add parent_pos (Imp.Int_lit 1), Imp.Var counter) )
            :: st.pos_close;
        let assemble, emit_values =
          match st.mode with
          | Compute -> (false, true)
          | Assemble { emit_values; _ } -> (true, emit_values)
        in
        { counter; assemble; emit_values; coord }
      in
      let iter_names =
        List.map
          (fun (a : Cin.access) ->
            let l = Option.get (level_of_var a v) in
            (a, l, Printf.sprintf "p%s%d" (Tensor_var.name a.Cin.tensor) (l + 1)))
          sparse_iters
      in
      let hoisted (a, l, _) = List.mem (Tensor_var.name a.Cin.tensor, l) ctx.segs in
      let pos_load ((a, l, pv) as it) side =
        if hoisted it then
          Imp.Var (pv ^ if side = `Lo then "_begin" else "_end")
        else
          let parent = pos_at ctx a (l - 1) in
          let idx = if side = `Lo then parent else Imp.add parent (Imp.Int_lit 1) in
          Imp.Load (pos_var a.Cin.tensor l, idx)
      in
      match iter_names with
      | [] -> (
          match result_level_at_v with
          | Some l when l >= 0 -> (
              let lhs_acc = Option.get result_acc in
              match st.mode with
              | Compute ->
                  (* Result-index-driven loop (Fig. 1d consumer). *)
                  let pvar = Printf.sprintf "p%s%d" (Tensor_var.name st.result) (l + 1) in
                  let parent = pos_at ctx lhs_acc (l - 1) in
                  let ctx' =
                    {
                      ctx with
                      bound = bind_coord (Imp.Var vname);
                      cpos = ((Tensor_var.name st.result, l), Imp.Var pvar) :: ctx.cpos;
                    }
                  in
                  let inner = lower_body ctx' ~fresh body in
                  let cl = closes () in
                  [
                    Imp.For
                      ( pvar,
                        Imp.Load (pos_var st.result l, parent),
                        Imp.Load (pos_var st.result l, Imp.add parent (Imp.Int_lit 1)),
                        (Imp.Decl (Imp.Int, vname, Imp.Load (crd_var st.result l, Imp.Var pvar))
                         :: inner)
                        @ cl );
                  ]
              | Assemble _ -> (
                  (* The workspace's tracked coordinates drive the loop:
                     a set drained in ascending order when sorted, else
                     the coordinate list of Fig. 8 in insertion order. *)
                  match ctx.wlist with
                  | None ->
                      fail
                        "cannot assemble the index of %s from a dense expression \
                         without a workspace; precompute into a workspace first"
                        (Tensor_var.name st.result)
                  | Some w ->
                      let q = Printf.sprintf "p%s_list" w in
                      let ap = make_append lhs_acc (Imp.Var vname) in
                      let ctx' =
                        { ctx with bound = bind_coord (Imp.Var vname); append = Some ap }
                      in
                      let inner = lower_body ctx' ~fresh body in
                      let cl = closes () in
                      if sorted then [ Imp.Set_drain (set_var w, vname, inner @ cl) ]
                      else
                        [
                          Imp.For
                            ( q,
                              Imp.Int_lit 0,
                              Imp.Var (list_size_var w),
                              (Imp.Decl (Imp.Int, vname, Imp.Load (list_var w, Imp.Var q)) :: inner)
                              @ cl );
                        ]))
          | Some _ | None -> (
              (* Dense loop over the variable's range, optionally
                 strip-mined. *)
              let ctx' = { ctx with bound = bind_coord (Imp.Var vname) } in
              let inner = lower_body ctx' ~fresh body in
              let cl = closes () in
              match List.find_opt (fun (w, _) -> Index_var.equal w v) splits with
              | None -> [ Imp.For (vname, Imp.Int_lit 0, range v, inner @ cl) ]
              | Some (_, factor) when factor <= 0 ->
                  fail "split factor for %s must be positive" vname
              | Some (_, factor) ->
                  (* The strip count is declared once at the kernel top,
                     each strip's start once per strip. *)
                  let outer = vname ^ "_o" and inner_v = vname ^ "_i" in
                  let start = vname ^ "_start" in
                  let n = range v in
                  let trips =
                    Imp.Decl
                      ( Imp.Int,
                        outer ^ "_end",
                        Imp.Binop
                          (Imp.Div, Imp.add n (Imp.Int_lit (factor - 1)), Imp.Int_lit factor) )
                  in
                  if not (List.mem trips st.top) then push_top trips;
                  [
                    Imp.For
                      ( outer,
                        Imp.Int_lit 0,
                        Imp.Var (outer ^ "_end"),
                        [
                          Imp.Decl (Imp.Int, start, Imp.mul (Imp.Var outer) (Imp.Int_lit factor));
                          Imp.For
                            ( inner_v,
                              Imp.Int_lit 0,
                              Imp.Int_lit factor,
                              [
                                Imp.Decl (Imp.Int, vname, Imp.add (Imp.Var start) (Imp.Var inner_v));
                                Imp.If (Imp.lt (Imp.Var vname) n, inner @ cl, []);
                              ] );
                        ] );
                  ]))
      | _ :: _ when List.exists (fun (w, _) -> Index_var.equal w v) splits ->
          fail
            "cannot strip-mine %s: it drives sparse iteration (only dense loops \
             can be split)"
            vname
      | _ :: _ -> (
          (* Coiteration: find the one assignment whose rhs merges them. *)
          let lattice_expr =
            let holding =
              List.filter
                (fun (_, _, rhs) ->
                  let rhs_accs = Cin.expr_accesses rhs in
                  List.exists
                    (fun (a : Cin.access) ->
                      List.exists
                        (fun (b : Cin.access) -> Cin.equal_expr (Cin.Access a) (Cin.Access b))
                        rhs_accs)
                    sparse_iters)
                (assignments body)
            in
            match holding with
            | [ (_, _, rhs) ] -> rhs
            | [] -> fail "internal: sparse iterators not found in any assignment"
            | _ ->
                fail
                  "sparse operands of %s are merged across several assignments; \
                   restructure the schedule (split_forall)"
                  vname
          in
          let sparse_id (a : Cin.access) =
            let rec idx i = function
              | [] -> None
              | (b, _, _) :: rest ->
                  if Cin.equal_expr (Cin.Access a) (Cin.Access b) then Some i
                  else idx (i + 1) rest
            in
            idx 0 iter_names
          in
          let lattice = Merge_lattice.build ~sparse_id lattice_expr in
          let nth_iter i = List.nth iter_names i in
          let point_accs p = List.map (fun i -> let a, _, _ = nth_iter i in a) p in
          (* Each iterator's segment start and end, read once before the
             loops that share them. *)
          let end_var (_, _, pv) = pv ^ "_end" in
          let pos_decls =
            List.concat_map
              (fun it ->
                let _, _, pv = it in
                Imp.Decl (Imp.Int, pv, pos_load it `Lo)
                :: (if hoisted it then [] else [ Imp.Decl (Imp.Int, end_var it, pos_load it `Hi) ]))
              iter_names
          in
          let in_bounds it = Imp.lt (Imp.Var (let _, _, pv = it in pv)) (Imp.Var (end_var it)) in
          let advance it =
            let _, _, pv = it in
            Imp.Assign (pv, Imp.add (Imp.Var pv) (Imp.Int_lit 1))
          in
          (* A case chain over lattice points, the arm of point q taken
             when [matched] holds for every iterator in q, with each
             iterator's advance placed where the chain decides it. In
             the arm of q the iterator matched if it is in q, and did not
             if an earlier point p holds it and p minus it lies within q
             (p failed, so it must have). The fall-through is the empty
             point. An iterator some path leaves open, such as an
             intersection's fall-through, keeps a guarded advance after
             the chain. *)
          let case_chain ~matched ~body ~fallthrough its points =
            let decides earlier q i =
              List.mem i q
              || List.exists
                   (fun p -> List.mem i p && List.for_all (fun x -> x = i || List.mem x q) p)
                   earlier
            in
            let rec every_path earlier i = function
              | [] -> decides earlier [] i
              | q :: rest -> decides earlier q i && every_path (q :: earlier) i rest
            in
            let sunk = List.filter (fun i -> every_path [] i points) its in
            let rec chain_of = function
              | [] -> fallthrough ()
              | q :: rest ->
                  let arm = body q in
                  let advances =
                    List.filter_map
                      (fun i ->
                        if List.mem i q && List.mem i sunk then Some (advance (nth_iter i)) else None)
                      its
                  in
                  let cond = Imp.and_list (List.map (fun i -> matched (nth_iter i)) q) in
                  [ Imp.If (cond, arm @ advances, chain_of rest) ]
            in
            chain_of points
            @ List.filter_map
                (fun i ->
                  if List.mem i sunk then None
                  else Some (Imp.If (matched (nth_iter i), [ advance (nth_iter i) ], [])))
                its
          in
          let coord_of it =
            let a, l, pv = it in
            Imp.Load (crd_var a.Cin.tensor l, Imp.Var pv)
          in
          let ctx_for point coord_expr append =
            let cpos =
              List.fold_left
                (fun cp i ->
                  let a, l, pv = nth_iter i in
                  ((Tensor_var.name a.Cin.tensor, l), Imp.Var pv) :: cp)
                ctx.cpos point
            in
            { ctx with bound = bind_coord coord_expr; cpos; append }
          in
          if lattice.needs_full then begin
            match (result_level_at_v, st.mode) with
            | Some _, Assemble _ ->
                fail
                  "cannot assemble a compressed result from an expression with \
                   a dense term; use a dense result or a workspace"
            | Some l, Compute ->
                (* Result-driven loop with tracked sparse operands. *)
                let lhs_acc = Option.get result_acc in
                let pvar = Printf.sprintf "p%s%d" (Tensor_var.name st.result) (l + 1) in
                let parent = pos_at ctx lhs_acc (l - 1) in
                let advances =
                  List.map
                    (fun it ->
                      let _, _, pv = it in
                      Imp.While
                        ( Imp.and_ (in_bounds it) (Imp.lt (coord_of it) (Imp.Var vname)),
                          [ Imp.Assign (pv, Imp.add (Imp.Var pv) (Imp.Int_lit 1)) ] ))
                    iter_names
                in
                let match_flag it = Imp.and_ (in_bounds it) (Imp.eq (coord_of it) (Imp.Var vname)) in
                let with_result_pos c =
                  { c with cpos = ((Tensor_var.name st.result, l), Imp.Var pvar) :: c.cpos }
                in
                let chain =
                  let rec chain_of = function
                    | [] -> branch (with_result_pos (ctx_for [] (Imp.Var vname) None)) []
                    | p :: rest ->
                        let cond = Imp.and_list (List.map (fun i -> match_flag (nth_iter i)) p) in
                        let ctxp = with_result_pos (ctx_for p (Imp.Var vname) None) in
                        let body_p = branch ctxp (point_accs p) in
                        [ Imp.If (cond, body_p, chain_of rest) ]
                  in
                  chain_of lattice.points
                in
                let cl = closes () in
                pos_decls
                @ [
                    Imp.For
                      ( pvar,
                        Imp.Load (pos_var st.result l, parent),
                        Imp.Load (pos_var st.result l, Imp.add parent (Imp.Int_lit 1)),
                        (Imp.Decl (Imp.Int, vname, Imp.Load (crd_var st.result l, Imp.Var pvar))
                         :: advances)
                        @ chain @ cl );
                  ]
            | None, _ ->
                (* Dense loop with conditional advancement of the sparse
                   operands. *)
                let flag_name it = let a, _, _ = it in Printf.sprintf "%s%s_match" vname (Tensor_var.name a.Cin.tensor) in
                let flags =
                  List.map
                    (fun it ->
                      Imp.Decl
                        ( Imp.Bool,
                          flag_name it,
                          Imp.and_ (in_bounds it) (Imp.eq (coord_of it) (Imp.Var vname)) ))
                    iter_names
                in
                let chain =
                  case_chain
                    ~matched:(fun it -> Imp.Var (flag_name it))
                    ~body:(fun p -> branch (ctx_for p (Imp.Var vname) ctx.append) (point_accs p))
                    ~fallthrough:(fun () -> branch (ctx_for [] (Imp.Var vname) ctx.append) [])
                    (List.mapi (fun i _ -> i) iter_names)
                    lattice.points
                in
                let cl = closes () in
                pos_decls @ [ Imp.For (vname, Imp.Int_lit 0, range v, flags @ chain @ cl) ]
          end
          else begin
            (* Sparse-driven merge loops, one per lattice point. *)
            let append =
              match result_level_at_v with
              | Some _ ->
                  let lhs_acc = Option.get result_acc in
                  Some (make_append lhs_acc (Imp.Var vname))
              | None -> ctx.append
            in
            let loop_for_point p =
              let its = List.map nth_iter p in
              match (lattice.points, its) with
              | [ _ ], [ it ] ->
                  (* Single sparse operand: a plain positional for loop. *)
                  let a, l, pv = it in
                  let ctx' = ctx_for p (Imp.Var vname) append in
                  [
                    Imp.For
                      ( pv,
                        pos_load it `Lo,
                        pos_load it `Hi,
                        Imp.Decl (Imp.Int, vname, Imp.Load (crd_var a.Cin.tensor l, Imp.Var pv))
                        :: branch ctx' (point_accs p) );
                  ]
              | _, [ it ] ->
                  (* A tail loop over one iterator: every coordinate it
                     visits matches its point. *)
                  [
                    Imp.While
                      ( in_bounds it,
                        (Imp.Decl (Imp.Int, vname, coord_of it)
                         :: branch (ctx_for p (Imp.Var vname) append) (point_accs p))
                        @ [ advance it ] );
                  ]
              | _ ->
                  let cvar it = let a, _, _ = it in vname ^ Tensor_var.name a.Cin.tensor in
                  let cdecls = List.map (fun it -> Imp.Decl (Imp.Int, cvar it, coord_of it)) its in
                  let vdecl =
                    Imp.Decl (Imp.Int, vname, Imp.min_list (List.map (fun it -> Imp.Var (cvar it)) its))
                  in
                  let chain =
                    case_chain
                      ~matched:(fun it -> Imp.eq (Imp.Var (cvar it)) (Imp.Var vname))
                      ~body:(fun q -> branch (ctx_for q (Imp.Var vname) append) (point_accs q))
                      ~fallthrough:(fun () -> []) p
                      (Merge_lattice.sub_points lattice p)
                  in
                  [ Imp.While (Imp.and_list (List.map in_bounds its), cdecls @ [ vdecl ] @ chain) ]
            in
            let loops = List.concat_map loop_for_point lattice.points in
            let cl = closes () in
            let inject = function
              | Imp.For (x, lo, hi, body) -> Imp.For (x, lo, hi, body @ cl)
              | Imp.While (c, body) -> Imp.While (c, body @ cl)
              | s -> s
            in
            (* The single-operand for loop declares its own position. *)
            let simple_for =
              match (lattice.points, iter_names) with [ _ ], [ _ ] -> true | _ -> false
            in
            (if simple_for then [] else pos_decls)
            @ (if cl = [] then loops else List.map inject loops)
          end)
    and lower_where ctx c p =
      (* A workspace belongs to the innermost where whose producer writes
         it; skip workspaces owned by a where nested inside [p]. *)
      let rec owned_by_nested tv = function
        | Cin.Assignment _ -> false
        | Cin.Forall (_, s) -> owned_by_nested tv s
        | Cin.Where (c', p') ->
            List.exists (Tensor_var.equal tv) (Cin.tensors_written p')
            || owned_by_nested tv c'
        | Cin.Sequence (a, b) -> owned_by_nested tv a || owned_by_nested tv b
      in
      let workspaces =
        List.filter
          (fun tv -> Tensor_var.is_workspace tv && not (owned_by_nested tv p))
          (Cin.tensors_written p)
      in
      let consumer_input_accesses =
        List.filter
          (fun (a : Cin.access) ->
            (not (Tensor_var.is_workspace a.tensor))
            && not (Tensor_var.equal a.tensor st.result))
          (rhs_accesses c)
      in
      let prelude = ref [] in
      let emit s = prelude := !prelude @ [ s ] in
      let track = ref ctx.track and wlist = ref ctx.wlist in
      List.iter
        (fun w ->
          let wname = Tensor_var.name w in
          if Tensor_var.order w = 0 then begin
            if not (List.mem wname st.allocated) then begin
              st.allocated <- wname :: st.allocated;
              push_top (Imp.Decl (Imp.Float, scalar_var w, Imp.Float_lit sr.Semiring.zero))
            end;
            emit (Imp.Assign (scalar_var w, Imp.Float_lit sr.Semiring.zero))
          end
          else begin
            let dims =
              match Hashtbl.find_opt ws_dims wname with
              | Some d -> d
              | None -> fail "internal: workspace %s has no inferred dimensions" wname
            in
            let size = product dims in
            let fresh = not (List.mem wname st.allocated) in
            if fresh then begin
              st.allocated <- wname :: st.allocated;
              push_top (Imp.Alloc (Imp.Float, vals_var w, size))
            end;
            (* The workspace's producer access (for its index variables). *)
            let w_vars =
              match
                List.find_opt
                  (fun (a : Cin.access) -> Tensor_var.equal a.tensor w)
                  (Cin.stmt_accesses p)
              with
              | Some a -> a.indices
              | None -> []
            in
            (* Covered: the consumer visits every workspace position the
               producer wrote (it copies into the result's index or loops
               densely), so the workspace is zeroed once at the kernel
               top and the consumer restores zeros after reading
               (Fig. 5b). Otherwise the workspace is re-zeroed here,
               inside the enclosing loops (Fig. 10). Allocation zeroes,
               so a zeroing that runs once right after it (at the kernel
               top, or here outside every loop for a fresh workspace) is
               emitted only as the fill of a semiring zero that is not
               all-zero bits. *)
            let zeroed_by_alloc = Semiring.zero_is_bits0 sr in
            let covered =
              not
                (List.exists
                   (fun (a : Cin.access) ->
                     List.exists (fun v -> compressed_at a v) w_vars)
                   consumer_input_accesses)
            in
            if covered then begin
              if not (List.mem wname st.reset_on_read) then begin
                st.reset_on_read <- wname :: st.reset_on_read;
                if not zeroed_by_alloc then push_top (zeroer (vals_var w) size)
              end
            end
            else if not (fresh && ctx.bound = [] && zeroed_by_alloc) then
              emit (zeroer (vals_var w) size);
            (* Coordinate tracking for assembly: the consumer copies this
               workspace into the compressed result. *)
            (match st.mode with
            | Assemble _ ->
                let consumer_copies =
                  List.exists
                    (fun ((lhs : Cin.access), _, rhs) ->
                      Tensor_var.equal lhs.tensor st.result
                      && (not (F.is_all_dense (Tensor_var.format st.result)))
                      && List.exists
                           (fun (a : Cin.access) -> Tensor_var.equal a.tensor w)
                           (Cin.expr_accesses rhs))
                    (assignments c)
                in
                if consumer_copies then begin
                  if Tensor_var.order w <> 1 then
                    fail "assembly tracking supports order-1 workspaces only";
                  let dim = List.hd dims in
                  if not (List.mem wname st.tracked) then begin
                    st.tracked <- wname :: st.tracked;
                    if sorted then push_top (Imp.Set_alloc (set_var wname, dim))
                    else begin
                      push_top (Imp.Alloc (Imp.Bool, seen_var wname, dim));
                      push_top (Imp.Alloc (Imp.Int, list_var wname, dim));
                      push_top (Imp.Decl (Imp.Int, list_size_var wname, Imp.Int_lit 0))
                    end
                  end;
                  (* A drain leaves its set empty; a list restarts. *)
                  if not sorted then emit (Imp.Assign (list_size_var wname, Imp.Int_lit 0));
                  track := Some wname;
                  wlist := Some wname
                end
            | Compute -> ())
          end)
        workspaces;
      let stmts_p = lower_stmt { ctx with track = !track } p in
      let stmts_c = lower_stmt { ctx with wlist = !wlist } c in
      !prelude @ stmts_p @ stmts_c
    in
    let ctx0 =
      {
        bound = [];
        cpos = [];
        scaled = [];
        values = [];
        segs = [];
        ws_dims;
        append = None;
        track = None;
        wlist = None;
      }
    in
    let body = lower_body ctx0 ~fresh:(fun _ -> true) stmt in
    (* --- parallelization ------------------------------------------------ *)
    (* Wrap the kernel-top loop that drives the parallelized index in
       ParallelFor, annotated with what the executor must privatize per
       chunk (workspace arrays) and merge in chunk order (the result's
       append staging). Everything else is safe to share: inputs are
       read-only and non-staged output writes are indexed by the
       parallel variable, hence disjoint across chunks. *)
    let body =
      match parallel with
      | None -> body
      | Some pv ->
          let vname = Index_var.name pv in
          (* The driving loop either binds [vname] itself (dense loop) or
             iterates positions and recovers the coordinate as its first
             declaration (sparse operand-driven loop). *)
          let drives = function
            | Imp.For (x, _, _, inner) -> (
                x = vname
                ||
                match inner with
                | Imp.Decl (Imp.Int, d, _) :: _ -> d = vname
                | _ -> false)
            | _ -> false
          in
          let loop_var, loop_inner =
            match List.filter drives body with
            | [ Imp.For (x, _, _, inner) ] -> (x, inner)
            | [] ->
                fail
                  "cannot parallelize %s: no kernel-top loop drives it (the \
                   variable is merged by coiteration or nested under another \
                   loop; reorder it outermost or apply precompute first)"
                  vname
            | _ -> fail "cannot parallelize %s: several kernel-top loops drive it" vname
          in
          let privates =
            List.concat_map
              (fun wname ->
                if Hashtbl.mem ws_dims wname then
                  (wname ^ "_vals") :: tracking wname
                else [])
              st.allocated
          in
          let stage =
            if not st.counter_declared then None
            else begin
              let l =
                match result_compressed_level result with
                | Some l when l >= 0 -> l
                | Some _ | None -> fail "internal: append counter without compressed level"
              in
              let assemble, emit_values =
                match st.mode with
                | Compute -> (false, true)
                | Assemble { emit_values; _ } -> (true, emit_values)
              in
              let arrays =
                (if assemble then [ crd_var result l ] else [])
                @ if emit_values then [ vals_var result ] else []
              in
              let pos =
                match st.append_parent with
                | None -> None
                | Some pk when pk = vname ->
                    (* Iteration [x] of the parallel loop finalizes
                       pos[x+1] against the chunk-local counter; the
                       merge rebases those entries by the chunk's global
                       base. This only lines up when the loop variable is
                       the pos parent coordinate itself. *)
                    if loop_var <> vname then
                      fail
                        "cannot parallelize %s: the loop driving it iterates \
                         operand positions while the result's pos array is \
                         finalized per %s coordinate" vname vname
                    else Some (pos_var result l)
                | Some pk ->
                    fail
                      "cannot parallelize %s: the result's pos array is finalized \
                       by the inner loop %s; only the pos parent loop can be \
                       parallelized" vname pk
              in
              Some { Imp.pa_counter = append_counter_var result l; pa_arrays = arrays; pa_pos = pos }
            end
          in
          (* A scalar declared before the loop and reassigned inside it
             is loop-carried state: each chunk would start from the
             pre-loop value rather than the value preceding iterations
             left behind (e.g. the advancing position cursor of a sparse
             operand scanned under a dense loop). The append counter is
             merged explicitly, capacity counters only size chunk-private
             reallocations, and workspace list sizes are reset at the top
             of every iteration (a set is empty after every drain); any
             other carried scalar makes chunked execution unsound, so
             reject it. *)
          let rec assigned acc = function
            | Imp.Assign (n, _) -> n :: acc
            | Imp.Decl _ | Imp.Store _ | Imp.Store_add _ | Imp.Store_reduce _ | Imp.Alloc _
            | Imp.Realloc _ | Imp.Memset _ | Imp.Fill _ | Imp.Set_alloc _ | Imp.Set_insert _
            | Imp.Comment _ ->
                acc
            | Imp.For (_, _, _, b)
            | Imp.ParallelFor (_, _, _, b, _)
            | Imp.While (_, b)
            | Imp.Set_drain (_, _, b) ->
                List.fold_left assigned acc b
            | Imp.If (_, a, b) -> List.fold_left assigned (List.fold_left assigned acc a) b
          in
          let body_assigns = List.fold_left assigned [] loop_inner in
          let rec decls_before acc = function
            | [] -> acc
            | s :: _ when drives s -> acc
            | Imp.Decl (_, n, _) :: rest -> decls_before (n :: acc) rest
            | _ :: rest -> decls_before acc rest
          in
          let pre_scalars = decls_before [] body in
          let carried_ok =
            (match stage with
            | Some s ->
                s.Imp.pa_counter
                :: (match result_compressed_level result with
                   | Some l when l >= 0 -> [ crd_capacity_var result l ]
                   | Some _ | None -> [])
            | None -> [])
            @ List.filter_map
                (fun wname ->
                  if Hashtbl.mem ws_dims wname && List.mem wname st.tracked && not sorted then
                    Some (list_size_var wname)
                  else None)
                st.allocated
          in
          (match
             List.find_opt
               (fun n -> List.mem n pre_scalars && not (List.mem n carried_ok))
               body_assigns
           with
          | Some n ->
              fail
                "cannot parallelize %s: the loop carries scalar state across \
                 iterations (%s is declared before the loop and updated inside \
                 it), so chunks cannot start independently" vname n
          | None -> ());
          List.map
            (fun s ->
              match s with
              | Imp.For (x, lo, hi, inner) when drives s ->
                  Imp.ParallelFor
                    (x, lo, hi, inner, { Imp.par_private = privates; par_stage = stage })
              | s -> s)
            body
    in
    (* Kernel prelude for the result. *)
    let result_prelude =
      if F.is_all_dense (Tensor_var.format result) then
        if Tensor_var.order result = 0 then
          (* The runtime hands the kernel a bit-zeroed value buffer; only
             a non-bit-zero semiring zero needs an explicit store. *)
          if Semiring.zero_is_bits0 sr then []
          else
            [ Imp.Store (vals_var result, Imp.Int_lit 0, Imp.Float_lit sr.Semiring.zero) ]
        else [ zeroer (vals_var result) (dims_product result (Tensor_var.order result)) ]
      else
        match st.mode with
        | Compute -> []
        | Assemble { emit_values; _ } -> (
            match result_compressed_level result with
            | Some l when l >= 0 ->
                [
                  Imp.Alloc
                    (Imp.Int, pos_var result l, Imp.add (dims_product result l) (Imp.Int_lit 1));
                  Imp.Store (pos_var result l, Imp.Int_lit 0, Imp.Int_lit 0);
                  Imp.Decl (Imp.Int, crd_capacity_var result l, Imp.Int_lit initial_capacity);
                  Imp.Alloc (Imp.Int, crd_var result l, Imp.Int_lit initial_capacity);
                ]
                @
                if emit_values then
                  [ Imp.Alloc (Imp.Float, vals_var result, Imp.Int_lit initial_capacity) ]
                else []
            | Some _ -> fail "results with several compressed levels cannot be assembled"
            | None -> fail "internal: compressed result without compressed level")
    in
    (* Pending pos closes at the root (sparse vector results). *)
    let root_closes =
      let mine, rest = List.partition (fun (parent, _) -> parent = None) st.pos_close in
      st.pos_close <- rest;
      List.map snd mine
    in
    if st.pos_close <> [] then fail "internal: unplaced pos finalization";
    (* When the parent loop is itself sparse (e.g. the row loop iterates a
       compressed operand mode), rows absent from the operand are never
       visited and their pos entries stay zero; a monotonic fix-up sweep
       closes them. *)
    let pos_fixup =
      match (st.mode, result_compressed_level result) with
      | Assemble _, Some l when l > 0 && st.counter_declared ->
          [
            Imp.For
              ( "pfix",
                Imp.Int_lit 0,
                dims_product result l,
                [
                  Imp.If
                    ( Imp.lt
                        (Imp.Load (pos_var result l, Imp.add (Imp.Var "pfix") (Imp.Int_lit 1)))
                        (Imp.Load (pos_var result l, Imp.Var "pfix")),
                      [
                        Imp.Store
                          ( pos_var result l,
                            Imp.add (Imp.Var "pfix") (Imp.Int_lit 1),
                            Imp.Load (pos_var result l, Imp.Var "pfix") );
                      ],
                      [] );
                ] );
          ]
      | (Assemble _ | Compute), _ -> []
    in
    let root_closes = root_closes @ pos_fixup in
    (* Parameters. *)
    let params_of_tensor tv ~output =
      let fmt = Tensor_var.format tv in
      let order = Tensor_var.order tv in
      let assembled_result =
        output && (match st.mode with Assemble _ -> true | Compute -> false)
        && not (F.is_all_dense fmt)
      in
      let level_params =
        List.concat
          (List.init order (fun l ->
               let dim =
                 { Imp.p_name = dimension_var tv l; p_dtype = Imp.Int; p_array = false; p_output = false }
               in
               match F.level fmt l with
               | L.Dense -> [ dim ]
               | L.Compressed ->
                   if assembled_result then [ dim ]
                   else
                     [
                       dim;
                       { Imp.p_name = pos_var tv l; p_dtype = Imp.Int; p_array = true; p_output = output };
                       { Imp.p_name = crd_var tv l; p_dtype = Imp.Int; p_array = true; p_output = output };
                     ]))
      in
      let vals =
        if assembled_result then []
        else [ { Imp.p_name = vals_var tv; p_dtype = Imp.Float; p_array = true; p_output = output } ]
      in
      level_params @ vals
    in
    let params =
      params_of_tensor result ~output:true
      @ List.concat_map (fun tv -> params_of_tensor tv ~output:false) inputs
    in
    let kernel =
      { Imp.k_name = name; k_params = params; k_body = result_prelude @ st.top @ body @ root_closes }
    in
    (match Imp.validate kernel with
    | Ok () -> ()
    | Error e -> fail "internal: generated kernel fails the verifier: %s" e);
    { kernel; inputs; result; mode; extents = Taco_ir.Extent.of_stmt stmt }
  in
  let module Trace = Taco_support.Trace in
  Trace.with_span ~cat:"lower" ~args:[ ("kernel", name) ] "lower" (fun () ->
      match build () with
      | info ->
          Trace.set_args [ ("nodes", string_of_int (Imp.node_count info.kernel)) ];
          Ok info
      | exception Lower_error msg -> Error msg)
