open Var
module I = Index_notation

let scalar_format = Taco_tensor.Format.of_levels []

(* Translate an index-notation expression to a CIN expression. Nested
   [Sum]s become scalar-temporary producers to be attached with [Where]
   around the consuming assignment. Returns the translated expression and
   the producers, innermost first. *)
let rec translate (e : I.expr) : Cin.expr * Cin.stmt list =
  match e with
  | I.Literal v -> (Cin.Literal v, [])
  | I.Access (tv, indices) -> (Cin.Access (Cin.access tv indices), [])
  | I.Neg a ->
      let a', ps = translate a in
      (Cin.Neg a', ps)
  | I.Add (a, b) ->
      let a', pa = translate a in
      let b', pb = translate b in
      (Cin.Add (a', b'), pa @ pb)
  | I.Sub (a, b) ->
      let a', pa = translate a in
      let b', pb = translate b in
      (Cin.Sub (a', b'), pa @ pb)
  | I.Mul (a, b) ->
      let a', pa = translate a in
      let b', pb = translate b in
      (Cin.Mul (a', b'), pa @ pb)
  | I.Div (a, b) ->
      let a', pa = translate a in
      let b', pb = translate b in
      (Cin.Div (a', b'), pa @ pb)
  | I.Sum (v, a) ->
      let a', inner = translate a in
      let temp =
        Tensor_var.workspace (Index_var.name (Index_var.fresh "t")) ~order:0
          ~format:scalar_format
      in
      let t_access = Cin.access temp [] in
      let producer =
        Cin.Forall
          ( v,
            List.fold_left
              (fun consumer p -> Cin.Where (consumer, p))
              (Cin.accumulate t_access a') inner )
      in
      (Cin.Access t_access, [ producer ])

(* Strip reductions spanning the whole right-hand side. *)
let rec strip_top_sums = function
  | I.Sum (v, e) ->
      let vars, inner = strip_top_sums e in
      (v :: vars, inner)
  | (I.Literal _ | I.Access _ | I.Neg _ | I.Add _ | I.Sub _ | I.Mul _ | I.Div _) as e ->
      ([], e)

let run_body ?(scalar_temps = false) (stmt : I.t) =
  match I.validate stmt with
  | Error e -> Error e
  | Ok () ->
      let rec sum_bound = function
        | I.Sum (w, e) -> w :: sum_bound e
        | I.Neg e -> sum_bound e
        | I.Add (a, b) | I.Sub (a, b) | I.Mul (a, b) | I.Div (a, b) ->
            sum_bound a @ sum_bound b
        | I.Literal _ | I.Access _ -> []
      in
      let bound = sum_bound stmt.rhs in
      let implicit =
        List.filter
          (fun v -> not (List.exists (Index_var.equal v) bound))
          (I.reduction_vars stmt)
      in
      if scalar_temps then begin
        (* Fold implicit reduction variables into an explicit whole-rhs
           sum, then apply the literal rule of §VI: every reduction
           produces into a scalar temporary via a where statement. *)
        let rhs = List.fold_right (fun v e -> I.Sum (v, e)) implicit stmt.rhs in
        let rhs', producers = translate rhs in
        let lhs = Cin.access stmt.lhs stmt.lhs_indices in
        let body =
          match stmt.op with
          | I.Assign -> Cin.assign lhs rhs'
          | I.Accumulate -> Cin.accumulate lhs rhs'
        in
        let body =
          List.fold_left (fun consumer p -> Cin.Where (consumer, p)) body producers
        in
        Ok (Cin.foralls stmt.lhs_indices body)
      end
      else begin
        let top_sums, inner_rhs = strip_top_sums stmt.rhs in
        let rhs', producers = translate inner_rhs in
        let reduction_vars = top_sums @ implicit in
        let lhs = Cin.access stmt.lhs stmt.lhs_indices in
        let op =
          match (stmt.op, reduction_vars) with
          | I.Assign, [] -> Cin.Assign
          | I.Assign, _ :: _ -> Cin.Accumulate
          | I.Accumulate, _ -> Cin.Accumulate
        in
        let body = Cin.Assignment { lhs; op; rhs = rhs' } in
        let body =
          List.fold_left (fun consumer p -> Cin.Where (consumer, p)) body producers
        in
        Ok (Cin.foralls (stmt.lhs_indices @ reduction_vars) body)
      end

let run ?scalar_temps stmt =
  Taco_support.Trace.with_span ~cat:"frontend" "concretize" (fun () ->
      run_body ?scalar_temps stmt)
