open Var
module Dense = Taco_tensor.Dense

let var_ranges stmt ~inputs =
  let ranges : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let err = ref None in
  let note v range =
    match Hashtbl.find_opt ranges (Index_var.name v) with
    | None -> Hashtbl.replace ranges (Index_var.name v) range
    | Some r ->
        if r <> range && !err = None then
          err :=
            Some
              (Printf.sprintf "index variable %s ranges over both %d and %d"
                 (Index_var.name v) r range)
  in
  List.iter
    (fun (a : Cin.access) ->
      match
        List.find_opt (fun (tv, _) -> Tensor_var.equal tv a.tensor) inputs
      with
      | None -> ()
      | Some (_, d) ->
          let dims = Dense.dims d in
          List.iteri (fun m v -> note v dims.(m)) a.indices)
    (Cin.stmt_accesses stmt);
  match !err with
  | Some e -> Error e
  | None -> (
      (* Every variable used anywhere must have a range. *)
      match
        List.find_opt
          (fun v -> not (Hashtbl.mem ranges (Index_var.name v)))
          (Cin.stmt_vars stmt)
      with
      | Some v ->
          Error
            (Printf.sprintf
               "cannot infer the range of %s (it indexes no bound input tensor)"
               (Index_var.name v))
      | None ->
          Ok
            (List.map
               (fun v -> (v, Hashtbl.find ranges (Index_var.name v)))
               (Cin.stmt_vars stmt)))

let eval stmt ~inputs =
  match Cin.validate stmt with
  | Error e -> Error e
  | Ok () -> (
      match var_ranges stmt ~inputs with
      | Error e -> Error e
      | Ok ranges ->
          let range v =
            match List.find_opt (fun (w, _) -> Index_var.equal v w) ranges with
            | Some (_, r) -> r
            | None -> invalid_arg "Cin_eval: unranged variable"
          in
          let store : (string, Dense.t) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun (tv, d) -> Hashtbl.replace store (Tensor_var.name tv) d)
            inputs;
          (* Allocate results and workspaces from access index ranges. *)
          let accesses = Cin.stmt_accesses stmt in
          List.iter
            (fun (a : Cin.access) ->
              let name = Tensor_var.name a.tensor in
              if not (Hashtbl.mem store name) then begin
                let dims = Array.of_list (List.map range a.indices) in
                Hashtbl.replace store name (Dense.create dims)
              end)
            accesses;
          let valuation : (string, int) Hashtbl.t = Hashtbl.create 16 in
          let coord indices =
            Array.of_list
              (List.map (fun v -> Hashtbl.find valuation (Index_var.name v)) indices)
          in
          let rec eval_expr = function
            | Cin.Literal v -> v
            | Cin.Access a ->
                Dense.get (Hashtbl.find store (Tensor_var.name a.tensor)) (coord a.indices)
            | Cin.Neg e -> -.eval_expr e
            | Cin.Add (a, b) -> eval_expr a +. eval_expr b
            | Cin.Sub (a, b) -> eval_expr a -. eval_expr b
            | Cin.Mul (a, b) -> eval_expr a *. eval_expr b
            | Cin.Div (a, b) -> eval_expr a /. eval_expr b
          in
          let rec eval_stmt = function
            | Cin.Assignment { lhs; op; rhs } -> (
                let t = Hashtbl.find store (Tensor_var.name lhs.tensor) in
                let c = coord lhs.indices in
                let v = eval_expr rhs in
                match op with
                | Cin.Assign -> Dense.set t c v
                | Cin.Accumulate -> Dense.add_at t c v)
            | Cin.Forall (v, s) ->
                let n = range v in
                for c = 0 to n - 1 do
                  Hashtbl.replace valuation (Index_var.name v) c;
                  eval_stmt s
                done;
                Hashtbl.remove valuation (Index_var.name v)
            | Cin.Where (c, p) ->
                List.iter
                  (fun tv ->
                    if Tensor_var.is_workspace tv then
                      Dense.fill (Hashtbl.find store (Tensor_var.name tv)) 0.)
                  (Cin.tensors_written p);
                eval_stmt p;
                eval_stmt c
            | Cin.Sequence (a, b) ->
                eval_stmt a;
                eval_stmt b
          in
          (* Results (written non-workspace tensors) start at zero. *)
          let results =
            List.filter
              (fun tv -> not (Tensor_var.is_workspace tv))
              (Cin.tensors_written stmt)
          in
          List.iter
            (fun tv -> Dense.fill (Hashtbl.find store (Tensor_var.name tv)) 0.)
            results;
          eval_stmt stmt;
          Ok
            (List.map
               (fun tv ->
                 let name = Tensor_var.name tv in
                 (name, Hashtbl.find store name))
               results))

let eval1 stmt ~inputs =
  match eval stmt ~inputs with
  | Error e -> Error e
  | Ok [ (_, d) ] -> Ok d
  | Ok rs ->
      Error
        (Printf.sprintf "expected exactly one result tensor, found %d" (List.length rs))
