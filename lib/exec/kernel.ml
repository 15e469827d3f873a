open Taco_ir.Var
module Tensor = Taco_tensor.Tensor
module F = Taco_tensor.Format
module L = Taco_tensor.Level
module Lower = Taco_lower.Lower

type t = { info : Taco_lower.Lower.kernel_info; compiled : Compile.compiled }

let prepare ?profile ?opt ?backend info =
  { info; compiled = Compile.compile ?profile ?opt ?backend info.Lower.kernel }

type request = Taco_lower.Lower.kernel_info * Compile.spec

let request ?profile ?opt ?backend info =
  (info, Compile.spec ?profile ?opt ?backend info.Lower.kernel)

let restamp (info, spec) = (info, Compile.restamp spec)

let prepare_batch requests =
  List.map2
    (fun (info, _) r -> Result.map (fun compiled -> { info; compiled }) r)
    requests
    (Compile.compile_batch (List.map snd requests))

let lookup (info, spec) = Option.map (Result.map (fun compiled -> { info; compiled })) (Compile.lookup spec)

let info t = t.info

let backend t = Compile.backend_of t.compiled

let native_phases t = Compile.native_phases t.compiled

let native_tier t = Compile.native_tier t.compiled

let promote t = Compile.promote t.compiled

let profile_stats t = Compile.profile_stats t.compiled

let profile_reset t = Compile.profile_reset t.compiled

let imp t = Compile.kernel t.compiled

let c_source t = Taco_lower.Codegen_c.emit (Compile.kernel t.compiled)

let tensor_args tv tensor =
  if Tensor_var.order tv <> Tensor.order tensor then
    invalid_arg
      (Printf.sprintf "Kernel: tensor %s has order %d, expected %d" (Tensor_var.name tv)
         (Tensor.order tensor) (Tensor_var.order tv));
  if not (F.equal (Tensor_var.format tv) (Tensor.format tensor)) then
    invalid_arg
      (Printf.sprintf "Kernel: tensor %s is stored as %s, expected %s"
         (Tensor_var.name tv)
         (F.to_string (Tensor.format tensor))
         (F.to_string (Tensor_var.format tv)));
  let dims = Tensor.dims tensor in
  let fmt = Tensor.format tensor in
  let level_args =
    List.concat
      (List.init (Tensor.order tensor) (fun l ->
           let dim = (Lower.dimension_var tv l, Compile.Aint dims.(F.mode_of_level fmt l)) in
           match Tensor.level_data tensor l with
           | Tensor.Dense_data _ -> [ dim ]
           | Tensor.Compressed_data { pos; crd } ->
               [
                 dim;
                 (Lower.pos_var tv l, Compile.Aint_array pos);
                 (Lower.crd_var tv l, Compile.Aint_array crd);
               ]))
  in
  level_args @ [ (Lower.vals_var tv, Compile.Afloat_array (Tensor.vals tensor)) ]

let input_args t inputs =
  List.concat_map
    (fun tv ->
      match List.find_opt (fun (v, _) -> Tensor_var.equal v tv) inputs with
      | Some (_, tensor) -> tensor_args tv tensor
      | None ->
          invalid_arg
            (Printf.sprintf "Kernel: no binding for input tensor %s" (Tensor_var.name tv)))
    t.info.Lower.inputs

(* Pre-allocation guard for outputs materialized by the wrapper itself
   (dense results): reject before [Tensor.zero] when the value array
   alone would blow the byte budget. *)
let check_output_budget t dims =
  let limit = Budget.mem_limit () in
  if limit <> max_int then begin
    let elems = Array.fold_left (fun acc d -> acc * max 1 d) 1 dims in
    if elems > limit / 8 then
      Taco_support.Diag.fail ~stage:Taco_support.Diag.Execute ~code:"E_EXEC_MEM"
        ~context:
          [
            ("kernel", t.info.Lower.kernel.Taco_lower.Imp.k_name);
            ("variable", "output");
            ("bytes", string_of_int (elems * 8));
            ("limit_bytes", string_of_int limit);
          ]
        "dense output of %d elements (%d bytes) exceeds the memory budget (%d bytes)"
        elems (elems * 8) limit
  end

let run_compute ?domains ?deadline_ns t ~inputs ~output =
  (match t.info.Lower.mode with
  | Lower.Compute -> ()
  | Lower.Assemble _ -> invalid_arg "Kernel.run_compute: kernel is an assembly kernel");
  let args = tensor_args t.info.Lower.result output @ input_args t inputs in
  ignore (Compile.run ?domains ?deadline_ns ~read:[] t.compiled ~args : string -> Compile.arg);
  Taco_support.Faultinject.corrupt "exec.result" (Tensor.vals output)

(* Dimension-only arguments for an assembled result. *)
let result_dim_args tv dims =
  let fmt = Tensor_var.format tv in
  List.init (Tensor_var.order tv) (fun l ->
      (Lower.dimension_var tv l, Compile.Aint dims.(F.mode_of_level fmt l)))

let run_assemble ?domains ?deadline_ns t ~inputs ~dims =
  let emit_values, sorted =
    match t.info.Lower.mode with
    | Lower.Assemble { emit_values; sorted } -> (emit_values, sorted)
    | Lower.Compute -> invalid_arg "Kernel.run_assemble: kernel is a compute kernel"
  in
  let result = t.info.Lower.result in
  let fmt = Tensor_var.format result in
  let order = Tensor_var.order result in
  if Array.length dims <> order then invalid_arg "Kernel.run_assemble: dims arity";
  if F.is_all_dense fmt then begin
    (* Dense results have nothing to assemble; behave like compute. *)
    check_output_budget t dims;
    let output = Tensor.zero dims fmt in
    let args = tensor_args result output @ input_args t inputs in
    ignore (Compile.run ?domains ?deadline_ns ~read:[] t.compiled ~args : string -> Compile.arg);
    Taco_support.Faultinject.corrupt "exec.result" (Tensor.vals output);
    output
  end
  else begin
    (* Locate the single compressed level. *)
    let l =
      let rec go l =
        if l >= order then invalid_arg "Kernel.run_assemble: no compressed level"
        else match F.level fmt l with L.Compressed -> l | L.Dense -> go (l + 1)
      in
      go 0
    in
    let parent_size =
      let rec go lvl acc =
        if lvl >= l then acc else go (lvl + 1) (acc * dims.(F.mode_of_level fmt lvl))
      in
      go 0 1
    in
    (* The assembled buffers are capacity-sized; only the first
       pos[parent_size] entries of crd/vals are the result. The
       executor hands back exactly those prefixes. *)
    let pos_v = Lower.pos_var result l
    and crd_v = Lower.crd_var result l
    and vals_v = Lower.vals_var result in
    let nnz = Compile.Len_at (pos_v, parent_size) in
    let read =
      Compile.run ?domains ?deadline_ns t.compiled
        ~args:(result_dim_args result dims @ input_args t inputs)
        ~read:
          ((pos_v, Compile.Len (parent_size + 1))
          :: (crd_v, nnz)
          :: (if emit_values then [ (vals_v, nnz) ] else []))
    in
    let pos =
      match read pos_v with
      | Compile.Aint_array a -> a
      | Compile.Aint _ | Compile.Afloat _ | Compile.Afloat_array _ ->
          invalid_arg "Kernel.run_assemble: bad pos read-back"
    in
    let crd =
      match read crd_v with
      | Compile.Aint_array a -> a
      | Compile.Aint _ | Compile.Afloat _ | Compile.Afloat_array _ ->
          invalid_arg "Kernel.run_assemble: bad crd read-back"
    in
    let vals =
      if emit_values then
        match read vals_v with
        | Compile.Afloat_array a -> a
        | Compile.Aint _ | Compile.Afloat _ | Compile.Aint_array _ ->
            invalid_arg "Kernel.run_assemble: bad vals read-back"
      else Array.make (Taco_support.Ivec.length crd) 0.
    in
    (* Unsorted kernels (MKL-style, paper Fig. 11 right) leave each row's
       coordinates in insertion order; sort them when wrapping so the
       packed invariants hold. The kernel itself ran unsorted. *)
    if not sorted then
      for p = 0 to parent_size - 1 do
        Taco_support.Util.sort_paired crd vals (Int32.to_int pos.{p}) (Int32.to_int pos.{p + 1})
      done;
    Taco_support.Faultinject.corrupt "exec.result" vals;
    let levels =
      Array.init order (fun lvl ->
          if lvl = l then Tensor.Compressed_data { pos; crd }
          else Tensor.Dense_data { size = dims.(F.mode_of_level fmt lvl) })
    in
    Tensor.of_parts ~dims ~format:fmt ~levels ~vals
  end

let run_assemble_raw ?domains ?deadline_ns t ~inputs ~dims =
  (match t.info.Lower.mode with
  | Lower.Assemble _ -> ()
  | Lower.Compute -> invalid_arg "Kernel.run_assemble_raw: kernel is a compute kernel");
  let result = t.info.Lower.result in
  if F.is_all_dense (Tensor_var.format result) then
    ignore (run_assemble ?domains ?deadline_ns t ~inputs ~dims : Tensor.t)
  else begin
    let args = result_dim_args result dims @ input_args t inputs in
    ignore (Compile.run ?domains ?deadline_ns ~read:[] t.compiled ~args : string -> Compile.arg)
  end

let run_dense ?domains ?deadline_ns t ~inputs ~dims =
  let result = t.info.Lower.result in
  if not (F.is_all_dense (Tensor_var.format result)) then
    invalid_arg "Kernel.run_dense: result is not dense";
  check_output_budget t dims;
  let output = Tensor.zero dims (Tensor_var.format result) in
  run_compute ?domains ?deadline_ns t ~inputs ~output;
  output
