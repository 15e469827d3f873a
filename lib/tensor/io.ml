module Diag = Taco_support.Diag
module Ivec = Taco_support.Ivec

let with_out path f =
  let oc = open_out path in
  match f oc with
  | v ->
      close_out oc;
      v
  | exception e ->
      close_out_noerr oc;
      raise e

(* A reader that tracks the 1-based line number and strips CRLF endings,
   so malformed files are reported by line. *)
type reader = { ic : in_channel; path : string; mutable lineno : int }

let reader path ic = { ic; path; lineno = 0 }

let fail r ~code fmt =
  Diag.fail ~stage:Diag.Io ~code
    ~context:[ ("file", r.path); ("line", string_of_int r.lineno) ]
    fmt

let next_line r =
  let line = input_line r.ic in
  r.lineno <- r.lineno + 1;
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Next line that holds data: blank lines and comment lines (leading
   [%] or [#]) are skipped wherever they appear. *)
let rec next_data_line r =
  let line = next_line r in
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '%' || trimmed.[0] = '#' then next_data_line r
  else trimmed

let split_ws line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let int_field r what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail r ~code:"E_IO_FIELD" "malformed %s: %s" what s

(* Sizes and coordinates end up in int32 index arrays (see
   {!Tensor}): one past Int32.max_int is refused here, naming its
   field. [lo] is the least valid value. *)
let in_range r ~lo what v =
  if v < lo || not (Ivec.fits v) then
    Diag.fail ~stage:Diag.Io ~code:"E_IO_RANGE"
      ~context:[ ("file", r.path); ("line", string_of_int r.lineno); ("field", what) ]
      "%s %d outside %d..%ld" what v lo Int32.max_int
  else v

let int32_field r ~lo what s = in_range r ~lo what (int_field r what s)

let float_field r what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail r ~code:"E_IO_FIELD" "malformed %s: %s" what s

let read_result r f =
  match f () with
  | v -> Ok v
  | exception Diag.Error d -> Error d
  | exception End_of_file ->
      Error
        (Diag.make ~stage:Diag.Io ~code:"E_IO_EOF"
           ~context:[ ("file", r.path); ("line", string_of_int r.lineno) ]
           "unexpected end of file")
  | exception Sys_error msg ->
      Error (Diag.make ~stage:Diag.Io ~code:"E_IO_SYS" ~context:[ ("file", r.path) ] msg)
  | exception Invalid_argument msg ->
      Error
        (Diag.make ~stage:Diag.Io ~code:"E_IO_BAD_DATA"
           ~context:[ ("file", r.path); ("line", string_of_int r.lineno) ]
           msg)

let read_matrix_market path =
  match open_in path with
  | exception Sys_error msg ->
      Error (Diag.make ~stage:Diag.Io ~code:"E_IO_SYS" ~context:[ ("file", path) ] msg)
  | ic ->
      let r = reader path ic in
      let res =
        read_result r (fun () ->
            let header = next_line r in
            let lower = String.lowercase_ascii header in
            if
              not (String.length lower >= 14 && String.sub lower 0 14 = "%%matrixmarket")
            then fail r ~code:"E_IO_HEADER" "not a MatrixMarket file";
            let has word =
              let rec contains i =
                i + String.length word <= String.length lower
                && (String.sub lower i (String.length word) = word || contains (i + 1))
              in
              contains 0
            in
            if not (has "coordinate") then
              fail r ~code:"E_IO_UNSUPPORTED" "only coordinate format is supported";
            let symmetric = has "symmetric" in
            let pattern = has "pattern" in
            if has "complex" then
              fail r ~code:"E_IO_UNSUPPORTED" "complex matrices are not supported";
            let rows, cols, nnz =
              match split_ws (next_data_line r) with
              | [ rr; c; n ] ->
                  ( int32_field r ~lo:1 "rows" rr,
                    int32_field r ~lo:1 "cols" c,
                    int32_field r ~lo:0 "nnz" n )
              | _ -> fail r ~code:"E_IO_SIZE_LINE" "malformed size line"
            in
            let coo = Coo.create [| rows; cols |] in
            for _ = 1 to nnz do
              match split_ws (next_data_line r) with
              | rr :: c :: rest ->
                  let i = int32_field r ~lo:1 "row" rr - 1 and j = int32_field r ~lo:1 "col" c - 1 in
                  let v =
                    match (pattern, rest) with
                    | true, _ -> 1.
                    | false, [ v ] -> float_field r "value" v
                    | false, _ -> fail r ~code:"E_IO_ENTRY" "missing value"
                  in
                  Coo.push coo [| i; j |] v;
                  if symmetric && i <> j then Coo.push coo [| j; i |] v
              | _ -> fail r ~code:"E_IO_ENTRY" "malformed entry"
            done;
            coo)
      in
      close_in_noerr ic;
      res

let write_matrix_market path t =
  if Tensor.order t <> 2 then
    Diag.error ~stage:Diag.Io ~code:"E_IO_ORDER" ~context:[ ("file", path) ]
      "write_matrix_market: tensor has order %d, expected 2" (Tensor.order t)
  else
    match
      with_out path (fun oc ->
          let dims = Tensor.dims t in
          let entries = ref [] in
          let count = ref 0 in
          Tensor.iteri_stored
            (fun c v ->
              if v <> 0. then begin
                entries := (c.(0) + 1, c.(1) + 1, v) :: !entries;
                incr count
              end)
            t;
          output_string oc "%%MatrixMarket matrix coordinate real general\n";
          Printf.fprintf oc "%d %d %d\n" dims.(0) dims.(1) !count;
          List.iter
            (fun (i, j, v) -> Printf.fprintf oc "%d %d %.17g\n" i j v)
            (List.rev !entries))
    with
    | () -> Ok ()
    | exception Sys_error msg ->
        Error (Diag.make ~stage:Diag.Io ~code:"E_IO_SYS" ~context:[ ("file", path) ] msg)

let read_frostt ?dims path =
  match open_in path with
  | exception Sys_error msg ->
      Error (Diag.make ~stage:Diag.Io ~code:"E_IO_SYS" ~context:[ ("file", path) ] msg)
  | ic ->
      let r = reader path ic in
      let res =
        read_result r (fun () ->
            let entries = ref [] in
            (try
               while true do
                 let line = String.trim (next_line r) in
                 if line <> "" && line.[0] <> '#' && line.[0] <> '%' then begin
                   match List.rev (split_ws line) with
                   | value :: rev_coords when rev_coords <> [] ->
                       let coords =
                         List.rev_map
                           (fun s -> int32_field r ~lo:1 "coordinate" s - 1)
                           rev_coords
                       in
                       entries :=
                         (Array.of_list coords, float_field r "value" value, r.lineno)
                         :: !entries
                   | _ -> fail r ~code:"E_IO_ENTRY" "malformed line: %s" line
                 end
               done
             with End_of_file -> ());
            let entries = List.rev !entries in
            let order =
              match entries with
              | [] -> (
                  match dims with
                  | Some d -> Array.length d
                  | None -> fail r ~code:"E_IO_EMPTY" "empty tensor and no dims")
              | (c, _, _) :: _ -> Array.length c
            in
            List.iter
              (fun (c, _, lineno) ->
                if Array.length c <> order then begin
                  r.lineno <- lineno;
                  fail r ~code:"E_IO_ENTRY"
                    "inconsistent coordinate arity (%d, expected %d)" (Array.length c)
                    order
                end)
              entries;
            let dims =
              match dims with
              | Some d ->
                  if Array.length d <> order then
                    fail r ~code:"E_IO_DIMS" "dims arity mismatch (%d given, order %d)"
                      (Array.length d) order;
                  Array.iter (fun x -> ignore (in_range r ~lo:1 "dims" x : int)) d;
                  d
              | None ->
                  let d = Array.make order 1 in
                  List.iter
                    (fun (c, _, _) ->
                      Array.iteri (fun m x -> if x + 1 > d.(m) then d.(m) <- x + 1) c)
                    entries;
                  d
            in
            let coo = Coo.create dims in
            List.iter (fun (c, v, _) -> Coo.push coo c v) entries;
            coo)
      in
      close_in_noerr ic;
      res

let write_frostt path t =
  match
    with_out path (fun oc ->
        Tensor.iteri_stored
          (fun c v ->
            if v <> 0. then begin
              Array.iter (fun x -> Printf.fprintf oc "%d " (x + 1)) c;
              Printf.fprintf oc "%.17g\n" v
            end)
          t)
  with
  | () -> Ok ()
  | exception Sys_error msg ->
      Error (Diag.make ~stage:Diag.Io ~code:"E_IO_SYS" ~context:[ ("file", path) ] msg)
