type stage =
  | Parse
  | Concretize
  | Reorder
  | Workspace
  | Lower
  | Compile
  | Execute
  | Tensor
  | Io
  | Serve

type t = {
  stage : stage;
  code : string;
  message : string;
  context : (string * string) list;
}

exception Error of t

let make ~stage ~code ?(context = []) message = { stage; code; message; context }

let error ~stage ~code ?context fmt =
  Printf.ksprintf (fun s -> Result.Error (make ~stage ~code ?context s)) fmt

let fail ~stage ~code ?context fmt =
  Printf.ksprintf (fun s -> raise (Error (make ~stage ~code ?context s))) fmt

let of_msg ~stage ~code = function
  | Ok _ as ok -> ok
  | Result.Error msg -> Result.Error (make ~stage ~code msg)

let to_result f =
  match f () with v -> Ok v | exception Error d -> Result.Error d

let stage_name = function
  | Parse -> "parse"
  | Concretize -> "concretize"
  | Reorder -> "reorder"
  | Workspace -> "workspace"
  | Lower -> "lower"
  | Compile -> "compile"
  | Execute -> "execute"
  | Tensor -> "tensor"
  | Io -> "io"
  | Serve -> "serve"

let to_string t =
  let ctx =
    match t.context with
    | [] -> ""
    | pairs ->
        Printf.sprintf " (%s)"
          (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) pairs))
  in
  Printf.sprintf "%s error[%s]: %s%s" (stage_name t.stage) t.code t.message ctx

let flatten r = Result.map_error to_string r

let pp fmt t = Format.pp_print_string fmt (to_string t)
