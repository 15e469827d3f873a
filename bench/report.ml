(* Hand-rolled JSON emission for machine-readable benchmark results
   (the image has no yojson). Values are built as a tree and printed in
   one pass; floats use shortest round-trip formatting and non-finite
   values degrade to null so the output always parses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec emit b ~indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List vs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          emit b ~indent:(indent + 2) v)
        vs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          emit b ~indent:(indent + 2) v)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  emit b ~indent:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let write path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v));
  Printf.printf "\nwrote %s\n%!" path
