(* The one JSON implementation (the image has no JSON library): every
   document the system writes — bench reports, Chrome trace exports,
   TACO_EVENTS lines, the serve `stats` line — is built as a [t] and
   printed here, and the checkers read them back with [parse]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* [indent] is [None] for one line, [Some n] for the indented layout at
   depth [n]. *)
let rec emit b indent v =
  let open_nl = function
    | None -> ()
    | Some n ->
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make n ' ')
  in
  let inner = Option.map (fun n -> n + 2) indent in
  let seq opening closing items item =
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        open_nl inner;
        item x)
      items;
    open_nl indent;
    Buffer.add_char b closing
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> add_escaped b s
  | List [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | List vs -> seq '[' ']' vs (emit b inner)
  | Obj kvs ->
      seq '{' '}' kvs (fun (k, v) ->
          add_escaped b k;
          Buffer.add_string b (if indent = None then ":" else ": ");
          emit b inner v)

let to_string v =
  let b = Buffer.create 256 in
  emit b None v;
  Buffer.contents b

let to_string_pretty v =
  let b = Buffer.create 4096 in
  emit b (Some 0) v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parsing ---- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Nesting deeper than this is refused rather than recursed into. *)
let max_depth = 512

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail "expected %c at byte %d, found %c" c st.pos c'
  | None -> fail "expected %c at byte %d, found end of input" c st.pos

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at byte %d" st.pos
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail "dangling escape at byte %d" st.pos
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail "truncated \\u escape at byte %d" st.pos;
            let hex = String.sub st.src st.pos 4 in
            let code =
              if String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) hex
              then int_of_string ("0x" ^ hex)
              else fail "bad \\u escape %S at byte %d" hex st.pos
            in
            (* The writers escape only control characters this way. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_string b ("\\u" ^ hex);
            st.pos <- st.pos + 4;
            go ()
        | Some c ->
            Buffer.add_char b
              (match c with
              | 'n' -> '\n'
              | 't' -> '\t'
              | 'r' -> '\r'
              | 'b' -> '\b'
              | 'f' -> '\012'
              | '"' | '\\' | '/' -> c
              | c -> fail "unknown escape \\%c at byte %d" c st.pos);
            advance st;
            go ())
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

(* An integer literal reads as [Int] when it fits, anything else as
   [Float]. *)
let parse_number st =
  let start = st.pos in
  let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  while match peek st with Some c -> is_num_char c | None -> false do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  let integral = not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s) in
  match (if integral then int_of_string_opt s else None) with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | Some _ | None -> fail "bad number %S at byte %d" s start)

let parse_literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at byte %d" st.pos

(* The items of a [List] or [Obj] up to [closing], after its opening
   bracket. *)
let items st closing item =
  advance st;
  skip_ws st;
  if peek st = Some closing then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let x = item () in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          go (x :: acc)
      | Some c when c = closing ->
          advance st;
          List.rev (x :: acc)
      | _ -> fail "expected , or %c at byte %d" closing st.pos
    in
    go []

let rec parse_value st depth =
  skip_ws st;
  if depth > max_depth then fail "nesting deeper than %d at byte %d" max_depth st.pos;
  match peek st with
  | None -> fail "unexpected end of input at byte %d" st.pos
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      Obj
        (items st '}' (fun () ->
             let k = parse_string st in
             expect st ':';
             (k, parse_value st (depth + 1))))
  | Some '[' -> List (items st ']' (fun () -> parse_value st (depth + 1)))
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

let parse src =
  let st = { src; pos = 0 } in
  match
    let v = parse_value st 0 in
    skip_ws st;
    if st.pos <> String.length src then fail "trailing bytes after JSON document at byte %d" st.pos;
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let of_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | src -> parse src
  | exception Sys_error msg -> Error msg

(* ---- accessors ---- *)

let field obj k = match obj with Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field what obj k =
  match field obj k with
  | Some (Str s) -> s
  | Some _ -> fail "%s: %S is not a string" what k
  | None -> fail "%s: missing %S" what k

let num_field what obj k =
  match field obj k with
  | Some (Int n) -> float_of_int n
  | Some (Float f) -> f
  | Some _ -> fail "%s: %S is not a number" what k
  | None -> fail "%s: missing %S" what k
