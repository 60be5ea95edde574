type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else if Float.is_nan f || Float.is_integer f then "null"
    (* non-finite: JSON has no representation *)
  else if Float.is_finite f then Printf.sprintf "%.12g" f
  else "null"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; enough for our own exporter output) *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %c, got %c" c c')
  | None -> fail st (Printf.sprintf "expected %c, got end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            (* Exactly four hex digits: [int_of_string] alone would also
               take OCaml's [_] separators. *)
            if
              not
                (String.for_all
                   (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
                   hex)
            then fail st "bad \\u escape";
            st.pos <- st.pos + 4;
            let code = int_of_string ("0x" ^ hex) in
            (* Only BMP code points below 0x80 are emitted by our writer;
               encode the rest as UTF-8. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end;
            go ()
        | Some c -> fail st (Printf.sprintf "bad escape \\%c" c)
        | None -> fail st "unterminated escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List (List.rev (v :: acc))
          | _ -> fail st "expected , or ] in array"
        in
        items []
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (kv :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev (kv :: acc))
          | _ -> fail st "expected , or } in object"
        in
        fields []
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos < String.length s then Error "trailing garbage"
      else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | Float f -> Some (int_of_float f) | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
