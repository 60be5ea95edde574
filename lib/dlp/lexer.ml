type token =
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | DOT
  | ARROW
  | AT
  | DOLLAR
  | SIGNEDBY
  | IDENT of string
  | VAR of string
  | STRING of string
  | INT of string
  | OP of string
  | EOF

type located = { token : token; line : int; col : int }

exception Error of string * int * int

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_lower c || is_upper c || is_digit c || c = '\''

(* One pass by index.  A column counts bytes from the start of its line
   ([bol], the index after the line's newline), so a token's position
   is worked out once, where it starts; names, numbers and strings
   without escapes are cut out of [src] whole. *)
let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and bol = ref 0 in
  let pos = ref 0 in
  let col p = p - !bol + 1 in
  let emit token l c = tokens := { token; line = l; col = c } :: !tokens in
  let next_is c = !pos + 1 < n && src.[!pos + 1] = c in
  (* The end of the run of characters from [p] that satisfy [ok]. *)
  let span p ok =
    let q = ref p in
    while !q < n && ok src.[!q] do
      incr q
    done;
    !q
  in
  (* The byte a decimal escape [\ddd] spells, its digits from [p]: three
     digits and at most 255, as [String.escaped] writes every byte it
     has no letter escape for. *)
  let decimal_escape p =
    if span p is_digit >= p + 3 then
      let d i = Char.code src.[p + i] - Char.code '0' in
      let code = (100 * d 0) + (10 * d 1) + d 2 in
      if code <= 255 then Some (Char.chr code) else None
    else None
  in
  while !pos < n do
    let p = !pos in
    let c = src.[p] in
    let l = !line and co = col p in
    let tok token len =
      emit token l co;
      pos := p + len
    in
    match c with
    | ' ' | '\t' | '\r' -> pos := p + 1
    | '\n' ->
        incr line;
        bol := p + 1;
        pos := p + 1
    | '%' | '#' -> pos := span p (fun d -> d <> '\n')
    | '(' -> tok LPAREN 1
    | ')' -> tok RPAREN 1
    | '{' -> tok LBRACE 1
    | '}' -> tok RBRACE 1
    | '[' -> tok LBRACKET 1
    | ']' -> tok RBRACKET 1
    | ',' -> tok COMMA 1
    | '.' -> tok DOT 1
    | '@' -> tok AT 1
    | '$' -> tok DOLLAR 1
    | '<' ->
        if next_is '-' then tok ARROW 2
        else if next_is '=' then tok (OP "<=") 2
        else tok (OP "<") 1
    | '>' -> if next_is '=' then tok (OP ">=") 2 else tok (OP ">") 1
    | '=' -> tok (OP "=") 1
    | '+' -> tok (OP "+") 1
    | '-' -> tok (OP "-") 1
    | '*' -> tok (OP "*") 1
    | '/' -> tok (OP "/") 1
    | '!' ->
        if next_is '=' then tok (OP "!=") 2
        else raise (Error ("unexpected character '!'", l, co))
    | '"' ->
        let q = span (p + 1) (fun d -> d <> '"' && d <> '\\' && d <> '\n') in
        if q < n && src.[q] = '"' then begin
          emit (STRING (String.sub src (p + 1) (q - p - 1))) l co;
          pos := q + 1
        end
        else begin
          (* An escape or a newline inside the string. *)
          let buf = Buffer.create 16 in
          pos := p + 1;
          let closed = ref false in
          while (not !closed) && !pos < n do
            let d = src.[!pos] in
            if d = '"' then closed := true
            else if d = '\\' then begin
              incr pos;
              if !pos >= n then raise (Error ("unterminated string", l, co));
              let bad other =
                let msg = Printf.sprintf "bad escape '\\%c'" other in
                raise (Error (msg, !line, col !pos))
              in
              (* Exactly the escapes [String.escaped] writes. *)
              match src.[!pos] with
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '0' .. '9' as d -> (
                  match decimal_escape !pos with
                  | Some byte ->
                      Buffer.add_char buf byte;
                      pos := !pos + 2
                  | None -> bad d)
              | other -> bad other
            end
            else begin
              if d = '\n' then begin
                incr line;
                bol := !pos + 1
              end;
              Buffer.add_char buf d
            end;
            incr pos
          done;
          if not !closed then raise (Error ("unterminated string", l, co));
          emit (STRING (Buffer.contents buf)) l co
        end
    | '0' .. '9' ->
        let q = span p is_digit in
        tok (INT (String.sub src p (q - p))) (q - p)
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let q = span p is_ident_char in
        let word = String.sub src p (q - p) in
        tok
          (if String.equal word "signedBy" then SIGNEDBY
           else if is_upper c then VAR word
           else IDENT word)
          (q - p)
    | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, l, co))
  done;
  emit EOF !line (col n);
  List.rev !tokens

let pp_token fmt = function
  | LPAREN -> Format.pp_print_string fmt "("
  | RPAREN -> Format.pp_print_string fmt ")"
  | LBRACE -> Format.pp_print_string fmt "{"
  | RBRACE -> Format.pp_print_string fmt "}"
  | LBRACKET -> Format.pp_print_string fmt "["
  | RBRACKET -> Format.pp_print_string fmt "]"
  | COMMA -> Format.pp_print_string fmt ","
  | DOT -> Format.pp_print_string fmt "."
  | ARROW -> Format.pp_print_string fmt "<-"
  | AT -> Format.pp_print_string fmt "@"
  | DOLLAR -> Format.pp_print_string fmt "$"
  | SIGNEDBY -> Format.pp_print_string fmt "signedBy"
  | IDENT s -> Format.fprintf fmt "identifier %s" s
  | VAR s -> Format.fprintf fmt "variable %s" s
  | STRING s -> Format.fprintf fmt "%S" s
  | INT digits -> Format.pp_print_string fmt digits
  | OP s -> Format.pp_print_string fmt s
  | EOF -> Format.pp_print_string fmt "<eof>"
