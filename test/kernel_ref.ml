(* Reference kernels for the differential tests.  First the reference
   arithmetic: the textbook algorithms that the fast kernels in Bignum
   and Rsa must agree with, built only from Bignum's add, mul, rem and
   shifts.  Then the reference text codecs (below). *)

open Peertrust_crypto

(* Right-to-left square-and-multiply, reducing after every product. *)
let modpow b e m =
  let rec go acc b e =
    if Bignum.is_zero e then acc
    else
      let acc = if Bignum.is_even e then acc else Bignum.rem (Bignum.mul acc b) m in
      go acc (Bignum.rem (Bignum.mul b b) m) (Bignum.shift_right e 1)
  in
  go (Bignum.rem Bignum.one m) (Bignum.rem b m) e

(* Big-endian bytes by Horner's rule, one byte at a time. *)
let of_bytes s =
  String.fold_left
    (fun v c -> Bignum.add (Bignum.mul v (Bignum.of_int 256)) (Bignum.of_int (Char.code c)))
    Bignum.zero s

(* The signature encoding: 0x01 || 0xFF.. || 0x00 || SHA-256(msg), one
   byte shorter than the modulus. *)
let pad (pub : Rsa.public) msg =
  let size = ((Bignum.bits pub.Rsa.n + 7) / 8) - 1 in
  of_bytes ("\x01" ^ String.make (size - 34) '\xff' ^ "\x00" ^ Sha256.digest msg)

(* ------------------------------------------------------------------ *)
(* Reference text codecs: the [Format] printers, the lexer, the
   recursive hex codec and the split-based journal parser that the
   one-buffer printer and the one-pass decoders must agree with byte
   for byte. *)

module Dlp = Peertrust_dlp
module Term = Dlp.Term
module Literal = Dlp.Literal
module Rule = Dlp.Rule

let is_arith_op op = List.mem (Dlp.Sym.name op) [ "+"; "-"; "*"; "/" ]

let rec pp_term fmt = function
  | Term.Var v -> Format.pp_print_string fmt (Term.var_name v)
  | Term.Str s -> Format.fprintf fmt "%S" (Dlp.Sym.name s)
  | Term.Int i -> Format.pp_print_int fmt i
  | Term.Atom a -> Format.pp_print_string fmt (Dlp.Sym.name a)
  | Term.Compound (op, [ a; b ]) when is_arith_op op ->
      Format.fprintf fmt "(%a %s %a)" pp_term a (Dlp.Sym.name op) pp_term b
  | Term.Compound (f, args) ->
      Format.fprintf fmt "%s(%a)" (Dlp.Sym.name f)
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_term)
        args

let infix_ops = [ "="; "!="; "<"; "<="; ">"; ">=" ]

let rec pp_literal fmt (l : Literal.t) =
  match Literal.naf_inner l with
  | Some inner -> Format.fprintf fmt "not %a" pp_literal inner
  | None -> (
      match (l.pred, l.args, l.auth) with
      | op, [ a; b ], [] when List.mem op infix_ops ->
          Format.fprintf fmt "%a %s %a" pp_term a op pp_term b
      | _, _, _ ->
          (match l.args with
          | [] -> Format.pp_print_string fmt l.pred
          | args ->
              Format.fprintf fmt "%s(%a)" l.pred
                (Format.pp_print_list
                   ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
                   pp_term)
                args);
          List.iter (fun a -> Format.fprintf fmt " @@ %a" pp_term a) l.auth)

let pp_ctx fmt = function
  | [] -> Format.pp_print_string fmt "true"
  | lits ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
        pp_literal fmt lits

let pp_rule fmt (r : Rule.t) =
  pp_literal fmt r.head;
  Option.iter (fun c -> Format.fprintf fmt " $ %a" pp_ctx c) r.head_ctx;
  (match (r.rule_ctx, r.body) with
  | None, [] -> ()
  | rc, body ->
      Format.pp_print_string fmt " <-";
      Option.iter (fun c -> Format.fprintf fmt "{%a}" pp_ctx c) rc;
      if body <> [] then
        Format.fprintf fmt " %a"
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
             pp_literal)
          body);
  if r.signer <> [] then
    Format.fprintf fmt " signedBy [%a]"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (fun fmt s -> Format.fprintf fmt "%S" s))
      r.signer;
  Format.pp_print_string fmt "."

let term_to_string t = Format.asprintf "%a" pp_term t
let literal_to_string l = Format.asprintf "%a" pp_literal l
let rule_to_string r = Format.asprintf "%a" pp_rule r

(* The lexer that walked [src] one character at a time, with a
   [Buffer] per name, number and string; it reads every escape
   [String.escaped] writes. *)
let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_lower c || is_upper c || is_digit c || c = '\''

let tokenize src =
  let open Dlp.Lexer in
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let pos = ref 0 in
  let emit token l c = tokens := { token; line = l; col = c } :: !tokens in
  let advance () =
    (if !pos < n then
       if src.[!pos] = '\n' then (
         incr line;
         col := 1)
       else incr col);
    incr pos
  in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  while !pos < n do
    let c = src.[!pos] in
    let l = !line and co = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '%' || c = '#' then
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    else if c = '(' then (emit LPAREN l co; advance ())
    else if c = ')' then (emit RPAREN l co; advance ())
    else if c = '{' then (emit LBRACE l co; advance ())
    else if c = '}' then (emit RBRACE l co; advance ())
    else if c = '[' then (emit LBRACKET l co; advance ())
    else if c = ']' then (emit RBRACKET l co; advance ())
    else if c = ',' then (emit COMMA l co; advance ())
    else if c = '.' then (emit DOT l co; advance ())
    else if c = '@' then (emit AT l co; advance ())
    else if c = '$' then (emit DOLLAR l co; advance ())
    else if c = '<' then (
      match peek 1 with
      | Some '-' -> (emit ARROW l co; advance (); advance ())
      | Some '=' -> (emit (OP "<=") l co; advance (); advance ())
      | _ -> (emit (OP "<") l co; advance ()))
    else if c = '>' then (
      match peek 1 with
      | Some '=' -> (emit (OP ">=") l co; advance (); advance ())
      | _ -> (emit (OP ">") l co; advance ()))
    else if c = '=' then (emit (OP "=") l co; advance ())
    else if c = '+' then (emit (OP "+") l co; advance ())
    else if c = '-' then (emit (OP "-") l co; advance ())
    else if c = '*' then (emit (OP "*") l co; advance ())
    else if c = '/' then (emit (OP "/") l co; advance ())
    else if c = '!' then (
      match peek 1 with
      | Some '=' -> (emit (OP "!=") l co; advance (); advance ())
      | _ -> raise (Error ("unexpected character '!'", l, co)))
    else if c = '"' then (
      let buf = Buffer.create 16 in
      advance ();
      let closed = ref false in
      while (not !closed) && !pos < n do
        let d = src.[!pos] in
        if d = '"' then (
          closed := true;
          advance ())
        else if d = '\\' then (
          advance ();
          match if !pos < n then Some src.[!pos] else None with
          | Some 'n' -> (Buffer.add_char buf '\n'; advance ())
          | Some 't' -> (Buffer.add_char buf '\t'; advance ())
          | Some 'r' -> (Buffer.add_char buf '\r'; advance ())
          | Some 'b' -> (Buffer.add_char buf '\b'; advance ())
          | Some '"' -> (Buffer.add_char buf '"'; advance ())
          | Some '\\' -> (Buffer.add_char buf '\\'; advance ())
          | Some ('0' .. '9' as d) -> (
              (* [\ddd]: three digits, at most 255 *)
              let digits =
                String.init 3 (fun i -> Option.value ~default:'x' (peek i))
              in
              match int_of_string_opt digits with
              | Some code when String.for_all is_digit digits && code <= 255 ->
                  Buffer.add_char buf (Char.chr code);
                  advance ();
                  advance ();
                  advance ()
              | _ ->
                  raise
                    (Error (Printf.sprintf "bad escape '\\%c'" d, !line, !col)))
          | Some other ->
              raise
                (Error (Printf.sprintf "bad escape '\\%c'" other, !line, !col))
          | None -> raise (Error ("unterminated string", l, co)))
        else (
          Buffer.add_char buf d;
          advance ())
      done;
      if not !closed then raise (Error ("unterminated string", l, co));
      emit (STRING (Buffer.contents buf)) l co)
    else if is_digit c then (
      let buf = Buffer.create 8 in
      while !pos < n && is_digit src.[!pos] do
        Buffer.add_char buf src.[!pos];
        advance ()
      done;
      emit (INT (Buffer.contents buf)) l co)
    else if is_lower c || is_upper c then (
      let buf = Buffer.create 16 in
      while !pos < n && is_ident_char src.[!pos] do
        Buffer.add_char buf src.[!pos];
        advance ()
      done;
      let word = Buffer.contents buf in
      if String.equal word "signedBy" then emit SIGNEDBY l co
      else if is_upper word.[0] then emit (VAR word) l co
      else emit (IDENT word) l co)
    else raise (Error (Printf.sprintf "unexpected character %C" c, l, co))
  done;
  emit EOF !line !col;
  List.rev !tokens

let hex_digits = "0123456789abcdef"

let hex_encode s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let c = Char.code c in
      Bytes.set out (2 * i) hex_digits.[c lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[c land 0xf])
    s;
  Bytes.unsafe_to_string out

let hex_nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> 16

let hex_decode h =
  let n = String.length h / 2 in
  if String.length h land 1 = 1 then None
  else begin
    let out = Bytes.create n in
    let rec go i =
      if i = n then Some (Bytes.unsafe_to_string out)
      else begin
        let hi = hex_nibble h.[2 * i] and lo = hex_nibble h.[(2 * i) + 1] in
        if hi lor lo > 0xf then None
        else begin
          Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
      end
    in
    go 0
  end

module Journal = Peertrust.Persist.Journal

(* One text per entry: an id is what [string_of_int] prints, and a
   payload is the printer's text of its own parse. *)
let id_of s =
  match int_of_string_opt s with
  | Some n when string_of_int n = s -> Some n
  | _ -> None

let literal_of_hex h =
  match hex_decode h with
  | None -> Error "bad hex"
  | Some s -> (
      match Dlp.Parser.parse_literal s with
      | lit when Dlp.Literal.to_string lit = s -> Ok lit
      | _ -> Error "not in printed form"
      | exception Dlp.Parser.Error (m, _, _) -> Error m
      | exception _ -> Error "unparseable literal")

let journal_line line : (Journal.entry, string) result =
  let ( let* ) = Result.bind in
  match String.split_on_char ' ' line with
  | [ "cert"; hex ] -> (
      match hex_decode hex with
      | None -> Error "cert: bad hex"
      | Some blob -> (
          match Peertrust_crypto.Wire.decode blob with
          | Ok c -> Ok (Journal.Cert c)
          | Error (Peertrust_crypto.Wire.Malformed m) -> Error ("cert: " ^ m)))
  | [ "fact"; hex ] -> (
      match hex_decode hex with
      | None -> Error "fact: bad hex"
      | Some text -> (
          match Dlp.Parser.parse_rule text with
          | r when Dlp.Rule.to_string r = text -> Ok (Journal.Fact r)
          | _ -> Error "fact: not in printed form"
          | exception Dlp.Parser.Error (m, _, _) -> Error ("fact: " ^ m)
          | exception _ -> Error "fact: unparseable rule"))
  | [ "answer"; owner_hex; goal_hex; insts ] -> (
      match hex_decode owner_hex with
      | None -> Error "answer: bad owner hex"
      | Some owner ->
          let* goal =
            Result.map_error (fun m -> "answer: goal: " ^ m)
              (literal_of_hex goal_hex)
          in
          let* instances =
            if String.equal insts "-" then Ok []
            else
              List.fold_right
                (fun h acc ->
                  let* acc = acc in
                  let* lit =
                    Result.map_error (fun m -> "answer: instance: " ^ m)
                      (literal_of_hex h)
                  in
                  Ok (lit :: acc))
                (String.split_on_char ',' insts)
                (Ok [])
          in
          Ok (Journal.Answer { owner; goal; instances }))
  | [ "goal"; id; target_hex; goal_hex ] -> (
      match (id_of id, hex_decode target_hex) with
      | Some id, Some target ->
          let* goal =
            Result.map_error (fun m -> "goal: " ^ m) (literal_of_hex goal_hex)
          in
          Ok (Journal.Goal { id; target; goal })
      | None, _ -> Error "goal: bad id"
      | _, None -> Error "goal: bad target hex")
  | [ "done"; id ] -> (
      match id_of id with
      | Some id -> Ok (Journal.Done { id })
      | None -> Error "done: bad id")
  | _ -> Error "unrecognised entry"

let journal_parse text =
  let complete =
    match List.rev (String.split_on_char '\n' text) with
    | _torn_tail :: rev -> List.rev rev
    | [] -> []
  in
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        if String.trim line = "" then go acc (n + 1) rest
        else
          match journal_line line with
          | Ok e -> go (e :: acc) (n + 1) rest
          | Error _ when rest = [] -> Ok (List.rev acc)
          | Error m ->
              Error
                (Peertrust.Persist.Bad_world
                   (Printf.sprintf "journal line %d: %s" n m)))
  in
  go [] 1 complete
