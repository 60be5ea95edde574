module Dlp = Peertrust_dlp

type error = Malformed of string

let header = "-----BEGIN PEERTRUST CERTIFICATE-----"
let footer = "-----END PEERTRUST CERTIFICATE-----"

let add_line buf s =
  Buffer.add_string buf s;
  Buffer.add_char buf '\n'

let encode_to buf (c : Cert.t) =
  add_line buf header;
  Buffer.add_string buf "serial: ";
  add_line buf (string_of_int c.Cert.serial);
  Buffer.add_string buf "not-before: ";
  add_line buf (string_of_int c.Cert.not_before);
  Buffer.add_string buf "not-after: ";
  add_line buf (string_of_int c.Cert.not_after);
  Buffer.add_string buf "rule: ";
  Dlp.Rule.to_buffer buf c.Cert.rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun (issuer, signature) ->
      Buffer.add_string buf "sig: ";
      Hex.encode_to buf issuer;
      Buffer.add_char buf ':';
      add_line buf (Bignum.to_hex signature))
    c.Cert.signatures;
  add_line buf footer

let encode c =
  let buf = Buffer.create 512 in
  encode_to buf c;
  Buffer.contents buf

let encode_many certs =
  let buf = Buffer.create 512 in
  List.iter (encode_to buf) certs;
  Buffer.contents buf

(* Decoding walks the text line by line, by index.  A line is
   [src.[i .. j)], where [j] is its newline or the end of the text. *)

exception Bad of string

let bad_at lineno msg = raise (Bad (Printf.sprintf "line %d: %s" lineno msg))

let starts_with src i j prefix =
  let n = String.length prefix in
  j - i >= n
  &&
  let rec go k =
    k = n
    || (String.unsafe_get src (i + k) = String.unsafe_get prefix k
       && go (k + 1))
  in
  go 0

let is src i j line = j - i = String.length line && starts_with src i j line

(* The line starts with [name ^ ": "]. *)
let is_field src i j name =
  let n = String.length name in
  starts_with src i j name
  && j - i >= n + 2
  && src.[i + n] = ':'
  && src.[i + n + 1] = ' '

let rec is_blank src i j =
  i = j
  || (match String.unsafe_get src i with
     | ' ' | '\t' | '\r' | '\012' -> true
     | _ -> false)
     && is_blank src (i + 1) j

let rec index_in src i j c =
  if i = j then None else if String.unsafe_get src i = c then Some i
  else index_in src (i + 1) j c

(* The inverse of [%d]: "0", or an optional '-' then a non-zero digit
   and further digits, within int range.  Any other spelling ("01",
   "+0", "-0", "0x1", "0_1") would be a second text for the same
   certificate. *)
let decimal_to_int v =
  let n = String.length v in
  let digit i = v.[i] >= '0' && v.[i] <= '9' in
  let rec digits i = i >= n || (digit i && digits (i + 1)) in
  let from = if n > 0 && v.[0] = '-' then 1 else 0 in
  if String.equal v "0" || (from < n && v.[from] <> '0' && digits from) then
    int_of_string_opt v
  else None

(* The inverse of [Bignum.to_hex], which writes no leading zero nibble
   (zero is "0"): a text with one would be a second spelling of the
   same signature. *)
let hex_to_bignum h =
  if h = "" || (h.[0] = '0' && h <> "0") then None
  else
    let h = if String.length h land 1 = 1 then "0" ^ h else h in
    Option.map
      (fun b -> Bignum.of_bytes_be (Bytes.unsafe_of_string b))
      (Hex.decode h)

(* A cursor on the current line of [src]. *)
type cursor = {
  src : string;
  mutable next : int;  (* where the line after this one starts *)
  mutable i : int;
  mutable j : int;
  mutable lineno : int;
}

let advance c =
  c.next < String.length c.src
  && begin
    c.i <- c.next;
    c.j <-
      (match String.index_from_opt c.src c.i '\n' with
      | Some j -> j
      | None -> String.length c.src);
    c.next <- c.j + 1;
    c.lineno <- c.lineno + 1;
    true
  end

(* Inside a block: the next line, which is not blank, not BEGIN and,
   where a field is expected, not END. *)
let block_line c ~start ~field =
  if not (advance c) then raise (Bad "unexpected end of input: missing END");
  let { src; i; j; lineno; _ } = c in
  if is src i j header then bad_at lineno "nested BEGIN";
  if is_blank src i j then bad_at lineno "blank line inside a certificate";
  match field with
  | Some name when is src i j footer -> bad_at start ("missing " ^ name)
  | Some name when not (is_field src i j name) ->
      bad_at lineno ("expected " ^ name)
  | Some _ | None -> ()

let int_field c ~start name =
  block_line c ~start ~field:(Some name);
  let from = c.i + String.length name + 2 in
  match decimal_to_int (String.sub c.src from (c.j - from)) with
  | Some v -> v
  | None -> bad_at c.lineno (name ^ ": not an integer")

(* The rule line must be the printer's text of the rule it parses to:
   spacing, optional parentheses and string escapes have one spelling. *)
let rule_field c ~start =
  block_line c ~start ~field:(Some "rule");
  let text = String.sub c.src (c.i + 6) (c.j - c.i - 6) in
  match Dlp.Parser.parse_rule text with
  | exception Dlp.Parser.Error (m, _, _) -> bad_at c.lineno ("bad rule: " ^ m)
  | exception Failure m -> bad_at c.lineno ("bad rule: " ^ m)
  | rule ->
      if not (String.equal (Dlp.Rule.to_string rule) text) then
        bad_at c.lineno "rule: not in printed form";
      rule

let rec sig_lines c ~start acc =
  block_line c ~start ~field:None;
  let { src; i; j; lineno; _ } = c in
  if is src i j footer then List.rev acc
  else if not (is_field src i j "sig") then bad_at lineno "expected sig line"
  else
    match index_in src (i + 5) j ':' with
    | None -> bad_at lineno "sig: missing ':'"
    | Some k -> (
        match
          ( Hex.decode_sub src ~pos:(i + 5) ~len:(k - i - 5),
            hex_to_bignum (String.sub src (k + 1) (j - k - 1)) )
        with
        | Some issuer, Some signature ->
            sig_lines c ~start ((issuer, signature) :: acc)
        | _, _ -> bad_at lineno "sig: bad hex")

(* The lines after BEGIN (line [start]) up to and including END. *)
let block c ~start =
  let serial = int_field c ~start "serial" in
  let not_before = int_field c ~start "not-before" in
  let not_after = int_field c ~start "not-after" in
  let rule = rule_field c ~start in
  let signatures = sig_lines c ~start [] in
  { Cert.serial; rule; not_before; not_after; signatures }

let decode_many src =
  let c = { src; next = 0; i = 0; j = 0; lineno = 0 } in
  let rec blocks acc =
    if not (advance c) then Ok (List.rev acc)
    else if is src c.i c.j header then
      let cert = block c ~start:c.lineno in
      blocks (cert :: acc)
    else if is_blank src c.i c.j then blocks acc
    else
      let line = String.trim (String.sub src c.i (c.j - c.i)) in
      if String.equal line footer then bad_at c.lineno "END without BEGIN"
      else bad_at c.lineno ("garbage outside certificate: " ^ line)
  in
  try blocks [] with Bad msg -> Error (Malformed msg)

let decode src =
  match decode_many src with
  | Ok [ c ] -> Ok c
  | Ok _ -> Error (Malformed "expected exactly one certificate")
  | Error e -> Error e

let pp_error fmt (Malformed msg) =
  Format.fprintf fmt "malformed certificate: %s" msg
