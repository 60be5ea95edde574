type error = Malformed of string

let header = "-----BEGIN PEERTRUST CERTIFICATE-----"
let footer = "-----END PEERTRUST CERTIFICATE-----"

let encode (c : Cert.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "serial: %d\n" c.Cert.serial);
  Buffer.add_string buf (Printf.sprintf "not-before: %d\n" c.Cert.not_before);
  Buffer.add_string buf (Printf.sprintf "not-after: %d\n" c.Cert.not_after);
  Buffer.add_string buf
    (Printf.sprintf "rule: %s\n" (Peertrust_dlp.Rule.to_string c.Cert.rule));
  List.iter
    (fun (issuer, signature) ->
      Buffer.add_string buf
        (Printf.sprintf "sig: %s:%s\n" (Hex.encode issuer)
           (Bignum.to_hex signature)))
    c.Cert.signatures;
  Buffer.add_string buf footer;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let parse_field ~name line =
  let prefix = name ^ ": " in
  let pl = String.length prefix in
  if String.length line >= pl && String.sub line 0 pl = prefix then
    Some (String.sub line pl (String.length line - pl))
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

(* Lines travel as [(lineno, content)] pairs so every diagnostic can
   name the offending line of the source text. *)
let err_at lineno msg =
  Error (Malformed (Printf.sprintf "line %d: %s" lineno msg))

let decode_block ~start lines =
  let int_field name lines =
    match lines with
    | (n, line) :: rest -> (
        match parse_field ~name line with
        | Some v -> (
            match int_of_string_opt v with
            | Some i -> Ok (i, rest)
            | None -> err_at n (name ^ ": not an integer"))
        | None -> err_at n ("expected " ^ name))
    | [] -> err_at start ("missing " ^ name)
  in
  match int_field "serial" lines with
  | Error e -> Error e
  | Ok (serial, lines) -> (
      match int_field "not-before" lines with
      | Error e -> Error e
      | Ok (not_before, lines) -> (
          match int_field "not-after" lines with
          | Error e -> Error e
          | Ok (not_after, lines) -> (
              match lines with
              | (n, rule_line) :: rest -> (
                  match parse_field ~name:"rule" rule_line with
                  | None -> err_at n "expected rule"
                  | Some rule_src -> (
                      match Peertrust_dlp.Parser.parse_rule rule_src with
                      | exception Peertrust_dlp.Parser.Error (m, _, _) ->
                          err_at n ("bad rule: " ^ m)
                      | rule ->
                          let rec sigs acc = function
                            | [] -> Ok (List.rev acc)
                            | (n, line) :: rest -> (
                                match parse_field ~name:"sig" line with
                                | None -> err_at n "expected sig line"
                                | Some v -> (
                                    match String.index_opt v ':' with
                                    | None -> err_at n "sig: missing ':'"
                                    | Some i -> (
                                        let name_hex = String.sub v 0 i in
                                        let sig_hex =
                                          String.sub v (i + 1)
                                            (String.length v - i - 1)
                                        in
                                        match
                                          (Hex.decode name_hex,
                                           hex_to_bignum sig_hex)
                                        with
                                        | Some issuer, Some signature ->
                                            sigs ((issuer, signature) :: acc) rest
                                        | _, _ -> err_at n "sig: bad hex")))
                          in
                          (match sigs [] rest with
                          | Error e -> Error e
                          | Ok signatures ->
                              Ok
                                {
                                  Cert.serial;
                                  rule;
                                  not_before;
                                  not_after;
                                  signatures;
                                })))
              | [] -> err_at start "missing rule")))

let split_blocks src =
  let lines =
    String.split_on_char '\n' src
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let rec go acc current start in_block = function
    | [] ->
        if in_block then Error (Malformed "unexpected end of input: missing END")
        else Ok (List.rev acc)
    | (n, line) :: rest ->
        if String.equal line header then
          if in_block then err_at n "nested BEGIN"
          else go acc [] n true rest
        else if String.equal line footer then
          if in_block then go ((start, List.rev current) :: acc) [] 0 false rest
          else err_at n "END without BEGIN"
        else if in_block then go acc ((n, line) :: current) start true rest
        else err_at n ("garbage outside certificate: " ^ line)
  in
  go [] [] 0 false lines

let decode_many src =
  match split_blocks src with
  | Error e -> Error e
  | Ok blocks ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (start, block) :: rest -> (
            match decode_block ~start block with
            | Ok c -> go (c :: acc) rest
            | Error e -> Error e)
      in
      go [] blocks

let decode src =
  match decode_many src with
  | Ok [ c ] -> Ok c
  | Ok _ -> Error (Malformed "expected exactly one certificate")
  | Error e -> Error e

let encode_many certs = String.concat "" (List.map encode certs)

let pp_error fmt (Malformed msg) =
  Format.fprintf fmt "malformed certificate: %s" msg
