let digits = "0123456789abcdef"

let encode_to buf s =
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Buffer.add_char buf (String.unsafe_get digits (c lsr 4));
    Buffer.add_char buf (String.unsafe_get digits (c land 0xf))
  done

let encode s =
  let out = Bytes.create (2 * String.length s) in
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get digits (c land 0xf))
  done;
  Bytes.unsafe_to_string out

(* Nibble value of every byte; 16 marks a byte that is not a lowercase
   hex digit. *)
let nibbles =
  String.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> Char.chr (c - Char.code '0')
      | 'a' .. 'f' -> Char.chr (c - Char.code 'a' + 10)
      | _ -> '\016')

let nibble h i =
  Char.code (String.unsafe_get nibbles (Char.code (String.unsafe_get h i)))

(* Every pair is decoded, and one [lor] of all nibbles tells whether
   any of them was a bad byte. *)
let decode_sub h ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length h - len then
    invalid_arg "Hex.decode_sub"
  else if len land 1 = 1 then None
  else begin
    let out = Bytes.create (len / 2) in
    let bad = ref 0 in
    for i = 0 to (len / 2) - 1 do
      let hi = nibble h (pos + (2 * i)) and lo = nibble h (pos + (2 * i) + 1) in
      bad := !bad lor hi lor lo;
      Bytes.unsafe_set out i (Char.unsafe_chr (((hi lsl 4) lor lo) land 0xff))
    done;
    if !bad > 0xf then None else Some (Bytes.unsafe_to_string out)
  end

let decode h = decode_sub h ~pos:0 ~len:(String.length h)
