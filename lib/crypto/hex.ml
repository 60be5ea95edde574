let digits = "0123456789abcdef"

let encode s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let c = Char.code c in
      Bytes.set out (2 * i) digits.[c lsr 4];
      Bytes.set out ((2 * i) + 1) digits.[c land 0xf])
    s;
  Bytes.unsafe_to_string out

(* Nibble value of every byte; 16 marks a byte that is not a lowercase
   hex digit. *)
let nibbles =
  String.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> Char.chr (c - Char.code '0')
      | 'a' .. 'f' -> Char.chr (c - Char.code 'a' + 10)
      | _ -> '\016')

let nibble h i = Char.code nibbles.[Char.code h.[i]]

let decode h =
  let n = String.length h / 2 in
  if String.length h land 1 = 1 then None
  else begin
    let out = Bytes.create n in
    let rec go i =
      if i = n then Some (Bytes.unsafe_to_string out)
      else begin
        let hi = nibble h (2 * i) and lo = nibble h ((2 * i) + 1) in
        if hi lor lo > 0xf then None
        else begin
          Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
      end
    in
    go 0
  end
