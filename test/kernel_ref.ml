(* Reference arithmetic for the crypto kernel tests: the textbook
   algorithms that the fast kernels in Bignum and Rsa must agree with,
   built only from Bignum's add, mul, rem and shifts. *)

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
