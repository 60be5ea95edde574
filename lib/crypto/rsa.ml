type public = { n : Bignum.t; e : Bignum.t; n_mod : Bignum.modulus }

type keypair = {
  public : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
  p_mod : Bignum.modulus;
  q_mod : Bignum.modulus;
}

let e_fixed = Bignum.of_int 65537

let generate ?(bits = 384) prng =
  if bits < 288 then invalid_arg "Rsa.generate: need >= 288 bits";
  let half = bits / 2 in
  let rec go () =
    let p = Bignum.generate_prime prng ~bits:half in
    let q = Bignum.generate_prime prng ~bits:(bits - half) in
    if Bignum.equal p q then go ()
    else begin
      let n = Bignum.mul p q in
      let p1 = Bignum.sub p Bignum.one and q1 = Bignum.sub q Bignum.one in
      let phi = Bignum.mul p1 q1 in
      match Bignum.modinv e_fixed phi with
      | None -> go ()
      | Some d ->
          {
            public = { n; e = e_fixed; n_mod = Bignum.modulus n };
            d;
            p;
            q;
            dp = Bignum.rem d p1;
            dq = Bignum.rem d q1;
            (* Distinct primes are coprime. *)
            qinv = Option.get (Bignum.modinv q p);
            p_mod = Bignum.modulus p;
            q_mod = Bignum.modulus q;
          }
    end
  in
  go ()

let modulus_bytes pub = (Bignum.bits pub.n + 7) / 8

(* 0x01 || 0xFF.. || 0x00 || digest, one byte shorter than the modulus so
   the padded value is below n. *)
let pad pub msg =
  let size = modulus_bytes pub - 1 in
  let digest = Sha256.digest msg in
  let dlen = String.length digest in
  if size < dlen + 3 then
    invalid_arg "Rsa: modulus too small for padded digest";
  let b = Bytes.make size '\xFF' in
  Bytes.set b 0 '\x01';
  Bytes.set b (size - dlen - 1) '\x00';
  Bytes.blit_string digest 0 b (size - dlen) dlen;
  Bignum.of_bytes_be b

(* RFC 8017 §5.1.2 with Garner's recombination: s1 = m^dp mod p and
   s2 = m^dq mod q give s = s2 + q (qinv (s1 - s2) mod p), the same
   integer as m^d mod n. *)
let sign kp msg =
  let m = pad kp.public msg in
  let s1 = Bignum.modpow m kp.dp kp.p_mod in
  let s2 = Bignum.modpow m kp.dq kp.q_mod in
  let s2p = Bignum.rem s2 kp.p in
  let diff =
    if Bignum.compare s1 s2p >= 0 then Bignum.sub s1 s2p
    else Bignum.sub (Bignum.add s1 kp.p) s2p
  in
  let h = Bignum.rem (Bignum.mul kp.qinv diff) kp.p in
  Bignum.add s2 (Bignum.mul h kp.q)

let verify pub msg signature =
  if Bignum.compare signature pub.n >= 0 then false
  else
    let recovered = Bignum.modpow signature pub.e pub.n_mod in
    Bignum.equal recovered (pad pub msg)
