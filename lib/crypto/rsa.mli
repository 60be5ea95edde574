(** RSA signatures (hash-then-sign with PKCS#1-style padding over
    {!Sha256}).

    This is the simulated stand-in for the paper's X.509 / Java
    Cryptography Architecture layer: key pairs for peers and authorities,
    deterministic signing of canonical rule serialisations, and
    verification before a signed rule enters the DLP engine. *)

type public = private {
  n : Bignum.t;
  e : Bignum.t;
  n_mod : Bignum.modulus;  (** [n] prepared for verification *)
}

type keypair = private {
  public : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;  (** the primes, [n = p q] *)
  dp : Bignum.t;  (** [d mod (p - 1)] *)
  dq : Bignum.t;  (** [d mod (q - 1)] *)
  qinv : Bignum.t;  (** [q{^-1} mod p] *)
  p_mod : Bignum.modulus;
  q_mod : Bignum.modulus;
}
(** The PKCS#1 private key in both forms (RFC 8017 §3.2): the exponent
    [d], and the CRT quintuple that signing uses. *)

val generate : ?bits:int -> Prng.t -> keypair
(** Generate a key pair; [bits] (default 384) is the modulus size.  Must be at least 288 so the
    padded 32-byte digest fits; 384-bit keys keep tests fast.  The only
    constructor of [public] and [keypair], so their fields always agree. *)

val sign : keypair -> string -> Bignum.t
(** Sign a message: pad SHA-256(msg) to the modulus size and apply the
    private exponent, by CRT over [p] and [q] (the value is exactly
    [pad(msg)^d mod n]).  @raise Invalid_argument if the modulus is too
    small to hold the padded digest. *)

val verify : public -> string -> Bignum.t -> bool
(** Check a signature against a message. *)

val modulus_bytes : public -> int
