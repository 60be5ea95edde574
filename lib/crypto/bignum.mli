(** Arbitrary-precision natural numbers.

    Little-endian arrays of 26-bit limbs; all products of two limbs, the
    intermediate values of Knuth's algorithm D and the sums of a
    Montgomery multiplication fit comfortably in OCaml's 63-bit native
    integers.  Only naturals are exposed — the RSA layer
    never needs negative numbers (the signed arithmetic required by the
    extended Euclid algorithm is internal to {!modinv}). *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [None] if the value exceeds [max_int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool

val bits : t -> int
(** Position of the highest set bit plus one; [bits zero = 0]. *)

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    @raise Division_by_zero . *)

val rem : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
type modulus
(** A modulus prepared for exponentiation.  An odd one carries its
    Montgomery constants (-m{^-1} mod 2{^26}, R{^2} mod m), computed once
    so that a key can keep them next to its modulus.  Immutable: one
    value may be shared freely. *)

val modulus : t -> modulus
(** @raise Division_by_zero if the modulus is 0. *)

val modpow : t -> t -> modulus -> t
(** [modpow b e (modulus m)] is [b^e mod m], for any base (also [b >= m]).
    Odd moduli use Montgomery multiplication, with a fixed 4-bit window
    for exponents over 64 bits; even moduli, which Montgomery cannot
    take, fall back to square-and-multiply. *)

val gcd : t -> t -> t

val modinv : t -> t -> t option
(** [modinv a m] is the inverse of [a] modulo [m], if [gcd a m = 1]. *)

val random_bits : Prng.t -> int -> t
(** Uniform with exactly [n] significant bits (top bit forced). *)

val random_below : Prng.t -> t -> t
(** Uniform in [\[0, bound)]. Requires [bound > 0]. *)

val is_probable_prime : Prng.t -> ?rounds:int -> t -> bool
(** Trial division by small primes, then [rounds] (default 20) Miller–Rabin
    rounds with random bases. *)

val generate_prime : Prng.t -> bits:int -> t
(** A random probable prime with exactly [bits] bits ([bits >= 8]). *)

val of_bytes_be : bytes -> t
val to_bytes_be : ?size:int -> t -> bytes
(** Big-endian encoding; [size] left-pads with zeros (and must be large
    enough — @raise Invalid_argument otherwise). *)

val of_string : string -> t
(** Decimal. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal. *)

val to_hex : t -> string
val pp : Format.formatter -> t -> unit
