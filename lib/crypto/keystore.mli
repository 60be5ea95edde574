(** The simulated PKI: key pairs for peers and authorities, plus a
    certificate-revocation set.

    One keystore value models the world's key infrastructure in a
    simulation run.  Keys are generated deterministically from the store's
    seed, on demand, so scenarios are reproducible. *)

type t

val create : ?bits:int -> seed:int64 -> unit -> t
(** [bits] is the RSA modulus size used for generated keys. *)

val keypair : t -> string -> Rsa.keypair
(** The key pair of the named principal, generated on first use. *)

val public : t -> string -> Rsa.public
(** Public key of the named principal (generates the pair if needed). *)

val known : t -> string -> bool
(** Has a key already been generated for this principal? *)

val revoke : t -> serial:int -> unit
(** Add a certificate serial number to the revocation set. *)

val is_revoked : t -> serial:int -> bool

val fresh_serial : t -> int
(** Monotonically increasing certificate serial numbers. *)

val claim_serial : t -> int -> unit
(** Mark a serial as taken (by a certificate loaded from disk):
    {!fresh_serial} returns only larger ones from then on. *)

val principals : t -> string list
(** Principals with generated keys, in generation order. *)
