(** The simulated PKI: key pairs for peers and authorities, a
    certificate-revocation set, and the set of signatures already
    verified under its keys.

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

val verify : t -> signer:string -> string -> Bignum.t -> bool
(** [verify t ~signer msg s] checks that [s] is [signer]'s signature on
    [msg]: {!Rsa.verify} under {!public}[ t signer].  The keystore
    records each (signer, message, signature) triple RSA accepts and
    answers a repeat from that record, so RSA runs once per accepted
    triple; a rejected triple is never recorded and pays RSA every time.

    Sound: RSA is a function of key, message and signature, and a
    keystore never changes a principal's key, so the record gives the
    verdict RSA would.  Bounded without eviction: the padding admits one
    valid signature per key and message, so the record holds at most one
    entry per message this keystore's keys signed, and a forger, who
    cannot sign, cannot grow it.  Nothing else is recorded: revocation
    and validity are the caller's checks ({!Cert.verify} makes them on
    every call).  Counts [crypto.signature_checks] per call and
    [crypto.rsa_verifies] per RSA exponentiation.  Every signature check
    in the library goes through here. *)

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
