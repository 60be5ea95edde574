(** Portable text encoding for certificates — the role X.509/PEM files
    played for the paper's prototype: credentials must survive being
    stored, mailed around and re-imported by other peers.

    Format (line-oriented, order fixed):

    {v
      -----BEGIN PEERTRUST CERTIFICATE-----
      serial: 17
      not-before: 0
      not-after: 4611686018427387903
      rule: student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"].
      sig: <issuer-name-hex>:<signature-hex>
      ...one sig line per signer...
      -----END PEERTRUST CERTIFICATE-----
    v}

    Issuer names are hex-encoded so arbitrary names (spaces, colons)
    round-trip.  The integer fields accept only what [%d] prints, and a
    signature only what {!Bignum.to_hex} writes, so none of those fields
    has a second spelling. *)

type error = Malformed of string
(** Diagnostics name the offending line of the source text
    (["line 4: sig: bad hex"]) so a corrupt wallet file points at its
    damage. *)

val encode : Cert.t -> string

val decode : string -> (Cert.t, error) result
(** Parses one certificate.  Decoding performs no signature check — use
    {!Cert.verify} after import, exactly as the engine does for
    certificates received from the network. *)

val encode_many : Cert.t list -> string
val decode_many : string -> (Cert.t list, error) result
(** Concatenated certificates (a credential wallet file). *)

val pp_error : Format.formatter -> error -> unit
