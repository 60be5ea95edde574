(** Certificates: signed PeerTrust rules.

    The envelope around a rule that travels between peers.  It binds the
    rule's canonical serialisation ({!Peertrust_dlp.Rule.canonical}) to one
    signature per signer listed in the rule's [signedBy] annotation.
    Mirrors the paper's contract: "when a peer receives a signed rule from
    another peer, the signature is verified before the rule is passed to
    the DLP evaluation engine". *)

type t = {
  serial : int;
  rule : Peertrust_dlp.Rule.t;  (** the payload; [rule.signer] is non-empty *)
  not_before : int;  (** simulated-clock validity window start *)
  not_after : int;  (** validity window end (inclusive) *)
  signatures : (string * Bignum.t) list;  (** issuer name -> signature *)
}

type error =
  | Unsigned_rule  (** the rule carries no [signedBy] annotation *)
  | Missing_signature of string  (** a listed signer provided no signature *)
  | Bad_signature of string
  | Expired of { now : int }
  | Revoked of int

val issue :
  Keystore.t ->
  ?not_before:int ->
  ?not_after:int ->
  Peertrust_dlp.Rule.t ->
  (t, error) result
(** Sign [rule] with the key of each principal in [rule.signer].  The
    default validity window is [(0, max_int)].  Returns [Error
    Unsigned_rule] when the rule lists no signers. *)

val verify : Keystore.t -> ?now:int -> t -> (unit, error) result
(** Check the revocation set, then the validity window at [now], then one
    signature per listed signer over {!payload}, in that order, and
    return the first failure.  Revocation and validity are checked on
    every call, so a certificate verified once is [Revoked] after
    {!Keystore.revoke} and [Expired] past [not_after].  Only the RSA
    exponentiation is shared between calls: each signature goes through
    {!Keystore.verify}, which runs RSA once per (signer, payload,
    signature) it accepts and never records a rejected one. *)

val payload : t -> string
(** The signed byte string (canonical rule plus validity and serial). *)

val pp_error : Format.formatter -> error -> unit
