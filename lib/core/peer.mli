(** A peer: name, knowledge base, held certificates, external predicates
    and evaluation limits.

    A peer's signed rules are backed by certificates (issued at setup or
    learned during negotiation); the certificate store is keyed by the
    rule's canonical form so the engine can attach the right certificate
    when it discloses a credential. *)

open Peertrust_dlp

type t = {
  name : string;
  mutable kb : Kb.t;
  certs : (string, Peertrust_crypto.Cert.t) Hashtbl.t;
      (** canonical rule -> certificate *)
  origins : (int, string) Hashtbl.t;
      (** certificate serial -> peer it was received from (absent for the
          peer's own certificates) *)
  externals : Sld.externals;
  mutable options : Sld.options;
      (** evaluation limits; mutable so the reactor can cap [max_steps]
          for the duration of one requester's evaluation (the guard's
          per-requester work quota) *)
  mutable kb_watchers : (unit -> unit) list;
      (** callbacks fired on setup-style KB mutations; see
          {!on_kb_update} *)
}

val create :
  ?options:Sld.options -> ?externals:Sld.externals -> ?kb:Kb.t -> string -> t

val load_program : t -> string -> unit
(** Parse a program text and add its rules to the KB.
    @raise Parser.Error on bad syntax. *)

val set_kb : t -> Kb.t -> unit
(** Replace the KB wholesale and notify the KB watchers. *)

val on_kb_update : t -> (unit -> unit) -> unit
(** Register a callback fired after setup-style KB mutations
    ({!load_program}, {!set_kb}) — the hooks answer caches use to drop
    entries owned by this peer.  {!add_rule} does {e not} fire the
    watchers: it runs on the negotiation hot path and only adds facts,
    which is a monotone (cache-sound) change. *)

val add_rule : t -> Rule.t -> unit
val add_cert : ?origin:string -> t -> Peertrust_crypto.Cert.t -> unit
(** Store a certificate and add its rule to the KB.  [origin] records which
    peer it was received from. *)

val cert_origin : t -> Peertrust_crypto.Cert.t -> string option

val cert_for : t -> Rule.t -> Peertrust_crypto.Cert.t option
(** The certificate backing a signed rule, if held. *)

val goal_key : Literal.t -> string
(** Canonical skeleton of a goal (alpha-invariant), keying the reactor's
    sub-queries. *)
