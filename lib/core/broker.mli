(** Authority databases and brokers (§4.2).

    A policy may leave an [Authority] argument unbound and resolve it at
    run time from a database of authoritative peers:

    {v
      policy49(...) <- ..., authority(purchaseApproved, Authority),
                       purchaseApproved(Company, Price) @ Authority.
    v}

    or delegate the lookup to a broker peer:

    {v
      ..., authority(purchaseApproved, Authority) @ "myBroker", ...
    v}

    This module builds both: local authority databases ([authority/2]
    facts) and broker peers that serve a directory publicly. *)

open Peertrust_dlp

val authority_fact : pred:string -> authority:string -> Rule.t
(** The fact [authority(pred, "authority")]. *)

val install_directory : Peer.t -> (string * string) list -> unit
(** Add [authority/2] facts (predicate name, authority peer) to a peer's
    own KB. *)

val add_broker :
  Session.t -> name:string -> directory:(string * string) list -> Peer.t
(** Create a broker peer whose directory is publicly queryable
    ([authority/2 $ true]). *)

val lookup :
  Session.t -> requester:string -> broker:string -> pred:string ->
  string list
(** Ask a broker which authorities serve [pred] (one negotiation). *)
