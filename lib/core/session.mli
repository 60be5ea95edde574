(** A negotiation session: the shared world — network, PKI, peers and
    engine configuration. *)

open Peertrust_dlp

type config = {
  max_answers : int;  (** answers returned per remote query *)
  verify_signatures : bool;
      (** verify certificates before learning them (ablation switch for
          experiment E7) *)
  attach_proofs : bool;
      (** attach (redacted) proof traces to answers *)
  now : int;  (** certificate validity instant *)
  guard : Guard.config;
      (** inbound-guard and admission-control limits applied by the
          queued reactor at each peer's boundary; {!Guard.permissive}
          (disabled) by default so unguarded transcripts are unchanged *)
}

val default_config : config

type t = {
  network : Peertrust_net.Network.t;
  keystore : Peertrust_crypto.Keystore.t;
  peers : (string, Peer.t) Hashtbl.t;
  config : config;
  proxies : (string, string) Hashtbl.t;
      (** device -> the trusted peer that answers its queries
          ({!Proxy}) *)
}

val create :
  ?config:config ->
  ?latency:int ->
  ?max_messages:int ->
  ?seed:int64 ->
  ?key_bits:int ->
  unit ->
  t

val add_peer :
  t ->
  ?options:Sld.options ->
  ?externals:Sld.externals ->
  ?program:string ->
  string ->
  Peer.t
(** Create a peer, load [program] into it, and issue certificates for every
    signed rule in the program (the setup step the paper assumes: peers
    hold their credentials before negotiating).
    @raise Parser.Error on bad program syntax. *)

val peer : t -> string -> Peer.t
(** @raise Not_found for unknown names. *)

val peer_names : t -> string list

val issue_signed_rules : t -> Peer.t -> unit
(** (Re-)issue certificates for the peer's signed rules that lack one. *)
