(** Misbehaving peers: a seeded, composable harness that attacks the
    guard layer.

    An adversary is a registered network participant that never runs the
    engine; it emits protocol abuse instead — query floods, raw garbage,
    unsolicited and replayed answers, forged-signature certificates,
    oversized payloads and delegation-bomb goals.  Behaviors compose
    (one adversary can flood {e and} forge) and everything it does is
    drawn from a seeded {!Peertrust_crypto.Prng}, so a sweep over seeds
    is reproducible — the same contract {!Faults} gives transport
    chaos.

    A total action budget bounds the damage: once spent, the adversary
    goes silent, so even an unguarded run terminates. *)

type behavior =
  | Flood of int  (** queries per burst *)
  | Malformed of int  (** raw garbage payloads per burst *)
  | Unsolicited of int  (** spoofed answers per burst *)
  | Replay  (** re-send payloads it already sent *)
  | Forged_certs  (** answers carrying certificates with bogus signatures *)
  | Oversized of int  (** raw payloads of this many bytes *)
  | Bomb of int  (** query goals with an authority chain this deep *)

val behavior_to_string : behavior -> string

val behavior_of_string : string -> (behavior, string) result
(** Parse a CLI behavior spec: [flood], [flood=12], [malformed],
    [unsolicited], [replay], [forged], [oversized], [oversized=65536],
    [bomb], [bomb=40]. *)

type action = { act_target : string; act_payload : Message.payload }

type t

val create : ?seed:int64 -> ?budget:int -> name:string -> behavior list -> t
(** [budget] caps the total number of actions the adversary will ever
    emit (default 64). *)

val name : t -> string
val behaviors : t -> behavior list
val actions_sent : t -> int

val burst : t -> targets:string list -> action list
(** One round of abuse, each behavior contributing against each target
    (round-robin for singleton-target behaviors), clipped to the
    remaining budget. *)

val react : t -> from:string -> action list
(** The adversary's answer to an inbound message, whatever it holds:
    replays and a fresh burst aimed at the sender, while the budget
    lasts (so two adversaries cannot ping-pong forever). *)
