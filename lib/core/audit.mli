(** Audit trails — the other §3 run-time measure: "the mechanism can also
    implement other security-related measures, such as creating an audit
    trail for the enrollment".

    An audit log records, per peer, every access decision it made: the
    requester, the goal, grant/denial, the supporting credential serials
    and the simulated time.  Entries are append-only; the log can be
    queried and rendered. *)

open Peertrust_dlp

type decision = Grant | Deny of string

type entry = {
  at : int;  (** simulated-clock time *)
  peer : string;  (** the peer that decided *)
  requester : string;
  goal : Literal.t;
  decision : decision;
  credentials : int list;  (** serials of disclosed certificates *)
}

type t

val create : unit -> t

val attach : t -> Session.t -> unit
(** Observe the session network: every reply a peer sends to a query is
    recorded — an answer as a grant, a denial with its reason.  Attach
    once per session. *)

val record :
  t -> at:int -> peer:string -> requester:string -> goal:Literal.t ->
  decision:decision -> credentials:int list -> unit
(** Manual entry (used by custom mechanisms). *)

val entries : t -> entry list
(** Chronological. *)

val for_peer : t -> string -> entry list
val grants : t -> entry list
val denials : t -> entry list
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
