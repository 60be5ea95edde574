(** Simulated discrete clock.  One tick is an abstract unit of causal
    time: a message sent at tick [t] over a link of latency [l] arrives
    at tick [t + l].  Posting a message does not move the clock; the
    queued engine that delivers it does, when it reaches the message's
    delivery tick. *)

type t

val create : unit -> t
val now : t -> int

val advance_to : t -> int -> unit
(** Jump forward to an absolute tick; no-op when it is in the past.  The
    queued engine calls it with the tick of each item it takes off its
    agenda: a delivery, a retransmission deadline or a scheduled
    event. *)
