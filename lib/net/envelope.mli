(** Delivery envelopes around message payloads.

    The network wraps every posted payload in an envelope carrying a
    process-unique message id (shared by duplicated copies, so receivers
    can deduplicate), a per-link sequence number, the retransmission
    attempt, and the simulated-clock send and delivery times.  The
    reactor delivers by delivery time first, then id — which degenerates
    to FIFO when no extra delays are injected — and keeps each copy of a
    duplicated send apart. *)

type t = {
  id : int;  (** unique per original send; duplicate copies share it *)
  seq : int;  (** per-directed-link sequence number, from 0 *)
  from_ : string;
  target : string;
  sent_at : int;  (** tick the copy left the sender *)
  deliver_at : int;
      (** tick the copy reaches the target: [sent_at] plus the link
          latency plus any injected delay *)
  attempt : int;  (** 0 for the original send, >0 for retransmissions *)
  incarnation : int;
      (** the sender's restart count when the send was posted: 0 for a
          peer that has never crashed.  Receivers track the highest
          incarnation observed per sender — a lower one marks a stale
          message from a dead incarnation, a higher one a restart.  Not
          part of {!summary} when 0, so crash-free transcripts are
          unchanged. *)
  trace : Peertrust_obs.Trace_context.t option;
      (** propagated trace context; [None] on untraced runs.  Not part of
          {!summary}, so transcripts are identical with tracing on or
          off. *)
  payload : Message.payload;
}

val summary : t -> string
(** One-line rendering for tracer events and logs.  The incarnation is
    shown only when nonzero. *)
