(** Propagated trace context: the per-negotiation identity a message
    carries across peers so every receiver's spans attach to the
    originating negotiation's trace.

    A context names a trace ([trace_id], minted once per negotiation by
    {!Tracer.mint}), the span on whose behalf the message was sent
    ([parent_span]; 0 for a root context with no parent yet), and a
    sampling bit — a receiver honours [sampled = false] by not recording
    spans for the delivery even when its own tracer is enabled.

    Contexts travel inside the process, on {!Peertrust_net.Envelope.t}'s
    [trace] field; nothing encodes or decodes them as bytes. *)

type t = {
  trace_id : int;  (** >= 1; 0 never names a trace *)
  parent_span : int;  (** sending span id; 0 when the context is a root *)
  sampled : bool;
}

val make : ?sampled:bool -> trace_id:int -> parent_span:int -> unit -> t
(** [sampled] defaults to [true].
    @raise Invalid_argument on [trace_id < 1] or [parent_span < 0]. *)

val child : t -> parent_span:int -> t
(** Same trace and sampling, re-parented under [parent_span]. *)

val pp : Format.formatter -> t -> unit
(** Traceparent-style, e.g. ["pt1-00000000000000c2-000000000000001f-01"]. *)

val equal : t -> t -> bool
