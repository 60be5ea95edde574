(** In-process simulated peer-to-peer network.

    {!post} charges one message on the shared clock, records it in the
    statistics and the transcript, and returns the envelopes that reach
    the target; delivering them is the caller's business (the core
    library's queued reactor).  Deterministic by construction — no real I/O,
    no threads — which is what makes the benchmark tables reproducible.

    Failure injection: peers can be marked down ({!set_down}), a message
    budget can be imposed to abort runaway negotiations, and a seeded
    {!Faults} plan ({!set_faults}) injects drops, duplicates, delays and
    transient outages. *)

type t

exception Unreachable of string
(** Target peer is down. *)

exception Budget_exhausted
(** The configured message budget was hit. *)

type entry = {
  time : int;
  from : string;
  target : string;
  summary : string;
  bytes_ : int;
  certs_ : int;  (** certificates carried by this message *)
}

val create : ?latency:int -> ?max_messages:int -> ?log_cap:int -> unit -> t
(** [latency] (default 1) is the tick cost of one message direction.
    [log_cap] (default 10_000) bounds the transcript ring buffer: past the
    cap the oldest entries are discarded and counted by
    {!dropped_log_entries}.  @raise Invalid_argument when [log_cap < 1]. *)

val clock : t -> Clock.t
val stats : t -> Stats.t
val set_down : t -> string -> bool -> unit
val is_down : t -> string -> bool

val set_faults : t -> Faults.t -> unit
(** Install a fault plan; it applies to every {!post}. *)

val faults : t -> Faults.t

val set_link_latency : t -> from:string -> target:string -> int -> unit
(** Override the tick cost of one directed link (e.g. a slow WAN hop to a
    remote authority).  @raise Invalid_argument on negative values. *)

val link_latency : t -> from:string -> target:string -> int
(** Effective latency of a directed link (override or default). *)

val post :
  t ->
  from:string ->
  target:string ->
  ?attempt:int ->
  ?incarnation:int ->
  ?trace:Peertrust_obs.Trace_context.t ->
  Message.payload ->
  Envelope.t list
(** Queue-oriented one-way send under the installed fault plan: charge and
    log the transmission, then return the envelope copies that actually
    reach the target — [[]] when the message is lost (sampled drop, or the
    target is inside a scheduled outage or crash window), one envelope
    normally, two sharing an id when duplicated.  [incarnation] (default
    0) is the sender's restart count, stamped on every surviving copy.  Extra delivery delay is reflected
    in [deliver_at].  Lost and duplicated sends increment [net.drops] /
    [net.duplicates].  [trace] (default [None]) is stamped verbatim on
    every surviving copy; contexts travel only in-process, on
    [Envelope.trace].
    @raise Unreachable if the target is down ({!set_down}) or the message
    budget is exhausted ([Budget_exhausted]); scheduled outages do NOT
    raise — the sender only learns through missing answers. *)

val observe :
  t -> (from:string -> target:string -> Message.payload -> unit) -> unit
(** Register a callback run on every charged {!post} (after it is
    accounted; not on an [Unreachable] or budget-exhausted one), in
    registration order — e.g. an audit trail of the peers' replies. *)

val transcript : t -> entry list
(** Retained messages in posting order.  Long runs keep only the newest
    [log_cap] entries. *)

val dropped_log_entries : t -> int
(** Transcript entries discarded by the ring buffer so far. *)

val logged : t -> int
(** Transcript entries logged since the last {!clear_transcript},
    retained or discarded. *)

val clear_transcript : t -> unit
val pp_transcript : Format.formatter -> t -> unit
