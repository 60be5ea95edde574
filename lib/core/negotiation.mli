(** Top-level trust negotiations and their measured reports.

    A negotiation is triggered when one peer requests a resource of
    another (§2): the requester sends the goal, the target answers under
    its release policies, counter-querying the requester as needed.  The
    report captures what the paper's evaluation narrates: the outcome, the
    sequence of disclosures, and the message/byte/latency cost. *)

type outcome =
  | Granted of Engine.instance list
      (** access granted; the provable instances of the goal *)
  | Denied of string

type denial_class =
  | Policy  (** the target's policies do not release the resource *)
  | Timeout  (** a sub-query exhausted its retransmission budget *)
  | Unreachable  (** a peer was down or is not a session peer *)
  | Budget  (** the session's message budget ran out *)
  | Cycle  (** deadlocked release policies (negotiation cycle) *)
  | Quiescent  (** the queue drained without resolving the request *)
  | Quarantined  (** rejected by a guard: requester's breaker is open *)
  | Rate_limited  (** rejected by a guard: query rate above the limit *)
  | Quota  (** rejected by a guard: resolution work quota spent *)
  | Unsupported
      (** the goal hit a feature outside the evaluating engine's
          fragment (e.g. negation-as-failure under distributed
          tabling) *)
  | Crashed
      (** the counterparty crash-stopped with no restart in sight
          ([crashed: <peer>]), or the requester itself restarted
          without a journal ([peer crashed]) *)

val classify_denial : string -> denial_class
(** Classify a [Denied] reason string.  The queued engine's resilience
    machinery emits reasons from a stable vocabulary ([timeout: <peer>],
    [unreachable: <peer>], [message budget exhausted], ...); everything
    else is a {!Policy} denial. *)

val denial_class_to_string : denial_class -> string

val transport_denial : string -> bool
(** [true] for denials produced by transport failures ({!Timeout},
    {!Unreachable}, {!Budget}) rather than policy decisions. *)

type report = {
  outcome : outcome;
  messages : int;  (** messages exchanged during this negotiation *)
  bytes : int;
  disclosures : int;  (** certificates transferred *)
  elapsed : int;  (** simulated-clock ticks until the outcome settled *)
  transcript : Peertrust_net.Network.entry list;
}

val succeeded : report -> bool

val count : outcome -> unit
(** Count one settled negotiation in the [negotiation.count] /
    [negotiation.granted] / [negotiation.denied] counters.  The runtimes
    call it exactly once per negotiation, where its outcome settles. *)

val measure : Session.t -> (unit -> outcome * int option) -> report
(** Wrap a negotiation procedure (used by {!Reactor.negotiate} and
    {!Strategy}): snapshot network statistics around the call, collect the
    transcript delta and observe the [negotiation.*] size histograms.
    The procedure returns its outcome and, where it knows it, the tick
    at which the outcome settled: [elapsed] ends there, so work the run
    does after it (a scheduled crash or restart, say) is not counted.
    Without a tick, [elapsed] ends at the clock after the run.
    A message-budget exhaustion or an unreachable top-level target turns
    into a [Denied] outcome rather than an exception. *)

val pp_report : Format.formatter -> report -> unit
