(** Inbound guards and per-requester admission control at a peer's
    network boundary.

    PeerTrust's run-time otherwise assumes counterparties that follow
    the protocol; on the open Semantic Web a peer must survive partners
    that lie, flood or speak garbage.  The guard sits in front of the
    queued reactor's dispatch and classifies every inbound envelope
    before it can touch the engine:

    - {b structural} checks — payload size caps, authority-chain/term
      depth of query goals (delegation bombs), certificate
      well-formedness ({!Peertrust_crypto.Wire} decoding for raw blobs)
      and signature verification via the session keystore;
    - {b solicitation} checks — an [Answer]/[Deny] must match a
      sub-query this peer actually has outstanding: spoofed or replayed
      answers are rejected as violations (late duplicates of already
      resolved sub-queries are dropped as {e stale}, without blame);
    - {b admission control} per (guarded peer, requester) pair — a
      sliding-window query rate limit, a resolution work quota (charged
      in SLD solver steps, enforced through {!Peertrust_dlp.Sld.options}
      [max_steps]), and a circuit breaker that quarantines a requester
      after [quarantine_after] violations inside [violation_window]
      ticks, with timed half-open recovery on the simulated clock.

    State is keyed by directed pair, so one abusive requester cannot get
    an honest third party quarantined.  All limits live in {!config};
    the {!permissive} default disables the guard entirely, keeping
    existing transcripts byte-identical. *)

type config = {
  enabled : bool;
  max_bytes : int;  (** per-payload wire-size cap *)
  max_goal_depth : int;
      (** cap on a query goal's authority-chain length and term depth *)
  rate : int;  (** queries admitted per requester per window *)
  rate_window : int;  (** rate-limit sliding window, ticks *)
  quota : int;  (** SLD solver steps spent per requester, whole session *)
  quarantine_after : int;  (** violations inside the window that trip it *)
  violation_window : int;  (** violation sliding window, ticks *)
  quarantine_ticks : int;  (** Open duration before a half-open probe *)
}

val permissive : config
(** Guard disabled ([enabled = false]): every payload is admitted. *)

val defaults : config
(** The tuned enabled configuration behind [--guard]: generous enough
    that honest scenario traffic never trips it, tight enough that every
    flooding/malformed adversary lands in quarantine. *)

type violation =
  | Malformed of string  (** unparseable or ill-shaped payload *)
  | Oversized of int  (** payload byte size above [max_bytes] *)
  | Unsolicited of string  (** answer/deny without an outstanding query *)
  | Bad_cert of string  (** certificate failing signature verification *)
  | Flooding  (** query rate above [rate] per [rate_window] *)
  | Quota_exhausted  (** requester's resolution work quota spent *)
  | Bomb of int  (** query goal deeper than [max_goal_depth] *)
  | Quarantined  (** requester's circuit breaker is open *)

val violation_to_string : violation -> string

val denial_reason : violation -> string
(** Stable reason vocabulary for the [Deny] sent back for a rejected
    query — ["quarantined"], ["rate-limited"], ["quota"], ... — the
    strings {!Negotiation.classify_denial} recognises. *)

type verdict =
  | Admit
  | Stale of string
      (** harmless late duplicate (already-resolved sub-query): dropped,
          no violation recorded *)
  | Reject of violation

type breaker =
  | Closed
  | Open of { until : int }  (** rejects everything until [until] *)
  | Half_open  (** probation: next admit closes it, next violation re-opens *)

type t

val create : ?config:config -> verify:(Peertrust_crypto.Cert.t -> bool) -> unit -> t
(** [verify] checks one inbound certificate (typically
    {!Peertrust_crypto.Cert.verify} against the session keystore at the
    session's validity instant; [fun _ -> true] when the session has
    signature verification off). *)

val config : t -> config

val admit :
  t ->
  now:int ->
  from:string ->
  target:string ->
  ?solicited:(Peertrust_dlp.Literal.t -> [ `Outstanding | `Resolved | `Unknown ]) ->
  Peertrust_net.Message.payload ->
  verdict
(** Judge one inbound payload addressed to guarded peer [target] from
    requester [from].  [solicited] reports whether an answered goal has
    a matching sub-query outstanding (default: [`Unknown], i.e. nothing
    is ever solicited).  Rejections record a violation against [from]
    and may trip its breaker; admissions while half-open close it. *)

val charge_work : t -> from:string -> target:string -> int -> unit
(** Charge [n] resolution steps spent on [from]'s behalf against its
    quota. *)

val remaining_work : t -> from:string -> target:string -> int
(** Unspent quota ([max_int] when the guard is disabled); feed it to
    {!Peertrust_dlp.Sld.options} [max_steps] when evaluating on the
    requester's behalf. *)

val breaker_state : t -> from:string -> target:string -> breaker

val reset_peer : t -> string -> unit
(** Forget everything guarded peer [name] kept about its requesters —
    rate windows, work quotas, breakers.  Called when [name] crash-stops:
    admission state is volatile and does not survive a restart.  State
    {e other} peers hold about [name] is untouched. *)

val quarantined : t -> (string * string) list
(** Directed [(target, from)] pairs whose breaker is currently open,
    sorted; a post-run snapshot (no expiry applied). *)
