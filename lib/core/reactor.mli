(** The queued (asynchronous) negotiation engine — the architecture the
    paper actually describes for PeerTrust 1.0: an outer layer that "keeps
    queues of propositions that are in the process of being proved" around
    the logic engine.

    It is the one negotiation runtime: every relevant-strategy
    negotiation runs here, around {!Engine.answer} as the local
    evaluation core.  It is message-driven:

    - an incoming query is evaluated against the local KB only; if that
      does not settle it, the goal is {e parked} on the first remote call,
      in evaluation order, that has no answer yet — the call depth-first
      recursion would block on — and that call is posted as a sub-query
      unless it is already outstanding (each distinct (peer, goal) is
      asked at most once per peer).  Later remote calls of the same
      evaluation wait: an answer may make them moot;
    - an incoming answer is verified and learned (certificates plus the
      "peer says" facts); then the goals parked at that peer which it,
      or anything since their last evaluation, may have unblocked are
      re-evaluated over the grown knowledge base, newest parked first —
      the KB only grows, so re-evaluation is monotone;
    - a parked goal none of whose remote calls is left unanswered, and
      which still has no releasable answer, is denied upstream.

    Each peer indexes its parked goals by the sub-query they wait on and
    by the KB lookups their last evaluation made
    ({!Peertrust_dlp.Kb.recording}).  An answer, denial or disclosure
    reaching the peer re-evaluates a goal when (a) its awaited sub-query
    was resolved since it parked, by that delivery or otherwise (a
    deadline's withdrawal); (b) a rule the delivery added to the peer's
    KB could match one of its lookups; (c) its last evaluation consulted
    an external predicate or ran out of fuel; or (d) the peer's KB
    changed outside the reactor.  Any other goal would park on the same
    call again with no side effect, so it is skipped: the work an answer
    costs does not grow with the number of goals parked beside it, and
    transcripts are those of re-evaluating every parked goal.

    Any number of negotiations proceed {e interleaved} over one queue,
    and policy deadlocks end by quiescence (an empty queue with
    unresolved goals), which force-denies one parked goal at a time —
    the later of its park and its peer's last wake-up, newest first —
    and no in-flight cycle table is needed.

    Messages are accounted on the session network (statistics,
    transcript, latency, budget).  A target that is neither a session
    peer nor an adversary, or that is down, is unreachable: a query to it
    is denied locally as [unreachable] and no message is charged.  A
    query to a {!Proxy} device is evaluated at its proxy, with the
    device<->proxy hops charged as messages and as ticks: the reply
    leaves the device only after both hops, so a proxied round trip at
    latency 1 takes 4 ticks.

    {2 Causal time}

    The reactor's agenda is the only writer of the session clock:
    posting a message stamps its delivery tick (send tick plus link
    latency plus injected delay) without moving the clock, and {!step}
    advances the clock to the tick of the item it takes off.  A
    negotiation's ticks are therefore its causal critical path, the same
    however many negotiations are interleaved with it, while message
    counts stay the protocol cost.  Deadlines, crash ticks, guard
    windows and cache TTLs are all read on this clock.

    {2 Resilience under faults}

    When the session network carries an active {!Peertrust_net.Faults}
    plan, the reactor tolerates lost, duplicated, delayed and reordered
    deliveries: messages travel in {!Peertrust_net.Envelope}s whose ids
    make duplicate deliveries idempotent, deliveries are ordered by their
    simulated delivery time, and every outstanding sub-query carries a
    retransmission timer with exponential backoff ({!config}).  A
    sub-query that exhausts its retry budget degrades into a structured
    denial — [timeout: <peer>] or [unreachable: <peer>] — that propagates
    through {!Negotiation.outcome} (see {!Negotiation.classify_denial})
    instead of hanging the negotiation.  A timer measures the whole
    answer, not just transport: a deep chain's answer is legitimately
    more than [rto] ticks away.  So with the fault-free plan, where every
    post is delivered, the timers stay disarmed and behaviour is
    identical to the plain queue.

    {2 Answer caching}

    With {!config}[.cache] set, a sub-query whose variant the cache has
    already seen answered by the same peer (for the same asker) is
    short-circuited: the cached answer is replayed as a locally
    synthesized delivery — no envelope is posted and no retransmission
    timer is armed — and answers delivered off the wire fill the cache
    (see {!Answer_cache} for keying, TTL and invalidation).  Off by
    default; the default configuration's fault-free transcripts are
    byte-identical to the cache-less engine.

    {2 Guards and adversaries}

    Every envelope that travelled the wire is judged by the session's
    {!Guard} before dispatch (synthetic reactor bookkeeping — cache
    replays, timeout denials — bypasses it).  A rejected query is
    answered with a [Deny] carrying the guard's structured reason
    ([quarantined]/[rate-limited]/[quota]/...), one reply per query so a
    flood cannot amplify; other rejected payloads are dropped.  The
    guard's work quota caps {!Peertrust_dlp.Sld.options} [max_steps]
    while a requester's goal is evaluated and is charged with the solver
    steps actually burnt.  Only useful work is billed: a parked goal is
    re-evaluated (and its requester charged) only when a delivery can
    unblock it, so answers for other negotiations reaching a busy peer
    cost an honest requester nothing.  With the default
    {!Guard.permissive} config every payload is admitted and transcripts
    are unchanged.

    {!add_adversary} attaches a misbehaving {!Peertrust_net.Adversary}:
    it gets a network identity, opens with a burst against the honest
    peers, and reacts to whatever it is sent until its action budget is
    spent.

    {2 Crash-stop peers and durable journals}

    When the fault plan schedules crashes
    ({!Peertrust_net.Faults.add_crash}), the reactor executes them as
    first-class timeline events, ordered before same-tick deliveries.  A
    crash wipes everything volatile at the victim — parked goals, its
    outstanding sub-query timers, its dedup ring, guard admission state,
    cached answers, distributed tables — and rolls its knowledge base
    and certificate wallet back to the boot snapshot.  Counterparties
    see the crash through the protocol, not an oracle: envelopes carry
    the sender's {e incarnation} number, so answers sent by a dead
    incarnation are discarded as [reactor.stale_epoch], and sub-queries
    that time out against a peer whose restart is scheduled are
    suspended and {e reissued} (fresh timer, attempt 0) once it returns;
    against a peer that never restarts they degrade into a structured
    [crashed: <peer>] denial (see {!Negotiation.classify_denial}).

    With {!config}[.journal] set, each peer also keeps a write-ahead
    journal ({!Persist.Journal}) of its durable facts — learned
    certificates, [peer says] facts, completed table answers, and the
    root goals it has accepted.  The journal survives the crash (it
    stands in for a synced disk); at restart it is replayed — learning
    is idempotent, so replay never double-counts a certificate — and
    journalled root goals with no [Done] record are re-launched
    ([reactor.recovered_goals]).  Journals are compacted once enough
    roots settle.  [Journal_off] (the default) keeps crash-free
    transcripts byte-identical to the pre-journal reactor. *)

open Peertrust_dlp

type t

type journal_mode =
  | Journal_off  (** no journal: a crash loses everything volatile *)
  | Journal_memory
      (** per-peer journals held by the reactor — the simulated stand-in
          for a synced local disk; survives crashes within one reactor *)
  | Journal_dir of string
      (** per-peer journal files under the directory (created on
          demand); existing journals are replayed at {!create}, so a
          restarted {e process} resumes where it crashed *)

type config = {
  rto : int;
      (** initial retransmission timeout in simulated ticks of causal
          time (doubles per retry): on a healthy link at latency 1 a
          sub-query with one counter-query is answered within 4.  Timers
          are armed only under an active fault plan. *)
  retry_limit : int;  (** retransmissions per sub-query before giving up *)
  cache : Answer_cache.t option;
      (** answer cache consulted before a sub-query is posted (and before
          its retransmission timer is armed) and filled when an answer is
          delivered off the wire.  [Some (Answer_cache.create ())] gives
          per-reactor caching; passing the {e same} cache value to several
          reactors (even over rebuilt sessions) gives the shared
          cross-session mode.  [None] (the default) disables caching and
          keeps fault-free transcripts byte-identical to the pre-cache
          engine. *)
  tabling : bool;
      (** evaluate goals through the distributed {!Tabling} engine: one
          table per goal skeleton at its owning peer, monotone answer
          pushes, and GEM-style SCC completion at quiescence — so
          mutually recursive cross-peer policies terminate with their
          complete answer sets instead of being force-denied as cycles.
          Off by default: tabling-off transcripts are byte-identical to
          the plain reactor. *)
  journal : journal_mode;
      (** write-ahead journalling of durable per-peer state (learned
          certificates, says-facts, completed table answers, accepted
          root goals) replayed at restart after a scheduled crash.
          [Journal_off] by default. *)
}

val default_config : config
(** [{ rto = 8; retry_limit = 3; cache = None; tabling = false;
    journal = Journal_off }] — under an active fault plan a sub-query is
    retransmitted after 8, 16 and 32 unanswered ticks and abandoned as
    timed out 64 ticks after the last retransmission (8 + 16 + 32 + 64
    ticks of causal time after it was first asked); caching, tabling and
    journalling are opt-in. *)

val create : ?config:config -> Session.t -> t
(** A reactor over the session's peers; create it after all peers are
    added.  @raise Invalid_argument on [rto < 1] or a negative
    [retry_limit]. *)

type request

val submit :
  ?deadline:int ->
  t ->
  requester:string ->
  target:string ->
  Literal.t ->
  request
(** Enqueue a top-level negotiation; nothing runs until {!run}/{!step}.
    [deadline] is an absolute simulated tick: a request still unsettled
    when it passes is denied as [deadline expired] and its outstanding
    sub-queries are withdrawn with [Cancel] messages so counterparties
    drop the parked work.  @raise Invalid_argument on a negative
    [deadline]. *)

val step : t -> bool
(** Process the first item of the reactor's one agenda — the earliest
    scheduled crash/restart/deadline, delivery or retransmission timer —
    after advancing the session clock to its tick; at one tick scheduled
    events come first, in insertion order, then deliveries in post
    order, then timers.  [false] when it is empty. *)

val run : ?max_steps:int -> t -> int
(** Process events until quiescence (or [max_steps], default 100_000);
    unresolved requests are then denied as quiescent.  Returns the number
    of events processed. *)

val result : t -> request -> Negotiation.outcome option
(** [None] while the request is still unresolved. *)

val settled_at : t -> request -> int option
(** The tick at which the request's outcome settled; [None] while it is
    unresolved. *)

val outcome : t -> request -> Negotiation.outcome
(** Like {!result}, but an unresolved request reports
    [Denied "negotiation quiescent"]. *)

val parked_count : t -> int
(** Goals currently parked across all peers (for tests/monitoring). *)

val pending_timers : t -> int
(** Outstanding retransmission timers (for tests/monitoring). *)

val guard : t -> Guard.t
(** The guard instance judging this reactor's inbound traffic (built
    from [Session.config.guard]); inspect it after a run for breaker
    states and quarantined peers. *)

val dedup_evictions : t -> int
(** Ids forgotten by this reactor's bounded dedup set. *)

val tabling_summary : t -> (string * string * int * string) list
(** [(peer, goal key, answer count, status)] for every distributed
    table, sorted — empty unless {!config}[.tabling] is set.  The chaos
    suite compares this signature between fault-free and fault-injected
    runs. *)

val add_adversary :
  ?targets:string list -> t -> Peertrust_net.Adversary.t -> unit
(** Register a misbehaving peer on the session network and queue its
    opening burst against [targets] (default: all session peers). *)

val negotiate :
  ?config:config ->
  ?max_steps:int ->
  ?adversaries:Peertrust_net.Adversary.t list ->
  Session.t ->
  requester:string ->
  target:string ->
  Literal.t ->
  Negotiation.report
(** One negotiation: create a reactor, submit the goal, run to
    quiescence and wrap the outcome in a measured {!Negotiation.report}
    whose [elapsed] ends at the tick the outcome settled.
    The entry point of every relevant-strategy negotiation ({!Strategy},
    {!Broker}, {!Chain}, {!Token}, {!Qel}, the CLI). *)
