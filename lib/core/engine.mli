(** The local evaluation core: answers a query from another peer under
    release policies, and verifies and learns credentials.  The
    {!Reactor} runs it for every delivered query and turns the remote
    calls it collects into sub-queries.

    Answering a query [G] from requester [R] (the paper's run-time
    semantics, §3.2, specialised to backward chaining):

    + consider the rules whose head matches [G] {e and} that carry a [$]
      head context — the release policies.  A rule without a head context
      is private: usable inside local proofs, never to answer an outsider;
    + for each such rule, prove the built-in part of the context, then the
      body (local SLD, remote calls along [@] authority chains going to
      [remote]), then the remaining context literals with [Requester = R]
      — this last step is what issues counter-queries back to [R] and
      makes the negotiation bilateral and iterative;
    + attach the certificates for the signed rules used by the proof,
      filtered by their own release policies (never one [R] sent);
    + the requester verifies every received certificate before its rule
      enters the knowledge base. *)

open Peertrust_dlp

type instance = Literal.t * Trace.t option

val answer :
  ?remote:Sld.remote ->
  Session.t ->
  Peer.t ->
  requester:string ->
  Literal.t ->
  (instance list * Peertrust_crypto.Cert.t list, string) result
(** Compute the releasable answer to a query.  [Error reason] when
    nothing is releasable.  [remote] (default: no remote calls) receives
    the calls to other peers — the {!Reactor} passes a collector that
    records them as blocked sub-goals. *)

val evaluate :
  ?remote:Sld.remote ->
  ?solutions:int ->
  ?requester:string ->
  Peer.t ->
  Literal.t list ->
  Sld.answer list
(** Local evaluation (release policies {e not} enforced — this is the
    peer reasoning over its own knowledge); [remote] as in {!answer}. *)

val prover : ?remote:Sld.remote -> Peer.t -> Policy.prover
(** The context prover backed by {!evaluate}. *)

val releasable_certs :
  Peer.t -> requester:string -> Peertrust_crypto.Cert.t list
(** All held certificates whose release policy grants disclosure to
    [requester] using local knowledge only (the eager strategy's
    per-round disclosure set). *)

val learn :
  ?from_:string -> Session.t -> Peer.t -> Peertrust_crypto.Cert.t list -> unit
(** Verify certificates (when the session demands it) and add the valid
    ones to the peer's KB and certificate store, recording their origin. *)
