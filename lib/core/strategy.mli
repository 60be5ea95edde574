(** Negotiation strategies (after Yu, Winslett & Seamons [21]; §5 of the
    paper notes "similar concepts will be needed in PeerTrust").

    All three strategies are {e complete} for the same safe-disclosure
    relation — if any safe sequence of disclosures unlocks the resource,
    each strategy finds one — but they differ in how much they disclose
    and how many messages they need:

    - {!Relevant} (parsimonious): pure backward chaining on the
      {!Reactor}; discloses only credentials pulled by a counter-query
      chain.
    - {!Eager}: parties alternate, each pushing every credential whose
      release policy is unlocked by what it has received so far; no
      queries other than the goal check, which each round makes against
      the target's local knowledge.  More disclosures, fewer rounds.
    - {!Push_relevant}: backward chaining, but the requester first pushes
      the credentials it can already release to the target (useful when
      the requester knows the target's policy shape — the paper's
      "employees know to push the appropriate credentials").

    A push is one Disclosure message; an eager round's goal check is one
    query and its answer or denial. *)

open Peertrust_dlp

type t = Relevant | Eager | Push_relevant

val all : t list
val to_string : t -> string

val negotiate :
  Session.t ->
  strategy:t ->
  requester:string ->
  target:string ->
  Literal.t ->
  Negotiation.report

val negotiate_str :
  Session.t ->
  strategy:t ->
  requester:string ->
  target:string ->
  string ->
  Negotiation.report

val eager_rounds_limit : int
(** Safety bound on eager alternation rounds (default 64). *)

val negotiate_multi :
  Session.t ->
  participants:string list ->
  requester:string ->
  target:string ->
  Literal.t ->
  Negotiation.report
(** The n-party extension of the eager strategy (§6 names this as future
    work: strategies "designed for negotiations that involve exactly two
    peers" extended "to work with the n peers that may take part in a
    negotiation").  All [participants] (which must include [requester] and
    [target]) take turns; in each round every peer pushes its newly
    unlocked credentials to every other participant, then the requester
    re-checks the goal at the target.  Completeness argument as in the
    2-party case: the disclosed set grows monotonically, so the rounds
    reach a fixpoint, and any credential unlockable by a safe sequence is
    eventually unlocked. *)
