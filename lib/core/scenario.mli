(** Ready-made negotiation worlds: the paper's two scenarios (§4.1, §4.2)
    and the parametric workloads used by the benchmark harness.

    Deviations from the paper's listings (documented in DESIGN.md §4):
    cached public certificates carry an explicit [$ true] guard, and a few
    literals the paper leaves implicitly releasable (Bob's email, E-Learn's
    enroll results) get explicit [$] guards — under the paper's stated
    default (private) the scenarios would not terminate successfully. *)

type scenario1 = {
  s1_session : Session.t;
  s1_alice : string;
  s1_elearn : string;
  s1_uiuc : string;
}

val scenario1 : ?config:Session.config -> ?key_bits:int -> unit -> scenario1
(** Alice & E-Learn: discounted enrolment for UIUC students (via ELENA's
    preferred-customer rule), with the registrar delegation and Alice's
    BBB-membership release policy. *)

val scenario1_goal : unit -> Peertrust_dlp.Literal.t
(** The headline §4.1 goal: [discountEnroll(spanish101, "Alice")]. *)

type scenario2 = {
  s2_session : Session.t;
  s2_bob : string;
  s2_elearn : string;
  s2_visa : string;
  s2_accounts : Externals.Accounts.t;
      (** the VISA peer's account table (pred [approve]); revoking or
          re-limiting the ["IBM"] account changes what
          [purchaseApproved] admits — and fires the table's watchers
          (see {!Externals.Accounts.subscribe},
          {!Answer_cache.watch_accounts}) *)
}

val scenario2 :
  ?config:Session.config -> ?key_bits:int -> ?visa_limit:int -> unit ->
  scenario2
(** Signing up for learning services: free courses for employees of ELENA
    members, pay-per-use courses against a company VISA card protected by
    policy27, and the purchase-approval external call to the VISA peer
    (default credit limit 5000). *)

val scenario2_goal_free : unit -> Peertrust_dlp.Literal.t
(** The §4.2 free-course goal: [enroll(cs101, "Bob", "IBM", Email, 0)]. *)

val scenario2_goal_paid : unit -> Peertrust_dlp.Literal.t
(** The §4.2 pay-per-use goal:
    [enroll(cs411, "Bob", "IBM", Email, Price)]. *)

type chain_world = {
  cw_session : Session.t;
  cw_requester : string;  (** peer that requests the resource *)
  cw_owner : string;  (** peer that owns the resource *)
  cw_goal : Peertrust_dlp.Literal.t;
}

val policy_chain :
  ?config:Session.config -> ?extra_creds:int -> ?missing:int -> depth:int ->
  unit -> chain_world
(** Bilateral alternating policy chain of length [depth]: the resource
    needs [cred1] from the requester, releasing [cred1] needs [cred2] from
    the owner, and so on; [cred<depth>] is public.  [extra_creds] adds that
    many unrelated public credentials to each side (disclosed by the eager
    strategy but not by the relevant one).  [missing] (1..depth) omits that
    credential, making the negotiation unsatisfiable. *)

val fanout :
  ?config:Session.config -> width:int -> unit -> chain_world
(** The resource requires [width] independent public credentials from the
    requester. *)

type grid = {
  g_session : Session.t;
  g_user : string;  (** the researcher *)
  g_cluster : string;  (** the compute resource *)
}

val grid : ?config:Session.config -> unit -> grid
(** The grid scenario the paper points to (Basney et al., SemPGRID'04):
    a cluster admits jobs from virtual-organisation members (membership
    delegated to a registration service); the researcher releases her VO
    credential only to resources certified by the Grid CA; RDF metadata
    describes the cluster's queues.  Goals look like
    [submit(batch, "ada", 256)]. *)

type recursion_world = {
  rw_session : Session.t;
  rw_requester : string;  (** the client peer submitting the request *)
  rw_target : string;  (** the peer owning the top-level goal *)
  rw_goal : Peertrust_dlp.Literal.t;
  rw_expected : Peertrust_dlp.Literal.t list;
      (** the complete answer set a terminating evaluation must produce *)
  rw_peers : string list;  (** the policy-bearing peers, [rw_requester]
                               excluded *)
}

val mutual_accreditation :
  ?config:Session.config -> ?n:int -> unit -> recursion_world
(** A mutual-accreditation web: [n] (>= 2, default 2) peers in a ring
    where each accepts whatever the next accredits
    ([accredited(X) <- accredited(X) @ next]) and [peer0] holds one base
    fact.  Without tabling the reactor force-denies it as a cycle at
    quiescence; under {!Reactor.config}[.tabling] every table
    completes with exactly [rw_expected].  With [n = 2] this is the
    "A accredits B iff B accredits A" policy pair. *)

val federation :
  ?config:Session.config -> ?clusters:int -> ?size:int -> unit ->
  recursion_world
(** Chained accreditation federations: [clusters] rings of [size] peers;
    each cluster's entry peer holds that federation's member fact and
    accepts accreditations from the next cluster downstream.  Cyclic
    within a cluster, acyclic between clusters — the SCCs must complete
    in dependency order, last cluster first, so [rw_expected] (all
    [clusters] member facts) reaches the front entry peer. *)

type marketplace = {
  mp_session : Session.t;
  mp_learners : string list;
  mp_providers : string list;
  mp_goals : (string * string * Peertrust_dlp.Literal.t) list;
      (** (learner, provider, enrolment goal) work items *)
}

val marketplace :
  ?config:Session.config ->
  ?seed:int64 ->
  providers:int ->
  learners:int ->
  courses_per_provider:int ->
  unit ->
  marketplace
(** A deterministic ELENA-style marketplace: [providers] course providers
    (each with a registry of priced courses, public metadata, and an
    enrolment policy demanding a student credential), and [learners]
    (each with a student credential released only to accredited
    providers).  [mp_goals] enrols every learner in one randomly chosen
    course per provider. *)
