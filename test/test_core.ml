(* Tests for the PeerTrust core: release policies, peers, the distributed
   engine, negotiations (both paper scenarios and failure variants),
   strategies, delegation, chain discovery and certified proofs. *)

open Peertrust
open Peertrust_dlp
module Crypto = Peertrust_crypto
module Net = Peertrust_net

let lit = Parser.parse_literal

let granted = function Negotiation.Granted _ -> true | Negotiation.Denied _ -> false

(* One relevant-strategy negotiation from a goal text. *)
let request_str session ~requester ~target goal =
  Reactor.negotiate session ~requester ~target (lit goal)

(* The instances a negotiation grants; [] on a denial. *)
let query session ~requester ~target goal =
  let r = Reactor.negotiate session ~requester ~target goal in
  match r.Negotiation.outcome with
  | Negotiation.Granted instances -> instances
  | Negotiation.Denied _ -> []

(* A prover over a bare KB, no remote dispatch — for Policy unit tests. *)
let local_prover kb : Policy.prover =
 fun ~requester goals ->
  match
    Sld.solve ~bindings:[ ("Requester", Term.str requester) ] ~self:"me" kb
      goals
  with
  | [] -> None
  | a :: _ -> Some a

(* ------------------------------------------------------------------ *)
(* Policy *)

let test_policy_default_private () =
  let prover = local_prover Kb.empty in
  (match Policy.releasable ~prover ~requester:"other" ~self:"me" None with
  | Policy.Denied _ -> ()
  | Policy.Granted -> Alcotest.fail "default must be private");
  match Policy.releasable ~prover ~requester:"me" ~self:"me" None with
  | Policy.Granted -> ()
  | Policy.Denied _ -> Alcotest.fail "self access must be granted"

let test_policy_public () =
  let prover = local_prover Kb.empty in
  match Policy.releasable ~prover ~requester:"anyone" ~self:"me" (Some []) with
  | Policy.Granted -> ()
  | Policy.Denied _ -> Alcotest.fail "true context is public"

let test_policy_guarded () =
  let kb = Kb.of_string {|friend("ann").|} in
  let prover = local_prover kb in
  let ctx = [ lit "friend(Requester)" ] in
  (match Policy.releasable ~prover ~requester:"ann" ~self:"me" (Some ctx) with
  | Policy.Granted -> ()
  | Policy.Denied _ -> Alcotest.fail "ann is a friend");
  match Policy.releasable ~prover ~requester:"bob" ~self:"me" (Some ctx) with
  | Policy.Denied _ -> ()
  | Policy.Granted -> Alcotest.fail "bob is not a friend"

let test_policy_credential_release () =
  let kb =
    Kb.of_string
      {|badge("me") @ "CA" signedBy ["CA"].
        badge(X) @ Y $ friend(Requester) <-{true} badge(X) @ Y.
        friend("ann").|}
  in
  let prover = local_prover kb in
  let cred = Parser.parse_rule {|badge("me") @ "CA" signedBy ["CA"].|} in
  (match
     Policy.credential_releasable ~prover ~kb ~requester:"ann" ~self:"me" cred
   with
  | Policy.Granted -> ()
  | Policy.Denied r -> Alcotest.failf "ann should get the badge: %s" r);
  match
    Policy.credential_releasable ~prover ~kb ~requester:"eve" ~self:"me" cred
  with
  | Policy.Denied _ -> ()
  | Policy.Granted -> Alcotest.fail "eve should not get the badge"

let test_policy_credential_no_release_rule () =
  let kb = Kb.of_string {|secret("me") @ "CA" signedBy ["CA"].|} in
  let prover = local_prover kb in
  let cred = Parser.parse_rule {|secret("me") @ "CA" signedBy ["CA"].|} in
  match
    Policy.credential_releasable ~prover ~kb ~requester:"ann" ~self:"me" cred
  with
  | Policy.Denied "no release rule covers credential" -> ()
  | Policy.Denied r -> Alcotest.failf "unexpected reason: %s" r
  | Policy.Granted -> Alcotest.fail "uncovered credential must stay private"

let test_policy_credential_self_true_fact () =
  (* A signed fact carrying `$ true` is releasable through itself. *)
  let kb = Kb.of_string {|member("me") @ "ELENA" $ true signedBy ["ELENA"].|} in
  let prover = local_prover kb in
  let cred =
    Parser.parse_rule {|member("me") @ "ELENA" $ true signedBy ["ELENA"].|}
  in
  match
    Policy.credential_releasable ~prover ~kb ~requester:"x" ~self:"me" cred
  with
  | Policy.Granted -> ()
  | Policy.Denied r -> Alcotest.failf "self-covering $ true failed: %s" r

(* ------------------------------------------------------------------ *)
(* Peer *)

let test_peer_goal_key_alpha_invariant () =
  Alcotest.(check string) "alpha-equivalent goals share a key"
    (Peer.goal_key (lit "p(X, Y) @ Z"))
    (Peer.goal_key (lit "p(A, B) @ C"))

let test_peer_cert_store () =
  let session = Session.create () in
  let p =
    Session.add_peer session ~program:{|badge("p") @ "CA" signedBy ["CA"].|} "p"
  in
  let rule = Parser.parse_rule {|badge("p") @ "CA" signedBy ["CA"].|} in
  match Peer.cert_for p rule with
  | Some cert ->
      Alcotest.(check bool) "cert verifies" true
        (Crypto.Cert.verify session.Session.keystore cert = Ok ());
      Alcotest.(check bool) "own cert has no origin" true
        (Peer.cert_origin p cert = None)
  | None -> Alcotest.fail "setup should issue certificates"

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let two_peer_session ?(config = Session.default_config) owner_prog requester_prog =
  let session = Session.create ~config () in
  let _owner = Session.add_peer session ~program:owner_prog "owner" in
  let _req = Session.add_peer session ~program:requester_prog "req" in
  session

let test_engine_private_fact_denied () =
  let session = two_peer_session {|secret(42).|} "" in
  let r = request_str session ~requester:"req" ~target:"owner" "secret(X)" in
  Alcotest.(check bool) "denied" false (granted r.Negotiation.outcome);
  Alcotest.(check int) "one round trip" 2 r.Negotiation.messages

let test_engine_public_fact_granted () =
  let session = two_peer_session {|info(42) $ true.|} "" in
  let r = request_str session ~requester:"req" ~target:"owner" "info(X)" in
  match r.Negotiation.outcome with
  | Negotiation.Granted [ (l, None) ] ->
      Alcotest.(check string) "instance" "info(42)" (Literal.to_string l)
  | _ -> Alcotest.fail "expected one instance"

let test_engine_release_rule_gate () =
  let owner =
    {|resource("r") $ Requester = "req" <-{true} haveIt("r"). haveIt("r").|}
  in
  let session = two_peer_session owner "" in
  let ok =
    request_str session ~requester:"req" ~target:"owner"
      {|resource("r")|}
  in
  Alcotest.(check bool) "named requester granted" true
    (granted ok.Negotiation.outcome);
  let session2 = two_peer_session owner "" in
  let other = Session.add_peer session2 "mallory" in
  ignore other;
  let no =
    request_str session2 ~requester:"mallory" ~target:"owner"
      {|resource("r")|}
  in
  Alcotest.(check bool) "other requester denied" false
    (granted no.Negotiation.outcome)

let test_engine_private_rule_usable_internally () =
  (* A private helper rule participates in the proof of a public head. *)
  let owner =
    {|visible(X) $ true <- helper(X).
      helper(X) <- base(X).
      base(7).|}
  in
  let session = two_peer_session owner "" in
  let r =
    request_str session ~requester:"req" ~target:"owner" "visible(X)"
  in
  Alcotest.(check bool) "granted through private helper" true
    (granted r.Negotiation.outcome);
  (* But the helper itself is not directly answerable. *)
  let r2 =
    request_str session ~requester:"req" ~target:"owner" "helper(X)"
  in
  Alcotest.(check bool) "helper denied" false (granted r2.Negotiation.outcome)

let test_engine_credential_source () =
  (* A signed credential answers a decorated goal when a release rule with
     an undecorated head covers it (the visaCard pattern). *)
  let owner =
    {|card("owner") signedBy ["VISA"].
      card(X) $ true <-{true} card(X).|}
  in
  let session = two_peer_session owner "" in
  let r =
    request_str session ~requester:"req" ~target:"owner"
      {|card(X) @ "VISA"|}
  in
  (match r.Negotiation.outcome with
  | Negotiation.Granted ((l, _) :: _) ->
      Alcotest.(check string) "instance carries authority"
        {|card("owner") @ "VISA"|} (Literal.to_string l)
  | _ -> Alcotest.fail "expected the credential answer");
  Alcotest.(check int) "credential disclosed" 1 r.Negotiation.disclosures

let test_engine_signed_rule_with_guard_body () =
  (* authorized("Bob", Price) <- signedBy["IBM"] Price < 2000 *)
  let owner =
    {|authorized("owner", Price) @ "IBM" <- signedBy ["IBM"] Price < 2000.
      authorized(X, P) @ Y $ true <-{true} authorized(X, P) @ Y.|}
  in
  let session = two_peer_session owner "" in
  let ok =
    request_str session ~requester:"req" ~target:"owner"
      {|authorized("owner", 1500) @ "IBM"|}
  in
  Alcotest.(check bool) "under limit granted" true (granted ok.Negotiation.outcome);
  let no =
    request_str session ~requester:"req" ~target:"owner"
      {|authorized("owner", 2500) @ "IBM"|}
  in
  Alcotest.(check bool) "over limit denied" false (granted no.Negotiation.outcome)

let test_engine_counter_query () =
  (* owner releases the resource only to peers that prove cred @ CA. *)
  let owner =
    {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
      haveIt("r").
      cred(X) @ "CA" <- cred(X) @ "CA" @ X.|}
  in
  let requester = {|cred("req") @ "CA" $ true signedBy ["CA"].|} in
  let session = two_peer_session owner requester in
  let r =
    request_str session ~requester:"req" ~target:"owner"
      {|resource("r")|}
  in
  Alcotest.(check bool) "granted after counter-query" true
    (granted r.Negotiation.outcome);
  Alcotest.(check bool) "counter-query happened" true (r.Negotiation.messages >= 4);
  Alcotest.(check int) "one credential disclosed" 1 r.Negotiation.disclosures

let test_engine_cycle_terminates () =
  (* Two mutually dependent release policies: no safe sequence exists; the
     negotiation must terminate with a denial rather than loop. *)
  let owner =
    {|a("o") $ b(Requester) @ "CA" <-{true} a("o").
      a("o") @ "CA" signedBy ["CA"].
      b(X) @ "CA" <- b(X) @ "CA" @ X.|}
  in
  let requester =
    {|b("req") $ a(Requester) @ "CA" <-{true} b("req").
      b("req") @ "CA" signedBy ["CA"].
      a(X) @ "CA" <- a(X) @ "CA" @ X.|}
  in
  let session = two_peer_session owner requester in
  let r =
    request_str session ~requester:"req" ~target:"owner" {|a("o")|}
  in
  Alcotest.(check bool) "denied, not diverging" false (granted r.Negotiation.outcome)

let test_engine_unreachable_peer () =
  let owner =
    {|resource("r") $ cred(Requester) @ "CA" @ Requester <-{true} haveIt("r").
      haveIt("r").|}
  in
  let session = two_peer_session owner "" in
  Net.Network.set_down session.Session.network "req" true;
  let report =
    Reactor.negotiate session ~requester:"req" ~target:"owner"
      (lit {|resource("r")|})
  in
  Alcotest.(check bool) "denied when requester unreachable for counter-query"
    false (granted report.Negotiation.outcome)

let test_engine_max_answers () =
  let config = { Session.default_config with Session.max_answers = 2 } in
  let owner = {|item(1) $ true. item(2) $ true. item(3) $ true.|} in
  let session = two_peer_session ~config owner "" in
  let r = request_str session ~requester:"req" ~target:"owner" "item(X)" in
  match r.Negotiation.outcome with
  | Negotiation.Granted instances ->
      Alcotest.(check int) "capped at two" 2 (List.length instances)
  | Negotiation.Denied _ -> Alcotest.fail "expected answers"

let test_engine_rejects_forged_certs () =
  let session = two_peer_session "" "" in
  let owner = Session.peer session "owner" in
  (* A certificate whose rule was swapped after signing. *)
  let genuine = Parser.parse_rule {|ok("x") @ "CA" signedBy ["CA"].|} in
  let forged_rule = Parser.parse_rule {|ok("evil") @ "CA" signedBy ["CA"].|} in
  match Crypto.Cert.issue session.Session.keystore genuine with
  | Error _ -> Alcotest.fail "issue failed"
  | Ok cert ->
      let forged = { cert with Crypto.Cert.rule = forged_rule } in
      Engine.learn session owner [ forged ];
      Alcotest.(check bool) "forged rule not learned" false
        (Kb.mem forged_rule owner.Peer.kb);
      Engine.learn session owner [ cert ];
      Alcotest.(check bool) "genuine rule learned" true
        (Kb.mem genuine owner.Peer.kb)

let test_engine_verification_ablation () =
  (* With verify_signatures off, even a forged certificate is accepted —
     the ablation knob of experiment E7. *)
  let config = { Session.default_config with Session.verify_signatures = false } in
  let session = Session.create ~config () in
  let owner = Session.add_peer session "owner" in
  let genuine = Parser.parse_rule {|ok("x") @ "CA" signedBy ["CA"].|} in
  let forged_rule = Parser.parse_rule {|ok("evil") @ "CA" signedBy ["CA"].|} in
  (match Crypto.Cert.issue session.Session.keystore genuine with
  | Error _ -> Alcotest.fail "issue failed"
  | Ok cert ->
      let forged = { cert with Crypto.Cert.rule = forged_rule } in
      Engine.learn session owner [ forged ];
      Alcotest.(check bool) "forged accepted without verification" true
        (Kb.mem forged_rule owner.Peer.kb))

let test_engine_instance_caching () =
  (* Second identical negotiation answers from cache with fewer messages. *)
  let owner =
    {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
      haveIt("r").
      cred(X) @ "CA" <- cred(X) @ "CA" @ X.|}
  in
  let requester = {|cred("req") @ "CA" $ true signedBy ["CA"].|} in
  let session = two_peer_session owner requester in
  let r1 =
    request_str session ~requester:"req" ~target:"owner" {|resource("r")|}
  in
  let r2 =
    request_str session ~requester:"req" ~target:"owner" {|resource("r")|}
  in
  Alcotest.(check bool) "both granted" true
    (granted r1.Negotiation.outcome && granted r2.Negotiation.outcome);
  Alcotest.(check bool) "cache cuts messages" true
    (r2.Negotiation.messages < r1.Negotiation.messages)

let test_engine_message_budget () =
  (* A tight message budget turns into a denial, not an exception. *)
  let config = Session.default_config in
  let session = Session.create ~config ~max_messages:3 () in
  ignore
    (Session.add_peer session
       ~program:
         {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
           haveIt("r").
           cred(X) @ "CA" <- cred(X) @ "CA" @ X.|}
       "owner");
  ignore
    (Session.add_peer session
       ~program:{|cred("req") @ "CA" $ true signedBy ["CA"].|}
       "req");
  let r =
    request_str session ~requester:"req" ~target:"owner"
      {|resource("r")|}
  in
  (match r.Negotiation.outcome with
  | Negotiation.Denied reason ->
      Alcotest.(check string) "reason" "message budget exhausted" reason
  | Negotiation.Granted _ -> Alcotest.fail "should hit the budget");
  Alcotest.(check bool) "stopped at the budget" true (r.Negotiation.messages <= 3)

(* ------------------------------------------------------------------ *)
(* Scenario 1 (§4.1) *)

let test_scenario1_success () =
  let s = Scenario.scenario1 () in
  let r =
    request_str s.Scenario.s1_session ~requester:s.Scenario.s1_alice
      ~target:s.Scenario.s1_elearn {|discountEnroll(spanish101, "Alice")|}
  in
  Alcotest.(check bool) "granted" true (granted r.Negotiation.outcome);
  Alcotest.(check int) "six messages" 6 r.Negotiation.messages;
  Alcotest.(check int) "three credentials disclosed" 3 r.Negotiation.disclosures

let test_scenario1_transcript_shape () =
  let s = Scenario.scenario1 () in
  let r =
    request_str s.Scenario.s1_session ~requester:"Alice"
      ~target:"E-Learn" {|discountEnroll(spanish101, "Alice")|}
  in
  let summaries =
    List.map (fun e -> (e.Net.Network.from, e.Net.Network.target)) r.Negotiation.transcript
  in
  (* Alice asks E-Learn; E-Learn counter-asks for the student ID; Alice
     counter-asks for BBB membership; answers flow back in reverse. *)
  Alcotest.(check (list (pair string string))) "message flow"
    [
      ("Alice", "E-Learn");
      ("E-Learn", "Alice");
      ("Alice", "E-Learn");
      ("E-Learn", "Alice");
      ("Alice", "E-Learn");
      ("E-Learn", "Alice");
    ]
    summaries

let test_scenario1_report_past_full_ring () =
  (* The transcript ring holds 10 000 entries: once earlier traffic has
     filled it, a negotiation's report must still carry its own
     entries and disclosures. *)
  let s = Scenario.scenario1 () in
  let net = s.Scenario.s1_session.Session.network in
  for _ = 1 to 10_000 do
    ignore
      (Net.Network.post net ~from:"Alice" ~target:"UIUC" (Net.Message.Raw "x"))
  done;
  let r =
    request_str s.Scenario.s1_session ~requester:"Alice" ~target:"E-Learn"
      {|discountEnroll(spanish101, "Alice")|}
  in
  Alcotest.(check bool) "granted" true (granted r.Negotiation.outcome);
  Alcotest.(check int) "six messages" 6 r.Negotiation.messages;
  Alcotest.(check int) "six transcript entries" 6
    (List.length r.Negotiation.transcript);
  Alcotest.(check int) "three credentials disclosed" 3 r.Negotiation.disclosures

let test_scenario1_elearn_cannot_query_uiuc () =
  let s = Scenario.scenario1 () in
  let r =
    request_str s.Scenario.s1_session ~requester:"E-Learn"
      ~target:"UIUC" {|student("Alice")|}
  in
  Alcotest.(check bool) "UIUC refuses E-Learn" false (granted r.Negotiation.outcome)

let test_scenario1_impostor_denied () =
  (* Mallory has no student credential: the discount is refused. *)
  let s = Scenario.scenario1 () in
  let session = s.Scenario.s1_session in
  ignore (Session.add_peer session "Mallory");
  let r =
    request_str session ~requester:"Mallory" ~target:"E-Learn"
      {|discountEnroll(spanish101, "Mallory")|}
  in
  Alcotest.(check bool) "denied" false (granted r.Negotiation.outcome)

let test_scenario1_wrong_party_denied () =
  (* Alice asking for a discount in Mallory's name fails the
     Requester = Party release check. *)
  let s = Scenario.scenario1 () in
  let r =
    request_str s.Scenario.s1_session ~requester:"Alice"
      ~target:"E-Learn" {|discountEnroll(spanish101, "Mallory")|}
  in
  Alcotest.(check bool) "denied" false (granted r.Negotiation.outcome)

let test_scenario1_no_badge_no_deal () =
  (* An E-Learn that cannot prove BBB membership never sees the student
     credential, so the negotiation fails.  Same world as scenario 1,
     minus E-Learn's BBB credential. *)
  let session = Session.create () in
  let elearn_program =
    {|
      discountEnroll(Course, Party) $ Requester = Party <-
        discountEnroll(Course, Party).
      discountEnroll(Course, Party) <- eligibleForDiscount(Party, Course).
      eligibleForDiscount(X, Course) <- course(Course), preferred(X) @ "ELENA".
      preferred(X) @ "ELENA" <- signedBy ["ELENA"] student(X) @ "UIUC".
      student(X) @ University <- student(X) @ University @ X.
      course(spanish101).
    |}
  in
  let alice_program =
    {|
      student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"].
      student(X) @ "UIUC" <-{true} signedBy ["UIUC"] student(X) @ "UIUC Registrar".
      student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-{true}
        student(X) @ Y.
    |}
  in
  ignore (Session.add_peer session ~program:elearn_program "E-Learn");
  ignore (Session.add_peer session ~program:alice_program "Alice");
  let r =
    request_str session ~requester:"Alice" ~target:"E-Learn"
      {|discountEnroll(spanish101, "Alice")|}
  in
  Alcotest.(check bool) "denied without BBB proof" false
    (granted r.Negotiation.outcome)

(* ------------------------------------------------------------------ *)
(* Scenario 2 (§4.2) *)

let test_scenario2_free_course () =
  let s = Scenario.scenario2 () in
  let r =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|enroll(cs101, "Bob", "IBM", Email, 0)|}
  in
  match r.Negotiation.outcome with
  | Negotiation.Granted ((l, _) :: _) ->
      Alcotest.(check string) "email flowed back into the enrolment"
        {|enroll(cs101, "Bob", "IBM", "bob@ibm.com", 0)|}
        (Literal.to_string l)
  | _ -> Alcotest.fail "free enrolment should be granted"

let test_scenario2_paid_course () =
  let s = Scenario.scenario2 () in
  let r =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|enroll(cs411, "Bob", "IBM", Email, Price)|}
  in
  Alcotest.(check bool) "granted" true (granted r.Negotiation.outcome)

let test_scenario2_over_authorization_denied () =
  (* cs500 costs 3000 > Bob's 2000 authorization limit. *)
  let s = Scenario.scenario2 () in
  let r =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|enroll(cs500, "Bob", "IBM", Email, Price)|}
  in
  Alcotest.(check bool) "denied" false (granted r.Negotiation.outcome)

let test_scenario2_credit_limit () =
  (* With a 500 VISA limit, even the 1000 course is refused at approval. *)
  let s = Scenario.scenario2 ~visa_limit:500 () in
  let r =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|enroll(cs411, "Bob", "IBM", Email, Price)|}
  in
  Alcotest.(check bool) "denied by VISA approval" false
    (granted r.Negotiation.outcome)

let test_scenario2_visa_down () =
  let s = Scenario.scenario2 () in
  Net.Network.set_down s.Scenario.s2_session.Session.network "VISA" true;
  let paid =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|enroll(cs411, "Bob", "IBM", Email, Price)|}
  in
  Alcotest.(check bool) "paid denied without VISA" false
    (granted paid.Negotiation.outcome);
  let free =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|enroll(cs101, "Bob", "IBM", Email, 0)|}
  in
  Alcotest.(check bool) "free still granted" true (granted free.Negotiation.outcome)

let test_scenario2_policy_protection () =
  (* freebieEligible is private business information: asking for it
     directly is denied, and its text never appears in any message. *)
  let s = Scenario.scenario2 () in
  let r =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|freebieEligible(cs101, "Bob", "IBM", Email)|}
  in
  Alcotest.(check bool) "policy is protected" false (granted r.Negotiation.outcome);
  let free =
    request_str s.Scenario.s2_session ~requester:"Bob"
      ~target:"E-Learn" {|enroll(cs101, "Bob", "IBM", Email, 0)|}
  in
  Alcotest.(check bool) "but the service works" true
    (granted free.Negotiation.outcome);
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m > 0 && go 0
  in
  List.iter
    (fun e ->
      Alcotest.(check bool) "no freebieEligible text on the wire" false
        (contains_sub e.Net.Network.summary "freebieEligible"))
    free.Negotiation.transcript

let test_scenario2_stranger_cannot_get_bobs_card () =
  (* A peer that is neither a VISA merchant nor an ELENA member cannot see
     Bob's card. *)
  let s = Scenario.scenario2 () in
  ignore (Session.add_peer s.Scenario.s2_session "Eve");
  let r =
    request_str s.Scenario.s2_session ~requester:"Eve"
      ~target:"Bob" {|visaCard("IBM") @ "VISA"|}
  in
  Alcotest.(check bool) "card stays private" false (granted r.Negotiation.outcome)

let test_scenario2_merchant_gets_bobs_card () =
  let s = Scenario.scenario2 () in
  let r =
    request_str s.Scenario.s2_session ~requester:"E-Learn"
      ~target:"Bob" {|visaCard("IBM") @ "VISA"|}
  in
  Alcotest.(check bool) "policy27 satisfied by E-Learn" true
    (granted r.Negotiation.outcome)

(* ------------------------------------------------------------------ *)
(* Strategies *)

let test_strategies_all_succeed_on_chain () =
  List.iter
    (fun strategy ->
      let w = Scenario.policy_chain ~depth:3 () in
      let r =
        Strategy.negotiate w.Scenario.cw_session ~strategy
          ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
          w.Scenario.cw_goal
      in
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ " succeeds")
        true (granted r.Negotiation.outcome))
    Strategy.all

let test_strategies_all_fail_when_impossible () =
  (* Break the chain: the requester lacks cred1 entirely. *)
  List.iter
    (fun strategy ->
      let session = Session.create () in
      let owner =
        {|resource(X) $ cred1(Requester) @ "CA" <-{true} haveResource(X).
          haveResource("r1").
          cred1(X) @ "CA" <- cred1(X) @ "CA" @ X.|}
      in
      ignore (Session.add_peer session ~program:owner "bob");
      ignore (Session.add_peer session "alice");
      let r =
        Strategy.negotiate session ~strategy ~requester:"alice" ~target:"bob"
          (lit {|resource("r1")|})
      in
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ " fails")
        false
        (granted r.Negotiation.outcome))
    Strategy.all

let test_eager_overdiscloses () =
  let run strategy =
    let w = Scenario.policy_chain ~depth:2 ~extra_creds:3 () in
    Strategy.negotiate w.Scenario.cw_session ~strategy
      ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
      w.Scenario.cw_goal
  in
  let eager = run Strategy.Eager in
  let relevant = run Strategy.Relevant in
  Alcotest.(check bool) "both succeed" true
    (granted eager.Negotiation.outcome && granted relevant.Negotiation.outcome);
  Alcotest.(check bool) "eager disclosed strictly more" true
    (eager.Negotiation.disclosures > relevant.Negotiation.disclosures)

let test_eager_fewer_query_messages_deep_chain () =
  (* On deep chains the relevant strategy pays a query per hop in each
     direction; eager pays disclosure rounds instead. *)
  let run strategy =
    let w = Scenario.policy_chain ~depth:6 () in
    Strategy.negotiate w.Scenario.cw_session ~strategy
      ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
      w.Scenario.cw_goal
  in
  let eager = run Strategy.Eager in
  let relevant = run Strategy.Relevant in
  Alcotest.(check bool) "both succeed" true
    (granted eager.Negotiation.outcome && granted relevant.Negotiation.outcome);
  Alcotest.(check bool) "eager uses at least as many disclosures" true
    (eager.Negotiation.disclosures >= relevant.Negotiation.disclosures)

let test_push_relevant_fewer_messages () =
  let run strategy =
    let w = Scenario.fanout ~width:4 () in
    Strategy.negotiate w.Scenario.cw_session ~strategy
      ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
      w.Scenario.cw_goal
  in
  let push = run Strategy.Push_relevant in
  let relevant = run Strategy.Relevant in
  Alcotest.(check bool) "both succeed" true
    (granted push.Negotiation.outcome && granted relevant.Negotiation.outcome);
  Alcotest.(check bool) "push needs fewer messages" true
    (push.Negotiation.messages < relevant.Negotiation.messages)

(* ------------------------------------------------------------------ *)
(* Chain discovery *)

let test_chain_discovery_linear () =
  let session, root, _last =
    Chain.linear_world ~depth:4 ~pred:"member" ~subject:"sam" ()
  in
  ignore (Session.add_peer session "client");
  let result =
    Chain.discover session ~requester:"client" ~root (lit {|member("sam")|})
  in
  Alcotest.(check bool) "found" true result.Chain.found;
  (* depth delegation certificates + the final membership fact *)
  Alcotest.(check int) "whole chain collected" 5 (List.length result.Chain.chain)

let test_chain_discovery_broken () =
  let session, root, last =
    Chain.linear_world ~depth:3 ~pred:"member" ~subject:"sam" ()
  in
  ignore (Session.add_peer session "client");
  Net.Network.set_down session.Session.network last true;
  let result =
    Chain.discover session ~requester:"client" ~root (lit {|member("sam")|})
  in
  Alcotest.(check bool) "broken chain not found" false result.Chain.found

let test_chain_discovery_wrong_subject () =
  let session, root, _ =
    Chain.linear_world ~depth:2 ~pred:"member" ~subject:"sam" ()
  in
  ignore (Session.add_peer session "client");
  let result =
    Chain.discover session ~requester:"client" ~root (lit {|member("eve")|})
  in
  Alcotest.(check bool) "no chain for eve" false result.Chain.found

(* ------------------------------------------------------------------ *)
(* Delegation *)

let test_delegation_rule_shape () =
  let r =
    Delegation.delegation_rule ~issuer:"UIUC" ~delegate:"Registrar"
      ~pred:"student" ~arity:1 ()
  in
  Alcotest.(check string) "printed form"
    {|student(X1) @ "UIUC" <-{true} student(X1) @ "Registrar" signedBy ["UIUC"].|}
    (Rule.to_string r)

let test_delegation_grant_and_use () =
  let session = Session.create () in
  let holder = Session.add_peer session "holder" in
  let rule =
    Delegation.delegation_rule ~issuer:"Root" ~delegate:"Deputy" ~pred:"ok"
      ~arity:1 ()
  in
  let cert = Delegation.grant session ~holder rule in
  Alcotest.(check bool) "cert verifies" true
    (Crypto.Cert.verify session.Session.keystore cert = Ok ());
  Peer.add_rule holder
    (Parser.parse_rule {|ok("holder") @ "Deputy" signedBy ["Deputy"].|});
  Alcotest.(check bool) "delegation closes the chain" true
    (Sld.provable ~self:"holder" holder.Peer.kb
       (Parser.parse_query {|ok("holder") @ "Root"|}))

let test_delegation_unsigned_rejected () =
  let session = Session.create () in
  let holder = Session.add_peer session "holder" in
  Alcotest.check_raises "unsigned rule rejected"
    (Invalid_argument "Delegation.grant: rule is unsigned") (fun () ->
      ignore (Delegation.grant session ~holder (Parser.parse_rule "p(1).")))

let test_delegation_chain_extraction () =
  let session = Session.create () in
  let p = Session.add_peer session "p" in
  Peer.load_program p
    {|student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "Registrar".
      student("p") @ "Registrar" signedBy ["Registrar"].|};
  match Sld.solve ~self:"p" p.Peer.kb (Parser.parse_query {|student("p") @ "UIUC"|}) with
  | { Sld.proofs = [ trace ]; _ } :: _ ->
      let chain = Delegation.chain_of_trace ~pred:"student" trace in
      Alcotest.(check int) "two links" 2 (List.length chain);
      Alcotest.(check bool) "rooted at UIUC" true
        (Delegation.chain_rooted ~root:"UIUC" ~pred:"student" trace)
  | _ -> Alcotest.fail "proof expected"

(* ------------------------------------------------------------------ *)
(* Certified proofs *)

let proof_fixture () =
  let session = Session.create () in
  let p =
    Session.add_peer session
      ~program:
        {|eligible(X) <- student(X) @ "UIUC".
          student("p") @ "UIUC" signedBy ["UIUC"].|}
      "p"
  in
  let goal = lit {|eligible("p")|} in
  match Sld.solve ~self:"p" p.Peer.kb [ goal ] with
  | { Sld.proofs = [ trace ]; _ } :: _ ->
      (session, Proof.create session ~prover:"p" ~goal trace)
  | _ -> Alcotest.fail "local proof expected"

let test_proof_verify_ok () =
  let session, proof = proof_fixture () in
  match Proof.verify session proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verification failed: %a" Proof.pp_error e

let test_proof_tampered_goal () =
  let session, proof = proof_fixture () in
  let tampered = { proof with Proof.goal = lit {|eligible("mallory")|} } in
  match Proof.verify session tampered with
  | Error Proof.Bad_package_signature -> ()
  | Ok () -> Alcotest.fail "tampered proof accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Proof.pp_error e

let test_proof_missing_cert () =
  let session, proof = proof_fixture () in
  (* Rebuild the package without certificates but with a fresh prover
     signature, so only the certificate check can fail. *)
  let stripped =
    let msg_proof = { proof with Proof.certs = [] } in
    let kp = Crypto.Keystore.keypair session.Session.keystore "p" in
    let payload_hack =
      (* Re-sign the stripped package through Proof.create's signing path:
         build a package manually. *)
      ignore kp;
      msg_proof
    in
    payload_hack
  in
  match Proof.verify session stripped with
  | Error (Proof.Missing_certificate _) | Error Proof.Bad_package_signature -> ()
  | Ok () -> Alcotest.fail "certificate-less proof accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Proof.pp_error e

let test_proof_unsound_step () =
  let session = Session.create () in
  ignore (Session.add_peer session "p");
  (* Hand-build a trace claiming q(1) follows from a rule deriving p(1). *)
  let bogus_rule = Parser.parse_rule "p(1) <- r(2)." in
  let sub = Trace.Apply (Parser.parse_rule "r(3).", []) in
  let trace = Trace.Apply (bogus_rule, [ sub ]) in
  let proof = Proof.create session ~prover:"p" ~goal:(lit "p(1)") trace in
  match Proof.verify session proof with
  | Error (Proof.Unsound_step _) -> ()
  | Ok () -> Alcotest.fail "unsound proof accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Proof.pp_error e

let test_proof_goal_mismatch () =
  let session = Session.create () in
  ignore (Session.add_peer session "p");
  let trace = Trace.Apply (Parser.parse_rule "p(1).", []) in
  let proof = Proof.create session ~prover:"p" ~goal:(lit "q(9)") trace in
  match Proof.verify session proof with
  | Error Proof.Goal_mismatch -> ()
  | Ok () -> Alcotest.fail "mismatched proof accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Proof.pp_error e

let test_proof_redaction () =
  let releasable (r : Rule.t) = Rule.is_signed r in
  let private_rule = Parser.parse_rule "helper(1) <- base(1)." in
  let signed_rule = Parser.parse_rule {|cred(1) signedBy ["CA"].|} in
  let top_rule =
    let r = Parser.parse_rule {|top(1) <- helper(1), cred(1).|} in
    { r with Rule.signer = [ "CA" ] }
  in
  let trace =
    Trace.Apply
      ( top_rule,
        [
          Trace.Apply
            (private_rule, [ Trace.Apply (Parser.parse_rule "base(1).", []) ]);
          Trace.Apply (signed_rule, []);
        ] )
  in
  let redacted = Proof.redact ~releasable ~self:"me" trace in
  match redacted with
  | Trace.Apply (_, [ Trace.Remote { peer = "me"; proof = None; _ }; Trace.Apply _ ]) ->
      ()
  | _ -> Alcotest.fail "private subtree should be opaque"

(* ------------------------------------------------------------------ *)
(* Grid scenario *)

let test_grid_submission () =
  let g = Scenario.grid () in
  let submit q cores =
    request_str g.Scenario.g_session ~requester:g.Scenario.g_user
      ~target:g.Scenario.g_cluster
      (Printf.sprintf {|submit(%s, "ada", %d)|} q cores)
  in
  Alcotest.(check bool) "batch job within cores" true
    (granted (submit "batch" 256).Negotiation.outcome);
  Alcotest.(check bool) "debug queue too small" false
    (granted (submit "debug" 64).Negotiation.outcome);
  Alcotest.(check bool) "debug job within cores" true
    (granted (submit "debug" 8).Negotiation.outcome)

let test_grid_delegated_membership () =
  (* The VO membership proof carries the delegation from the VO to its
     registration service. *)
  let g = Scenario.grid () in
  let r =
    request_str g.Scenario.g_session ~requester:g.Scenario.g_user
      ~target:g.Scenario.g_cluster {|submit(batch, "ada", 1)|}
  in
  Alcotest.(check bool) "granted" true (granted r.Negotiation.outcome);
  Alcotest.(check int) "three credentials: grid cert, delegation, membership"
    3 r.Negotiation.disclosures

let test_grid_marketplace_goals_all_run () =
  let mp = Scenario.marketplace ~providers:2 ~learners:3 ~courses_per_provider:2 () in
  Alcotest.(check int) "one goal per learner-provider pair" 6
    (List.length mp.Scenario.mp_goals);
  List.iter
    (fun (learner, provider, goal) ->
      let r =
        Reactor.negotiate mp.Scenario.mp_session ~requester:learner
          ~target:provider goal
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s at %s" learner provider)
        true
        (granted r.Negotiation.outcome))
    mp.Scenario.mp_goals

(* ------------------------------------------------------------------ *)
(* Proof attachment (attach_proofs session mode) *)

let test_attach_proofs_mode () =
  let config = { Session.default_config with Session.attach_proofs = true } in
  let session = Session.create ~config () in
  ignore
    (Session.add_peer session
       ~program:
         {|eligible(X) $ true <- badge(X) @ "CA".
           badge("req") @ "CA" signedBy ["CA"].|}
       "owner");
  ignore (Session.add_peer session "req");
  match query session ~requester:"req" ~target:"owner" (lit {|eligible("req")|}) with
  | [ (_, Some trace) ] ->
      (* The attached proof uses the owner's signed badge credential. *)
      let creds = Trace.credentials trace in
      Alcotest.(check int) "credential in proof" 1 (List.length creds);
      Alcotest.(check bool) "proof concludes the goal" true
        (match Proof.conclusion trace with
        | Some l -> String.equal l.Literal.pred "eligible"
        | None -> false)
  | [ (_, None) ] -> Alcotest.fail "proof should be attached"
  | _ -> Alcotest.fail "one instance expected"

let test_attach_proofs_off_by_default () =
  let session = two_peer_session {|info(1) $ true.|} "" in
  match query session ~requester:"req" ~target:"owner" (lit "info(X)") with
  | [ (_, None) ] -> ()
  | [ (_, Some _) ] -> Alcotest.fail "no proof expected by default"
  | _ -> Alcotest.fail "one instance expected"

(* ------------------------------------------------------------------ *)
(* Parametric worlds *)

let test_policy_chain_message_growth () =
  let messages depth =
    let w = Scenario.policy_chain ~depth () in
    let r =
      Reactor.negotiate w.Scenario.cw_session ~requester:w.Scenario.cw_requester
        ~target:w.Scenario.cw_owner w.Scenario.cw_goal
    in
    Alcotest.(check bool)
      (Printf.sprintf "depth %d granted" depth)
      true (granted r.Negotiation.outcome);
    r.Negotiation.messages
  in
  let m2 = messages 2 and m4 = messages 4 and m8 = messages 8 in
  Alcotest.(check bool) "messages grow with depth" true (m2 < m4 && m4 < m8)

let test_fanout_message_growth () =
  let messages width =
    let w = Scenario.fanout ~width () in
    let r =
      Reactor.negotiate w.Scenario.cw_session ~requester:w.Scenario.cw_requester
        ~target:w.Scenario.cw_owner w.Scenario.cw_goal
    in
    Alcotest.(check bool)
      (Printf.sprintf "width %d granted" width)
      true (granted r.Negotiation.outcome);
    r.Negotiation.messages
  in
  let m1 = messages 1 and m4 = messages 4 and m8 = messages 8 in
  Alcotest.(check bool) "messages grow with width" true (m1 < m4 && m4 < m8)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "policy",
        [
          tc "default private" test_policy_default_private;
          tc "true is public" test_policy_public;
          tc "guarded" test_policy_guarded;
          tc "credential via release rule" test_policy_credential_release;
          tc "credential without release rule" test_policy_credential_no_release_rule;
          tc "self-covering $ true fact" test_policy_credential_self_true_fact;
        ] );
      ( "peer",
        [
          tc "goal key alpha-invariance" test_peer_goal_key_alpha_invariant;
          tc "certificate store" test_peer_cert_store;
        ] );
      ( "engine",
        [
          tc "private fact denied" test_engine_private_fact_denied;
          tc "public fact granted" test_engine_public_fact_granted;
          tc "release rule gate" test_engine_release_rule_gate;
          tc "private rules usable internally" test_engine_private_rule_usable_internally;
          tc "credential answers decorated goal" test_engine_credential_source;
          tc "signed rule with guard body" test_engine_signed_rule_with_guard_body;
          tc "counter-query" test_engine_counter_query;
          tc "policy cycle terminates" test_engine_cycle_terminates;
          tc "unreachable counter-party" test_engine_unreachable_peer;
          tc "max answers" test_engine_max_answers;
          tc "forged certs rejected" test_engine_rejects_forged_certs;
          tc "verification ablation" test_engine_verification_ablation;
          tc "instance caching" test_engine_instance_caching;
          tc "message budget" test_engine_message_budget;
        ] );
      ( "scenario1",
        [
          tc "success" test_scenario1_success;
          tc "transcript shape" test_scenario1_transcript_shape;
          tc "report past a full transcript ring"
            test_scenario1_report_past_full_ring;
          tc "UIUC refuses E-Learn" test_scenario1_elearn_cannot_query_uiuc;
          tc "impostor denied" test_scenario1_impostor_denied;
          tc "wrong party denied" test_scenario1_wrong_party_denied;
          tc "no BBB proof, no student ID" test_scenario1_no_badge_no_deal;
        ] );
      ( "scenario2",
        [
          tc "free course" test_scenario2_free_course;
          tc "paid course" test_scenario2_paid_course;
          tc "over authorization limit" test_scenario2_over_authorization_denied;
          tc "credit limit" test_scenario2_credit_limit;
          tc "VISA down" test_scenario2_visa_down;
          tc "policy protection" test_scenario2_policy_protection;
          tc "stranger denied the card" test_scenario2_stranger_cannot_get_bobs_card;
          tc "merchant gets the card" test_scenario2_merchant_gets_bobs_card;
        ] );
      ( "strategy",
        [
          tc "all succeed on chain" test_strategies_all_succeed_on_chain;
          tc "all fail when impossible" test_strategies_all_fail_when_impossible;
          tc "eager over-disclosure" test_eager_overdiscloses;
          tc "deep chain comparison" test_eager_fewer_query_messages_deep_chain;
          tc "push saves messages" test_push_relevant_fewer_messages;
        ] );
      ( "chain",
        [
          tc "linear discovery" test_chain_discovery_linear;
          tc "broken chain" test_chain_discovery_broken;
          tc "wrong subject" test_chain_discovery_wrong_subject;
        ] );
      ( "delegation",
        [
          tc "rule shape" test_delegation_rule_shape;
          tc "grant and use" test_delegation_grant_and_use;
          tc "unsigned rejected" test_delegation_unsigned_rejected;
          tc "chain extraction" test_delegation_chain_extraction;
        ] );
      ( "proof",
        [
          tc "verify ok" test_proof_verify_ok;
          tc "tampered goal" test_proof_tampered_goal;
          tc "missing certificate" test_proof_missing_cert;
          tc "unsound step" test_proof_unsound_step;
          tc "goal mismatch" test_proof_goal_mismatch;
          tc "redaction" test_proof_redaction;
        ] );
      ( "grid and marketplace",
        [
          tc "job submission" test_grid_submission;
          tc "delegated membership" test_grid_delegated_membership;
          tc "marketplace goals" test_grid_marketplace_goals_all_run;
        ] );
      ( "proof attachment",
        [
          tc "attached when enabled" test_attach_proofs_mode;
          tc "absent by default" test_attach_proofs_off_by_default;
        ] );
      ( "worlds",
        [
          tc "policy chain growth" test_policy_chain_message_growth;
          tc "fanout growth" test_fanout_message_growth;
        ] );
    ]
