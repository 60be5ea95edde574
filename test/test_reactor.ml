(* Tests for the queued (asynchronous) negotiation engine, the one
   negotiation runtime: the paper scenarios at the message costs of
   depth-first recursion, outcomes against the static analysis oracle,
   interleaved concurrent negotiations, quiescence on deadlock, failure
   modes, and one negotiation count per entry point. *)

open Peertrust
open Peertrust_dlp
module Net = Peertrust_net
module Pobs = Peertrust_obs

let lit = Parser.parse_literal

let granted = function
  | Negotiation.Granted _ -> true
  | Negotiation.Denied _ -> false

let run_reactor session ~requester ~target goal =
  let reactor = Reactor.create session in
  let id = Reactor.submit reactor ~requester ~target goal in
  ignore (Reactor.run reactor);
  Reactor.outcome reactor id

(* ------------------------------------------------------------------ *)

let test_reactor_public_fact () =
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|info(42) $ true.|} "owner");
  ignore (Session.add_peer session "req");
  match run_reactor session ~requester:"req" ~target:"owner" (lit "info(X)") with
  | Negotiation.Granted [ (l, _) ] ->
      Alcotest.(check string) "instance" "info(42)" (Literal.to_string l)
  | _ -> Alcotest.fail "expected one instance"

let test_reactor_private_fact_denied () =
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|secret(1).|} "owner");
  ignore (Session.add_peer session "req");
  Alcotest.(check bool) "denied" false
    (granted (run_reactor session ~requester:"req" ~target:"owner" (lit "secret(X)")))

let test_reactor_counter_query () =
  let session = Session.create () in
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
  Alcotest.(check bool) "granted after queued counter-query" true
    (granted
       (run_reactor session ~requester:"req" ~target:"owner"
          (lit {|resource("r")|})))

let test_reactor_scenario1 () =
  let s = Scenario.scenario1 () in
  let outcome =
    run_reactor s.Scenario.s1_session ~requester:"Alice" ~target:"E-Learn"
      (lit {|discountEnroll(spanish101, "Alice")|})
  in
  Alcotest.(check bool) "scenario 1 granted via the queue" true (granted outcome)

let test_reactor_scenario2_free () =
  let s = Scenario.scenario2 () in
  let outcome =
    run_reactor s.Scenario.s2_session ~requester:"Bob" ~target:"E-Learn"
      (lit {|enroll(cs101, "Bob", "IBM", Email, 0)|})
  in
  Alcotest.(check bool) "scenario 2 free course granted" true (granted outcome)

let test_reactor_matches_analysis_on_chains () =
  (* The runtime's outcome on policy chains, complete and missing each
     credential in turn, is what the static analysis predicts. *)
  List.iter
    (fun depth ->
      List.iter
        (fun missing ->
          let w = Scenario.policy_chain ~depth ?missing () in
          let predicted =
            Analysis.may_succeed
              (Analysis.world_of_session w.Scenario.cw_session)
              ~owner:"bob" ~goal:w.Scenario.cw_goal
          in
          let actual =
            granted
              (run_reactor w.Scenario.cw_session ~requester:"alice"
                 ~target:"bob" w.Scenario.cw_goal)
          in
          Alcotest.(check bool)
            (Printf.sprintf "depth %d missing %s agree" depth
               (match missing with Some k -> string_of_int k | None -> "-"))
            predicted actual)
        (None :: List.init depth (fun k -> Some (k + 1))))
    [ 1; 2; 4 ]

let test_reactor_recursion_costs () =
  (* Waiting on one remote call at a time costs what depth-first
     recursion did on every granted world: one counter-query round trip
     per policy level. *)
  let chain ?missing depth =
    let w = Scenario.policy_chain ?missing ~depth () in
    Reactor.negotiate w.Scenario.cw_session ~requester:"alice" ~target:"bob"
      w.Scenario.cw_goal
  in
  List.iter2
    (fun depth msgs ->
      let r = chain depth in
      Alcotest.(check bool) "granted" true (Negotiation.succeeded r);
      Alcotest.(check int)
        (Printf.sprintf "depth %d messages" depth)
        msgs r.Negotiation.messages)
    [ 1; 2; 4; 8; 16 ] [ 4; 6; 10; 18; 34 ];
  (* A depth-8 chain missing credential k is denied after 2k + 2
     messages (4 for k = 1); recursion re-explored every level below the
     gap and paid 4, 10, 28, ..., 6562. *)
  List.iter2
    (fun k recursion ->
      let r = chain ~missing:k 8 in
      Alcotest.(check bool) "denied" false (Negotiation.succeeded r);
      Alcotest.(check int)
        (Printf.sprintf "missing %d messages" k)
        (max 4 ((2 * k) + 2))
        r.Negotiation.messages;
      Alcotest.(check bool)
        (Printf.sprintf "missing %d no dearer than recursion" k)
        true
        (r.Negotiation.messages <= recursion))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    [ 4; 10; 28; 82; 244; 730; 2188; 6562 ];
  let s1 = Scenario.scenario1 () in
  let r =
    Reactor.negotiate s1.Scenario.s1_session ~requester:"Alice"
      ~target:"E-Learn" (Scenario.scenario1_goal ())
  in
  Alcotest.(check (list int)) "4.1 messages, bytes, disclosures" [ 6; 677; 3 ]
    [ r.Negotiation.messages; r.Negotiation.bytes; r.Negotiation.disclosures ];
  let s2 = Scenario.scenario2 () in
  let enroll goal =
    let r =
      Reactor.negotiate s2.Scenario.s2_session ~requester:"Bob"
        ~target:"E-Learn" goal
    in
    r.Negotiation.messages
  in
  Alcotest.(check int) "4.2 free course" 8
    (enroll (Scenario.scenario2_goal_free ()));
  Alcotest.(check int) "4.2 paid course" 10
    (enroll (Scenario.scenario2_goal_paid ()))

let test_reactor_concurrent_negotiations () =
  (* Several negotiations interleave over one queue; all resolve. *)
  let w = Scenario.fanout ~width:3 () in
  let session = w.Scenario.cw_session in
  let reactor = Reactor.create session in
  let r1 =
    Reactor.submit reactor ~requester:"alice" ~target:"bob" w.Scenario.cw_goal
  in
  (* A second, failing negotiation in the same world. *)
  let r2 =
    Reactor.submit reactor ~requester:"alice" ~target:"bob"
      (lit {|resource("does-not-exist")|})
  in
  (* And a sub-resource request directly for one credential of alice. *)
  let r3 =
    Reactor.submit reactor ~requester:"bob" ~target:"alice"
      (lit {|need1("alice") @ "CA"|})
  in
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "main negotiation granted" true
    (granted (Reactor.outcome reactor r1));
  Alcotest.(check bool) "bogus resource denied" false
    (granted (Reactor.outcome reactor r2));
  Alcotest.(check bool) "credential request granted" true
    (granted (Reactor.outcome reactor r3));
  Alcotest.(check int) "nothing left parked" 0 (Reactor.parked_count reactor)

let test_reactor_marketplace_concurrent () =
  (* All marketplace goals submitted at once over one queue. *)
  let mp =
    Scenario.marketplace ~providers:2 ~learners:3 ~courses_per_provider:2 ()
  in
  let reactor = Reactor.create mp.Scenario.mp_session in
  let requests =
    List.map
      (fun (learner, provider, goal) ->
        Reactor.submit reactor ~requester:learner ~target:provider goal)
      mp.Scenario.mp_goals
  in
  ignore (Reactor.run reactor);
  List.iter
    (fun id ->
      Alcotest.(check bool) "granted" true
        (granted (Reactor.outcome reactor id)))
    requests;
  Alcotest.(check int) "no parked leftovers" 0 (Reactor.parked_count reactor)

let test_reactor_disclosure_message () =
  (* A pushed disclosure wakes parked goals. *)
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
           haveIt("r").|}
       "owner");
  ignore (Session.add_peer session "alice");
  let reactor = Reactor.create session in
  let id =
    Reactor.submit reactor ~requester:"alice" ~target:"owner"
      (lit {|resource("r")|})
  in
  ignore (Reactor.run reactor);
  (* Denied: alice has no credential and no redirect path exists. *)
  Alcotest.(check bool) "denied without credential" false
    (granted (Reactor.outcome reactor id))

let test_reactor_deadlock_quiesces () =
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|a("o") $ b(Requester) @ "CA" <-{true} a("o").
           a("o") @ "CA" signedBy ["CA"].
           b(X) @ "CA" <- b(X) @ "CA" @ X.|}
       "owner");
  ignore
    (Session.add_peer session
       ~program:
         {|b("req") $ a(Requester) @ "CA" <-{true} b("req").
           b("req") @ "CA" signedBy ["CA"].
           a(X) @ "CA" <- a(X) @ "CA" @ X.|}
       "req");
  let reactor = Reactor.create session in
  let id = Reactor.submit reactor ~requester:"req" ~target:"owner" (lit {|a("o")|}) in
  let steps = Reactor.run reactor in
  Alcotest.(check bool) "terminates" true (steps < 1000);
  Alcotest.(check bool) "denied" false (granted (Reactor.outcome reactor id));
  Alcotest.(check int) "no goals left parked" 0 (Reactor.parked_count reactor)

let test_reactor_unreachable_target () =
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|info(1) $ true.|} "owner");
  ignore (Session.add_peer session "req");
  Net.Network.set_down session.Session.network "owner" true;
  match run_reactor session ~requester:"req" ~target:"owner" (lit "info(X)") with
  | Negotiation.Denied reason ->
      Alcotest.(check string) "structured reason" "unreachable: owner" reason;
      Alcotest.(check bool) "classified as transport denial" true
        (Negotiation.transport_denial reason)
  | Negotiation.Granted _ -> Alcotest.fail "down peer cannot grant"

(* The owner releases resource("r") to a requester who shows its CA
   credential, which it counter-queries the requester for. *)
let owner_program =
  {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
    haveIt("r").
    cred(X) @ "CA" <- cred(X) @ "CA" @ X.|}

let counter_query_world ?max_messages () =
  let session = Session.create ?max_messages () in
  ignore (Session.add_peer session ~program:owner_program "owner");
  ignore
    (Session.add_peer session
       ~program:{|cred("req") @ "CA" $ true signedBy ["CA"].|}
       "req");
  session

let test_reactor_down_mid_negotiation () =
  (* The owner goes down after sending its counter-query: the requester's
     answer can no longer be delivered.  The reactor must count and trace
     the dropped reply (not lose it silently), and the negotiation must
     still terminate in a denial rather than hang. *)
  Pobs.Obs.reset_metrics ();
  let session = counter_query_world () in
  let reactor = Reactor.create session in
  let id =
    Reactor.submit reactor ~requester:"req" ~target:"owner"
      (lit {|resource("r")|})
  in
  (* Deliver the top-level query; the owner parks it and counter-queries. *)
  Alcotest.(check bool) "first event processed" true (Reactor.step reactor);
  Net.Network.set_down session.Session.network "owner" true;
  let steps = Reactor.run reactor in
  Alcotest.(check bool) "terminates" true (steps < 1000);
  Alcotest.(check bool) "denied" false (granted (Reactor.outcome reactor id));
  Alcotest.(check int) "nothing left parked" 0 (Reactor.parked_count reactor);
  let snapshot = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "dropped reply counted" true
    (Pobs.Registry.counter_value snapshot "reactor.drops" > 0)

let test_reactor_duplicate_answers_idempotent () =
  (* Every delivery duplicated: the duplicate Answer dispatch must be
     deduplicated and the outcome must match the fault-free run. *)
  Pobs.Obs.reset_metrics ();
  let session = counter_query_world () in
  Net.Network.set_faults session.Session.network
    (Net.Faults.create ~duplicate:1.0 ~seed:11L ());
  Alcotest.(check bool) "granted despite duplication" true
    (granted
       (run_reactor session ~requester:"req" ~target:"owner"
          (lit {|resource("r")|})));
  let snapshot = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "duplicates deduplicated on dispatch" true
    (Pobs.Registry.counter_value snapshot "reactor.dup_deliveries" > 0)

let test_reactor_budget_denies_all_parked () =
  (* Two top-level goals are parked when the budget trips; both must be
     settled with the structured budget denial, not left unresolved. *)
  let session = counter_query_world ~max_messages:3 () in
  let reactor = Reactor.create session in
  let r1 =
    Reactor.submit reactor ~requester:"req" ~target:"owner"
      (lit {|resource("r")|})
  in
  let r2 =
    Reactor.submit reactor ~requester:"req" ~target:"owner"
      (lit {|resource("r")|})
  in
  ignore (Reactor.run reactor);
  List.iter
    (fun id ->
      match Reactor.outcome reactor id with
      | Negotiation.Denied reason ->
          Alcotest.(check string) "budget reason" "message budget exhausted"
            reason;
          Alcotest.(check bool) "classified as budget" true
            (Negotiation.transport_denial reason)
      | Negotiation.Granted _ -> Alcotest.fail "should hit the budget")
    [ r1; r2 ]

let test_reactor_negotiate_convenience () =
  let session = counter_query_world () in
  let report =
    Reactor.negotiate session ~requester:"req" ~target:"owner"
      (lit {|resource("r")|})
  in
  Alcotest.(check bool) "granted" true
    (granted report.Negotiation.outcome);
  Alcotest.(check bool) "messages measured" true
    (report.Negotiation.messages > 0)

let test_reactor_message_budget () =
  let session = Session.create ~max_messages:2 () in
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
  let reactor = Reactor.create session in
  let id =
    Reactor.submit reactor ~requester:"req" ~target:"owner" (lit {|resource("r")|})
  in
  ignore (Reactor.run reactor);
  match Reactor.outcome reactor id with
  | Negotiation.Denied "message budget exhausted" -> ()
  | Negotiation.Denied r -> Alcotest.failf "unexpected denial: %s" r
  | Negotiation.Granted _ -> Alcotest.fail "should hit the budget"

let test_reactor_result_before_run () =
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|info(1) $ true.|} "owner");
  ignore (Session.add_peer session "req");
  let reactor = Reactor.create session in
  let id = Reactor.submit reactor ~requester:"req" ~target:"owner" (lit "info(X)") in
  Alcotest.(check bool) "unresolved before run" true
    (Reactor.result reactor id = None);
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "resolved after run" true
    (Reactor.result reactor id <> None)

let test_reactor_chain_discovery () =
  (* Deep chains work through the queue as well. *)
  let session, root, _ =
    Chain.linear_world ~depth:6 ~pred:"member" ~subject:"sam" ()
  in
  ignore (Session.add_peer session "client");
  let outcome =
    run_reactor session ~requester:"client" ~target:root
      (lit {|member("sam")|})
  in
  Alcotest.(check bool) "chain resolves through the queue" true (granted outcome);
  let client = Session.peer session "client" in
  Alcotest.(check bool) "certificates relayed" true
    (Hashtbl.length client.Peer.certs >= 7)

(* ------------------------------------------------------------------ *)
(* Answer cache: unit behaviour (TTL, capacity, invalidation, watchers)
   and the reactor integration (warm cross-session runs). *)

let dummy_answer inst =
  { Answer_cache.instances = [ (lit inst, None) ]; certs = [] }

let find_some c ~now ~asker ~owner goal =
  Option.is_some (Answer_cache.find c ~now ~asker ~owner (lit goal))

let test_cache_ttl_expiry () =
  let c = Answer_cache.create ~ttl:10 () in
  Answer_cache.store c ~now:0 ~asker:"a" ~owner:"o" (lit "p(X)")
    (dummy_answer "p(1)");
  Alcotest.(check bool) "live before the deadline" true
    (find_some c ~now:9 ~asker:"a" ~owner:"o" "p(X)");
  Alcotest.(check bool) "expired at the deadline" false
    (find_some c ~now:10 ~asker:"a" ~owner:"o" "p(X)");
  Alcotest.(check int) "expiry counted as eviction" 1
    (Answer_cache.evictions c);
  Alcotest.(check int) "the live lookup is a hit" 1 (Answer_cache.hits c);
  Alcotest.(check int) "the expired lookup is a miss" 1
    (Answer_cache.misses c);
  Alcotest.(check int) "expired entry removed" 0 (Answer_cache.length c)

let test_cache_variant_keying () =
  let c = Answer_cache.create () in
  Answer_cache.store c ~now:0 ~asker:"a" ~owner:"o" (lit "p(X)")
    (dummy_answer "p(1)");
  Alcotest.(check bool) "alpha-variant goal hits" true
    (find_some c ~now:1 ~asker:"a" ~owner:"o" "p(Zz)");
  Alcotest.(check bool) "different asker misses" false
    (find_some c ~now:1 ~asker:"b" ~owner:"o" "p(X)");
  Alcotest.(check bool) "different owner misses" false
    (find_some c ~now:1 ~asker:"a" ~owner:"o2" "p(X)");
  Alcotest.(check bool) "more specific goal misses" false
    (find_some c ~now:1 ~asker:"a" ~owner:"o" "p(1)")

let test_cache_capacity_eviction () =
  let c = Answer_cache.create ~capacity:2 () in
  Answer_cache.store c ~now:0 ~asker:"a" ~owner:"o" (lit "p1(X)")
    (dummy_answer "p1(1)");
  Answer_cache.store c ~now:1 ~asker:"a" ~owner:"o" (lit "p2(X)")
    (dummy_answer "p2(1)");
  Answer_cache.store c ~now:2 ~asker:"a" ~owner:"o" (lit "p3(X)")
    (dummy_answer "p3(1)");
  Alcotest.(check int) "capacity bounds the table" 2 (Answer_cache.length c);
  Alcotest.(check int) "one eviction" 1 (Answer_cache.evictions c);
  Alcotest.(check bool) "oldest entry evicted" false
    (find_some c ~now:3 ~asker:"a" ~owner:"o" "p1(X)");
  Alcotest.(check bool) "newer entries survive" true
    (find_some c ~now:3 ~asker:"a" ~owner:"o" "p2(X)"
    && find_some c ~now:3 ~asker:"a" ~owner:"o" "p3(X)")

let test_cache_invalidation () =
  let c = Answer_cache.create () in
  Answer_cache.store c ~now:0 ~asker:"a" ~owner:"visa" (lit "ok(X)")
    (dummy_answer "ok(1)");
  Answer_cache.store c ~now:0 ~asker:"b" ~owner:"visa" (lit "ok(X)")
    (dummy_answer "ok(1)");
  Answer_cache.store c ~now:0 ~asker:"a" ~owner:"other" (lit "ok(X)")
    (dummy_answer "ok(1)");
  Alcotest.(check int) "goal invalidation hits every asker" 2
    (Answer_cache.invalidate_goal c ~owner:"visa" (lit "ok(Y)"));
  Alcotest.(check bool) "other owner untouched" true
    (find_some c ~now:1 ~asker:"a" ~owner:"other" "ok(X)");
  Alcotest.(check int) "owner invalidation sweeps the rest" 1
    (Answer_cache.invalidate_owner c "other");
  Alcotest.(check int) "invalidations counted" 3
    (Answer_cache.invalidations c);
  Alcotest.(check int) "cache empty" 0 (Answer_cache.length c)

let test_cache_watch_accounts () =
  (* Revoking the VISA account at the owning peer drops every cached
     answer that peer produced (scenario 2's revocation hook). *)
  let s = Scenario.scenario2 () in
  let c = Answer_cache.create () in
  Answer_cache.watch_accounts c ~owner:"VISA" s.Scenario.s2_accounts;
  Answer_cache.store c ~now:0 ~asker:"E-Learn" ~owner:"VISA"
    (lit {|purchaseApproved("IBM", X)|})
    (dummy_answer {|purchaseApproved("IBM", 1000)|});
  Answer_cache.store c ~now:0 ~asker:"a" ~owner:"elsewhere" (lit "q(X)")
    (dummy_answer "q(1)");
  Externals.Accounts.revoke s.Scenario.s2_accounts ~account:"IBM";
  Alcotest.(check bool) "VISA answers invalidated" false
    (find_some c ~now:1 ~asker:"E-Learn" ~owner:"VISA"
       {|purchaseApproved("IBM", X)|});
  Alcotest.(check bool) "unrelated owner untouched" true
    (find_some c ~now:1 ~asker:"a" ~owner:"elsewhere" "q(X)");
  Alcotest.(check bool) "invalidation counted" true
    (Answer_cache.invalidations c > 0)

let test_cache_watch_peer () =
  let session = Session.create () in
  let owner = Session.add_peer session ~program:{|f(1) $ true.|} "owner" in
  let c = Answer_cache.create () in
  Answer_cache.watch_peer c owner;
  Answer_cache.store c ~now:0 ~asker:"req" ~owner:"owner" (lit "f(X)")
    (dummy_answer "f(1)");
  (* Learning a fact mid-negotiation is monotone and must NOT flush. *)
  Peer.add_rule owner (Parser.parse_rule "g(2).");
  Alcotest.(check bool) "add_rule keeps cached answers" true
    (find_some c ~now:1 ~asker:"req" ~owner:"owner" "f(X)");
  (* Replacing the KB is a real update and must flush. *)
  Peer.load_program owner {|f(3) $ true.|};
  Alcotest.(check bool) "load_program invalidates" false
    (find_some c ~now:1 ~asker:"req" ~owner:"owner" "f(X)")

let test_cache_warm_cross_session () =
  (* Scenario 1 negotiated twice on fresh sessions sharing one cache:
     the warm run answers entirely out of the cache and posts nothing. *)
  let cache = Answer_cache.create () in
  let config = { Reactor.default_config with Reactor.cache = Some cache } in
  let run () =
    let s = Scenario.scenario1 () in
    let net = s.Scenario.s1_session.Session.network in
    let reactor = Reactor.create ~config s.Scenario.s1_session in
    let id =
      Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
        (Scenario.scenario1_goal ())
    in
    ignore (Reactor.run reactor);
    (granted (Reactor.outcome reactor id),
     Net.Stats.messages (Net.Network.stats net))
  in
  let ok_cold, posts_cold = run () in
  let ok_warm, posts_warm = run () in
  Alcotest.(check bool) "cold run granted" true ok_cold;
  Alcotest.(check bool) "warm run granted" true ok_warm;
  Alcotest.(check bool) "cold run used the wire" true (posts_cold > 0);
  Alcotest.(check int) "warm run posted nothing" 0 posts_warm;
  Alcotest.(check bool) "warm run hit the cache" true
    (Answer_cache.hits cache > 0)

(* ------------------------------------------------------------------ *)
(* Inbound guard: structural checks, admission control and the circuit
   breaker, driven directly with an explicit clock. *)

module Crypto = Peertrust_crypto

let guard_cfg =
  {
    Guard.defaults with
    Guard.rate = 3;
    rate_window = 8;
    quota = 100;
    quarantine_after = 2;
    violation_window = 64;
    quarantine_ticks = 10;
  }

let mk_guard () = Guard.create ~config:guard_cfg ~verify:(fun _ -> true) ()
let garbage = Net.Message.Raw "not a certificate"
let probe = Net.Message.Query { goal = lit "ping(1)" }
let empty_disclosure = Net.Message.Disclosure { certs = []; rules = [] }

let test_guard_breaker_transitions () =
  let g = mk_guard () in
  let admit ~now p = Guard.admit g ~now ~from:"mal" ~target:"owner" p in
  let breaker () = Guard.breaker_state g ~from:"mal" ~target:"owner" in
  (* Two violations inside the window trip the breaker... *)
  (match admit ~now:0 garbage with
  | Guard.Reject (Guard.Malformed _) -> ()
  | _ -> Alcotest.fail "garbage must be rejected");
  ignore (admit ~now:1 garbage);
  (match breaker () with
  | Guard.Open { until } -> Alcotest.(check int) "open until" 11 until
  | _ -> Alcotest.fail "breaker should be open");
  Alcotest.(check (list (pair string string))) "pair listed as quarantined"
    [ ("owner", "mal") ] (Guard.quarantined g);
  (* ...everything is rejected while it is open... *)
  (match admit ~now:5 empty_disclosure with
  | Guard.Reject Guard.Quarantined -> ()
  | _ -> Alcotest.fail "quarantine must reject even an empty disclosure");
  (* ...a served quarantine moves to half-open, and a clean payload
     during probation closes it again... *)
  (match admit ~now:11 empty_disclosure with
  | Guard.Admit -> ()
  | _ -> Alcotest.fail "probation should admit a clean payload");
  Alcotest.(check bool) "closed after recovery" true (breaker () = Guard.Closed);
  (* ...and a violation during probation re-opens immediately. *)
  ignore (admit ~now:20 garbage);
  ignore (admit ~now:21 garbage);
  (match admit ~now:31 garbage with
  | Guard.Reject (Guard.Malformed _) -> ()
  | _ -> Alcotest.fail "half-open garbage must be judged, not waved in");
  match breaker () with
  | Guard.Open { until } -> Alcotest.(check int) "re-opened until" 41 until
  | _ -> Alcotest.fail "half-open violation must re-open"

let test_guard_rate_limit () =
  let g = mk_guard () in
  let admit ~now = Guard.admit g ~now ~from:"req" ~target:"owner" probe in
  for i = 1 to 3 do
    match admit ~now:0 with
    | Guard.Admit -> ()
    | _ -> Alcotest.failf "query %d is within the rate" i
  done;
  (match admit ~now:0 with
  | Guard.Reject Guard.Flooding -> ()
  | _ -> Alcotest.fail "fourth same-tick query must be rate-limited");
  (* Outside the sliding window the rate recovers. *)
  match admit ~now:20 with
  | Guard.Admit -> ()
  | _ -> Alcotest.fail "rate must recover after the window"

let test_guard_quota () =
  let g = mk_guard () in
  let remaining () = Guard.remaining_work g ~from:"req" ~target:"owner" in
  Alcotest.(check int) "full quota" 100 (remaining ());
  Guard.charge_work g ~from:"req" ~target:"owner" 100;
  Alcotest.(check int) "quota spent" 0 (remaining ());
  match Guard.admit g ~now:0 ~from:"req" ~target:"owner" probe with
  | Guard.Reject Guard.Quota_exhausted -> ()
  | _ -> Alcotest.fail "query beyond the quota must be rejected"

let test_guard_solicitation () =
  let g = mk_guard () in
  let answer =
    Net.Message.Answer { goal = lit "p(1)"; instances = []; certs = [] }
  in
  (match Guard.admit g ~now:0 ~from:"peer" ~target:"owner" answer with
  | Guard.Reject (Guard.Unsolicited _) -> ()
  | _ -> Alcotest.fail "spoofed answer must be rejected");
  (match
     Guard.admit g ~now:0 ~from:"peer" ~target:"owner"
       ~solicited:(fun _ -> `Outstanding)
       answer
   with
  | Guard.Admit -> ()
  | _ -> Alcotest.fail "solicited answer must be admitted");
  (match
     Guard.admit g ~now:0 ~from:"peer" ~target:"owner"
       ~solicited:(fun _ -> `Resolved)
       answer
   with
  | Guard.Stale _ -> ()
  | _ -> Alcotest.fail "late duplicate must be stale, not a violation")

let test_guard_bad_cert_and_bomb () =
  (* verify = always-false: any certificate is forged. *)
  let g = Guard.create ~config:guard_cfg ~verify:(fun _ -> false) () in
  let forged =
    {
      Crypto.Cert.serial = 9;
      rule = Parser.parse_rule {|c("x") @ "CA" signedBy ["CA"].|};
      not_before = 0;
      not_after = 10;
      signatures = [];
    }
  in
  let answer =
    Net.Message.Answer { goal = lit "p(1)"; instances = []; certs = [ forged ] }
  in
  (match
     Guard.admit g ~now:0 ~from:"peer" ~target:"owner"
       ~solicited:(fun _ -> `Outstanding)
       answer
   with
  | Guard.Reject (Guard.Bad_cert _) -> ()
  | _ -> Alcotest.fail "forged certificate must be rejected");
  (* A goal with an absurd authority chain is a delegation bomb. *)
  let deep =
    Literal.make "boom"
      ~auth:(List.init 40 (fun _ -> Term.str "peer"))
      []
  in
  match
    Guard.admit g ~now:0 ~from:"peer" ~target:"owner"
      (Net.Message.Query { goal = deep })
  with
  | Guard.Reject (Guard.Bomb _) -> ()
  | _ -> Alcotest.fail "delegation bomb must be rejected"

let test_classify_guard_denials () =
  let check_class reason expect =
    Alcotest.(check string) reason expect
      (Negotiation.denial_class_to_string (Negotiation.classify_denial reason));
    Alcotest.(check bool)
      (reason ^ ": guard denials are not transport denials")
      false
      (Negotiation.transport_denial reason)
  in
  check_class "quarantined: E-Learn" "quarantined";
  check_class "rate-limited: E-Learn" "rate-limited";
  check_class "quota: E-Learn" "quota";
  Alcotest.(check string) "policy fallback" "policy"
    (Negotiation.denial_class_to_string
       (Negotiation.classify_denial "release policy not satisfied"))

let test_dedup_bounded () =
  let d = Net.Dedup.create ~cap:4 in
  for i = 1 to 4 do
    Alcotest.(check bool) "fresh id not evicting" false (Net.Dedup.add d i)
  done;
  Alcotest.(check bool) "remembered" true (Net.Dedup.mem d 1);
  Alcotest.(check bool) "fifth id evicts the oldest" true (Net.Dedup.add d 5);
  Alcotest.(check bool) "oldest forgotten" false (Net.Dedup.mem d 1);
  Alcotest.(check bool) "newest remembered" true (Net.Dedup.mem d 5);
  Alcotest.(check int) "length capped" 4 (Net.Dedup.length d);
  Alcotest.(check int) "evictions counted" 1 (Net.Dedup.evictions d)

(* ------------------------------------------------------------------ *)
(* Distributed tabling: cyclic policies terminate with complete answer
   sets; the answer cache refuses premature (incomplete) stores. *)

let tabling_config =
  { Reactor.default_config with Reactor.tabling = true }

let run_tabled ?(config = tabling_config) session ~requester ~target goal =
  let reactor = Reactor.create ~config session in
  let id = Reactor.submit reactor ~requester ~target goal in
  ignore (Reactor.run reactor);
  (Reactor.outcome reactor id, reactor)

let sorted_instances = function
  | Negotiation.Granted instances ->
      List.map (fun (l, _) -> Literal.to_string l) instances
      |> List.sort_uniq String.compare
  | Negotiation.Denied reason -> [ "denied: " ^ reason ]

let expected_strings rw =
  List.map Literal.to_string rw.Scenario.rw_expected
  |> List.sort_uniq String.compare

let test_tabling_mutual_accreditation () =
  let rw = Scenario.mutual_accreditation () in
  let outcome, reactor =
    run_tabled rw.Scenario.rw_session ~requester:rw.Scenario.rw_requester
      ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
  in
  Alcotest.(check (list string))
    "two-peer mutual accreditation completes" (expected_strings rw)
    (sorted_instances outcome);
  List.iter
    (fun (_, _, answers, status) ->
      Alcotest.(check string) "every table frozen" "complete" status;
      Alcotest.(check int) "every table holds the one answer" 1 answers)
    (Reactor.tabling_summary reactor)

let test_tabling_larger_ring () =
  let rw = Scenario.mutual_accreditation ~n:4 () in
  let outcome, reactor =
    run_tabled rw.Scenario.rw_session ~requester:rw.Scenario.rw_requester
      ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
  in
  Alcotest.(check (list string))
    "four-peer ring completes" (expected_strings rw)
    (sorted_instances outcome);
  Alcotest.(check int) "one table per ring member" 4
    (List.length (Reactor.tabling_summary reactor))

let test_tabling_federation () =
  let rw = Scenario.federation ~clusters:3 ~size:2 () in
  let outcome, _ =
    run_tabled rw.Scenario.rw_session ~requester:rw.Scenario.rw_requester
      ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
  in
  Alcotest.(check (list string))
    "federated SCCs complete in dependency order" (expected_strings rw)
    (sorted_instances outcome)

let test_tabling_off_cycle_denied () =
  (* The same cyclic world without tabling must still terminate — as a
     structured cycle/quiescence denial, not a hang. *)
  let rw = Scenario.mutual_accreditation () in
  let outcome, _ =
    run_tabled
      ~config:Reactor.default_config rw.Scenario.rw_session
      ~requester:rw.Scenario.rw_requester ~target:rw.Scenario.rw_target
      rw.Scenario.rw_goal
  in
  Alcotest.(check bool) "cycle denied without tabling" false (granted outcome)

let test_tabling_acyclic_chain () =
  (* An acyclic cross-peer chain under tabling produces the full answer
     set bottom-up, without any SCC probe round. *)
  let session = Session.create () in
  ignore
    (Session.add_peer session ~program:{|path(X) <- hop(X) @ "mid".|} "top");
  ignore (Session.add_peer session ~program:{|hop(X) <- base(X) @ "leaf".|} "mid");
  ignore (Session.add_peer session ~program:{|base(1). base(2).|} "leaf");
  ignore (Session.add_peer session "client");
  let outcome, reactor =
    run_tabled session ~requester:"client" ~target:"top" (lit "path(X)")
  in
  Alcotest.(check (list string))
    "acyclic chain answers" [ "path(1)"; "path(2)" ]
    (sorted_instances outcome);
  Alcotest.(check int) "no SCC probe was needed" 0
    (List.length
       (List.filter
          (fun (_, _, _, status) -> not (String.equal status "complete"))
          (Reactor.tabling_summary reactor)))

let test_tabling_naf_unsupported () =
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:{|ok(X) <- base(X), not bad(X). base(1). |}
       "owner");
  ignore (Session.add_peer session "client");
  let outcome, _ =
    run_tabled session ~requester:"client" ~target:"owner" (lit "ok(X)")
  in
  match outcome with
  | Negotiation.Denied reason ->
      Alcotest.(check string) "classified unsupported" "unsupported"
        (Negotiation.denial_class_to_string
           (Negotiation.classify_denial reason))
  | Negotiation.Granted _ ->
      Alcotest.fail "NAF under distributed tabling must deny as unsupported"

let test_tabling_cached_rerun () =
  (* With a cache attached, a second identical request is served from
     the completed table's cached answer without new wire traffic. *)
  let rw = Scenario.mutual_accreditation () in
  let session = rw.Scenario.rw_session in
  let config =
    { tabling_config with Reactor.cache = Some (Answer_cache.create ()) }
  in
  let reactor = Reactor.create ~config session in
  let id1 =
    Reactor.submit reactor ~requester:rw.Scenario.rw_requester
      ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
  in
  ignore (Reactor.run reactor);
  let msgs_before =
    Net.Stats.messages (Net.Network.stats session.Session.network)
  in
  let id2 =
    Reactor.submit reactor ~requester:rw.Scenario.rw_requester
      ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
  in
  ignore (Reactor.run reactor);
  let msgs_after =
    Net.Stats.messages (Net.Network.stats session.Session.network)
  in
  Alcotest.(check (list string))
    "both runs grant the same set"
    (sorted_instances (Reactor.outcome reactor id1))
    (sorted_instances (Reactor.outcome reactor id2));
  Alcotest.(check bool) "first run granted" true
    (granted (Reactor.outcome reactor id1));
  Alcotest.(check int) "cache replay posts nothing" msgs_before msgs_after

let test_cache_completed_gate () =
  (* Regression for the recursion-safety bit: a store flagged incomplete
     must never be inserted, so a later find cannot serve a premature
     (partial) answer set. *)
  let c = Answer_cache.create () in
  Answer_cache.store ~completed:false c ~now:0 ~asker:"a" ~owner:"o"
    (lit "p(X)") (dummy_answer "p(1)");
  Alcotest.(check bool) "premature answer never served" false
    (find_some c ~now:1 ~asker:"a" ~owner:"o" "p(X)");
  Alcotest.(check int) "nothing inserted" 0 (Answer_cache.length c);
  Answer_cache.store ~completed:true c ~now:0 ~asker:"a" ~owner:"o"
    (lit "p(X)") (dummy_answer "p(1)");
  Alcotest.(check bool) "completed answer served" true
    (find_some c ~now:1 ~asker:"a" ~owner:"o" "p(X)")

(* ------------------------------------------------------------------ *)
(* Crash-stop peers: scheduled crashes, incarnation-aware recovery,
   journals and deadlines *)

let journal_memory =
  { Reactor.default_config with Reactor.journal = Reactor.Journal_memory }

let crash_faults specs =
  let f = Net.Faults.none () in
  List.iter
    (fun (peer, at_tick, restart_tick) ->
      Net.Faults.add_crash f ~peer ~at_tick ~restart_tick)
    specs;
  f

let run_s1_crash ?(config = Reactor.default_config) specs =
  let s = Scenario.scenario1 () in
  let session = s.Scenario.s1_session in
  Net.Network.set_faults session.Session.network (crash_faults specs);
  let reactor = Reactor.create ~config session in
  let id =
    Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
      (lit {|discountEnroll(spanish101, "Alice")|})
  in
  ignore (Reactor.run reactor);
  (Reactor.outcome reactor id, session)

let wallet_serials session name =
  let p = Session.peer session name in
  Hashtbl.fold
    (fun _ (c : Peertrust_crypto.Cert.t) acc ->
      c.Peertrust_crypto.Cert.serial :: acc)
    p.Peer.certs []
  |> List.sort compare

let counter snap name = Pobs.Registry.counter_value snap name

let check_crashed = function
  | Negotiation.Denied reason ->
      Alcotest.(check string)
        "denial classified as Crashed" "crashed"
        (Negotiation.denial_class_to_string
           (Negotiation.classify_denial reason))
  | Negotiation.Granted _ -> Alcotest.fail "granted against a dead peer"

let test_crash_forever_denied () =
  (* The responder crash-stops mid-negotiation and never returns: the
     requester's sub-queries must degrade into a structured crashed
     denial, not a hang and not a generic timeout. *)
  Pobs.Obs.reset_metrics ();
  let outcome, _ = run_s1_crash [ ("E-Learn", 5, max_int) ] in
  check_crashed outcome;
  let snap = Pobs.Obs.snapshot () in
  Alcotest.(check int) "one crash executed" 1 (counter snap "reactor.crashes");
  Alcotest.(check int) "no restart" 0 (counter snap "reactor.restarts")

let test_crash_restart_journal_recovers () =
  (* Crash + scheduled restart with the journal on: the negotiation
     must still grant, pre-crash deliveries must be discarded as stale
     rather than applied to the new incarnation, and the recovered
     wallet must equal the fault-free one — journal replay never
     double-learns a certificate. *)
  let baseline, clean_session = run_s1_crash [] in
  Alcotest.(check bool) "fault-free grants" true (granted baseline);
  let clean = wallet_serials clean_session "E-Learn" in
  Pobs.Obs.reset_metrics ();
  let outcome, session =
    run_s1_crash ~config:journal_memory [ ("E-Learn", 5, 40) ]
  in
  Alcotest.(check bool) "recovers and grants" true (granted outcome);
  let snap = Pobs.Obs.snapshot () in
  Alcotest.(check int) "one crash" 1 (counter snap "reactor.crashes");
  Alcotest.(check int) "one restart" 1 (counter snap "reactor.restarts");
  Alcotest.(check bool) "stale deliveries discarded" true
    (counter snap "reactor.stale_epoch" > 0);
  Alcotest.(check (list int))
    "recovered wallet equals fault-free wallet" clean
    (wallet_serials session "E-Learn")

let test_crash_requester_root_recovery () =
  (* The requester itself crashes.  Without a journal its accepted root
     goal is volatile state: the request must settle as a crashed
     denial even though a restart is scheduled.  With the journal the
     root is re-launched at restart and still grants. *)
  Pobs.Obs.reset_metrics ();
  let outcome, _ = run_s1_crash [ ("Alice", 2, 14) ] in
  check_crashed outcome;
  Pobs.Obs.reset_metrics ();
  let outcome, _ = run_s1_crash ~config:journal_memory [ ("Alice", 2, 14) ] in
  Alcotest.(check bool) "journalled root grants" true (granted outcome);
  let snap = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "root goal recovered from the journal" true
    (counter snap "reactor.recovered_goals" >= 1)

let test_crash_suspend_reissue () =
  (* The responder stays down past the requester's whole retry budget
     (8+16+32+64 ticks).  Because its restart is scheduled, the
     exhausted sub-queries must suspend instead of denying, then be
     reissued (attempt 0, fresh timer) once the peer returns. *)
  Pobs.Obs.reset_metrics ();
  let outcome, _ =
    run_s1_crash ~config:journal_memory [ ("E-Learn", 2, 150) ]
  in
  Alcotest.(check bool) "grants after the long outage" true (granted outcome);
  let snap = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "retries burnt against the dead peer" true
    (counter snap "reactor.retries" > 0);
  Alcotest.(check bool) "retry budget drained while down" true
    (counter snap "reactor.timeouts" > 0);
  Alcotest.(check bool) "suspended sub-queries reissued at restart" true
    (counter snap "reactor.reissued_subqueries" > 0)

let test_deadline_expiry_cancels () =
  (* A root with a deadline tighter than the negotiation's latency: the
     request must settle as exactly [deadline expired], and the
     requester must withdraw its outstanding sub-queries with Cancel
     messages so the responder drops the parked goal.  The far-future
     bystander crash keeps the fault plan active so retransmission
     timers (which the Cancels are collected from) are armed. *)
  Pobs.Obs.reset_metrics ();
  let session = counter_query_world () in
  Net.Network.set_faults session.Session.network
    (crash_faults [ ("req", 500, max_int) ]);
  let reactor = Reactor.create session in
  let id =
    Reactor.submit ~deadline:2 reactor ~requester:"req" ~target:"owner"
      (lit {|resource("r")|})
  in
  ignore (Reactor.run reactor);
  (match Reactor.outcome reactor id with
  | Negotiation.Denied reason ->
      Alcotest.(check string) "denial reason" "deadline expired" reason
  | Negotiation.Granted _ -> Alcotest.fail "granted past its deadline");
  let snap = Pobs.Obs.snapshot () in
  Alcotest.(check int) "one deadline expiry" 1
    (counter snap "reactor.deadline_expiries");
  Alcotest.(check bool) "outstanding sub-queries withdrawn" true
    (counter snap "reactor.cancels" > 0);
  Alcotest.(check bool) "responder dropped the parked goal" true
    (counter snap "reactor.cancelled_goals" > 0)

let test_same_tick_order () =
  (* Tick 8 carries four kinds of work: the bystander's scheduled crash,
     D's deadline, D's query reaching C over an 8-tick link, and the
     retransmission timer A armed at tick 0 (rto 8) for its query to B,
     whose answer crosses a 9-tick link and lands only at tick 10.
     Scheduled events run first, in insertion order, then deliveries,
     then timers. *)
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|g1("x") $ true.|} "B");
  ignore (Session.add_peer session ~program:{|g2("x") $ true.|} "C");
  List.iter
    (fun name -> ignore (Session.add_peer session name))
    [ "A"; "D"; "bystander" ];
  let net = session.Session.network in
  Net.Network.set_faults net (crash_faults [ ("bystander", 8, max_int) ]);
  Net.Network.set_link_latency net ~from:"D" ~target:"C" 8;
  Net.Network.set_link_latency net ~from:"B" ~target:"A" 9;
  let tracer =
    Pobs.Tracer.create ~now:(fun () -> Net.Clock.now (Net.Network.clock net)) ()
  in
  Pobs.Obs.set_tracer tracer;
  Fun.protect ~finally:Pobs.Obs.disable_tracing @@ fun () ->
  Pobs.Tracer.with_span tracer "tie" @@ fun () ->
  let tie = Option.get (Pobs.Tracer.current tracer) in
  let reactor = Reactor.create session in
  ignore (Reactor.submit reactor ~requester:"A" ~target:"B" (lit {|g1("x")|}));
  ignore
    (Reactor.submit ~deadline:8 reactor ~requester:"D" ~target:"C"
       (lit {|g2("x")|}));
  (* What one step did: the reactor events it attached to the test span,
     then the receive and retry spans it opened, each with its peer. *)
  let seen = Hashtbl.create 16 and events_seen = ref 0 in
  let step () =
    ignore (Reactor.step reactor);
    let events = Pobs.Span.events tie in
    let fresh = List.filteri (fun i _ -> i >= !events_seen) events in
    events_seen := List.length events;
    let marks =
      List.filter_map
        (fun (e : Pobs.Span.event) ->
          match String.split_on_char ' ' e.Pobs.Span.message with
          | word :: _ when String.starts_with ~prefix:"reactor." word ->
              Some word
          | _ -> None)
        fresh
    in
    let spans =
      List.filter_map
        (fun (s : Pobs.Span.t) ->
          if not (Hashtbl.mem seen s.Pobs.Span.id) then begin
            Hashtbl.replace seen s.Pobs.Span.id ();
            match List.assoc_opt "peer" (Pobs.Span.attrs s) with
            | Some (Pobs.Json.Str peer)
              when String.starts_with ~prefix:"recv." s.Pobs.Span.name
                   || String.equal s.Pobs.Span.name "reactor.retry" ->
                Some (s.Pobs.Span.name ^ " " ^ peer)
            | Some _ | None -> None
          end
          else None)
        (Pobs.Tracer.spans tracer)
    in
    marks @ spans
  in
  let order = List.concat (List.init 5 (fun _ -> step ())) in
  Alcotest.(check (list string))
    "crash, deadline, delivery, retry"
    [
      "recv.query B";
      "reactor.crash";
      "reactor.deadline";
      "recv.query C";
      "reactor.retry A";
    ]
    order

let with_temp_dir f =
  let dir = Filename.temp_file "ptjournal" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun file -> Sys.remove (Filename.concat dir file))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_journal_dir_cross_process_resume () =
  (* Disk journals survive the process, not just the crash: a second
     reactor created over a fresh world with the same journal directory
     replays the learned knowledge at create and allocates request ids
     past the journalled ones. *)
  with_temp_dir @@ fun dir ->
  let config =
    { Reactor.default_config with Reactor.journal = Reactor.Journal_dir dir }
  in
  let s = Scenario.scenario1 () in
  let session = s.Scenario.s1_session in
  let reactor = Reactor.create ~config session in
  let id =
    Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
      (lit {|discountEnroll(spanish101, "Alice")|})
  in
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "first process grants" true
    (granted (Reactor.outcome reactor id));
  let learned = wallet_serials session "E-Learn" in
  (* Second process: fresh world, same journal directory. *)
  let s2 = Scenario.scenario1 () in
  let session2 = s2.Scenario.s1_session in
  Pobs.Obs.reset_metrics ();
  let reactor2 = Reactor.create ~config session2 in
  Alcotest.(check (list int))
    "replayed wallet matches the first process" learned
    (wallet_serials session2 "E-Learn");
  let id2 =
    Reactor.submit reactor2 ~requester:"Alice" ~target:"E-Learn"
      (lit {|discountEnroll(spanish101, "Alice")|})
  in
  ignore (Reactor.run reactor2);
  Alcotest.(check bool) "resumed process still grants" true
    (granted (Reactor.outcome reactor2 id2));
  Alcotest.(check (list int))
    "re-learning after replay added nothing" learned
    (wallet_serials session2 "E-Learn")

(* ------------------------------------------------------------------ *)
(* Every entry point counts one negotiation, where its outcome settles *)

let counter name =
  Pobs.Registry.counter_value (Pobs.Obs.snapshot ()) name

let counts_once label f =
  let count = counter "negotiation.count" in
  let settled =
    counter "negotiation.granted" + counter "negotiation.denied"
  in
  f ();
  Alcotest.(check int) (label ^ ": one negotiation") (count + 1)
    (counter "negotiation.count");
  Alcotest.(check int) (label ^ ": one outcome") (settled + 1)
    (counter "negotiation.granted" + counter "negotiation.denied")

let test_count_reactor () =
  counts_once "Reactor.submit" (fun () ->
      let s = Scenario.scenario1 () in
      ignore
        (run_reactor s.Scenario.s1_session ~requester:"Alice"
           ~target:"E-Learn" (Scenario.scenario1_goal ())));
  counts_once "Reactor.negotiate" (fun () ->
      let s = Scenario.scenario1 () in
      ignore
        (Reactor.negotiate s.Scenario.s1_session ~requester:"Alice"
           ~target:"E-Learn" (Scenario.scenario1_goal ())))

let test_count_strategies () =
  List.iter
    (fun strategy ->
      counts_once (Strategy.to_string strategy) (fun () ->
          let w = Scenario.policy_chain ~depth:2 () in
          ignore
            (Strategy.negotiate w.Scenario.cw_session ~strategy
               ~requester:"alice" ~target:"bob" w.Scenario.cw_goal)))
    Strategy.all;
  counts_once "n-party eager" (fun () ->
      let w = Scenario.policy_chain ~depth:2 () in
      ignore
        (Strategy.negotiate_multi w.Scenario.cw_session
           ~participants:[ "alice"; "bob" ] ~requester:"alice" ~target:"bob"
           w.Scenario.cw_goal))

let test_count_extensions () =
  counts_once "Chain.discover" (fun () ->
      let session, root, _ =
        Chain.linear_world ~depth:2 ~pred:"member" ~subject:"sam" ()
      in
      ignore (Session.add_peer session "client");
      ignore
        (Chain.discover session ~requester:"client" ~root
           (lit {|member("sam")|})));
  counts_once "Broker.lookup" (fun () ->
      let session = Session.create () in
      ignore (Session.add_peer session "shop");
      ignore
        (Broker.add_broker session ~name:"broker"
           ~directory:[ ("purchaseApproved", "VISA") ]);
      ignore
        (Broker.lookup session ~requester:"shop" ~broker:"broker"
           ~pred:"purchaseApproved"));
  counts_once "Token.negotiate_with_token" (fun () ->
      let session = Session.create () in
      ignore (Session.add_peer session ~program:{|info(1) $ true.|} "owner");
      ignore (Session.add_peer session "req");
      ignore
        (Token.negotiate_with_token session ~requester:"req" ~target:"owner"
           ~ttl:10 (lit "info(X)")))

(* ------------------------------------------------------------------ *)
(* Wake-ups: a delivery re-evaluates only the parked goals it can affect *)

let evaluations () = counter "engine.answers" + counter "engine.denials"
let learner i = Printf.sprintf "learner%d" i
let buy i = lit (Printf.sprintf {|buy(course0, "%s")|} (learner i))

(* Fan-in at one provider in the shape of the paper's pay-per-use
   example: the hub checks every purchase online with its Bank.  With
   [slow_first], learner0's limit is not on file: the Bank must ask a
   distant Agency for it, so learner0's purchase stays parked at the hub
   while the others' approvals arrive. *)
let hub_world ?(config = Session.default_config) ?(slow_first = false) k =
  let session = Session.create ~config () in
  ignore
    (Session.add_peer session
       ~program:
         {|price(course0, 1200).
           authorizedMerchant("hub") $ true signedBy ["Bank"].
           buy(Course, Party) $ Requester = Party <-{true}
             price(Course, P), approved(Party, P) @ "Bank",
             authorizedMerchant("hub") @ "Bank".|}
       "hub");
  let limit i =
    if slow_first && i = 0 then
      {|limit("learner0", L) <- line("learner0", L) @ "Agency".|}
    else Printf.sprintf {|limit("%s", 2000).|} (learner i)
  in
  ignore
    (Session.add_peer session
       ~program:
         (String.concat "\n"
            ({|approved(Party, Price) $ true <- limit(Party, L), Price <= L.|}
            :: List.init k limit))
       "Bank");
  if slow_first then begin
    ignore
      (Session.add_peer session ~program:{|line("learner0", 2000) $ true.|}
         "Agency");
    Net.Network.set_link_latency session.Session.network ~from:"Bank"
      ~target:"Agency" 20
  end;
  for i = 0 to k - 1 do
    ignore (Session.add_peer session (learner i))
  done;
  session

let test_wake_fan_in () =
  (* Each Bank answer unblocks one purchase: the work per purchase must
     not grow with the number of purchases parked beside it. *)
  let per_purchase k =
    let session = hub_world k in
    let reactor = Reactor.create session in
    let before = evaluations () in
    let ids =
      List.init k (fun i ->
          Reactor.submit reactor ~requester:(learner i) ~target:"hub" (buy i))
    in
    ignore (Reactor.run reactor);
    List.iter
      (fun id ->
        Alcotest.(check bool) "purchase granted" true
          (granted (Reactor.outcome reactor id)))
      ids;
    float_of_int (evaluations () - before) /. float_of_int k
  in
  let alone = per_purchase 1 in
  List.iter
    (fun k ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "evaluations per purchase, %d at once" k)
        alone (per_purchase k))
    [ 8; 64 ]

let transcript session =
  Format.asprintf "%a" Net.Network.pp_transcript session.Session.network

let lines l = String.concat "" (List.map (fun line -> line ^ "\n") l)

(* Index of the first transcript line whose message starts with
   [prefix]. *)
let line_of text prefix =
  let lines = String.split_on_char '\n' text in
  let rec go i = function
    | [] -> Alcotest.failf "no transcript line %S" prefix
    | l :: rest ->
        let body =
          match String.index_opt l ']' with
          | Some j -> String.trim (String.sub l (j + 1) (String.length l - j - 1))
          | None -> l
        in
        if String.starts_with ~prefix body then i else go (i + 1) rest
  in
  go 0 lines

(* P serves two clients; Q's answer takes a detour through Q1. *)
let slow_q_world ?externals program =
  let session = Session.create () in
  ignore (Session.add_peer session ?externals ~program "P");
  ignore
    (Session.add_peer session ~program:{|slow("x") $ true <-{true} s1("x") @ "Q1".|}
       "Q");
  ignore (Session.add_peer session ~program:{|s1("x") $ true.|} "Q1");
  ignore (Session.add_peer session "c1");
  ignore (Session.add_peer session "c2");
  session

let test_wake_cross_goal_knowledge () =
  (* b("x") parks on its first alternative's call to Q, which must ask
     Q1 before it can reply; its second alternative needs
     fact("x") @ "R", which P learns from the answer to a("x")'s
     sub-query.  b("x") must settle on that delivery, before Q replies. *)
  let session =
    slow_q_world
      {|b("x") $ true <-{true} slow("x") @ "Q".
        b("x") $ true <-{true} fact("x") @ "R".
        a("x") $ true <-{true} fact("x") @ "R".|}
  in
  ignore (Session.add_peer session ~program:{|fact("x") $ true.|} "R");
  let reactor = Reactor.create session in
  let rb = Reactor.submit reactor ~requester:"c1" ~target:"P" (lit {|b("x")|}) in
  let ra = Reactor.submit reactor ~requester:"c2" ~target:"P" (lit {|a("x")|}) in
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "b granted" true (granted (Reactor.outcome reactor rb));
  Alcotest.(check bool) "a granted" true (granted (Reactor.outcome reactor ra));
  let text = transcript session in
  Alcotest.(check bool) "b answered before Q replies" true
    (line_of text "P -> c1" < line_of text "Q -> P");
  Alcotest.(check string) "transcript, as when every wake-up re-ran every goal"
    (lines
       [
         {|[   1] c1 -> P: query b("x") (14 bytes)|};
         {|[   1] c2 -> P: query a("x") (14 bytes)|};
         {|[   2] P -> Q: query slow("x") (17 bytes)|};
         {|[   2] P -> R: query fact("x") (17 bytes)|};
         {|[   3] Q -> Q1: query s1("x") (15 bytes)|};
         {|[   3] R -> P: answer fact("x"): 1 instance(s), 0 cert(s) (26 bytes)|};
         {|[   4] Q1 -> Q: answer s1("x"): 1 instance(s), 0 cert(s) (22 bytes)|};
         {|[   4] P -> c2: answer a("x"): 1 instance(s), 0 cert(s) (20 bytes)|};
         {|[   4] P -> c1: answer b("x"): 1 instance(s), 0 cert(s) (20 bytes)|};
         {|[   5] Q -> P: answer slow("x"): 1 instance(s), 0 cert(s) (26 bytes)|};
       ])
    text

let test_wake_resolved_without_delivery () =
  (* req serves h("x") for S by asking T for g("x"), which its own root
     has outstanding.  T's own sub-query crosses a slow link, so the
     root's deadline withdraws req's sub-query first and T drops its goal
     at the Cancel: T never answers.  The goal for S must be re-evaluated
     — and denied — at req's next delivery, not left for quiescence. *)
  let session = Session.create () in
  ignore
    (Session.add_peer session ~program:{|h("x") $ true <-{true} g("x") @ "T".|}
       "req");
  ignore
    (Session.add_peer session ~program:{|g("x") $ true <-{true} u("x") @ "U".|}
       "T");
  ignore (Session.add_peer session ~program:{|u("x") $ true.|} "U");
  ignore (Session.add_peer session ~program:{|v("x") $ true.|} "V");
  ignore (Session.add_peer session "S");
  ignore (Session.add_peer session "bystander");
  (* the bystander's late crash keeps the fault plan, hence the timers a
     deadline withdraws, active *)
  Net.Network.set_faults session.Session.network
    (crash_faults [ ("bystander", 1000, max_int) ]);
  Net.Network.set_link_latency session.Session.network ~from:"T" ~target:"U"
    30;
  let reactor =
    Reactor.create ~config:{ Reactor.default_config with Reactor.rto = 100 }
      session
  in
  let root =
    Reactor.submit ~deadline:4 reactor ~requester:"req" ~target:"T"
      (lit {|g("x")|})
  in
  let served =
    Reactor.submit reactor ~requester:"S" ~target:"req" (lit {|h("x")|})
  in
  while Reactor.result reactor root = None && Reactor.step reactor do
    ()
  done;
  (match Reactor.outcome reactor root with
  | Negotiation.Denied reason ->
      Alcotest.(check string) "root expired" "deadline expired" reason
  | Negotiation.Granted _ -> Alcotest.fail "granted past its deadline");
  Alcotest.(check bool) "goal for S still parked" true
    (Reactor.result reactor served = None);
  let breaks = counter "reactor.quiescence_breaks" in
  let later =
    Reactor.submit reactor ~requester:"req" ~target:"V" (lit {|v("x")|})
  in
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "later request granted" true
    (granted (Reactor.outcome reactor later));
  (match Reactor.outcome reactor served with
  | Negotiation.Denied reason ->
      Alcotest.(check string) "denied by req's policy" "denied by target" reason
  | Negotiation.Granted _ -> Alcotest.fail "granted without g(x)");
  Alcotest.(check int) "settled without breaking quiescence" breaks
    (counter "reactor.quiescence_breaks")

(* deal("x") parks at P on its second alternative, a call to Q; [unblock]
   then makes its first alternative, [first], provable behind the
   reactor's back.  P's next delivery, however unrelated (R's answer for
   quick("y")), must re-evaluate and settle it, before Q replies. *)
let settles_at_next_delivery ?externals ~first unblock =
  let session =
    slow_q_world ?externals
      (Printf.sprintf
         {|deal("x") $ true <-{true} %s.
           deal("x") $ true <-{true} slow("x") @ "Q".
           quick("y") $ true <-{true} ok("y") @ "R".|}
         first)
  in
  ignore (Session.add_peer session ~program:{|ok("y") $ true.|} "R");
  let reactor = Reactor.create session in
  let deal =
    Reactor.submit reactor ~requester:"c1" ~target:"P" (lit {|deal("x")|})
  in
  let quick =
    Reactor.submit reactor ~requester:"c2" ~target:"P" (lit {|quick("y")|})
  in
  (* both roots, then both goals at P *)
  while Reactor.parked_count reactor < 4 && Reactor.step reactor do
    ()
  done;
  Alcotest.(check int) "both goals parked at P" 4
    (Reactor.parked_count reactor);
  unblock session;
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "deal granted" true
    (granted (Reactor.outcome reactor deal));
  Alcotest.(check bool) "quick granted" true
    (granted (Reactor.outcome reactor quick));
  let text = transcript session in
  Alcotest.(check bool) "deal answered at R's delivery, before Q replies" true
    (line_of text "P -> c1" < line_of text "Q -> P")

let test_wake_volatile () =
  (* An account limit is an external the KB cannot see change. *)
  let accounts = Externals.Accounts.create () in
  Externals.Accounts.set_limit accounts ~account:"acme" 50;
  settles_at_next_delivery
    ~externals:(Externals.Accounts.externals accounts)
    ~first:{|purchaseApproved("acme", 100)|}
    (fun _ -> Externals.Accounts.set_limit accounts ~account:"acme" 500)

let test_wake_outside_kb_change () =
  (* The application loads a rule into P's KB between steps. *)
  settles_at_next_delivery ~first:{|local("x")|} (fun session ->
      Peer.load_program (Session.peer session "P") {|local("x").|})

let test_wake_quiescence_order () =
  (* A and B deadlock over a("o") and b("o"); B is then woken by an
     unrelated answer.  Quiescence must force-deny the goal whose park or
     peer's last wake-up is latest — B's, moved up by that wake-up — not
     the newest parked one, A's, as it did when every wake-up
     re-evaluated every parked goal. *)
  let session = Session.create () in
  ignore
    (Session.add_peer session ~program:{|a("o") $ true <-{true} b("o") @ "B".|}
       "A");
  ignore
    (Session.add_peer session
       ~program:
         {|b("o") $ true <-{true} a("o") @ "A".
           c("o") $ true <-{true} d("o") @ "D".|}
       "B");
  ignore (Session.add_peer session ~program:{|d("o") $ true.|} "D");
  ignore (Session.add_peer session "C1");
  ignore (Session.add_peer session "C2");
  let reactor = Reactor.create session in
  let ra = Reactor.submit reactor ~requester:"C1" ~target:"A" (lit {|a("o")|}) in
  let rc = Reactor.submit reactor ~requester:"C2" ~target:"B" (lit {|c("o")|}) in
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "deadlocked request denied" false
    (granted (Reactor.outcome reactor ra));
  Alcotest.(check bool) "unrelated request granted" true
    (granted (Reactor.outcome reactor rc));
  Alcotest.(check int) "one goal forced" 1 (counter "reactor.quiescence_breaks");
  Alcotest.(check string) "transcript, as when every wake-up re-ran every goal"
    (lines
       [
         {|[   1] C1 -> A: query a("o") (14 bytes)|};
         {|[   1] C2 -> B: query c("o") (14 bytes)|};
         {|[   2] A -> B: query b("o") (14 bytes)|};
         {|[   2] B -> D: query d("o") (14 bytes)|};
         {|[   3] B -> A: query a("o") (14 bytes)|};
         {|[   3] D -> B: answer d("o"): 1 instance(s), 0 cert(s) (20 bytes)|};
         {|[   4] B -> C2: answer c("o"): 1 instance(s), 0 cert(s) (20 bytes)|};
         {|[   5] B -> A: deny b("o") (negotiation cycle) (31 bytes)|};
         {|[   6] A -> B: deny a("o") (release policy not satisfied) (42 bytes)|};
         {|[   6] A -> C1: deny a("o") (release policy not satisfied) (42 bytes)|};
       ])
    (transcript session)

let test_guard_bills_useful_work () =
  (* learner0's purchase waits at the hub for the Bank's slow answer
     while the other purchases' approvals reach the hub.  None of them
     can unblock it, so none may be charged to learner0's quota. *)
  let config = { Session.default_config with Session.guard = Guard.defaults } in
  let k = 4 in
  let session = hub_world ~config ~slow_first:true k in
  let reactor = Reactor.create session in
  let remaining () =
    Guard.remaining_work (Reactor.guard reactor) ~from:"learner0" ~target:"hub"
  in
  let ids =
    List.init k (fun i ->
        Reactor.submit reactor ~requester:(learner i) ~target:"hub" (buy i))
  in
  let full = remaining () in
  while remaining () = full && Reactor.step reactor do
    ()
  done;
  let parked = remaining () in
  Alcotest.(check bool) "learner0's goal evaluated" true (parked < full);
  let others = List.tl ids in
  while
    List.exists (fun id -> Reactor.result reactor id = None) others
    && Reactor.step reactor
  do
    ()
  done;
  List.iter
    (fun id ->
      Alcotest.(check bool) "other purchase granted" true
        (granted (Reactor.outcome reactor id)))
    others;
  Alcotest.(check bool) "learner0 still waiting" true
    (Reactor.result reactor (List.hd ids) = None);
  Alcotest.(check int) "unrelated answers charge learner0 nothing" parked
    (remaining ());
  ignore (Reactor.run reactor);
  Alcotest.(check bool) "learner0 granted" true
    (granted (Reactor.outcome reactor (List.hd ids)))

(* ------------------------------------------------------------------ *)
(* Event-time clock: only the agenda moves it, so ticks are causal time *)

(* k requesters, each asking "owner" for a resource whose release policy
   counter-queries that requester for a credential: four messages on a
   four-tick critical path per negotiation.  The bystander's far-future
   crash keeps the fault plan, hence the retransmission timers, active
   without injecting anything. *)
let counter_query_fan_in k =
  let session = Session.create () in
  ignore (Session.add_peer session ~program:owner_program "owner");
  let requester i = Printf.sprintf "req%d" i in
  for i = 0 to k - 1 do
    ignore
      (Session.add_peer session
         ~program:
           (Printf.sprintf {|cred("%s") @ "CA" $ true signedBy ["CA"].|}
              (requester i))
         (requester i))
  done;
  ignore (Session.add_peer session "bystander");
  Net.Network.set_faults session.Session.network
    (crash_faults [ ("bystander", 1 lsl 40, max_int) ]);
  (session, requester)

(* Submit k negotiations together and step until all settle: the
   messages posted, the retries fired, and the tick each one settled
   at. *)
let run_fan_in k =
  let session, requester = counter_query_fan_in k in
  let reactor = Reactor.create session in
  let retries = counter "reactor.retries" in
  let ids =
    List.init k (fun i ->
        Reactor.submit reactor ~requester:(requester i) ~target:"owner"
          (lit {|resource("r")|}))
  in
  let settled_at = Hashtbl.create k in
  let now () = Net.Clock.now (Net.Network.clock session.Session.network) in
  while Hashtbl.length settled_at < k && Reactor.step reactor do
    List.iter
      (fun id ->
        if Reactor.result reactor id <> None && not (Hashtbl.mem settled_at id)
        then Hashtbl.replace settled_at id (now ()))
      ids
  done;
  List.iter
    (fun id ->
      Alcotest.(check bool) "granted" true (granted (Reactor.outcome reactor id)))
    ids;
  ( Net.Stats.messages (Net.Network.stats session.Session.network),
    counter "reactor.retries" - retries,
    List.map (Hashtbl.find settled_at) ids )

let test_clock_interleaving () =
  (* Posting never advances the clock, so k interleaved negotiations
     each take the ticks of one alone, and their timers never fire on a
     healthy link.  When every post advanced it, k = 8 took 69 messages
     and 69 ticks. *)
  let messages, retries, ticks = run_fan_in 8 in
  Alcotest.(check int) "four messages each" 32 messages;
  Alcotest.(check int) "no retransmission" 0 retries;
  Alcotest.(check (list int)) "each settles at tick 4" (List.init 8 (fun _ -> 4))
    ticks;
  let _, _, alone = run_fan_in 1 in
  List.iter
    (fun k ->
      let messages, retries, ticks = run_fan_in k in
      Alcotest.(check int) (Printf.sprintf "messages, %d at once" k) (4 * k)
        messages;
      Alcotest.(check int) (Printf.sprintf "retries, %d at once" k) 0 retries;
      Alcotest.(check (list int))
        (Printf.sprintf "ticks, %d at once" k)
        (List.concat (List.init k (fun _ -> alone)))
        ticks)
    [ 4; 16 ]

let test_clock_proxy_hops () =
  (* A device answers through its proxy, which evaluates in place: the
     reply leaves the device only after both forwarding hops, so the
     round trip at latency 1 takes four ticks. *)
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|fact("x") $ true.|} "home");
  ignore (Proxy.attach_device session ~device:"phone" ~proxy:"home");
  ignore (Session.add_peer session "client");
  let r =
    Reactor.negotiate session ~requester:"client" ~target:"phone"
      (lit {|fact("x")|})
  in
  Alcotest.(check bool) "granted through the proxy" true
    (granted r.Negotiation.outcome);
  Alcotest.(check int) "four ticks" 4 r.Negotiation.elapsed;
  Alcotest.(check string) "hops stamped at their arrival"
    (lines
       [
         {|[   1] client -> phone: query fact("x") (17 bytes)|};
         {|[   2] phone -> home: query fact("x") (17 bytes)|};
         {|[   3] home -> phone: answer fact("x"): 1 instance(s), 0 cert(s) (26 bytes)|};
         {|[   4] phone -> client: answer fact("x"): 1 instance(s), 0 cert(s) (26 bytes)|};
       ])
    (transcript session)

let test_clock_guard_window () =
  (* The guard's rate window counts causal ticks: n root goals submitted
     in one tick reach the guarded peer in one tick, so with the default
     rate of 8 per window the ninth is rate-limited.  When every post
     advanced the clock, the nine arrived on nine different ticks and
     all were granted. *)
  let run n =
    let config = { Session.default_config with Session.guard = Guard.defaults } in
    let session = Session.create ~config () in
    ignore
      (Session.add_peer session
         ~program:
           (String.concat "\n"
              (List.init n (fun i -> Printf.sprintf "g(%d) $ true." i)))
         "owner");
    ignore (Session.add_peer session "req");
    let reactor = Reactor.create session in
    let ids =
      List.init n (fun i ->
          Reactor.submit reactor ~requester:"req" ~target:"owner"
            (lit (Printf.sprintf "g(%d)" i)))
    in
    ignore (Reactor.run reactor);
    List.map (Reactor.outcome reactor) ids
  in
  List.iteri
    (fun i o -> Alcotest.(check bool) (Printf.sprintf "goal %d of 8" i) true (granted o))
    (run 8);
  match List.rev (run 9) with
  | Negotiation.Denied reason :: first_eight ->
      Alcotest.(check string) "the ninth is rate-limited" "rate-limited: owner"
        reason;
      List.iter
        (fun o -> Alcotest.(check bool) "the first eight granted" true (granted o))
        first_eight
  | Negotiation.Granted _ :: _ | [] ->
      Alcotest.fail "nine queries in one tick must trip the rate limit"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "reactor"
    [
      ( "basics",
        [
          tc "public fact" test_reactor_public_fact;
          tc "private fact denied" test_reactor_private_fact_denied;
          tc "counter-query" test_reactor_counter_query;
          tc "result before run" test_reactor_result_before_run;
        ] );
      ( "scenarios",
        [
          tc "scenario 1" test_reactor_scenario1;
          tc "scenario 2 free course" test_reactor_scenario2_free;
          tc "agrees with analysis oracle"
            test_reactor_matches_analysis_on_chains;
          tc "costs of depth-first recursion" test_reactor_recursion_costs;
          tc "chain discovery" test_reactor_chain_discovery;
        ] );
      ( "concurrency",
        [
          tc "interleaved negotiations" test_reactor_concurrent_negotiations;
          tc "marketplace over one queue" test_reactor_marketplace_concurrent;
          tc "missing credential denied" test_reactor_disclosure_message;
        ] );
      ( "wake-ups",
        [
          tc "fan-in" test_wake_fan_in;
          tc "cross-goal knowledge" test_wake_cross_goal_knowledge;
          tc "resolved without a delivery"
            test_wake_resolved_without_delivery;
          tc "volatile goals" test_wake_volatile;
          tc "outside KB change" test_wake_outside_kb_change;
          tc "quiescence order" test_wake_quiescence_order;
        ] );
      ( "counting",
        [
          tc "reactor entry points" test_count_reactor;
          tc "strategies" test_count_strategies;
          tc "chain, broker and token" test_count_extensions;
        ] );
      ( "failure",
        [
          tc "deadlock quiesces" test_reactor_deadlock_quiesces;
          tc "unreachable target" test_reactor_unreachable_target;
          tc "message budget" test_reactor_message_budget;
        ] );
      ( "degraded",
        [
          tc "peer down mid-negotiation" test_reactor_down_mid_negotiation;
          tc "duplicate answers idempotent"
            test_reactor_duplicate_answers_idempotent;
          tc "budget denies all parked" test_reactor_budget_denies_all_parked;
          tc "negotiate convenience" test_reactor_negotiate_convenience;
        ] );
      ( "cache",
        [
          tc "ttl expiry" test_cache_ttl_expiry;
          tc "variant keying" test_cache_variant_keying;
          tc "capacity eviction" test_cache_capacity_eviction;
          tc "explicit invalidation" test_cache_invalidation;
          tc "revocation watcher" test_cache_watch_accounts;
          tc "kb-update watcher" test_cache_watch_peer;
          tc "warm cross-session run" test_cache_warm_cross_session;
        ] );
      ( "tabling",
        [
          tc "mutual accreditation" test_tabling_mutual_accreditation;
          tc "four-peer ring" test_tabling_larger_ring;
          tc "federated clusters" test_tabling_federation;
          tc "cycle denied without tabling" test_tabling_off_cycle_denied;
          tc "acyclic chain" test_tabling_acyclic_chain;
          tc "NAF unsupported" test_tabling_naf_unsupported;
          tc "cached rerun" test_tabling_cached_rerun;
          tc "cache completed gate" test_cache_completed_gate;
        ] );
      ( "guard",
        [
          tc "breaker open/half-open/close" test_guard_breaker_transitions;
          tc "rate limit" test_guard_rate_limit;
          tc "work quota" test_guard_quota;
          tc "quota bills useful work" test_guard_bills_useful_work;
          tc "solicitation" test_guard_solicitation;
          tc "bad certs and bombs" test_guard_bad_cert_and_bomb;
          tc "denial classification" test_classify_guard_denials;
          tc "bounded dedup set" test_dedup_bounded;
        ] );
      ( "crash",
        [
          tc "crash forever denied" test_crash_forever_denied;
          tc "journal recovery" test_crash_restart_journal_recovers;
          tc "requester root recovery" test_crash_requester_root_recovery;
          tc "suspend and reissue" test_crash_suspend_reissue;
          tc "deadline expiry cancels" test_deadline_expiry_cancels;
          tc "same-tick order" test_same_tick_order;
          tc "cross-process journal resume"
            test_journal_dir_cross_process_resume;
        ] );
      ( "clock",
        [
          tc "interleaved negotiations" test_clock_interleaving;
          tc "proxied round trip" test_clock_proxy_hops;
          tc "guard windows are causal ticks" test_clock_guard_window;
        ] );
    ]
