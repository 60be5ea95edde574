(* Tests for the extension features: authority brokers, negotiation by
   proxy, static analysis, the n-party eager strategy, sticky policies and
   content-triggered policies. *)

open Peertrust
open Peertrust_dlp
module Net = Peertrust_net
module Rdf = Peertrust_rdf

let lit = Parser.parse_literal
let granted = Negotiation.succeeded

(* One relevant-strategy negotiation from a goal text. *)
let request_str session ~requester ~target goal =
  Reactor.negotiate session ~requester ~target (lit goal)

(* ------------------------------------------------------------------ *)
(* Broker / authority databases (§4.2) *)

let test_broker_lookup () =
  let session = Session.create () in
  ignore (Session.add_peer session "client");
  let _broker =
    Broker.add_broker session ~name:"broker"
      ~directory:[ ("purchaseApproved", "VISA"); ("approve", "approver") ]
  in
  Alcotest.(check (list string)) "lookup" [ "VISA" ]
    (Broker.lookup session ~requester:"client" ~broker:"broker"
       ~pred:"purchaseApproved");
  Alcotest.(check (list string)) "unknown predicate" []
    (Broker.lookup session ~requester:"client" ~broker:"broker" ~pred:"nope")

let test_broker_resolved_authority_in_policy () =
  (* The owner's policy resolves the approving authority through the
     broker at run time (the paper's last policy49 variant). *)
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|service(X) $ true <-{true}
             authority(approve, A) @ "broker", approve(X) @ A.|}
       "owner");
  ignore (Session.add_peer session ~program:{|approve("client") $ true.|} "approver");
  ignore (Session.add_peer session "client");
  ignore
    (Broker.add_broker session ~name:"broker"
       ~directory:[ ("approve", "approver") ]);
  let r =
    request_str session ~requester:"client" ~target:"owner"
      {|service("client")|}
  in
  Alcotest.(check bool) "granted through broker" true (granted r);
  (* Broker and approver were both consulted. *)
  let stats = Net.Network.stats session.Session.network in
  Alcotest.(check bool) "broker consulted" true
    (Net.Stats.between stats "owner" "broker" >= 1);
  Alcotest.(check bool) "approver consulted" true
    (Net.Stats.between stats "owner" "approver" >= 1)

let test_local_authority_database () =
  (* Same policy, but with a local authority database instead of a
     broker. *)
  let session = Session.create () in
  let owner =
    Session.add_peer session
      ~program:
        {|service(X) $ true <-{true} authority(approve, A), approve(X) @ A.|}
      "owner"
  in
  Broker.install_directory owner [ ("approve", "approver") ];
  ignore (Session.add_peer session ~program:{|approve("client") $ true.|} "approver");
  ignore (Session.add_peer session "client");
  let r =
    request_str session ~requester:"client" ~target:"owner"
      {|service("client")|}
  in
  Alcotest.(check bool) "granted via local directory" true (granted r)

(* ------------------------------------------------------------------ *)
(* Proxy negotiation (§4.2) *)

let proxy_world () =
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
           haveIt("r").
           cred(X) @ "CA" <- cred(X) @ "CA" @ X.|}
       "owner");
  (* Bob's trusted home machine holds his policies and credentials. *)
  ignore
    (Session.add_peer session
       ~program:{|cred("device") @ "CA" $ true signedBy ["CA"].|}
       "home");
  ignore (Proxy.attach_device session ~device:"device" ~proxy:"home");
  session

let test_proxy_negotiation_succeeds () =
  let session = proxy_world () in
  (* The owner counter-queries the device; the device forwards to home,
     which releases Bob's credential. *)
  let r =
    request_str session ~requester:"device" ~target:"owner"
      {|resource("r")|}
  in
  Alcotest.(check bool) "granted through the proxy" true (granted r);
  Alcotest.(check bool) "device forwarded at least one query" true
    (Proxy.forwarded_count session ~device:"device" >= 1);
  (* The forwarding hops show up in the transcript. *)
  let stats = Net.Network.stats session.Session.network in
  Alcotest.(check bool) "device->home traffic accounted" true
    (Net.Stats.between stats "device" "home" >= 1)

let test_proxy_unreachable () =
  let session = proxy_world () in
  Net.Network.set_down session.Session.network "home" true;
  let r =
    request_str session ~requester:"device" ~target:"owner"
      {|resource("r")|}
  in
  Alcotest.(check bool) "denied when the proxy is down" false (granted r)

let test_proxy_device_holds_nothing () =
  let session = proxy_world () in
  let device = Session.peer session "device" in
  Alcotest.(check int) "empty device KB" 0 (Kb.size device.Peer.kb)

(* ------------------------------------------------------------------ *)
(* Static analysis (§6) *)

let test_analysis_policy_chain_all_released () =
  let w = Scenario.policy_chain ~depth:3 () in
  let world = Analysis.world_of_session w.Scenario.cw_session in
  let report = Analysis.analyze world in
  Alcotest.(check int) "nothing locked" 0 (List.length report.Analysis.locked);
  Alcotest.(check bool) "resource released" true
    (List.mem ("bob", ("resource", 1)) report.Analysis.released);
  Alcotest.(check bool) "success predicted" true
    (Analysis.may_succeed world ~owner:"bob" ~goal:(lit {|resource("r1")|}))

let test_analysis_detects_deadlock () =
  let world =
    Analysis.world_of_programs
      [
        ( "owner",
          {|a("o") $ b(Requester) @ "CA" <-{true} a("o").
            a("o") @ "CA" signedBy ["CA"].
            b(X) @ "CA" <- b(X) @ "CA" @ X.|} );
        ( "req",
          {|b("req") $ a(Requester) @ "CA" <-{true} b("req").
            b("req") @ "CA" signedBy ["CA"].
            a(X) @ "CA" <- a(X) @ "CA" @ X.|} );
      ]
  in
  let report = Analysis.analyze world in
  Alcotest.(check int) "both locked" 2 (List.length report.Analysis.locked);
  Alcotest.(check bool) "cycle reported" true (report.Analysis.deadlocks <> []);
  Alcotest.(check bool) "failure is definitive" false
    (Analysis.may_succeed world ~owner:"owner" ~goal:(lit {|a("o")|}))

let test_analysis_private_goal_never_succeeds () =
  let world = Analysis.world_of_programs [ ("owner", {|secret(42).|}) ] in
  Alcotest.(check bool) "private fact unreachable" false
    (Analysis.may_succeed world ~owner:"owner" ~goal:(lit "secret(X)"))

let test_analysis_agrees_with_runtime () =
  (* On the deadlock world the analysis predicts failure and the engine
     indeed denies; on the chain world both succeed. *)
  let w = Scenario.policy_chain ~depth:2 () in
  let world = Analysis.world_of_session w.Scenario.cw_session in
  let predicted = Analysis.may_succeed world ~owner:"bob" ~goal:w.Scenario.cw_goal in
  let actual =
    granted
      (Reactor.negotiate w.Scenario.cw_session ~requester:"alice"
         ~target:"bob" w.Scenario.cw_goal)
  in
  Alcotest.(check bool) "prediction matches runtime" actual predicted

let test_analysis_scenario1 () =
  let s = Scenario.scenario1 () in
  let world = Analysis.world_of_session s.Scenario.s1_session in
  Alcotest.(check bool) "discount predicted reachable" true
    (Analysis.may_succeed world ~owner:"E-Learn" ~goal:
       (lit {|discountEnroll(spanish101, "Alice")|}))

let test_analysis_critical_credentials () =
  (* Every chain credential is critical on a pure chain... *)
  let w = Scenario.policy_chain ~depth:3 () in
  let world = Analysis.world_of_session w.Scenario.cw_session in
  let critical =
    Analysis.critical_credentials world ~owner:"bob" ~goal:w.Scenario.cw_goal
  in
  Alcotest.(check int) "three critical credentials" 3 (List.length critical);
  Alcotest.(check bool) "alice's refusal matters" true
    (Analysis.refusal_matters world ~owner:"bob" ~goal:w.Scenario.cw_goal
       ~peer:"alice");
  (* ...but irrelevant extras are not critical. *)
  let w2 = Scenario.policy_chain ~depth:2 ~extra_creds:3 () in
  let world2 = Analysis.world_of_session w2.Scenario.cw_session in
  let critical2 =
    Analysis.critical_credentials world2 ~owner:"bob" ~goal:w2.Scenario.cw_goal
  in
  Alcotest.(check int) "extras excluded" 2 (List.length critical2)

let test_analysis_redundant_credential_not_critical () =
  (* Two independent credentials can each satisfy the guard: neither is
     critical alone. *)
  let world =
    Analysis.world_of_programs
      [
        ( "owner",
          {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
            haveIt("r").
            cred(X) @ "CA" <- cred(X) @ "CA" @ X.|} );
        ( "alice",
          {|cred("alice") @ "CA" $ true signedBy ["CA"].
            cred("alice") @ "CA" $ true signedBy ["CA2"].|} );
      ]
  in
  let goal = lit {|resource("r")|} in
  Alcotest.(check bool) "succeeds" true
    (Analysis.may_succeed world ~owner:"owner" ~goal);
  Alcotest.(check int) "no single credential is critical" 0
    (List.length (Analysis.critical_credentials world ~owner:"owner" ~goal))

let test_analysis_critical_empty_on_failure () =
  let w = Scenario.policy_chain ~depth:2 ~missing:1 () in
  let world = Analysis.world_of_session w.Scenario.cw_session in
  Alcotest.(check int) "no critical set for a doomed goal" 0
    (List.length
       (Analysis.critical_credentials world ~owner:"bob"
          ~goal:w.Scenario.cw_goal))

(* ------------------------------------------------------------------ *)
(* n-party eager strategy (§6) *)

let three_party_world () =
  (* The resource owner needs a voucher about the requester that only the
     third peer can provide: a 2-party negotiation cannot succeed, the
     3-party eager one can. *)
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|resource("r") $ voucher(Requester) @ "CA" <-{true} haveIt("r").
           haveIt("r").|}
       "owner");
  ignore (Session.add_peer session "alice");
  ignore
    (Session.add_peer session
       ~program:{|voucher("alice") @ "CA" $ true signedBy ["CA"].|}
       "carol");
  session

let test_multi_eager_succeeds_where_two_party_fails () =
  let session = three_party_world () in
  let two_party =
    Strategy.negotiate session ~strategy:Strategy.Eager ~requester:"alice"
      ~target:"owner" (lit {|resource("r")|})
  in
  Alcotest.(check bool) "two-party eager fails" false (granted two_party);
  let session = three_party_world () in
  let three_party =
    Strategy.negotiate_multi session
      ~participants:[ "alice"; "owner"; "carol" ]
      ~requester:"alice" ~target:"owner" (lit {|resource("r")|})
  in
  Alcotest.(check bool) "three-party eager succeeds" true (granted three_party)

let test_multi_eager_requires_listed_parties () =
  let session = three_party_world () in
  Alcotest.check_raises "requester must participate"
    (Invalid_argument "Strategy.negotiate_multi: requester/target not listed")
    (fun () ->
      ignore
        (Strategy.negotiate_multi session ~participants:[ "owner"; "carol" ]
           ~requester:"alice" ~target:"owner" (lit {|resource("r")|})))

let test_multi_eager_terminates_on_failure () =
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|resource("r") $ voucher(Requester) @ "CA" <-{true} haveIt("r").
           haveIt("r").|}
       "owner");
  ignore (Session.add_peer session "alice");
  ignore (Session.add_peer session "carol");
  let r =
    Strategy.negotiate_multi session
      ~participants:[ "alice"; "owner"; "carol" ]
      ~requester:"alice" ~target:"owner" (lit {|resource("r")|})
  in
  Alcotest.(check bool) "fails finitely" false (granted r)

(* ------------------------------------------------------------------ *)
(* Sticky policies (§3.1) *)

let test_learned_credential_private_by_default () =
  (* B obtains A's credential, but cannot re-disclose it: B has no release
     rule for it, and the default context is private. *)
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|secret("A") @ "CA" $ friend(Requester) <-{true} secret("A") @ "CA".
           secret("A") @ "CA" signedBy ["CA"].
           friend("B").|}
       "A");
  ignore (Session.add_peer session "B");
  ignore (Session.add_peer session "C");
  let r_b =
    request_str session ~requester:"B" ~target:"A"
      {|secret(X) @ "CA"|}
  in
  Alcotest.(check bool) "friend B gets the secret" true (granted r_b);
  Alcotest.(check bool) "B holds the certificate" true
    (Hashtbl.length (Session.peer session "B").Peer.certs > 0);
  let r_c =
    request_str session ~requester:"C" ~target:"B"
      {|secret(X) @ "CA"|}
  in
  Alcotest.(check bool) "C cannot pull it out of B" false (granted r_c)

let test_sticky_context_travels_with_credential () =
  (* When the release guard is written on the signed fact itself, the
     learned certificate carries it: the receiving peer enforces the same
     policy before further dissemination (sticky policy, non-adversarial
     setting). *)
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|secret("A") @ "CA" $ friend(Requester) signedBy ["CA"].
           friend("B").|}
       "A");
  ignore (Session.add_peer session ~program:{|friend("C").|} "B");
  ignore (Session.add_peer session "C");
  ignore (Session.add_peer session "D");
  let r_b =
    request_str session ~requester:"B" ~target:"A"
      {|secret(X) @ "CA"|}
  in
  Alcotest.(check bool) "B obtains it (A's friend)" true (granted r_b);
  (* B considers C a friend, so the sticky context admits C... *)
  let r_c =
    request_str session ~requester:"C" ~target:"B"
      {|secret(X) @ "CA"|}
  in
  Alcotest.(check bool) "C admitted under the travelling policy" true
    (granted r_c);
  (* ...but D is nobody's friend. *)
  let r_d =
    request_str session ~requester:"D" ~target:"B"
      {|secret(X) @ "CA"|}
  in
  Alcotest.(check bool) "D still locked out" false (granted r_d)

(* ------------------------------------------------------------------ *)
(* Content-triggered policies (§6) over RDF-described resources *)

let test_content_triggered_policy () =
  (* "the ability to print color documents on all printers on the third
     floor" — one intensional policy covering a set of resources defined
     by a query over their attributes. *)
  let turtle =
    {|
      @prefix o: <http://office#> .
      o:pr1 a o:Printer ; o:floor 3 ; o:color 1 .
      o:pr2 a o:Printer ; o:floor 3 ; o:color 0 .
      o:pr3 a o:Printer ; o:floor 2 ; o:color 1 .
    |}
  in
  let session = Session.create () in
  let owner =
    Session.add_peer session
      ~program:
        {|print(P, Requester) $ staff(Requester) @ "HR" <-{true}
            a(P, Class), floor(P, 3), color(P, 1).
          staff(X) @ "HR" <- staff(X) @ "HR" @ X.|}
      "owner"
  in
  owner.Peer.kb <-
    Kb.union owner.Peer.kb (Rdf.Mapping.kb_of_store (Rdf.Turtle.load turtle));
  ignore
    (Session.add_peer session
       ~program:{|staff("emp") @ "HR" $ true signedBy ["HR"].|}
       "emp");
  let try_printer p =
    granted
      (request_str session ~requester:"emp" ~target:"owner"
         (Printf.sprintf {|print(%s, "emp")|} p))
  in
  Alcotest.(check bool) "3rd-floor color printer covered" true (try_printer "pr1");
  Alcotest.(check bool) "monochrome excluded" false (try_printer "pr2");
  Alcotest.(check bool) "2nd floor excluded" false (try_printer "pr3")

(* ------------------------------------------------------------------ *)
(* Explanation rendering *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let test_explain_narrative () =
  let s = Scenario.scenario1 () in
  let r =
    request_str s.Scenario.s1_session ~requester:"Alice"
      ~target:"E-Learn" {|discountEnroll(spanish101, "Alice")|}
  in
  let text = Explain.narrative r in
  Alcotest.(check bool) "asks step" true (contains ~sub:"Alice asks E-Learn" text);
  Alcotest.(check bool) "counter-query" true
    (contains ~sub:"E-Learn asks Alice" text);
  Alcotest.(check bool) "disclosure mentioned" true
    (contains ~sub:"disclosing" text);
  Alcotest.(check bool) "outcome" true (contains ~sub:"Access granted" text)

let test_explain_narrative_denial () =
  let s = Scenario.scenario1 () in
  let r =
    request_str s.Scenario.s1_session ~requester:"E-Learn"
      ~target:"UIUC" {|student("Alice")|}
  in
  let text = Explain.narrative r in
  Alcotest.(check bool) "refusal step" true (contains ~sub:"UIUC refuses" text);
  Alcotest.(check bool) "outcome" true (contains ~sub:"Access denied" text)

let test_explain_sequence_diagram () =
  let s = Scenario.scenario1 () in
  let r =
    request_str s.Scenario.s1_session ~requester:"Alice"
      ~target:"E-Learn" {|discountEnroll(spanish101, "Alice")|}
  in
  let mmd = Explain.sequence_diagram r in
  Alcotest.(check bool) "header" true (contains ~sub:"sequenceDiagram" mmd);
  Alcotest.(check bool) "participants declared" true
    (contains ~sub:"participant Alice" mmd);
  Alcotest.(check bool) "E-Learn id sanitised" true
    (contains ~sub:"participant E_Learn" mmd);
  Alcotest.(check bool) "arrows" true (contains ~sub:"->>" mmd)

let test_explain_proof_dot () =
  let session = Session.create () in
  let p =
    Session.add_peer session
      ~program:
        {|eligible(X) <- student(X) @ "UIUC", 1 < 2.
          student("p") @ "UIUC" signedBy ["UIUC"].|}
      "p"
  in
  match Engine.evaluate p [ Parser.parse_literal {|eligible("p")|} ] with
  | { Sld.proofs = [ trace ]; _ } :: _ ->
      let dot = Explain.proof_dot trace in
      Alcotest.(check bool) "digraph" true (contains ~sub:"digraph proof" dot);
      Alcotest.(check bool) "credential highlighted" true
        (contains ~sub:"signed by UIUC" dot);
      Alcotest.(check bool) "builtin dashed" true (contains ~sub:"style=dashed" dot);
      Alcotest.(check bool) "edges" true (contains ~sub:"->" dot)
  | _ -> Alcotest.fail "proof expected"

(* ------------------------------------------------------------------ *)
(* Standard externals: authenticatesTo, reputation, accounts *)

let test_authenticates_to () =
  (* Footnote 3 of the paper: preferred(X) <- student(Y) @ "UIUC",
     authenticatesTo(X, Y) — Alice proves she owns the student number
     under which UIUC knows her. *)
  let ids = Externals.Identity.create () in
  Externals.Identity.enroll ids ~principal:"Alice" ~identity:"uiuc-4711";
  let session = Session.create () in
  let owner =
    Session.add_peer session
      ~externals:(Externals.Identity.externals ids)
      ~program:
        {|preferred(X) $ true <-{true}
            student(Y) @ "UIUC", authenticatesTo(X, Y).
          student("uiuc-4711") @ "UIUC" signedBy ["UIUC"].|}
      "owner"
  in
  ignore owner;
  ignore (Session.add_peer session "Alice");
  let ok =
    request_str session ~requester:"Alice" ~target:"owner"
      {|preferred("Alice")|}
  in
  Alcotest.(check bool) "Alice authenticates" true (granted ok);
  let no =
    request_str session ~requester:"Alice" ~target:"owner"
      {|preferred("Mallory")|}
  in
  Alcotest.(check bool) "Mallory does not" false (granted no)

let test_identity_enumeration () =
  let ids = Externals.Identity.create () in
  Externals.Identity.enroll ids ~principal:"Alice" ~identity:"id1";
  Externals.Identity.enroll ids ~principal:"Alice" ~identity:"id2";
  let kb = Kb.empty in
  let answers =
    Sld.answers
      ~externals:(Externals.Identity.externals ids)
      ~self:"p" kb
      (Parser.parse_query {|authenticatesTo("Alice", Y)|})
  in
  Alcotest.(check int) "both identities" 2 (List.length answers)

let test_reputation () =
  let rep = Externals.Reputation.create () in
  Externals.Reputation.rate rep ~subject:"shop" 4;
  Externals.Reputation.rate rep ~subject:"shop" 5;
  Externals.Reputation.rate rep ~subject:"scam" 1;
  Alcotest.(check (option int)) "average rounds" (Some 5)
    (Externals.Reputation.average rep ~subject:"shop");
  (* Paper §2: subjective criteria in a policy. *)
  let kb =
    Kb.of_string
      {|trustworthy(X) <- rating(X, R), R >= 3.|}
  in
  let ext = Externals.Reputation.externals rep in
  let provable q =
    Sld.provable ~externals:ext ~self:"p" kb (Parser.parse_query q)
  in
  Alcotest.(check bool) "good shop trusted" true (provable {|trustworthy("shop")|});
  Alcotest.(check bool) "scam not trusted" false (provable {|trustworthy("scam")|});
  Alcotest.(check bool) "unknown not trusted" false (provable {|trustworthy("x")|})

let test_accounts_limits_and_revocation () =
  let accounts = Externals.Accounts.create () in
  Externals.Accounts.set_limit accounts ~account:"IBM" 5000;
  let ext = Externals.Accounts.externals accounts in
  let provable q =
    Sld.provable ~externals:ext ~self:"visa" Kb.empty (Parser.parse_query q)
  in
  Alcotest.(check bool) "within limit" true (provable {|purchaseApproved("IBM", 1000)|});
  Alcotest.(check bool) "over limit" false (provable {|purchaseApproved("IBM", 9000)|});
  Externals.Accounts.revoke accounts ~account:"IBM";
  Alcotest.(check bool) "revoked account refused" false
    (provable {|purchaseApproved("IBM", 1000)|})

let test_externals_combine () =
  let ids = Externals.Identity.create () in
  Externals.Identity.enroll ids ~principal:"a" ~identity:"i";
  let rep = Externals.Reputation.create () in
  Externals.Reputation.rate rep ~subject:"a" 4;
  let ext =
    Externals.combine
      [ Externals.Identity.externals ids; Externals.Reputation.externals rep ]
  in
  let provable q =
    Sld.provable ~externals:ext ~self:"p" Kb.empty (Parser.parse_query q)
  in
  Alcotest.(check bool) "identity via combined" true (provable {|authenticatesTo("a", "i")|});
  Alcotest.(check bool) "rating via combined" true (provable {|rating("a", 4)|})

(* ------------------------------------------------------------------ *)
(* QEL metadata queries (Edutella substrate) *)

let demo_registry () =
  let reg = Rdf.Registry.create () in
  Rdf.Registry.add_course reg ~id:"spanish101" ~price:0 ~language:"spanish" ();
  Rdf.Registry.add_course reg ~id:"cs411" ~price:1000 ();
  Rdf.Registry.add_course reg ~id:"cs500" ~price:3000 ();
  reg

let test_qel_parse () =
  let q = Qel.parse "C, P <- course(C), price(C, P), P < 1500" in
  Alcotest.(check (list string)) "projection" [ "C"; "P" ] q.Qel.projection;
  Alcotest.(check int) "three conjuncts" 3 (List.length q.Qel.body);
  Alcotest.(check bool) "roundtrip" true
    (Qel.to_string q = Qel.to_string (Qel.parse (Qel.to_string q)))

let test_qel_parse_errors () =
  (try
     ignore (Qel.parse "Z <- course(C)");
     Alcotest.fail "unbound projection accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Qel.parse "course(C)");
    Alcotest.fail "missing arrow accepted"
  with Invalid_argument _ -> ()

let test_qel_eval_registry () =
  let reg = demo_registry () in
  let kb = Rdf.Registry.to_kb reg in
  let q = Qel.parse "C <- course(C), price(C, P), P < 1500" in
  let rows = Qel.eval_kb ~self:"x" kb q in
  (* Only cs411 has a price below 1500 (the free course has no price/2
     projection fact besides the raw triple view). *)
  Alcotest.(check bool) "cs411 found" true
    (List.mem [ Term.atom "cs411" ] rows);
  Alcotest.(check bool) "cs500 excluded" false
    (List.mem [ Term.atom "cs500" ] rows)

let test_qel_network_search () =
  let session = Session.create () in
  let program = Qel.searchable_program (demo_registry ()) in
  ignore (Session.add_peer session ~program "provider");
  ignore (Session.add_peer session "seeker");
  let q = Qel.parse "C, P <- price(C, P), P < 1500" in
  let rows = Qel.search session ~requester:"seeker" ~provider:"provider" q in
  (* cs411 ($1000) and the raw zero-price fact of the free course. *)
  Alcotest.(check int) "two affordable rows" 2 (List.length rows);
  Alcotest.(check bool) "cs411 found" true
    (List.mem [ Term.atom "cs411"; Term.Int 1000 ] rows);
  Alcotest.(check bool) "cs500 excluded" false
    (List.exists
       (function
         | [ c; _ ] -> Term.equal c (Term.atom "cs500")
         | _ -> false)
       rows)

let test_qel_search_all () =
  let session = Session.create () in
  let reg_a = Rdf.Registry.create () in
  Rdf.Registry.add_course reg_a ~id:"alpha" ~price:100 ();
  let reg_b = Rdf.Registry.create () in
  Rdf.Registry.add_course reg_b ~id:"beta" ~price:200 ();
  ignore
    (Session.add_peer session ~program:(Qel.searchable_program reg_a) "prov_a");
  ignore
    (Session.add_peer session ~program:(Qel.searchable_program reg_b) "prov_b");
  ignore (Session.add_peer session "seeker");
  let q = Qel.parse "C <- price(C, P)" in
  let results =
    Qel.search_all session ~requester:"seeker"
      ~providers:[ "prov_a"; "prov_b" ] q
  in
  Alcotest.(check int) "both providers answered" 2 (List.length results);
  Alcotest.(check bool) "alpha at a" true
    (List.assoc "prov_a" results = [ [ Term.atom "alpha" ] ]);
  Alcotest.(check bool) "beta at b" true
    (List.assoc "prov_b" results = [ [ Term.atom "beta" ] ])

let test_qel_respects_release_policies () =
  (* A provider whose catalogue is guarded releases nothing to strangers. *)
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|price(cs1, 700).
           price(C, P) $ partner(Requester) <-{true} price(C, P).|}
       "provider");
  ignore (Session.add_peer session "seeker");
  let q = Qel.parse "C <- price(C, P)" in
  Alcotest.(check int) "guarded catalogue hidden" 0
    (List.length (Qel.search session ~requester:"seeker" ~provider:"provider" q))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "broker",
        [
          tc "directory lookup" test_broker_lookup;
          tc "broker-resolved authority" test_broker_resolved_authority_in_policy;
          tc "local authority database" test_local_authority_database;
        ] );
      ( "proxy",
        [
          tc "negotiation through proxy" test_proxy_negotiation_succeeds;
          tc "proxy unreachable" test_proxy_unreachable;
          tc "device holds nothing" test_proxy_device_holds_nothing;
        ] );
      ( "analysis",
        [
          tc "chain fully released" test_analysis_policy_chain_all_released;
          tc "deadlock detected" test_analysis_detects_deadlock;
          tc "private goal" test_analysis_private_goal_never_succeeds;
          tc "agrees with runtime" test_analysis_agrees_with_runtime;
          tc "scenario 1 reachable" test_analysis_scenario1;
          tc "critical credentials" test_analysis_critical_credentials;
          tc "redundant credential not critical"
            test_analysis_redundant_credential_not_critical;
          tc "critical set empty on failure" test_analysis_critical_empty_on_failure;
        ] );
      ( "multi-party",
        [
          tc "3-party succeeds where 2-party fails"
            test_multi_eager_succeeds_where_two_party_fails;
          tc "participants checked" test_multi_eager_requires_listed_parties;
          tc "terminates on failure" test_multi_eager_terminates_on_failure;
        ] );
      ( "sticky",
        [
          tc "learned credential private by default"
            test_learned_credential_private_by_default;
          tc "context travels with credential"
            test_sticky_context_travels_with_credential;
        ] );
      ( "content-triggered",
        [ tc "intensional printer policy" test_content_triggered_policy ] );
      ( "explain",
        [
          tc "narrative" test_explain_narrative;
          tc "narrative of denial" test_explain_narrative_denial;
          tc "sequence diagram" test_explain_sequence_diagram;
          tc "proof dot" test_explain_proof_dot;
        ] );
      ( "externals",
        [
          tc "authenticatesTo" test_authenticates_to;
          tc "identity enumeration" test_identity_enumeration;
          tc "reputation" test_reputation;
          tc "accounts" test_accounts_limits_and_revocation;
          tc "combine" test_externals_combine;
        ] );
      ( "qel",
        [
          tc "parse" test_qel_parse;
          tc "parse errors" test_qel_parse_errors;
          tc "registry evaluation" test_qel_eval_registry;
          tc "network search" test_qel_network_search;
          tc "multi-provider search" test_qel_search_all;
          tc "release policies respected" test_qel_respects_release_policies;
        ] );
    ]
