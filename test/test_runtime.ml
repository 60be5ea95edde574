(* Tests for the run-time mechanisms of the paper's §3 paragraph on
   access-granting: nontransferable access tokens and audit trails. *)

open Peertrust
open Peertrust_dlp
module Net = Peertrust_net

let lit = Parser.parse_literal
let granted = Negotiation.succeeded

(* One relevant-strategy negotiation from a goal text. *)
let request_str session ~requester ~target goal =
  Reactor.negotiate session ~requester ~target (lit goal)

let token_world () =
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|spanishCourse("s1") $ cred(Requester) @ "CA" <-{true} offered("s1").
           offered("s1").
           cred(X) @ "CA" <- cred(X) @ "CA" @ X.|}
       "elearn");
  ignore
    (Session.add_peer session
       ~program:{|cred("alice") @ "CA" $ true signedBy ["CA"].|}
       "alice");
  ignore (Session.add_peer session "mallory");
  session

(* ------------------------------------------------------------------ *)
(* Tokens *)

let test_token_grant_and_redeem () =
  let session = token_world () in
  let goal = lit {|spanishCourse("s1")|} in
  let report, token =
    Token.negotiate_with_token session ~requester:"alice" ~target:"elearn"
      ~ttl:100 goal
  in
  Alcotest.(check bool) "negotiation granted" true (granted report);
  match token with
  | None -> Alcotest.fail "token expected"
  | Some token -> (
      match Token.redeem session ~issuer:"elearn" ~bearer:"alice" ~goal token with
      | Ok () -> ()
      | Error e -> Alcotest.failf "redeem failed: %a" Token.pp_error e)

let test_token_not_transferable () =
  let session = token_world () in
  let goal = lit {|spanishCourse("s1")|} in
  let _, token =
    Token.negotiate_with_token session ~requester:"alice" ~target:"elearn"
      ~ttl:100 goal
  in
  match Option.get token with
  | token -> (
      match Token.redeem session ~issuer:"elearn" ~bearer:"mallory" ~goal token with
      | Error (Token.Wrong_holder "mallory") -> ()
      | Ok () -> Alcotest.fail "transferred token accepted"
      | Error e -> Alcotest.failf "unexpected: %a" Token.pp_error e)

let test_token_wrong_service () =
  let session = token_world () in
  let goal = lit {|spanishCourse("s1")|} in
  let token = Token.grant session ~issuer:"elearn" ~holder:"alice" ~goal ~ttl:10 in
  match
    Token.redeem session ~issuer:"elearn" ~bearer:"alice"
      ~goal:(lit {|frenchCourse("f1")|}) token
  with
  | Error Token.Wrong_service -> ()
  | Ok () -> Alcotest.fail "cross-service token accepted"
  | Error e -> Alcotest.failf "unexpected: %a" Token.pp_error e

let test_token_same_service_other_instance () =
  (* The token covers the service skeleton, so another course instance of
     the same service predicate is covered. *)
  let session = token_world () in
  let token =
    Token.grant session ~issuer:"elearn" ~holder:"alice"
      ~goal:(lit {|spanishCourse("s1")|}) ~ttl:10
  in
  match
    Token.redeem session ~issuer:"elearn" ~bearer:"alice"
      ~goal:(lit {|spanishCourse("s2")|}) token
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "skeleton should cover: %a" Token.pp_error e

let test_token_expiry () =
  let config = { Session.default_config with Session.now = 50 } in
  let session = Session.create ~config () in
  ignore (Session.add_peer session "elearn");
  ignore (Session.add_peer session "alice");
  let goal = lit {|course("c")|} in
  let token = Token.grant session ~issuer:"elearn" ~holder:"alice" ~goal ~ttl:10 in
  (* Valid at issue time... *)
  (match Token.redeem session ~issuer:"elearn" ~bearer:"alice" ~goal token with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh token rejected: %a" Token.pp_error e);
  (* ...but a session living at a later instant rejects it. *)
  let later =
    { session with Session.config = { config with Session.now = 100 } }
  in
  match Token.redeem later ~issuer:"elearn" ~bearer:"alice" ~goal token with
  | Error (Token.Invalid (Peertrust_crypto.Cert.Expired _)) -> ()
  | Ok () -> Alcotest.fail "expired token accepted"
  | Error e -> Alcotest.failf "unexpected: %a" Token.pp_error e

let test_token_revocation () =
  let session = token_world () in
  let goal = lit {|spanishCourse("s1")|} in
  let token = Token.grant session ~issuer:"elearn" ~holder:"alice" ~goal ~ttl:10 in
  Token.revoke session token;
  match Token.redeem session ~issuer:"elearn" ~bearer:"alice" ~goal token with
  | Error (Token.Invalid (Peertrust_crypto.Cert.Revoked _)) -> ()
  | Ok () -> Alcotest.fail "revoked token accepted"
  | Error e -> Alcotest.failf "unexpected: %a" Token.pp_error e

let test_token_wrong_issuer () =
  let session = token_world () in
  let goal = lit {|spanishCourse("s1")|} in
  let token = Token.grant session ~issuer:"elearn" ~holder:"alice" ~goal ~ttl:10 in
  match Token.redeem session ~issuer:"mallory" ~bearer:"alice" ~goal token with
  | Error (Token.Invalid _) -> ()
  | Ok () -> Alcotest.fail "token from another issuer accepted"
  | Error e -> Alcotest.failf "unexpected: %a" Token.pp_error e

let test_token_skips_renegotiation () =
  (* Redeeming is message-free: the whole point of the mechanism. *)
  let session = token_world () in
  let goal = lit {|spanishCourse("s1")|} in
  let _, token =
    Token.negotiate_with_token session ~requester:"alice" ~target:"elearn"
      ~ttl:100 goal
  in
  let stats = Net.Network.stats session.Session.network in
  let before = Net.Stats.messages stats in
  (match Token.redeem session ~issuer:"elearn" ~bearer:"alice" ~goal (Option.get token) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "redeem failed: %a" Token.pp_error e);
  Alcotest.(check int) "no messages for redemption" before
    (Net.Stats.messages stats)

(* ------------------------------------------------------------------ *)
(* Audit trail *)

let test_audit_records_decisions () =
  let session = token_world () in
  let audit = Audit.create () in
  Audit.attach audit session;
  ignore
    (Reactor.negotiate session ~requester:"alice" ~target:"elearn"
       (lit {|spanishCourse("s1")|}));
  ignore
    (Reactor.negotiate session ~requester:"mallory" ~target:"elearn"
       (lit {|spanishCourse("s1")|}));
  let entries = Audit.entries audit in
  Alcotest.(check bool) "some entries" true (List.length entries >= 2);
  let elearn_entries = Audit.for_peer audit "elearn" in
  Alcotest.(check bool) "grant logged at elearn" true
    (List.exists
       (fun (e : Audit.entry) ->
         e.Audit.requester = "alice" && e.Audit.decision = Audit.Grant)
       elearn_entries);
  Alcotest.(check bool) "denial logged at elearn" true
    (List.exists
       (fun (e : Audit.entry) ->
         e.Audit.requester = "mallory"
         && match e.Audit.decision with Audit.Deny _ -> true | _ -> false)
       elearn_entries)

let test_audit_credentials_recorded () =
  let session = token_world () in
  let audit = Audit.create () in
  Audit.attach audit session;
  ignore
    (Reactor.negotiate session ~requester:"alice" ~target:"elearn"
       (lit {|spanishCourse("s1")|}));
  (* Alice's counter-answer disclosed her CA credential: its serial must
     appear in her audit entry. *)
  let alice_grants =
    List.filter
      (fun (e : Audit.entry) -> e.Audit.decision = Audit.Grant)
      (Audit.for_peer audit "alice")
  in
  Alcotest.(check bool) "credential serial recorded" true
    (List.exists (fun (e : Audit.entry) -> e.Audit.credentials <> []) alice_grants)

let test_audit_chronological_and_filtered () =
  let session = token_world () in
  let audit = Audit.create () in
  Audit.attach audit session;
  ignore
    (Reactor.negotiate session ~requester:"mallory" ~target:"elearn"
       (lit {|spanishCourse("s1")|}));
  ignore
    (Reactor.negotiate session ~requester:"alice" ~target:"elearn"
       (lit {|spanishCourse("s1")|}));
  let entries = Audit.entries audit in
  let times = List.map (fun (e : Audit.entry) -> e.Audit.at) entries in
  Alcotest.(check bool) "chronological" true
    (List.sort compare times = times);
  Alcotest.(check int) "grants + denials = all"
    (List.length entries)
    (List.length (Audit.grants audit) + List.length (Audit.denials audit))

(* ------------------------------------------------------------------ *)
(* World persistence *)

let with_temp_dir f =
  let dir = Filename.temp_file "ptworld" "" in
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

let test_persist_roundtrip () =
  with_temp_dir @@ fun dir ->
  let s = Scenario.scenario1 () in
  Persist.save s.Scenario.s1_session ~dir;
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok session ->
      let r =
        request_str session ~requester:"Alice" ~target:"E-Learn"
          {|discountEnroll(spanish101, "Alice")|}
      in
      Alcotest.(check bool) "reloaded world negotiates" true (granted r);
      Alcotest.(check int) "same message count as fresh world" 6
        r.Negotiation.messages

let test_persist_preserves_learned_state () =
  with_temp_dir @@ fun dir ->
  let s = Scenario.scenario1 () in
  (* Run once so Alice caches E-Learn's BBB credential... *)
  ignore
    (request_str s.Scenario.s1_session ~requester:"Alice"
       ~target:"E-Learn" {|discountEnroll(spanish101, "Alice")|});
  Persist.save s.Scenario.s1_session ~dir;
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok session ->
      (* ...so the reloaded world answers with fewer messages than cold. *)
      let r =
        request_str session ~requester:"Alice" ~target:"E-Learn"
          {|discountEnroll(spanish101, "Alice")|}
      in
      Alcotest.(check bool) "granted" true (granted r);
      Alcotest.(check bool) "cache survived the roundtrip" true
        (r.Negotiation.messages < 6)

let test_persist_missing_meta () =
  with_temp_dir @@ fun dir ->
  match Persist.load ~dir () with
  | Error (Persist.Bad_world _) -> ()
  | Ok _ -> Alcotest.fail "empty dir accepted"

(* Corrupt worlds: every flavour of damage must come back as a
   structured [Bad_world] naming the file (and line, where a parser is
   involved) — never an exception. *)

let write_raw path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let expect_bad_world ~substr result =
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    n = 0 || go 0
  in
  match result with
  | Ok _ -> Alcotest.fail "corrupt world loaded"
  | Error (Persist.Bad_world m) ->
      if not (contains m substr) then
        Alcotest.failf "reason %S does not mention %S" m substr

let saved_single_peer_world dir =
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|info(1) $ true.|} "owner");
  Persist.save session ~dir

let test_persist_bad_magic () =
  with_temp_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  write_raw (Filename.concat dir "world.meta") "who knows\n";
  expect_bad_world ~substr:"world.meta line 1" (Persist.load ~dir ())

let test_persist_truncated_meta () =
  with_temp_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  write_raw (Filename.concat dir "world.meta") "";
  expect_bad_world ~substr:"world.meta line 1" (Persist.load ~dir ())

let test_persist_corrupt_meta_entry () =
  with_temp_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  write_raw
    (Filename.concat dir "world.meta")
    "peertrust-world 1\npeer: zero 6f776e6572\n";
  expect_bad_world ~substr:"world.meta line 2" (Persist.load ~dir ())

let test_persist_missing_program () =
  with_temp_dir @@ fun dir ->
  saved_single_peer_world dir;
  Sys.remove (Filename.concat dir "peer0.pt");
  expect_bad_world ~substr:"missing peer0.pt" (Persist.load ~dir ())

let test_persist_garbage_program () =
  with_temp_dir @@ fun dir ->
  saved_single_peer_world dir;
  write_raw (Filename.concat dir "peer0.pt") "info(1 $ true.\nrule( <- junk";
  expect_bad_world ~substr:"peer0.pt line" (Persist.load ~dir ())

let test_persist_garbage_wallet () =
  with_temp_dir @@ fun dir ->
  saved_single_peer_world dir;
  write_raw
    (Filename.concat dir "peer0.wallet")
    "-----BEGIN PEERTRUST CERTIFICATE-----\n\
     serial: x\n\
     -----END PEERTRUST CERTIFICATE-----\n";
  expect_bad_world ~substr:"peer0.wallet: line 2" (Persist.load ~dir ())

let test_persist_truncated_wallet () =
  with_temp_dir @@ fun dir ->
  saved_single_peer_world dir;
  write_raw
    (Filename.concat dir "peer0.wallet")
    "-----BEGIN PEERTRUST CERTIFICATE-----\nserial: 4\n";
  expect_bad_world ~substr:"peer0.wallet" (Persist.load ~dir ())

let test_persist_odd_peer_names () =
  with_temp_dir @@ fun dir ->
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|info(1) $ true.|} "Weird: Name/1");
  ignore (Session.add_peer session "client peer");
  Persist.save session ~dir;
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok loaded ->
      Alcotest.(check (list string)) "names survive"
        [ "Weird: Name/1"; "client peer" ]
        (Session.peer_names loaded)

let test_journal_compaction () =
  (* Hashed compaction keeps exactly what the list-based dedup it
     replaced kept: settled roots' Goal/Done pairs go, repeated entries
     go, first occurrences keep their order. *)
  let module J = Persist.Journal in
  let ks = Peertrust_crypto.Keystore.create ~bits:320 ~seed:9L () in
  let cert src =
    match Peertrust_crypto.Cert.issue ks (Parser.parse_rule src) with
    | Ok c -> J.Cert c
    | Error _ -> Alcotest.fail "issue"
  in
  let fact src = J.Fact (Rule.fact (lit src)) in
  let goal id = J.Goal { id; target = "owner"; goal = lit {|r("x")|} } in
  let c1 = cert {|a("x") @ "CA" signedBy ["CA"].|}
  and c2 = cert {|b("y") @ "CA" signedBy ["CA"].|} in
  let f1 = fact {|p(1) @ "owner"|} and f2 = fact {|p(2) @ "owner"|} in
  let journal = J.in_memory () in
  List.iter (J.append journal)
    [
      goal 1; c1; f1; c1; J.Done { id = 1 }; f2; f1; goal 2; c2; c1; goal 3;
      J.Done { id = 2 }; f2; c2;
    ];
  let entries =
    match J.entries journal with
    | Ok e -> e
    | Error _ -> Alcotest.fail "journal unreadable"
  in
  let reference =
    let finished =
      List.filter_map (function J.Done { id } -> Some id | _ -> None) entries
    in
    let live =
      List.filter
        (function
          | J.Done { id } | J.Goal { id; _ } -> not (List.mem id finished)
          | J.Cert _ | J.Fact _ | J.Answer _ -> true)
        entries
    in
    List.fold_left (fun acc e -> if List.mem e acc then acc else acc @ [ e ])
      [] live
  in
  let rewritten kept =
    let j = J.in_memory () in
    J.rewrite j kept;
    J.contents j
  in
  Alcotest.(check string) "same journal" (rewritten reference)
    (rewritten (J.compact entries));
  Alcotest.(check int) "goal 3, two certs, two facts" 5
    (List.length (J.compact entries))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "runtime"
    [
      ( "token",
        [
          tc "grant and redeem" test_token_grant_and_redeem;
          tc "not transferable" test_token_not_transferable;
          tc "wrong service" test_token_wrong_service;
          tc "same service, other instance" test_token_same_service_other_instance;
          tc "expiry" test_token_expiry;
          tc "revocation" test_token_revocation;
          tc "wrong issuer" test_token_wrong_issuer;
          tc "redemption is message-free" test_token_skips_renegotiation;
        ] );
      ( "audit",
        [
          tc "records decisions" test_audit_records_decisions;
          tc "records credentials" test_audit_credentials_recorded;
          tc "chronological and filtered" test_audit_chronological_and_filtered;
        ] );
      ( "persist",
        [
          tc "roundtrip" test_persist_roundtrip;
          tc "learned state survives" test_persist_preserves_learned_state;
          tc "missing meta" test_persist_missing_meta;
          tc "odd peer names" test_persist_odd_peer_names;
          tc "journal compaction" test_journal_compaction;
        ] );
      ( "persist corruption",
        [
          tc "bad magic" test_persist_bad_magic;
          tc "truncated meta" test_persist_truncated_meta;
          tc "corrupt meta entry" test_persist_corrupt_meta_entry;
          tc "missing program" test_persist_missing_program;
          tc "garbage program" test_persist_garbage_program;
          tc "garbage wallet" test_persist_garbage_wallet;
          tc "truncated wallet" test_persist_truncated_wallet;
        ] );
    ]
