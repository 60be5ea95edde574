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
  (* Redeemed once before the revocation, so the keystore has its
     signature on record. *)
  (match Token.redeem session ~issuer:"elearn" ~bearer:"alice" ~goal token with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh token rejected: %a" Token.pp_error e);
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

(* Corrupt worlds: every flavour of damage must come back as a
   structured [Bad_world] naming the file (and line, where a parser is
   involved) — never an exception. *)

let write_raw path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_raw path = In_channel.with_open_bin path In_channel.input_all

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

(* A saved peer's two files: its name in hex, then [.pt] or [.journal]. *)
let world_file dir name ext =
  Filename.concat dir (Peertrust_crypto.Hex.encode name ^ ext)

(* "owner" holds two learned certificates.  Its saved program is then
   overwritten without their rules, so its journal is the only place
   they live. *)
let saved_wallet_world dir =
  let session = Session.create () in
  let owner = Session.add_peer session ~program:{|info(1) $ true.|} "owner" in
  List.iter
    (fun src ->
      match Peertrust_crypto.Cert.issue session.Session.keystore (Parser.parse_rule src) with
      | Ok c -> Peer.add_cert owner c
      | Error _ -> Alcotest.fail "issue")
    [ {|a("x") @ "CA" signedBy ["CA"].|}; {|b("y") @ "CA" signedBy ["CA"].|} ];
  Persist.save session ~dir;
  write_raw (world_file dir "owner" ".pt") {|info(1) $ true.|};
  world_file dir "owner" ".journal"

let test_persist_empty_dir () =
  with_temp_dir @@ fun dir ->
  expect_bad_world ~substr:dir (Persist.load ~dir ());
  Sys.mkdir dir 0o755;
  expect_bad_world ~substr:"no peer program" (Persist.load ~dir ())

let test_persist_odd_peer_names () =
  with_temp_dir @@ fun dir ->
  let session = Session.create () in
  ignore (Session.add_peer session ~program:{|info(1) $ true.|} "Weird: Name/1");
  ignore (Session.add_peer session "client peer");
  ignore (Session.add_peer session "");
  Persist.save session ~dir;
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok loaded ->
      Alcotest.(check (list string)) "names survive"
        [ ""; "Weird: Name/1"; "client peer" ]
        (Session.peer_names loaded)

let test_persist_save_over_larger_world () =
  with_temp_dir @@ fun dir ->
  let world names =
    let session = Session.create () in
    List.iter
      (fun name -> ignore (Session.add_peer session ~program:{|info(1) $ true.|} name))
      names;
    session
  in
  Persist.save (world [ "alice"; "bob" ]) ~dir;
  Persist.save (world [ "alice" ]) ~dir;
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok loaded ->
      Alcotest.(check (list string)) "one peer" [ "alice" ]
        (Session.peer_names loaded)

let test_persist_journal_dir_resume () =
  (* A world directory is a valid [Journal_dir]: a reactor resuming from
     it replays the journals the world was loaded from, a no-op. *)
  with_temp_dir @@ fun dir ->
  let s = Scenario.scenario1 () in
  ignore
    (request_str s.Scenario.s1_session ~requester:"Alice" ~target:"E-Learn"
       {|discountEnroll(spanish101, "Alice")|});
  Persist.save s.Scenario.s1_session ~dir;
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok session ->
      let wallets () =
        List.map
          (fun name ->
            Hashtbl.fold
              (fun _ c acc -> Peertrust_crypto.Wire.encode c :: acc)
              (Session.peer session name).Peer.certs []
            |> List.sort compare)
          (Session.peer_names session)
      in
      let before = wallets () in
      ignore
        (Reactor.create
           ~config:{ Reactor.default_config with journal = Reactor.Journal_dir dir }
           session);
      Alcotest.(check (list (list string))) "wallets unchanged" before (wallets ())

(* "owner" holds a certificate for its own signed rule that expires at
   tick 500. *)
let saved_expiring_world dir =
  let session = Session.create () in
  let owner = Session.add_peer session "owner" in
  (match
     Peertrust_crypto.Cert.issue ~not_after:500 session.Session.keystore
       (Parser.parse_rule {|member("owner") @ "CA" signedBy ["CA"].|})
   with
  | Ok c -> Peer.add_cert owner c
  | Error _ -> Alcotest.fail "issue");
  Persist.save session ~dir;
  Hashtbl.fold (fun _ c acc -> c :: acc) owner.Peer.certs []

let loaded_certs session =
  Hashtbl.fold
    (fun _ (p : Peer.t) acc ->
      Hashtbl.fold (fun _ c acc -> c :: acc) p.Peer.certs acc)
    session.Session.peers []

let test_persist_keeps_saved_certs () =
  with_temp_dir @@ fun dir ->
  let saved = saved_expiring_world dir in
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok loaded ->
      let fields (c : Peertrust_crypto.Cert.t) =
        (c.Peertrust_crypto.Cert.serial, c.Peertrust_crypto.Cert.not_after)
      in
      Alcotest.(check (list (pair int int)))
        "the saved certificate, not a new one" (List.map fields saved)
        (List.map fields (loaded_certs loaded))

let test_persist_fresh_serials_after_load () =
  with_temp_dir @@ fun dir ->
  ignore (saved_expiring_world dir);
  match Persist.load ~dir () with
  | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
  | Ok loaded -> (
      let serial (c : Peertrust_crypto.Cert.t) =
        c.Peertrust_crypto.Cert.serial
      in
      let taken = List.map serial (loaded_certs loaded) in
      let newcomer =
        Session.add_peer loaded
          ~program:{|member("new") @ "CA" signedBy ["CA"].|} "newcomer"
      in
      match
        Hashtbl.fold (fun _ c acc -> serial c :: acc) newcomer.Peer.certs []
      with
      | [ s ] ->
          Alcotest.(check bool)
            (Printf.sprintf "serial %d is not a loaded one" s)
            false (List.mem s taken)
      | _ -> Alcotest.fail "the newcomer should hold one certificate")

let test_persist_non_hex_name () =
  with_temp_dir @@ fun dir ->
  ignore (saved_wallet_world dir);
  (* "owner" in upper-case hex: a second spelling of a saved name. *)
  write_raw (Filename.concat dir "6F776E6572.pt") {|info(1) $ true.|};
  expect_bad_world ~substr:"6F776E6572.pt" (Persist.load ~dir ())

let test_persist_missing_program () =
  with_temp_dir @@ fun dir ->
  ignore (saved_wallet_world dir);
  Sys.remove (world_file dir "owner" ".pt");
  expect_bad_world ~substr:"6f776e6572.journal: no program" (Persist.load ~dir ())

let test_persist_garbage_program () =
  with_temp_dir @@ fun dir ->
  ignore (saved_wallet_world dir);
  write_raw (world_file dir "owner" ".pt") "info(1 $ true.\nrule( <- junk";
  expect_bad_world ~substr:"6f776e6572.pt line" (Persist.load ~dir ())

let test_persist_out_of_range_int () =
  with_temp_dir @@ fun dir ->
  ignore (saved_wallet_world dir);
  write_raw (world_file dir "owner" ".pt")
    "info(1) $ true.\np(99999999999999999999).";
  expect_bad_world ~substr:"6f776e6572.pt line 2" (Persist.load ~dir ())

(* Text the printer writes parses back: a certificate naming a
   non-ASCII string ([\ddd] escapes) and a negative int, journalled with
   a [done] entry, reads back and still verifies. *)
let test_journal_printed_constants () =
  let session = Session.create () in
  let ks = session.Session.keystore in
  let rule =
    Parser.parse_rule
      {|member("Z\195\188rich", -4611686018427387904) signedBy ["CA"].|}
  in
  Alcotest.(check string) "the escape spells the bytes" "Zürich"
    (match rule.Rule.head.Literal.args with
    | Term.Str s :: _ -> Sym.name s
    | _ -> "");
  match Peertrust_crypto.Cert.issue ks rule with
  | Error _ -> Alcotest.fail "issue"
  | Ok cert -> (
      let j = Persist.Journal.in_memory () in
      Persist.Journal.append j (Persist.Journal.Cert cert);
      Persist.Journal.append j
        (Persist.Journal.Fact (Parser.parse_rule {|p("a\rb", -5).|}));
      Persist.Journal.append j (Persist.Journal.Done { id = 1 });
      match Persist.Journal.entries j with
      | Ok Persist.Journal.[ Cert c; Fact f; Done { id = 1 } ] ->
          Alcotest.(check string) "certificate rule" (Rule.to_string rule)
            (Rule.to_string c.Peertrust_crypto.Cert.rule);
          Alcotest.(check bool) "certificate verifies" true
            (Peertrust_crypto.Cert.verify ks c = Ok ());
          Alcotest.(check string) "fact" {|p("a\rb", -5).|} (Rule.to_string f)
      | Ok _ -> Alcotest.fail "journal entries changed"
      | Error (Persist.Bad_world m) -> Alcotest.fail m)

let test_persist_garbage_wallet () =
  with_temp_dir @@ fun dir ->
  let journal = saved_wallet_world dir in
  write_raw journal ("cert zz\n" ^ read_raw journal);
  expect_bad_world ~substr:"6f776e6572.journal: journal line 1"
    (Persist.load ~dir ())

let test_persist_truncated_wallet () =
  with_temp_dir @@ fun dir ->
  let journal = saved_wallet_world dir in
  let load_wallet () =
    match Persist.load ~dir () with
    | Error e -> Alcotest.failf "load failed: %a" Persist.pp_error e
    | Ok session -> Hashtbl.length (Session.peer session "owner").Peer.certs
  in
  Alcotest.(check int) "both certificates" 2 (load_wallet ());
  let text = read_raw journal in
  write_raw journal (String.sub text 0 (String.length text - 20));
  Alcotest.(check int) "the torn last line is dropped" 1 (load_wallet ())

(* A journal's certificate has one text too: a middle [cert] line whose
   signature spells the byte 0d as "d_" is damage, not the same entry. *)
let test_journal_canonical_hex () =
  let ks = Peertrust_crypto.Keystore.create ~seed:2004L () in
  let module J = Persist.Journal in
  let cert who =
    match
      Peertrust_crypto.Cert.issue ks
        (Parser.parse_rule (Printf.sprintf {|student("%s") @ "UIUC" signedBy ["UIUC"].|} who))
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "issue"
  in
  let line c =
    let j = J.in_memory () in
    J.append j (J.Cert c);
    J.contents j
  in
  (* Bob's signature hex holds the byte 0d; its hex has odd length (the
     leading zero nibble is dropped), so bytes start at odd offsets. *)
  let alice = cert "Alice" and bob = cert "Bob" in
  let h = Peertrust_crypto.Bignum.to_hex (snd (List.hd bob.Peertrust_crypto.Cert.signatures)) in
  let rec byte i =
    if i + 2 > String.length h then Alcotest.fail "no 0d byte"
    else if String.sub h i 2 = "0d" then i
    else byte (i + 2)
  in
  let i = byte (String.length h land 1) in
  let h' = String.sub h 0 i ^ "d_" ^ String.sub h (i + 2) (String.length h - i - 2) in
  let respelled =
    String.split_on_char '\n' (Peertrust_crypto.Wire.encode bob)
    |> List.map (fun l ->
           if String.ends_with ~suffix:(":" ^ h) l then
             String.sub l 0 (String.length l - String.length h) ^ h'
           else l)
    |> String.concat "\n"
  in
  let journal =
    line alice ^ "cert " ^ Peertrust_crypto.Hex.encode respelled ^ "\n" ^ line alice
  in
  (match J.parse (line alice ^ line bob ^ line alice) with
  | Ok es -> Alcotest.(check int) "intact journal" 3 (List.length es)
  | Error _ -> Alcotest.fail "intact journal refused");
  expect_bad_world ~substr:"journal line 2" (J.parse journal)

(* An entry has one text: an id or a payload spelled other than the
   encoder writes it, followed by one more line, is damage on line 1,
   not a second text of the entry. *)
let test_journal_one_text () =
  let module J = Persist.Journal in
  let hex = Peertrust_crypto.Hex.encode in
  let parse line = J.parse (line ^ "\ndone 1\n") in
  let accepted line =
    match parse line with
    | Ok [ _; J.Done { id = 1 } ] -> ()
    | Ok _ -> Alcotest.failf "%S read back as other entries" line
    | Error (Persist.Bad_world m) -> Alcotest.failf "%S refused: %s" line m
  in
  let refused line = expect_bad_world ~substr:"journal line 1: " (parse line) in
  let goal id l = Printf.sprintf "goal %s %s %s" id (hex "o") (hex l) in
  let answer g i = Printf.sprintf "answer %s %s %s" (hex "o") (hex g) (hex i) in
  List.iter accepted
    [
      "done 16"; "done -16"; goal "2" "r(1)"; "fact " ^ hex "q(1).";
      "fact " ^ hex {|enrolled("a") @ "p".|}; answer "r(1)" "r(1)";
    ];
  List.iter refused
    [
      "done 0x10"; "done 1_6"; "done +16"; "done 0b10000"; "done 016";
      "done -0"; goal "0x2" "r(1)"; "fact " ^ hex "q( 1 ).";
      "fact " ^ hex {|enrolled("a")@"p".  % c|}; goal "2" "r( 1 )";
      answer "r( 1 )" "r(1)"; answer "r(1)" "r( 1 )";
    ];
  (* Compaction dedups by entry: two spellings of one fact were two
     lines and one entry. *)
  expect_bad_world ~substr:"journal line 2: "
    (J.parse
       ("fact " ^ hex "q(1)." ^ "\nfact " ^ hex "q( 1 )." ^ "\ndone 1\n"))

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

(* A journal counts what its I/O cost scales with: each [entries] call
   is a read, each [rewrite] (and [reset]) a rewrite, and every byte
   appended or rewritten is written.  Memory and disk sinks count
   alike, and [contents] reads nothing. *)
let test_journal_counters () =
  let module J = Persist.Journal in
  let counts j =
    Peertrust_obs.Obs.reset_metrics ();
    let done1 = J.Done { id = 1 } (* "done 1\n": 7 bytes *)
    and goal2 = J.Goal { id = 2; target = "o"; goal = lit "r" } in
    (* "goal 2 6f 72\n": 13 bytes *)
    J.append j done1;
    J.append j goal2;
    ignore (J.entries j);
    ignore (J.entries j);
    J.rewrite j [ goal2 ];
    ignore (J.contents j);
    ignore (J.entries j);
    J.reset j;
    let snap = Peertrust_obs.Obs.snapshot () in
    List.map
      (Peertrust_obs.Registry.counter_value snap)
      [ "persist.reads"; "persist.rewrites"; "persist.bytes_written" ]
  in
  Alcotest.(check (list int)) "memory sink" [ 3; 2; 33 ] (counts (J.in_memory ()));
  with_temp_dir @@ fun dir ->
  Alcotest.(check (list int))
    "disk sink" [ 3; 2; 33 ]
    (counts (J.for_peer ~dir ~peer:"p"))

(* [persist.lines_decoded] counts the lines a read decodes.  A
   certificate and a fact line the process has not met are decoded on
   the first read and answered from the table on the second; the [done]
   line is decoded every time.  A copy whose [cert] line differs in one
   hex digit is decoded, and refused, on every read. *)
let test_journal_lines_decoded () =
  let module J = Persist.Journal in
  let ks = Peertrust_crypto.Keystore.create ~bits:320 ~seed:23L () in
  let cert =
    match
      Peertrust_crypto.Cert.issue ks
        (Parser.parse_rule {|decoded("lines") @ "CA" signedBy ["CA"].|})
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "issue"
  in
  let j = J.in_memory () in
  List.iter (J.append j)
    [
      J.Cert cert; J.Fact (Parser.parse_rule {|decoded("lines", 1).|});
      J.Done { id = 1 };
    ];
  let decoded = Peertrust_obs.Obs.counter "persist.lines_decoded" in
  let cost f =
    let before = Peertrust_obs.Metric.value decoded in
    let r = f () in
    (r, Peertrust_obs.Metric.value decoded - before)
  in
  let read () =
    match J.entries j with
    | Ok es -> List.length es
    | Error (Persist.Bad_world m) -> Alcotest.fail m
  in
  Alcotest.(check (pair int int)) "first read: 3 entries, 3 lines" (3, 3)
    (cost read);
  Alcotest.(check (pair int int)) "second read: 3 entries, 1 line" (3, 1)
    (cost read);
  (* The line opens with the hex of "-----BEGIN": "2d" becomes "3d". *)
  let text = J.contents j in
  Alcotest.(check string) "cert line" "cert 2d" (String.sub text 0 7);
  let damaged = "cert 3" ^ String.sub text 6 (String.length text - 6) in
  for _ = 1 to 2 do
    let result, lines = cost (fun () -> J.parse damaged) in
    expect_bad_world ~substr:"journal line 1: cert" result;
    Alcotest.(check int) "the damaged line is decoded" 1 lines
  done

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
          tc "empty directory" test_persist_empty_dir;
          tc "odd peer names" test_persist_odd_peer_names;
          tc "saving over a larger world" test_persist_save_over_larger_world;
          tc "journal resume keeps every wallet" test_persist_journal_dir_resume;
          tc "saved certificates kept" test_persist_keeps_saved_certs;
          tc "fresh serials after load" test_persist_fresh_serials_after_load;
          tc "journal compaction" test_journal_compaction;
          tc "journal counters" test_journal_counters;
          tc "journal lines decoded once" test_journal_lines_decoded;
          tc "journal of printed constants" test_journal_printed_constants;
        ] );
      ( "persist corruption",
        [
          tc "non-hex program name" test_persist_non_hex_name;
          tc "missing program" test_persist_missing_program;
          tc "garbage program" test_persist_garbage_program;
          tc "out-of-range integer" test_persist_out_of_range_int;
          tc "garbage wallet" test_persist_garbage_wallet;
          tc "truncated wallet" test_persist_truncated_wallet;
          tc "non-canonical journal hex" test_journal_canonical_hex;
          tc "one text per journal entry" test_journal_one_text;
        ] );
    ]
