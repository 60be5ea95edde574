(* Tests for the simulated network substrate: clock, stats, messages,
   delivery, failure injection, budgets and transcripts. *)

open Peertrust_net
module Dlp = Peertrust_dlp

let lit s = Dlp.Parser.parse_literal s

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.now c);
  Clock.advance c 5;
  Clock.advance c 2;
  Alcotest.(check int) "accumulates" 7 (Clock.now c);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Clock.advance: negative increment") (fun () ->
      Clock.advance c (-1))

let test_stats_counters () =
  let s = Stats.create () in
  Stats.record s Stats.Query ~bytes_:10 ~from:"a" ~target:"b";
  Stats.record s Stats.Answer ~bytes_:20 ~from:"b" ~target:"a";
  Stats.record s Stats.Query ~bytes_:5 ~from:"a" ~target:"c";
  Alcotest.(check int) "messages" 3 (Stats.messages s);
  Alcotest.(check int) "bytes" 35 (Stats.bytes s);
  Alcotest.(check int) "queries" 2 (Stats.messages_of_kind s Stats.Query);
  Alcotest.(check int) "answers" 1 (Stats.messages_of_kind s Stats.Answer);
  Alcotest.(check int) "a->b" 1 (Stats.between s "a" "b");
  Alcotest.(check int) "b->a" 1 (Stats.between s "b" "a");
  Alcotest.(check int) "a->c directed" 0 (Stats.between s "c" "a");
  Alcotest.(check (list string)) "peers in first-seen order" [ "a"; "b"; "c" ]
    (Stats.peers_seen s);
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.messages s)

let test_message_kinds_and_sizes () =
  let q = Message.Query { goal = lit {|p("x")|} } in
  let d = Message.Deny { goal = lit {|p("x")|}; reason = "nope" } in
  Alcotest.(check bool) "query kind" true (Message.kind q = Stats.Query);
  Alcotest.(check bool) "deny kind" true (Message.kind d = Stats.Deny);
  Alcotest.(check bool) "query smaller than deny" true
    (Message.size q < Message.size d);
  Alcotest.(check int) "no certs in query" 0 (Message.cert_count q)

(* A request/response exchange is two one-way posts: "client" sends the
   query, and the target answers the query it was delivered.  Returns
   the answer's envelopes. *)
let echo net ~target goal =
  match Network.post net ~from:"client" ~target (Message.Query { goal }) with
  | [ { Envelope.payload = Message.Query { goal }; _ } ] ->
      Network.post net ~from:target ~target:"client"
        (Message.Answer { goal; instances = [ (goal, None) ]; certs = [] })
  | envs ->
      Alcotest.failf "expected 1 query envelope, got %d" (List.length envs)

let test_network_roundtrip () =
  let net = Network.create () in
  (match echo net ~target:"server" (lit "ping(1)") with
  | [
      { Envelope.payload = Message.Answer { instances = [ (l, None) ]; _ }; _ };
    ] ->
      Alcotest.(check string) "echoed" "ping(1)" (Dlp.Literal.to_string l)
  | _ -> Alcotest.fail "expected answer");
  Alcotest.(check int) "two messages" 2 (Stats.messages (Network.stats net));
  Alcotest.(check int) "two ticks" 2 (Clock.now (Network.clock net))

let test_network_latency () =
  let net = Network.create ~latency:5 () in
  ignore (echo net ~target:"server" (lit "ping(1)"));
  Alcotest.(check int) "10 ticks for a round trip" 10 (Clock.now (Network.clock net))

let test_network_unknown_peer () =
  (* The network carries whatever it is given; which names are peers is
     the reactor's business.  A query to a name that is no session peer
     is denied as unreachable, and no message is charged for it. *)
  let session = Peertrust.Session.create () in
  ignore (Peertrust.Session.add_peer session "client");
  let r =
    Peertrust.Reactor.negotiate session ~requester:"client" ~target:"ghost"
      (lit "ping(1)")
  in
  (match r.Peertrust.Negotiation.outcome with
  | Peertrust.Negotiation.Denied reason ->
      Alcotest.(check string) "unreachable" "unreachable: ghost" reason
  | Peertrust.Negotiation.Granted _ -> Alcotest.fail "ghost answered");
  Alcotest.(check int) "nothing charged" 0 r.Peertrust.Negotiation.messages

let test_network_down_peer () =
  let net = Network.create () in
  let q () = Message.Query { goal = lit "ping(1)" } in
  Network.set_down net "server" true;
  Alcotest.(check bool) "marked down" true (Network.is_down net "server");
  Alcotest.check_raises "down" (Network.Unreachable "server") (fun () ->
      ignore (Network.post net ~from:"client" ~target:"server" (q ())));
  Alcotest.(check int) "nothing charged" 0 (Stats.messages (Network.stats net));
  Network.set_down net "server" false;
  ignore (Network.post net ~from:"client" ~target:"server" (q ()))

let test_network_budget () =
  let net = Network.create ~max_messages:3 () in
  ignore (echo net ~target:"server" (lit "ping(1)"));
  (* The second round trip would exceed 3 messages on its response. *)
  Alcotest.check_raises "budget" Network.Budget_exhausted (fun () ->
      ignore (echo net ~target:"server" (lit "ping(2)")))

let test_network_link_latency () =
  let net = Network.create ~latency:1 () in
  Network.set_link_latency net ~from:"client" ~target:"far" 10;
  Alcotest.(check int) "override read back" 10
    (Network.link_latency net ~from:"client" ~target:"far");
  Alcotest.(check int) "default elsewhere" 1
    (Network.link_latency net ~from:"client" ~target:"near");
  ignore (echo net ~target:"far" (lit "ping(1)"));
  (* 10 ticks out (overridden), 1 back (default). *)
  Alcotest.(check int) "asymmetric round trip" 11 (Clock.now (Network.clock net));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Network.set_link_latency: negative") (fun () ->
      Network.set_link_latency net ~from:"a" ~target:"b" (-1))

let test_network_notify () =
  (* A post is one-way: accounted and logged once, with no response. *)
  let net = Network.create () in
  let envs =
    Network.post net ~from:"client" ~target:"server"
      (Message.Query { goal = lit "ping(1)" })
  in
  Alcotest.(check int) "one envelope" 1 (List.length envs);
  Alcotest.(check int) "one message" 1 (Stats.messages (Network.stats net));
  Alcotest.(check int) "one entry" 1 (List.length (Network.transcript net))

let test_network_transcript () =
  let net = Network.create () in
  ignore (echo net ~target:"server" (lit "ping(1)"));
  let log = Network.transcript net in
  Alcotest.(check int) "two entries" 2 (List.length log);
  (match log with
  | [ req; resp ] ->
      Alcotest.(check string) "request from" "client" req.Network.from;
      Alcotest.(check string) "response from" "server" resp.Network.from;
      Alcotest.(check bool) "ordered in time" true
        (req.Network.time <= resp.Network.time)
  | _ -> Alcotest.fail "expected two entries");
  Network.clear_transcript net;
  Alcotest.(check int) "cleared" 0 (List.length (Network.transcript net))

(* ------------------------------------------------------------------ *)
(* Trace propagation: the context rides on every envelope copy *)

module Tctx = Peertrust_obs.Trace_context

let test_post_stamps_trace () =
  let net = Network.create () in
  let q () = Message.Query { goal = lit "ping(1)" } in
  (match Network.post net ~from:"client" ~target:"server" (q ()) with
  | [ env ] ->
      Alcotest.(check bool) "untraced by default" true
        (env.Envelope.trace = None)
  | envs -> Alcotest.failf "expected 1 envelope, got %d" (List.length envs));
  let ctx = Tctx.make ~trace_id:3 ~parent_span:8 () in
  match Network.post net ~from:"client" ~target:"server" ~trace:ctx (q ()) with
  | [ env ] ->
      Alcotest.(check bool) "context stamped verbatim" true
        (env.Envelope.trace = Some ctx)
  | envs -> Alcotest.failf "expected 1 envelope, got %d" (List.length envs)

let test_post_duplicates_share_trace () =
  (* Every duplicated copy carries the same propagated context. *)
  let net = Network.create () in
  Network.set_faults net (Faults.create ~duplicate:1.0 ~seed:9L ());
  let ctx = Tctx.make ~trace_id:6 ~parent_span:2 () in
  match
    Network.post net ~from:"client" ~target:"server" ~trace:ctx
      (Message.Query { goal = lit "ping(1)" })
  with
  | ([ _; _ ] | [ _; _; _ ]) as envs ->
      List.iter
        (fun (env : Envelope.t) ->
          Alcotest.(check bool) "copy keeps the context" true
            (env.Envelope.trace = Some ctx))
        envs
  | envs -> Alcotest.failf "expected duplicated copies, got %d" (List.length envs)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "net"
    [
      ("clock", [ tc "advance" test_clock ]);
      ("stats", [ tc "counters" test_stats_counters ]);
      ("message", [ tc "kinds and sizes" test_message_kinds_and_sizes ]);
      ( "network",
        [
          tc "roundtrip" test_network_roundtrip;
          tc "latency" test_network_latency;
          tc "unknown peer" test_network_unknown_peer;
          tc "down peer" test_network_down_peer;
          tc "message budget" test_network_budget;
          tc "per-link latency" test_network_link_latency;
          tc "one-way notify" test_network_notify;
          tc "transcript" test_network_transcript;
        ] );
      ( "wire",
        [
          tc "post stamps the trace context" test_post_stamps_trace;
          tc "duplicates share the context" test_post_duplicates_share_trace;
        ] );
    ]
