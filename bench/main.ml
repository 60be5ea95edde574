(* Benchmark harness: regenerates every experiment in DESIGN.md §2.

   The paper (VLDB'04 workshop version) has no numeric tables — its
   evaluation is the two worked scenarios of §4 — so E1/E2 regenerate those
   scenarios (transcripts + costs) and E3..E10 are the quantitative
   experiments the paper's claims imply (see DESIGN.md and EXPERIMENTS.md).

   Usage:
     bench/main.exe                 run every experiment (E1..E10)
     bench/main.exe e3 e5           run selected experiments
     bench/main.exe micro           Bechamel micro-benchmarks
     bench/main.exe --metrics-dir D write BENCH_<name>.json metric
                                    snapshots into directory D (default ".")
     bench/main.exe diff [--baseline FILE | --against-seed NAME]
                         [--tolerance R] [--inflate R] [--json] FRESH.json
                                    regression-check a fresh snapshot
                                    against a committed baseline; exits 1
                                    on any out-of-band metric
*)

open Peertrust
module Dlp = Peertrust_dlp
module Crypto = Peertrust_crypto
module Net = Peertrust_net
module Pobs = Peertrust_obs

(* ------------------------------------------------------------------ *)
(* Small table printer *)

let print_table ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let pad i s = Printf.sprintf "%-*s" widths.(i) s in
  Printf.printf "\n%s\n" title;
  Printf.printf "%s\n" (String.concat "  " (List.mapi pad header));
  Printf.printf "%s\n"
    (String.concat "  "
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter
    (fun row -> Printf.printf "%s\n" (String.concat "  " (List.mapi pad row)))
    rows;
  flush stdout

let fmt_ms seconds = Printf.sprintf "%.2f" (seconds *. 1000.)

(* Median CPU time of [runs] executions of [f] (fresh input per run). *)
let time_median ?(runs = 5) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Sys.time () in
        f ();
        Sys.time () -. t0)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

let outcome_str r = if Negotiation.succeeded r then "granted" else "denied"

(* ------------------------------------------------------------------ *)
(* E1: Scenario 1 (§4.1) *)

let e1 () =
  let s = Scenario.scenario1 () in
  let session = s.Scenario.s1_session in
  let goals =
    [
      ("Alice", "E-Learn", {|discountEnroll(spanish101, "Alice")|});
      ("E-Learn", "UIUC", {|student("Alice")|});
      ("Alice", "E-Learn", {|discountEnroll(spanish101, "Mallory")|});
    ]
  in
  let rows =
    List.map
      (fun (req, tgt, goal) ->
        let r =
          Strategy.negotiate_str ~strategy:Relevant session ~requester:req
            ~target:tgt goal
        in
        [
          Printf.sprintf "%s -> %s" req tgt;
          goal;
          outcome_str r;
          string_of_int r.Negotiation.messages;
          string_of_int r.Negotiation.bytes;
          string_of_int r.Negotiation.disclosures;
          string_of_int r.Negotiation.elapsed;
        ])
      goals
  in
  print_table
    ~title:
      "E1  Scenario 1: Alice & E-Learn (paper §4.1; first row is the paper's \
       negotiation)"
    ~header:[ "negotiation"; "goal"; "outcome"; "msgs"; "bytes"; "certs"; "ticks" ]
    rows;
  (* The headline transcript, as narrated in the paper. *)
  let fresh = Scenario.scenario1 () in
  let r =
    Strategy.negotiate_str ~strategy:Relevant fresh.Scenario.s1_session
      ~requester:"Alice"
      ~target:"E-Learn" {|discountEnroll(spanish101, "Alice")|}
  in
  Printf.printf "\n  transcript of the headline negotiation:\n";
  List.iter
    (fun e ->
      Printf.printf "    [%d] %s -> %s: %s\n" e.Net.Network.time
        e.Net.Network.from e.Net.Network.target e.Net.Network.summary)
    r.Negotiation.transcript

(* ------------------------------------------------------------------ *)
(* E2: Scenario 2 (§4.2) *)

let e2 () =
  let run ?visa_limit goal =
    let s = Scenario.scenario2 ?visa_limit () in
    Strategy.negotiate_str ~strategy:Relevant s.Scenario.s2_session
      ~requester:"Bob"
      ~target:"E-Learn" goal
  in
  let cases =
    [
      ("free course (cs101)", {|enroll(cs101, "Bob", "IBM", Email, 0)|}, None);
      ("paid course (cs411, $1000)", {|enroll(cs411, "Bob", "IBM", Email, Price)|}, None);
      ("over authorization (cs500, $3000)", {|enroll(cs500, "Bob", "IBM", Email, Price)|}, None);
      ("credit limit $500 (cs411)", {|enroll(cs411, "Bob", "IBM", Email, Price)|}, Some 500);
      ("private policy queried directly", {|freebieEligible(cs101, "Bob", "IBM", Email)|}, None);
    ]
  in
  let rows =
    List.map
      (fun (label, goal, visa_limit) ->
        let r = run ?visa_limit goal in
        [
          label;
          outcome_str r;
          string_of_int r.Negotiation.messages;
          string_of_int r.Negotiation.bytes;
          string_of_int r.Negotiation.disclosures;
          string_of_int r.Negotiation.elapsed;
        ])
      cases
  in
  print_table
    ~title:"E2  Scenario 2: signing up for learning services (paper §4.2)"
    ~header:[ "case"; "outcome"; "msgs"; "bytes"; "certs"; "ticks" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: policy-chain depth scaling *)

let e3 () =
  let depths = [ 1; 2; 4; 8; 16; 32 ] in
  let rows =
    List.map
      (fun depth ->
        let build () = Scenario.policy_chain ~depth () in
        let w = build () in
        let r =
          Reactor.negotiate w.Scenario.cw_session
            ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
            w.Scenario.cw_goal
        in
        let t =
          time_median (fun () ->
              let w = build () in
              ignore
                (Reactor.negotiate w.Scenario.cw_session
                   ~requester:w.Scenario.cw_requester
                   ~target:w.Scenario.cw_owner w.Scenario.cw_goal))
        in
        [
          string_of_int depth;
          outcome_str r;
          string_of_int r.Negotiation.messages;
          string_of_int r.Negotiation.disclosures;
          string_of_int r.Negotiation.elapsed;
          fmt_ms t;
        ])
      depths
  in
  print_table
    ~title:
      "E3  Bilateral policy-chain depth scaling (messages grow linearly, \
       2*depth + 2)"
    ~header:[ "depth"; "outcome"; "msgs"; "certs"; "ticks"; "ms (incl setup)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: policy fan-out scaling *)

let e4 () =
  let widths = [ 1; 2; 4; 8; 16; 32 ] in
  let rows =
    List.map
      (fun width ->
        let w = Scenario.fanout ~width () in
        let r =
          Reactor.negotiate w.Scenario.cw_session
            ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
            w.Scenario.cw_goal
        in
        [
          string_of_int width;
          outcome_str r;
          string_of_int r.Negotiation.messages;
          string_of_int r.Negotiation.disclosures;
          string_of_int r.Negotiation.elapsed;
        ])
      widths
  in
  print_table
    ~title:
      "E4  Policy fan-out scaling (width independent credentials; msgs = \
       2*width + 2)"
    ~header:[ "width"; "outcome"; "msgs"; "certs"; "ticks" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5: strategy comparison *)

let e5 () =
  let configs = [ (2, 0); (4, 0); (4, 4); (4, 16) ] in
  let rows =
    List.concat_map
      (fun (depth, extra_creds) ->
        List.map
          (fun strategy ->
            let w = Scenario.policy_chain ~depth ~extra_creds () in
            let r =
              Strategy.negotiate w.Scenario.cw_session ~strategy
                ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
                w.Scenario.cw_goal
            in
            [
              Printf.sprintf "depth %d, %d extra" depth extra_creds;
              Strategy.to_string strategy;
              outcome_str r;
              string_of_int r.Negotiation.messages;
              string_of_int r.Negotiation.bytes;
              string_of_int r.Negotiation.disclosures;
            ])
          Strategy.all)
      configs
  in
  print_table
    ~title:
      "E5  Strategy comparison (interoperable families; eager discloses \
       every unlocked credential, relevant only what is pulled)"
    ~header:[ "workload"; "strategy"; "outcome"; "msgs"; "bytes"; "certs" ]
    rows;
  (* n-party extension: a third peer holds the voucher the owner needs. *)
  let three_party () =
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
  in
  let goal = Dlp.Parser.parse_literal {|resource("r")|} in
  let two =
    let session = three_party () in
    Strategy.negotiate session ~strategy:Strategy.Eager ~requester:"alice"
      ~target:"owner" goal
  in
  let three =
    let session = three_party () in
    Strategy.negotiate_multi session ~participants:[ "alice"; "owner"; "carol" ]
      ~requester:"alice" ~target:"owner" goal
  in
  print_table
    ~title:
      "E5b n-party extension (§6): the needed voucher lives at a third \
       peer — 2-party eager fails, 3-party eager succeeds"
    ~header:[ "parties"; "outcome"; "msgs"; "certs" ]
    [
      [ "2 (alice, owner)"; outcome_str two;
        string_of_int two.Negotiation.messages;
        string_of_int two.Negotiation.disclosures ];
      [ "3 (+carol)"; outcome_str three;
        string_of_int three.Negotiation.messages;
        string_of_int three.Negotiation.disclosures ];
    ]

(* ------------------------------------------------------------------ *)
(* E6: credential chain discovery *)

let e6 () =
  let depths = [ 1; 2; 4; 8; 16; 32 ] in
  let rows =
    List.map
      (fun depth ->
        let session, root, _ =
          Chain.linear_world ~depth ~pred:"member" ~subject:"sam" ()
        in
        ignore (Session.add_peer session "client");
        let result =
          Chain.discover session ~requester:"client" ~root
            (Dlp.Parser.parse_literal {|member("sam")|})
        in
        [
          string_of_int depth;
          string_of_bool result.Chain.found;
          string_of_int (List.length result.Chain.chain);
          string_of_int result.Chain.report.Negotiation.messages;
          string_of_int result.Chain.report.Negotiation.elapsed;
        ])
      depths
  in
  print_table
    ~title:
      "E6  Distributed credential chain discovery (linear delegation; whole \
       chain relayed back to the requester)"
    ~header:[ "hops"; "found"; "chain certs"; "msgs"; "ticks" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: signature/crypto overhead *)

let e7 () =
  (* Raw primitive costs. *)
  let data = String.make 65536 'x' in
  let sha_t = time_median ~runs:7 (fun () -> ignore (Crypto.Sha256.digest data)) in
  let prng = Crypto.Prng.create 7L in
  let rows_prim = ref [] in
  List.iter
    (fun bits ->
      let kp = Crypto.Rsa.generate ~bits prng in
      let keygen_t =
        time_median ~runs:3 (fun () -> ignore (Crypto.Rsa.generate ~bits prng))
      in
      let sign_t = time_median ~runs:7 (fun () -> ignore (Crypto.Rsa.sign kp "message")) in
      let s = Crypto.Rsa.sign kp "message" in
      let verify_t =
        time_median ~runs:7 (fun () ->
            ignore (Crypto.Rsa.verify kp.Crypto.Rsa.public "message" s))
      in
      rows_prim :=
        [
          Printf.sprintf "RSA-%d" bits;
          fmt_ms keygen_t;
          fmt_ms sign_t;
          fmt_ms verify_t;
        ]
        :: !rows_prim)
    [ 320; 384; 512 ];
  print_table
    ~title:
      (Printf.sprintf
         "E7a Crypto primitives (SHA-256 of 64 KiB: %s ms -> %.1f MB/s)"
         (fmt_ms sha_t)
         (65536. /. 1048576. /. sha_t))
    ~header:[ "key"; "keygen ms"; "sign ms"; "verify ms" ]
    (List.rev !rows_prim);
  (* Negotiation with and without signature verification (ablation). *)
  let nego verify_signatures =
    let config = { Session.default_config with Session.verify_signatures } in
    time_median ~runs:5 (fun () ->
        let s = Scenario.scenario1 ~config () in
        ignore
          (Strategy.negotiate_str ~strategy:Relevant s.Scenario.s1_session
             ~requester:"Alice"
             ~target:"E-Learn" {|discountEnroll(spanish101, "Alice")|}))
  in
  let with_v = nego true and without_v = nego false in
  print_table
    ~title:"E7b Scenario-1 negotiation with/without certificate verification"
    ~header:[ "verification"; "ms / negotiation (incl setup)" ]
    [
      [ "on"; fmt_ms with_v ];
      [ "off"; fmt_ms without_v ];
    ]

(* ------------------------------------------------------------------ *)
(* E8: evaluation paradigms (forward vs backward chaining, §3.2) *)

let e8 () =
  let make_chain n =
    (* Transitive closure over a linear graph of n edges. *)
    let buf = Buffer.create 256 in
    Buffer.add_string buf "path(X, Y) <- edge(X, Y).\n";
    Buffer.add_string buf "path(X, Z) <- edge(X, Y), path(Y, Z).\n";
    for i = 1 to n do
      Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" i (i + 1))
    done;
    Dlp.Kb.of_string (Buffer.contents buf)
  in
  let rows =
    List.map
      (fun n ->
        let kb = make_chain n in
        let fwd_t =
          time_median (fun () -> ignore (Dlp.Forward.saturate ~self:"p" kb))
        in
        let fwd = Dlp.Forward.saturate ~self:"p" kb in
        let goal = Dlp.Parser.parse_query (Printf.sprintf "path(1, %d)" (n + 1)) in
        let bwd_t =
          time_median (fun () ->
              ignore
                (Dlp.Sld.solve
                   ~options:
                   {
                     Dlp.Sld.default_options with
                     max_depth = (2 * n) + 8;
                     max_solutions = 1;
                   }
                   ~self:"p" kb goal))
        in
        let all_goal = Dlp.Parser.parse_query "path(1, X)" in
        let bwd_all_t =
          time_median (fun () ->
              ignore
                (Dlp.Sld.solve
                   ~options:
                   {
                     Dlp.Sld.default_options with
                     max_depth = (2 * n) + 8;
                     max_solutions = n + 4;
                   }
                   ~self:"p" kb all_goal))
        in
        let tabled_all_t =
          time_median (fun () ->
              ignore (Dlp.Tabled.solve ~self:"p" kb all_goal))
        in
        [
          string_of_int n;
          string_of_int (List.length fwd.Dlp.Forward.facts);
          fmt_ms fwd_t;
          fmt_ms bwd_t;
          fmt_ms bwd_all_t;
          fmt_ms tabled_all_t;
        ])
      [ 8; 16; 32; 64; 128 ]
  in
  print_table
    ~title:
      "E8  Push (forward fixpoint) vs pull (SLD) vs tabled on transitive \
       closure — backward wins for point queries, forward pays the full \
       fixpoint; the (naive, round-based) tabled engine buys completeness \
       on left recursion at a constant-factor cost"
    ~header:
      [ "edges"; "facts at fixpoint"; "forward ms"; "SLD point ms";
        "SLD all ms"; "tabled all ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9: policy protection overhead *)

let e9 () =
  (* The same credential served (a) public, (b) guarded by one policy
     level, (c) guarded by a UniPro-style named policy whose definition is
     itself private (the paper's policy27 pattern). *)
  let build guard =
    let session = Session.create () in
    let owner_program =
      match guard with
      | `Public -> {|card("owner") @ "VISA" $ true signedBy ["VISA"].|}
      | `Guarded ->
          {|card("owner") @ "VISA" $ merchant(Requester) @ "CA" <-{true} card("owner") @ "VISA".
            card("owner") @ "VISA" signedBy ["VISA"].
            merchant(X) @ "CA" <- merchant(X) @ "CA" @ X.|}
      | `Named ->
          {|card("owner") @ "VISA" $ policy9(Requester) <-{true} card("owner") @ "VISA".
            card("owner") @ "VISA" signedBy ["VISA"].
            policy9(R) <- merchant(R) @ "CA", elenaMember(R) @ "CA".
            merchant(X) @ "CA" <- merchant(X) @ "CA" @ X.
            elenaMember(X) @ "CA" <- elenaMember(X) @ "CA" @ X.|}
    in
    ignore (Session.add_peer session ~program:owner_program "owner");
    ignore
      (Session.add_peer session
         ~program:
           {|merchant("shop") @ "CA" $ true signedBy ["CA"].
             elenaMember("shop") @ "CA" $ true signedBy ["CA"].|}
         "shop");
    session
  in
  let rows =
    List.map
      (fun (label, guard) ->
        let session = build guard in
        let r =
          Strategy.negotiate_str ~strategy:Relevant session
            ~requester:"shop" ~target:"owner"
            {|card(X) @ "VISA"|}
        in
        [
          label;
          outcome_str r;
          string_of_int r.Negotiation.messages;
          string_of_int r.Negotiation.bytes;
          string_of_int r.Negotiation.disclosures;
        ])
      [
        ("public credential", `Public);
        ("one-level guard", `Guarded);
        ("named policy (policy27 pattern)", `Named);
      ]
  in
  print_table
    ~title:
      "E9  Policy-protection overhead: the same credential behind \
       increasingly protective release policies"
    ~header:[ "protection"; "outcome"; "msgs"; "bytes"; "certs" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10: failure detection and refusal *)

let e10 () =
  (* (a) Cost of concluding failure when the counter-party is unreachable,
     vs the cost of the successful run, as the chain deepens. *)
  let rows_a =
    List.map
      (fun depth ->
        let w = Scenario.policy_chain ~depth () in
        let r_ok =
          Reactor.negotiate w.Scenario.cw_session
            ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
            w.Scenario.cw_goal
        in
        (* Fresh world with the requester unreachable for counter-queries. *)
        let w2 = Scenario.policy_chain ~depth () in
        Net.Network.set_down w2.Scenario.cw_session.Session.network
          w2.Scenario.cw_requester true;
        let r_fail =
          Reactor.negotiate w2.Scenario.cw_session
            ~requester:w2.Scenario.cw_requester ~target:w2.Scenario.cw_owner
            w2.Scenario.cw_goal
        in
        [
          string_of_int depth;
          string_of_int r_ok.Negotiation.messages;
          outcome_str r_fail;
          string_of_int r_fail.Negotiation.messages;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  print_table
    ~title:
      "E10a Refusal cost: successful chain vs requester unreachable for \
       counter-queries (failure detected in O(1) messages)"
    ~header:[ "depth"; "success msgs"; "outcome when down"; "failure msgs" ]
    rows_a;
  (* (b) Impossible negotiation: mutually locked credentials. *)
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
  let session = Session.create () in
  ignore (Session.add_peer session ~program:owner "owner");
  ignore (Session.add_peer session ~program:requester "req");
  let r =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:"req" ~target:"owner" {|a("o")|}
  in
  print_table
    ~title:
      "E10b Deadlocked release policies (no safe disclosure sequence): \
       quiescence terminates the negotiation"
    ~header:[ "outcome"; "msgs"; "ticks" ]
    [
      [
        outcome_str r;
        string_of_int r.Negotiation.messages;
        string_of_int r.Negotiation.elapsed;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* E11: the queued (reactor) runtime *)

let e11 () =
  (* (a) Policy chains, complete and missing their last credential,
     against the 2*depth + 2 messages of depth-first recursion. *)
  let run ?missing depth =
    let w = Scenario.policy_chain ?missing ~depth () in
    let stats = Net.Network.stats w.Scenario.cw_session.Session.network in
    let before = Net.Stats.messages stats in
    let reactor = Reactor.create w.Scenario.cw_session in
    let id =
      Reactor.submit reactor ~requester:"alice" ~target:"bob"
        w.Scenario.cw_goal
    in
    let steps = Reactor.run reactor in
    let ok =
      match Reactor.outcome reactor id with
      | Negotiation.Granted _ -> "granted"
      | Negotiation.Denied _ -> "denied"
    in
    (Net.Stats.messages stats - before, steps, ok)
  in
  let rows_a =
    List.map
      (fun depth ->
        let msgs, steps, ok = run depth in
        let missing_msgs, _, missing_ok = run ~missing:depth depth in
        [
          string_of_int depth;
          string_of_int msgs;
          string_of_int ((2 * depth) + 2);
          string_of_int steps;
          ok;
          string_of_int missing_msgs;
          missing_ok;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  print_table
    ~title:
      "E11a Queued engine on policy chains: one sub-query per blocked \
       evaluation, so messages match depth-first recursion (2*depth + 2)"
    ~header:
      [
        "depth"; "msgs"; "2d+2"; "queue steps"; "outcome"; "missing-last msgs";
        "outcome";
      ]
    rows_a;
  (* (b) k interleaved negotiations over one queue. *)
  let rows_b =
    List.map
      (fun k ->
        let w = Scenario.fanout ~width:4 () in
        let reactor = Reactor.create w.Scenario.cw_session in
        let ids =
          List.init k (fun _ ->
              Reactor.submit reactor ~requester:"alice" ~target:"bob"
                w.Scenario.cw_goal)
        in
        let steps = Reactor.run reactor in
        let all_ok =
          List.for_all
            (fun id ->
              match Reactor.outcome reactor id with
              | Negotiation.Granted _ -> true
              | Negotiation.Denied _ -> false)
            ids
        in
        [ string_of_int k; string_of_int steps; string_of_bool all_ok ])
      [ 1; 2; 4; 8 ]
  in
  print_table
    ~title:
      "E11b Interleaved negotiations over one queue (duplicate sub-queries \
       coalesce: steps grow sub-linearly in k)"
    ~header:[ "concurrent"; "queue steps"; "all granted" ]
    rows_b

(* ------------------------------------------------------------------ *)
(* E12: first-argument indexing ablation *)

let e12 () =
  let build indexing n =
    let buf = Buffer.create (n * 16) in
    Buffer.add_string buf "lookup(K, V) <- entry(K, V).\n";
    for i = 1 to n do
      Buffer.add_string buf (Printf.sprintf "entry(k%d, %d).\n" i i)
    done;
    Dlp.Kb.of_string ~indexing (Buffer.contents buf)
  in
  let query_time kb n =
    (* 200 point lookups spread over the key space. *)
    time_median ~runs:5 (fun () ->
        for q = 1 to 200 do
          let k = 1 + (q * 7 mod n) in
          ignore
            (Dlp.Sld.solve
               ~options:
               { Dlp.Sld.default_options with max_depth = 8; max_solutions = 1 }
               ~self:"p" kb
               (Dlp.Parser.parse_query (Printf.sprintf "lookup(k%d, V)" k)))
        done)
  in
  let rows =
    List.map
      (fun n ->
        let indexed = query_time (build true n) n in
        let linear = query_time (build false n) n in
        [
          string_of_int n;
          fmt_ms indexed;
          fmt_ms linear;
          Printf.sprintf "%.1fx" (linear /. indexed);
        ])
      [ 100; 400; 1600; 6400 ]
  in
  print_table
    ~title:
      "E12 First-argument indexing ablation: 200 point lookups over a \
       fact base of n entries (indexed stays flat, linear grows with n)"
    ~header:[ "facts"; "indexed ms"; "linear ms"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13: marketplace throughput *)

let e13 () =
  let rows =
    List.map
      (fun (providers, learners) ->
        let mp =
          Scenario.marketplace ~providers ~learners ~courses_per_provider:4 ()
        in
        let session = mp.Scenario.mp_session in
        let stats = Net.Network.stats session.Session.network in
        let before = Net.Stats.messages stats in
        let t0 = Sys.time () in
        let granted =
          List.fold_left
            (fun acc (learner, provider, goal) ->
              let r =
                Reactor.negotiate session ~requester:learner ~target:provider
                  goal
              in
              if Negotiation.succeeded r then acc + 1 else acc)
            0 mp.Scenario.mp_goals
        in
        let dt = Sys.time () -. t0 in
        let total = List.length mp.Scenario.mp_goals in
        let msgs = Net.Stats.messages stats - before in
        [
          Printf.sprintf "%dx%d" providers learners;
          string_of_int total;
          string_of_int granted;
          string_of_int msgs;
          Printf.sprintf "%.2f" (float_of_int msgs /. float_of_int total);
          fmt_ms dt;
          Printf.sprintf "%.0f" (float_of_int total /. dt);
        ])
      [ (2, 2); (4, 4); (4, 16); (8, 16) ]
  in
  print_table
    ~title:
      "E13 Marketplace throughput (providers x learners; every learner \
       enrols at every provider; caching makes repeat negotiations \
       cheaper, so msgs/negotiation falls below the cold-start cost)"
    ~header:
      [ "size"; "negotiations"; "granted"; "msgs"; "msgs/nego"; "ms"; "nego/s" ]
    rows

(* ------------------------------------------------------------------ *)
(* chaos: resilience under randomized fault schedules *)

let chaos () =
  (* 100-seed sweep over scenario 1 with drops, duplicates, delays,
     reordering and periodic UIUC outages.  Every run must terminate with
     the fault-free outcome or a structured denial; the table breaks the
     outcomes down by denial class.  Small keys keep the sweep fast. *)
  let seeds = 100 in
  let max_steps = 20_000 in
  let tally = Hashtbl.create 8 in
  let bump k = Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)) in
  let worst_steps = ref 0 in
  for seed = 1 to seeds do
    let s = Scenario.scenario1 ~key_bits:288 () in
    let session = s.Scenario.s1_session in
    let faults =
      Net.Faults.create ~drop:0.12 ~duplicate:0.1 ~delay:0.25 ~delay_max:4
        ~reorder:0.1 ~seed:(Int64.of_int seed) ()
    in
    if seed mod 3 = 0 then
      Net.Faults.add_outage faults ~peer:"UIUC" ~from_tick:3 ~until_tick:9;
    Net.Network.set_faults session.Session.network faults;
    let reactor = Reactor.create session in
    let id =
      Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
        (Scenario.scenario1_goal ())
    in
    let steps = Reactor.run ~max_steps reactor in
    worst_steps := max !worst_steps steps;
    (match Reactor.outcome reactor id with
    | Negotiation.Granted _ -> bump "granted"
    | Negotiation.Denied reason ->
        bump
          ("denied: "
          ^ Negotiation.denial_class_to_string
              (Negotiation.classify_denial reason)))
  done;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
    |> List.sort compare
    |> List.map (fun (k, v) -> [ k; string_of_int v ])
  in
  print_table
    ~title:
      (Printf.sprintf
         "CHAOS Scenario-1 outcomes over %d fault seeds (drop 0.12, dup 0.1, \
          delay 0.25, reorder 0.1, UIUC outage every 3rd seed; worst run %d \
          steps)"
         seeds !worst_steps)
    ~header:[ "outcome"; "runs" ]
    rows;
  let snapshot = Pobs.Obs.snapshot () in
  let counters =
    [
      "net.drops"; "net.duplicates"; "net.delayed"; "reactor.retries";
      "reactor.timeouts"; "reactor.dup_deliveries"; "reactor.drops";
    ]
  in
  print_table ~title:"CHAOS fault-machinery counters across the sweep"
    ~header:[ "counter"; "total" ]
    (List.map
       (fun name ->
         [ name; string_of_int (Pobs.Registry.counter_value snapshot name) ])
       counters)

(* ------------------------------------------------------------------ *)
(* adversary: goodput under misbehaving peers, guards on *)

let adversary_smoke = ref false

let adversary_bench () =
  (* Scenario 1 with 0..4 seeded adversaries attached and the guard at
     its tuned defaults.  Hard assertions, not just tables: every honest
     negotiation must reach its fault-free outcome, every adversary
     running a flooding/malformed mix must end the run quarantined, and
     no honest peer may ever be quarantined.  The table reports the
     goodput cost of the abuse: worst event count and mean envelopes per
     run as the adversary count grows. *)
  let smoke = !adversary_smoke in
  let seeds = if smoke then 10 else 100 in
  let counts = if smoke then [ 0; 2 ] else [ 0; 1; 2; 4 ] in
  let max_steps = 40_000 in
  let mixes =
    [|
      [ Net.Adversary.Flood 12; Net.Adversary.Malformed 4 ];
      [
        Net.Adversary.Unsolicited 4; Net.Adversary.Forged_certs;
        Net.Adversary.Replay;
      ];
      [
        Net.Adversary.Oversized 65536; Net.Adversary.Bomb 40;
        Net.Adversary.Flood 6;
      ];
      [ Net.Adversary.Malformed 6; Net.Adversary.Replay; Net.Adversary.Bomb 24 ];
    |]
  in
  let config = { Session.default_config with Session.guard = Guard.defaults } in
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "adversary: %s\n" m; exit 1) fmt in
  let rows =
    List.map
      (fun n ->
        let worst = ref 0 and envelopes = ref 0 and quarantines = ref 0 in
        for seed = 1 to seeds do
          let s = Scenario.scenario1 ~config ~key_bits:288 () in
          let session = s.Scenario.s1_session in
          let reactor = Reactor.create session in
          let advs =
            List.init n (fun i ->
                Net.Adversary.create
                  ~seed:(Int64.of_int ((seed * 100) + i))
                  ~name:(Printf.sprintf "adv%d" i)
                  mixes.(i mod Array.length mixes))
          in
          List.iter (Reactor.add_adversary reactor) advs;
          let id =
            Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
              (Scenario.scenario1_goal ())
          in
          let steps = Reactor.run ~max_steps reactor in
          if steps >= max_steps then
            fail "seed %d with %d adversaries hit the step budget" seed n;
          worst := max !worst steps;
          envelopes :=
            !envelopes
            + Net.Stats.messages (Net.Network.stats session.Session.network);
          (match Reactor.outcome reactor id with
          | Negotiation.Granted _ -> ()
          | Negotiation.Denied reason ->
              fail "seed %d with %d adversaries: honest negotiation denied (%s)"
                seed n reason);
          let offenders =
            List.sort_uniq compare
              (List.map snd (Guard.quarantined (Reactor.guard reactor)))
          in
          List.iter
            (fun from ->
              if not (List.exists (fun a -> Net.Adversary.name a = from) advs)
              then fail "seed %d: honest peer %s quarantined" seed from)
            offenders;
          List.iter
            (fun a ->
              let noisy =
                List.exists
                  (function
                    | Net.Adversary.Flood _ | Net.Adversary.Malformed _ -> true
                    | _ -> false)
                  (Net.Adversary.behaviors a)
              in
              if noisy && not (List.mem (Net.Adversary.name a) offenders) then
                fail "seed %d: %s escaped quarantine" seed
                  (Net.Adversary.name a))
            advs;
          quarantines := !quarantines + List.length offenders
        done;
        [
          string_of_int n;
          Printf.sprintf "%d/%d" seeds seeds;
          string_of_int !worst;
          string_of_int (!envelopes / seeds);
          string_of_int !quarantines;
        ])
      counts
  in
  print_table
    ~title:
      (Printf.sprintf
         "ADVERSARY Scenario-1 goodput over %d seeds per row (guards on, \
          behavior mixes cycling per adversary)"
         seeds)
    ~header:
      [ "adversaries"; "honest granted"; "worst steps"; "mean envelopes";
        "quarantines" ]
    rows;
  let snapshot = Pobs.Obs.snapshot () in
  print_table ~title:"ADVERSARY guard counters across the sweep"
    ~header:[ "counter"; "total" ]
    (List.map
       (fun name ->
         [ name; string_of_int (Pobs.Registry.counter_value snapshot name) ])
       [
         "guard.admitted"; "guard.rejected"; "guard.stale";
         "guard.quarantines"; "guard.recoveries"; "guard.malformed";
         "guard.oversized"; "guard.unsolicited"; "guard.bad_cert";
         "guard.rate_limited"; "guard.quota"; "guard.bomb";
         "adversary.actions"; "reactor.dedup_evictions";
       ])

(* ------------------------------------------------------------------ *)
(* crash: crash-stop recovery, journals on vs off *)

let crash_smoke = ref false

let crash_bench () =
  (* Scenario 1 under scheduled crash-stops: for each victim (the
     requester Alice and the responder E-Learn) and each journal mode
     ([ckpt] = per-peer write-ahead journals, [off] = no durability),
     sweep crash schedules mixing never-restarting crashes, mid-flight
     crash+restart, and post-settlement ("late") crashes.  Hard
     assertions: no run hits the step budget, no crash is ever
     misreported as a transport fault, and with journals on every
     crash+restart run must recover and re-grant the fault-free
     outcome with zero duplicate certificate learning.  A final block
     exercises request deadlines: a crashed counterparty plus a
     deadline produces Cancel withdrawals instead of a hang. *)
  let smoke = !crash_smoke in
  let runs = if smoke then 2 else 30 in
  let max_steps = 40_000 in
  let fail fmt =
    Printf.ksprintf (fun m -> Printf.eprintf "crash: %s\n" m; exit 1) fmt
  in
  let wallet_serials session name =
    let peer = Session.peer session name in
    Hashtbl.fold
      (fun _ (c : Crypto.Cert.t) acc -> c.Crypto.Cert.serial :: acc)
      peer.Peer.certs []
    |> List.sort compare
  in
  let fault_free_wallets, latency =
    (* each peer's certificate wallet after one clean run — the
       durability target a journalled victim must recover to — and the
       run's latency in ticks *)
    let s = Scenario.scenario1 ~key_bits:288 () in
    let session = s.Scenario.s1_session in
    let reactor = Reactor.create session in
    let id =
      Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
        (Scenario.scenario1_goal ())
    in
    ignore (Reactor.run ~max_steps reactor);
    (match Reactor.outcome reactor id with
    | Negotiation.Granted _ -> ()
    | Negotiation.Denied r -> fail "fault-free scenario denied (%s)" r);
    ( List.map (fun n -> (n, wallet_serials session n)) [ "Alice"; "E-Learn" ],
      Net.Clock.now (Net.Network.clock session.Session.network) )
  in
  let rows =
    List.concat_map
      (fun (mode, journal) ->
        List.map
          (fun victim ->
            let granted = ref 0 and crashed_denials = ref 0 in
            let transport_denials = ref 0 in
            let worst = ref 0 and envelopes = ref 0 in
            for i = 1 to runs do
              let s = Scenario.scenario1 ~key_bits:288 () in
              let session = s.Scenario.s1_session in
              let faults = Net.Faults.none () in
              (* run mix by i mod 5: 0 = crash forever, 1/3 = crash then
                 restart before the counterparties' retry budgets drain,
                 2 = restart only after they drain (exercising the
                 suspend-and-reissue path), 4 = crash long after
                 settlement (durability of a settled world); all but
                 the last crash inside the fault-free latency *)
              let sel = i mod 5 in
              let restarts = sel <> 0 in
              let late = sel = 4 in
              let at_tick =
                if late then 60 + i else 2 + (i mod (latency - 2))
              in
              let restart_tick =
                if not restarts then max_int
                else if sel = 2 then at_tick + 135 + (i mod 7)
                else at_tick + 12 + (i mod 9)
              in
              Net.Faults.add_crash faults ~peer:victim ~at_tick ~restart_tick;
              Net.Network.set_faults session.Session.network faults;
              let config = { Reactor.default_config with Reactor.journal } in
              let reactor = Reactor.create ~config session in
              let id =
                Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
                  (Scenario.scenario1_goal ())
              in
              let steps = Reactor.run ~max_steps reactor in
              if steps >= max_steps then
                fail "%s/%s run %d hit the step budget" mode victim i;
              worst := max !worst steps;
              envelopes :=
                !envelopes
                + Net.Stats.messages
                    (Net.Network.stats session.Session.network);
              (match Reactor.outcome reactor id with
              | Negotiation.Granted _ -> incr granted
              | Negotiation.Denied reason -> (
                  match Negotiation.classify_denial reason with
                  | Negotiation.Crashed -> incr crashed_denials
                  | Negotiation.Unreachable | Negotiation.Timeout ->
                      incr transport_denials
                  | _ -> ()));
              if late && Reactor.outcome reactor id = Negotiation.Denied "peer crashed"
              then fail "%s/%s run %d: post-settlement crash undid the outcome"
                     mode victim i;
              if journal <> Reactor.Journal_off && restarts then begin
                (* durability: journal replay must bring the victim's
                   wallet back to exactly the fault-free certificate
                   set — no loss, and (replay learns through the
                   idempotent wallet, never the verifier) no
                   duplicates *)
                (match Reactor.outcome reactor id with
                | Negotiation.Granted _ -> ()
                | Negotiation.Denied reason ->
                    fail "%s/%s run %d failed to recover (%s)" mode victim i
                      reason);
                let expected = List.assoc victim fault_free_wallets in
                let got = wallet_serials session victim in
                if got <> expected then
                  fail
                    "%s/%s run %d: recovered wallet %s != fault-free %s" mode
                    victim i
                    (String.concat "," (List.map string_of_int got))
                    (String.concat "," (List.map string_of_int expected))
              end
            done;
            if !transport_denials > 0 then
              fail "%s/%s: %d crash(es) misreported as transport faults" mode
                victim !transport_denials;
            let g label v =
              Pobs.Metric.set
                (Pobs.Obs.gauge
                   (Printf.sprintf "crash.%s.%s.%s" mode victim label))
                (float_of_int v)
            in
            g "granted" !granted;
            g "crashed_denials" !crashed_denials;
            g "transport_denials" !transport_denials;
            g "worst_steps" !worst;
            g "envelopes" (!envelopes / runs);
            [
              mode; victim;
              Printf.sprintf "%d/%d" !granted runs;
              string_of_int !crashed_denials;
              string_of_int !worst;
              string_of_int (!envelopes / runs);
            ])
          [ "Alice"; "E-Learn" ])
      [ ("ckpt", Reactor.Journal_memory); ("off", Reactor.Journal_off) ]
  in
  (* deadline block: a never-restarting crash plus a request deadline
     must settle as a policy-class denial and withdraw the in-flight
     sub-queries with Cancels, long before the retry budget drains *)
  let deadline_runs = if smoke then 2 else 4 in
  for i = 1 to deadline_runs do
    let s = Scenario.scenario1 ~key_bits:288 () in
    let session = s.Scenario.s1_session in
    (* odd runs kill the responder (the Cancels die in transit with
       it); even runs leave everyone alive but set a deadline tighter
       than the fault-free run's latency, so the Cancel reaches the live
       responder and withdraws its parked goal *)
    let deadline =
      let faults = Net.Faults.none () in
      let deadline =
        if i mod 2 = 1 then begin
          Net.Faults.add_crash faults ~peer:"E-Learn" ~at_tick:(2 + i)
            ~restart_tick:max_int;
          20 + (4 * i)
        end
        else begin
          (* a far-future bystander crash keeps the fault plan active
             (arming retransmission timers) without touching the flow *)
          Net.Faults.add_crash faults ~peer:"ELENA" ~at_tick:200
            ~restart_tick:max_int;
          latency - 1 - (i / 2)
        end
      in
      Net.Network.set_faults session.Session.network faults;
      deadline
    in
    let reactor = Reactor.create session in
    let id =
      Reactor.submit ~deadline reactor ~requester:"Alice" ~target:"E-Learn"
        (Scenario.scenario1_goal ())
    in
    let steps = Reactor.run ~max_steps reactor in
    if steps >= max_steps then fail "deadline run %d hit the step budget" i;
    match Reactor.outcome reactor id with
    | Negotiation.Denied "deadline expired" -> ()
    | Negotiation.Denied other ->
        fail "deadline run %d denied as %S, not the deadline" i other
    | Negotiation.Granted _ ->
        fail "deadline run %d granted against a crashed responder" i
  done;
  print_table
    ~title:
      (Printf.sprintf
         "CRASH Scenario-1 outcomes over %d crash schedules per cell \
          (victim crashes mid-flight; 3/5 of schedules restart it; ckpt = \
          write-ahead journal replayed at restart) plus %d deadline runs"
         runs deadline_runs)
    ~header:
      [ "journal"; "victim"; "granted"; "crashed"; "worst steps";
        "mean envelopes" ]
    rows;
  let snapshot = Pobs.Obs.snapshot () in
  print_table ~title:"CRASH recovery counters across the sweep"
    ~header:[ "counter"; "total" ]
    (List.map
       (fun name ->
         [ name; string_of_int (Pobs.Registry.counter_value snapshot name) ])
       [
         "reactor.crashes"; "reactor.restarts"; "reactor.checkpoints";
         "reactor.recovered_goals"; "reactor.reissued_subqueries";
         "reactor.stale_epoch"; "reactor.crash_drops"; "reactor.cancels";
         "reactor.cancelled_goals"; "reactor.deadline_expiries";
         "reactor.timeouts"; "reactor.retries";
       ])

(* ------------------------------------------------------------------ *)
(* cache: cross-negotiation answer cache, cold vs warm *)

let cache_bench () =
  (* Each scenario runs three times on fresh sessions: once without a
     cache (baseline), once with an empty shared cache (cold), and once
     more reusing that cache (warm).  Sessions are rebuilt from the same
     deterministic keystore seed, so certificates replayed out of the
     cache still verify in the fresh session. *)
  let run ?config ~session goals =
    let stats = Net.Network.stats session.Session.network in
    let before = Net.Stats.messages stats in
    let reactor = Reactor.create ?config session in
    let ids =
      List.map
        (fun (req, tgt, goal) ->
          Reactor.submit reactor ~requester:req ~target:tgt goal)
        goals
    in
    ignore (Reactor.run reactor);
    let ok =
      List.for_all
        (fun id ->
          match Reactor.outcome reactor id with
          | Negotiation.Granted _ -> true
          | Negotiation.Denied _ -> false)
        ids
    in
    ( ok,
      Net.Stats.messages stats - before,
      Net.Clock.now (Net.Network.clock session.Session.network) )
  in
  let scenarios =
    [
      ( "s1",
        fun () ->
          let s = Scenario.scenario1 ~key_bits:288 () in
          ( s.Scenario.s1_session,
            [ ("Alice", "E-Learn", Scenario.scenario1_goal ()) ] ) );
      ( "s2",
        fun () ->
          let s = Scenario.scenario2 ~key_bits:288 () in
          ( s.Scenario.s2_session,
            [
              ("Bob", "E-Learn", Scenario.scenario2_goal_free ());
              ("Bob", "E-Learn", Scenario.scenario2_goal_paid ());
            ] ) );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, build) ->
        let session, goals = build () in
        let ok_off, msgs_off, ticks_off = run ~session goals in
        let cache = Answer_cache.create () in
        let config =
          { Reactor.default_config with Reactor.cache = Some cache }
        in
        let s_cold, goals_cold = build () in
        let ok_cold, msgs_cold, ticks_cold =
          run ~config ~session:s_cold goals_cold
        in
        let hits_cold = Answer_cache.hits cache in
        let s_warm, goals_warm = build () in
        let ok_warm, msgs_warm, ticks_warm =
          run ~config ~session:s_warm goals_warm
        in
        let hits_warm = Answer_cache.hits cache - hits_cold in
        let g key v =
          Pobs.Metric.set
            (Pobs.Obs.gauge (Printf.sprintf "cache.%s.%s" name key))
            (float_of_int v)
        in
        g "off_envelopes" msgs_off;
        g "cold_envelopes" msgs_cold;
        g "warm_envelopes" msgs_warm;
        g "off_ticks" ticks_off;
        g "cold_ticks" ticks_cold;
        g "warm_ticks" ticks_warm;
        let row mode ok msgs ticks hits =
          [
            name; mode;
            (if ok then "granted" else "denied");
            string_of_int msgs; string_of_int ticks; string_of_int hits;
          ]
        in
        [
          row "no cache" ok_off msgs_off ticks_off 0;
          row "cold" ok_cold msgs_cold ticks_cold hits_cold;
          row "warm" ok_warm msgs_warm ticks_warm hits_warm;
        ])
      scenarios
  in
  print_table
    ~title:
      "CACHE Cross-negotiation answer cache: the same scenario negotiated \
       on a fresh session with a shared cache — warm runs answer from the \
       cache and post (almost) no envelopes"
    ~header:[ "scenario"; "mode"; "outcome"; "envelopes"; "ticks"; "hits" ]
    rows

(* ------------------------------------------------------------------ *)
(* RESOLUTION: resolution-core workloads.

   Scaled workloads that bottom out in the lib/dlp term layer: deep
   delegation-style rule chains, wide ground KBs (exercising
   first-argument indexing and full scans), million-fact ground KBs
   (point lookups and rule-mediated hops against the hash-consed
   first-argument index), long negotiation sessions on a warm session,
   and tabled transitive closure.  Each workload reports median wall time
   and words allocated per run; the numbers land in BENCH_resolution.json
   as gauges ([resolution.<workload>.ms] and
   [resolution.<workload>.kwords]).  With [--smoke], sizes shrink and each
   SLD workload's answer set is checked against a map-based reference
   resolution engine (substitution maps, rename-apart via substitution),
   guarding the trailed core against answer drift.  [--kb-size N]
   overrides the fact count of the ground-KB workloads (honoured with and
   without [--smoke]). *)

let resolution_smoke = ref false
let resolution_kb_size : int option ref = ref None

let kb_of_buf f =
  let buf = Buffer.create 4096 in
  f buf;
  Dlp.Kb.of_string (Buffer.contents buf)

(* l0(X) <- l1(X). ... l(d-1)(X) <- ld(X).  ld(leaf). *)
let deep_chain_kb depth =
  kb_of_buf (fun buf ->
      for i = 0 to depth - 1 do
        Printf.bprintf buf "l%d(X) <- l%d(X).\n" i (i + 1)
      done;
      Printf.bprintf buf "l%d(leaf).\n" depth)

let transitive_kb n =
  kb_of_buf (fun buf ->
      Buffer.add_string buf
        "path(X, Y) <- edge(X, Y).\npath(X, Z) <- edge(X, Y), path(Y, Z).\n";
      for i = 1 to n do
        Printf.bprintf buf "edge(n%d, n%d).\n" i (i + 1)
      done)

let wide_kb n =
  kb_of_buf (fun buf ->
      for i = 1 to n do
        Printf.bprintf buf "item(c%d, %d).\n" i i
      done;
      Buffer.add_string buf "lookup(K, V) <- item(K, V).\n")

(* Million-scale KBs are built through the constructor API: parsing a
   million-line program would dominate setup.  Insertion is indexed
   ({!Dlp.Kb.mem} consults the first-argument index), so bulk build is
   O(n log n). *)
let ground_kb n =
  let rec go i kb =
    if i > n then kb
    else
      let lit =
        Dlp.Literal.make "fact" [ Dlp.Term.atom ("c" ^ string_of_int i); Dlp.Term.Int i ]
      in
      go (i + 1) (Dlp.Kb.add (Dlp.Rule.fact lit) kb)
  in
  go 1 Dlp.Kb.empty

let edge_kb n =
  let node i = Dlp.Term.atom ("n" ^ string_of_int i) in
  let rec go i kb =
    if i > n then kb
    else
      go (i + 1)
        (Dlp.Kb.add (Dlp.Rule.fact (Dlp.Literal.make "edge" [ node i; node (i + 1) ])) kb)
  in
  let hop =
    (* hop2(X, Z) <- edge(X, Y), edge(Y, Z). *)
    let v n = Dlp.Term.var n in
    Dlp.Rule.make
      (Dlp.Literal.make "hop2" [ v "X"; v "Z" ])
      [
        Dlp.Literal.make "edge" [ v "X"; v "Y" ];
        Dlp.Literal.make "edge" [ v "Y"; v "Z" ];
      ]
  in
  go 1 (Dlp.Kb.add hop Dlp.Kb.empty)

(* Median wall time and mean words allocated of [runs] executions. *)
let time_alloc ?(runs = 5) f =
  let before = Gc.allocated_bytes () in
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  let words =
    (Gc.allocated_bytes () -. before)
    /. float_of_int runs
    /. float_of_int (Sys.word_size / 8)
  in
  let sorted = List.sort compare samples in
  (List.nth sorted (List.length sorted / 2), words)

(* Answer sets as a sorted list of printed substitutions: the comparison
   key for the engine-vs-reference differential. *)
let answer_key answers =
  List.sort compare (List.map Dlp.Subst.to_string answers)

let resolution () =
  let smoke = !resolution_smoke in
  let scale full small = if smoke then small else full in
  (* Fact count of the ground-KB workloads; [--kb-size] overrides both the
     full and the smoke default. *)
  let kb_n full small =
    match !resolution_kb_size with Some n -> n | None -> scale full small
  in
  let sld_answers ?(max_solutions = 100_000) ~max_depth kb goals =
    Dlp.Sld.answers
      ~options:{ Dlp.Sld.default_options with max_depth; max_solutions }
      ~self:"bench" kb goals
  in
  let check_differential = ref [] in
  (* Each workload is a thunk: KBs are built when the workload runs and
     become garbage right after its row (a million-fact KB per workload —
     building them all up front would hold them simultaneously). *)
  let workloads =
    [
      ( "deep_chain",
        fun () ->
          let depth = scale 1500 120 in
          let kb = deep_chain_kb depth in
          let goals = Dlp.Parser.parse_query "l0(X)" in
          let max_depth = depth + 16 in
          ( (fun () ->
              ignore (sld_answers ~max_solutions:4 ~max_depth kb goals)),
            Some (kb, goals, max_depth) ) );
      ( "deep_chain_xl",
        fun () ->
          let depth = scale 6_000 300 in
          let kb = deep_chain_kb depth in
          let goals = Dlp.Parser.parse_query "l0(X)" in
          let max_depth = depth + 16 in
          ( (fun () ->
              ignore (sld_answers ~max_solutions:4 ~max_depth kb goals)),
            Some (kb, goals, max_depth) ) );
      ( "transitive",
        fun () ->
          let n = scale 48 12 in
          let kb = transitive_kb n in
          let goals = Dlp.Parser.parse_query "path(X, Y)" in
          let max_depth = (2 * n) + 8 in
          ( (fun () -> ignore (sld_answers ~max_depth kb goals)),
            Some (kb, goals, max_depth) ) );
      ( "wide_indexed",
        fun () ->
          let n = kb_n 10_000 1_000 in
          let kb = wide_kb n in
          let goals =
            Dlp.Parser.parse_query (Printf.sprintf "lookup(c%d, V)" (n - 13))
          in
          ( (fun () ->
              for _ = 1 to scale 300 20 do
                ignore (sld_answers ~max_solutions:4 ~max_depth:8 kb goals)
              done),
            Some (kb, goals, 8) ) );
      ( "wide_scan",
        fun () ->
          let n = kb_n 10_000 1_000 in
          let kb = wide_kb n in
          let goals = Dlp.Parser.parse_query "item(K, V)" in
          ( (fun () -> ignore (sld_answers ~max_depth:4 kb goals)), None ) );
      ( "wide_scan_xl",
        fun () ->
          let n = kb_n 200_000 5_000 in
          let kb = wide_kb n in
          let goals = Dlp.Parser.parse_query "item(K, V)" in
          ( (fun () -> ignore (sld_answers ~max_depth:4 kb goals)), None ) );
      ( "ground_lookup",
        fun () ->
          let n = kb_n 1_000_000 20_000 in
          let kb = ground_kb n in
          let queries = scale 2_000 200 in
          let vV = Dlp.Term.var "V" in
          let goal_at k =
            [ Dlp.Literal.make "fact" [ Dlp.Term.atom ("c" ^ string_of_int k); vV ] ]
          in
          ( (fun () ->
              for j = 1 to queries do
                (* Deterministic stride spreads the probes over the KB. *)
                let k = 1 + (j * 7919 mod n) in
                ignore (sld_answers ~max_solutions:4 ~max_depth:8 kb (goal_at k))
              done),
            Some (kb, goal_at (1 + (n / 2)), 8) ) );
      ( "indexed_million",
        fun () ->
          let n = kb_n 1_000_000 20_000 in
          let kb = edge_kb n in
          let queries = scale 1_000 100 in
          let vZ = Dlp.Term.var "Z" in
          let goal_at k =
            [
              Dlp.Literal.make "hop2"
                [ Dlp.Term.atom ("n" ^ string_of_int k); vZ ];
            ]
          in
          ( (fun () ->
              for j = 1 to queries do
                let k = 1 + (j * 7919 mod (n - 1)) in
                ignore (sld_answers ~max_solutions:4 ~max_depth:8 kb (goal_at k))
              done),
            Some (kb, goal_at (1 + (n / 2)), 8) ) );
      ( "negotiation_session",
        fun () ->
          let w = Scenario.scenario1 () in
          let goal = {|discountEnroll(spanish101, "Alice")|} in
          ( (fun () ->
              for _ = 1 to scale 30 3 do
                ignore
                  (Strategy.negotiate_str ~strategy:Relevant
                     w.Scenario.s1_session ~requester:"Alice"
                     ~target:"E-Learn" goal)
              done),
            None ) );
      ( "tabled_transitive",
        fun () ->
          let n = scale 28 10 in
          let kb = transitive_kb n in
          let goals = Dlp.Parser.parse_query "path(X, Y)" in
          ( (fun () -> ignore (Dlp.Tabled.solve ~self:"bench" kb goals)), None )
      );
    ]
  in
  let rows =
    List.map
      (fun (name, mk) ->
        let run, differential = mk () in
        run () (* warm-up, and interner/caches settle *);
        let runs = if smoke then 1 else 5 in
        let ms, words = time_alloc ~runs run in
        Pobs.Metric.set
          (Pobs.Obs.gauge ("resolution." ^ name ^ ".ms"))
          (ms *. 1000.);
        Pobs.Metric.set
          (Pobs.Obs.gauge ("resolution." ^ name ^ ".kwords"))
          (words /. 1000.);
        (* Differential references are only retained in smoke mode (full
           mode would keep every million-fact KB alive to the end). *)
        if smoke then
          Option.iter
            (fun d -> check_differential := (name, d) :: !check_differential)
            differential;
        [
          name;
          fmt_ms ms;
          Printf.sprintf "%.0f" (words /. 1000.);
          (if differential = None then "-" else "yes");
        ])
      workloads
  in
  print_table
    ~title:
      "RESOLUTION  Resolution-core workloads (deep chains, wide KBs, \
       negotiation sessions)"
    ~header:[ "workload"; "ms/run"; "kwords/run"; "differential" ]
    rows;
  (* Differential gate: the engine's answers on each SLD workload must
     match the map-based reference resolver, as sets. *)
  if smoke then
    List.iter
      (fun (name, (kb, goals, max_depth)) ->
        let engine =
          answer_key
            (sld_answers ~max_solutions:100_000 ~max_depth kb goals)
        in
        let reference =
          answer_key
            (Peertrust_oracle.Oracle.answers ~max_depth ~self:"bench" kb goals)
        in
        if engine <> reference then begin
          Printf.eprintf
            "resolution --smoke: differential MISMATCH on %s (%d engine vs \
             %d reference answers)\n"
            name (List.length engine) (List.length reference);
          exit 1
        end
        else Printf.printf "  differential ok: %s (%d answers)\n" name
          (List.length engine))
      !check_differential

(* ------------------------------------------------------------------ *)
(* RECURSION: distributed tabling over cyclic cross-peer policies.

   Mutual-accreditation rings and chained federations — the workloads
   the plain engines cannot terminate on — evaluated through the
   reactor's distributed tabling engine.  Emits gauges
   [recursion.<workload>.ms], [recursion.<workload>.steps] and
   [recursion.<workload>.messages] into BENCH_recursion.json; every run
   is checked for the complete expected answer set, so the benchmark
   doubles as a termination/completeness gate. *)

let recursion_smoke = ref false

let recursion () =
  let smoke = !recursion_smoke in
  let scale full small = if smoke then small else full in
  let run_world mk =
    (* A reactor is a single-shot state machine over its session: build
       a fresh world per run so repeats measure the same work. *)
    let rw = mk () in
    let session = rw.Scenario.rw_session in
    let config = { Reactor.default_config with Reactor.tabling = true } in
    let reactor = Reactor.create ~config session in
    let id =
      Reactor.submit reactor ~requester:rw.Scenario.rw_requester
        ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
    in
    let steps = Reactor.run reactor in
    let messages =
      Net.Stats.messages (Net.Network.stats session.Session.network)
    in
    let complete =
      match Reactor.outcome reactor id with
      | Negotiation.Granted instances ->
          List.sort_uniq compare
            (List.map (fun (l, _) -> Dlp.Literal.to_string l) instances)
          = List.sort_uniq compare
              (List.map Dlp.Literal.to_string rw.Scenario.rw_expected)
      | Negotiation.Denied _ -> false
    in
    (steps, messages, complete)
  in
  let workloads =
    [
      ( "mutual_pair",
        fun () -> Scenario.mutual_accreditation ~n:2 () );
      ( "accreditation_ring",
        let n = scale 8 4 in
        fun () -> Scenario.mutual_accreditation ~n () );
      ( "federation",
        let clusters = scale 4 2 and size = scale 3 2 in
        fun () -> Scenario.federation ~clusters ~size () );
    ]
  in
  let rows =
    List.map
      (fun (name, mk) ->
        ignore (run_world mk) (* warm-up: interner/caches settle *);
        let last = ref (0, 0, false) in
        let runs = if smoke then 1 else 5 in
        let ms, _ = time_alloc ~runs (fun () -> last := run_world mk) in
        let steps, messages, complete = !last in
        if not complete then begin
          Printf.eprintf
            "recursion: %s terminated WITHOUT the complete answer set\n" name;
          exit 1
        end;
        Pobs.Metric.set
          (Pobs.Obs.gauge ("recursion." ^ name ^ ".ms"))
          (ms *. 1000.);
        Pobs.Metric.set
          (Pobs.Obs.gauge ("recursion." ^ name ^ ".steps"))
          (float_of_int steps);
        Pobs.Metric.set
          (Pobs.Obs.gauge ("recursion." ^ name ^ ".messages"))
          (float_of_int messages);
        [ name; fmt_ms ms; string_of_int steps; string_of_int messages ])
      workloads
  in
  print_table
    ~title:
      "RECURSION  Distributed tabling over cyclic policies \
       (mutual-accreditation rings, federations)"
    ~header:[ "workload"; "ms/run"; "steps"; "messages" ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let micro () =
  let open Bechamel in
  let kb_tc =
    Dlp.Kb.of_string
      "path(X, Y) <- edge(X, Y). path(X, Z) <- edge(X, Y), path(Y, Z).\n\
       edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(5, 6)."
  in
  let goal_tc = Dlp.Parser.parse_query "path(1, 6)" in
  let prng = Crypto.Prng.create 3L in
  let kp = Crypto.Rsa.generate ~bits:320 prng in
  let signature = Crypto.Rsa.sign kp "payload" in
  let warm = Scenario.scenario1 () in
  ignore
    (Strategy.negotiate_str ~strategy:Relevant warm.Scenario.s1_session
       ~requester:"Alice"
       ~target:"E-Learn" {|discountEnroll(spanish101, "Alice")|});
  let tests =
    [
      Test.make ~name:"parse rule"
        (Staged.stage (fun () ->
             Dlp.Parser.parse_rule
               {|policy49(C, R, Co, P) <-{true} price(C, P), authorized(R, P) @ Co @ R, visaCard(Co) @ "VISA" @ R.|}));
      Test.make ~name:"unify deep terms"
        (Staged.stage
           (let a = Dlp.Parser.parse_term "f(g(X, h(Y, 1)), i(Z, j(2, W)))" in
            let b = Dlp.Parser.parse_term {|f(g(a, h(b, 1)), i("c", j(2, d)))|} in
            fun () -> ignore (Dlp.Unify.terms a b Dlp.Subst.empty)));
      Test.make ~name:"sld transitive closure"
        (Staged.stage (fun () ->
             ignore (Dlp.Sld.solve ~self:"p" kb_tc goal_tc)));
      Test.make ~name:"forward saturate"
        (Staged.stage (fun () ->
             ignore (Dlp.Forward.saturate ~self:"p" kb_tc)));
      Test.make ~name:"sha256 1KiB"
        (Staged.stage
           (let data = String.make 1024 'a' in
            fun () -> ignore (Crypto.Sha256.digest data)));
      Test.make ~name:"rsa-320 sign"
        (Staged.stage (fun () -> ignore (Crypto.Rsa.sign kp "payload")));
      Test.make ~name:"rsa-320 verify"
        (Staged.stage (fun () ->
             ignore (Crypto.Rsa.verify kp.Crypto.Rsa.public "payload" signature)));
      Test.make ~name:"negotiation (warm cache)"
        (Staged.stage (fun () ->
             ignore
               (Strategy.negotiate_str ~strategy:Relevant
                  warm.Scenario.s1_session ~requester:"Alice" ~target:"E-Learn"
                  {|discountEnroll(spanish101, "Alice")|})));
    ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"peertrust" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows := (name, est, r2) :: !rows)
    results;
  let rows =
    List.sort compare !rows
    |> List.map (fun (name, est, r2) ->
           [ name; Printf.sprintf "%.0f" est; Printf.sprintf "%.4f" r2 ])
  in
  print_table ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
    ~header:[ "benchmark"; "ns/run"; "r^2" ]
    rows

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e13", e13); ("cache", cache_bench);
    ("chaos", chaos); ("resolution", resolution);
    ("recursion", recursion); ("adversary", adversary_bench);
    ("crash", crash_bench);
  ]

(* ------------------------------------------------------------------ *)
(* diff: regression gate over BENCH_*.json snapshots *)

let read_snapshot file =
  let text =
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  match Pobs.Export.metrics_of_string text with
  | Ok snapshot -> snapshot
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" file msg;
      exit 1

(* Multiply every fresh value by [r] — the gate's self-test: a simulated
   uniform slowdown the diff must catch. *)
let inflate_snapshot r (s : Pobs.Registry.snapshot) =
  let scale_hist (h : Pobs.Metric.histogram_snapshot) =
    {
      h with
      Pobs.Metric.hs_sum = h.Pobs.Metric.hs_sum *. r;
      hs_min = h.Pobs.Metric.hs_min *. r;
      hs_max = h.Pobs.Metric.hs_max *. r;
    }
  in
  {
    Pobs.Registry.sn_counters =
      List.map
        (fun (n, v) -> (n, int_of_float (Float.of_int v *. r)))
        s.Pobs.Registry.sn_counters;
    sn_gauges = List.map (fun (n, v) -> (n, v *. r)) s.Pobs.Registry.sn_gauges;
    sn_histograms =
      List.map (fun (n, h) -> (n, scale_hist h)) s.Pobs.Registry.sn_histograms;
  }

let diff_usage () =
  prerr_endline
    "usage: bench diff [--baseline FILE | --against-seed NAME] [--tolerance \
     R] [--inflate R] [--json] FRESH.json";
  exit 2

let run_diff rest =
  let baseline = ref None in
  let against_seed = ref None in
  let tolerance = ref None in
  let inflate = ref None in
  let json = ref false in
  let fresh_file = ref None in
  let float_arg flag v =
    match float_of_string_opt v with
    | Some f when f > 0. -> f
    | Some _ | None ->
        Printf.eprintf "error: %s expects a positive number, got %S\n" flag v;
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | "--against-seed" :: name :: rest ->
        against_seed := Some name;
        parse rest
    | "--tolerance" :: r :: rest ->
        tolerance := Some (float_arg "--tolerance" r);
        parse rest
    | "--inflate" :: r :: rest ->
        inflate := Some (float_arg "--inflate" r);
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | file :: rest when !fresh_file = None && String.length file > 0
                       && file.[0] <> '-' ->
        fresh_file := Some file;
        parse rest
    | arg :: _ ->
        Printf.eprintf "error: bench diff: unexpected argument %S\n" arg;
        diff_usage ()
  in
  parse rest;
  let fresh_file =
    match !fresh_file with Some f -> f | None -> diff_usage ()
  in
  let baseline_file =
    match (!baseline, !against_seed) with
    | Some file, None -> file
    | None, Some name ->
        (* Prefer a committed seed baseline; fall back to the plain
           artifact for ad-hoc before/after comparisons. *)
        let seed = Printf.sprintf "BENCH_%s_seed.json" name in
        if Sys.file_exists seed then seed
        else Printf.sprintf "BENCH_%s.json" name
    | Some _, Some _ ->
        prerr_endline "error: --baseline and --against-seed are exclusive";
        exit 2
    | None, None -> diff_usage ()
  in
  let baseline = read_snapshot baseline_file in
  let fresh = read_snapshot fresh_file in
  let fresh =
    match !inflate with None -> fresh | Some r -> inflate_snapshot r fresh
  in
  let spec =
    match !tolerance with
    | None -> Pobs.Diff.default_spec
    | Some tol_ratio ->
        {
          Pobs.Diff.default_spec with
          Pobs.Diff.sp_default =
            { Pobs.Diff.default_tolerance with Pobs.Diff.tol_ratio };
          sp_timing = { Pobs.Diff.timing_tolerance with Pobs.Diff.tol_ratio };
        }
  in
  let report = Pobs.Diff.compare_snapshots ~spec ~baseline ~fresh () in
  if !json then
    print_endline (Pobs.Json.to_string (Pobs.Diff.report_to_json report))
  else begin
    Printf.printf "bench diff: %s (baseline) vs %s (fresh)%s\n" baseline_file
      fresh_file
      (match !inflate with
      | Some r -> Printf.sprintf " [fresh inflated x%g]" r
      | None -> "");
    Format.printf "%a@." Pobs.Diff.pp_report report
  end;
  exit (if report.Pobs.Diff.r_ok then 0 else 1)

(* Run one experiment with a fresh metrics registry and drop the snapshot
   as BENCH_<name>.json next to the tables (schema: Peertrust_obs.Registry). *)
let with_metrics dir name f =
  Pobs.Obs.reset_metrics ();
  f ();
  let file = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
  (* Histograms that recorded nothing and gauges nobody set since the
     reset are registration noise (every linked subsystem registers its
     instruments at module init, and earlier experiments of the same
     process leave theirs behind): drop them from the artifact rather
     than pinning empty series and stale zeros into the baselines. *)
  let snapshot =
    let s = Pobs.Obs.snapshot () in
    {
      s with
      Pobs.Registry.sn_gauges =
        List.filter
          (fun (name, _) -> Pobs.Metric.gauge_is_set (Pobs.Obs.gauge name))
          s.Pobs.Registry.sn_gauges;
      sn_histograms =
        List.filter
          (fun (_, h) -> h.Pobs.Metric.hs_count > 0)
          s.Pobs.Registry.sn_histograms;
    }
  in
  (try Pobs.Export.write_metrics_json ~label:name file snapshot
   with Sys_error reason ->
     Printf.eprintf "error: cannot write metrics (%s)\n" reason;
     exit 1);
  Printf.printf "  metrics: %s\n" file;
  flush stdout

let () =
  let rec split_args dir acc = function
    | [] -> (dir, List.rev acc)
    | "--metrics-dir" :: d :: rest -> split_args (Some d) acc rest
    | "--smoke" :: rest ->
        resolution_smoke := true;
        adversary_smoke := true;
        recursion_smoke := true;
        crash_smoke := true;
        split_args dir acc rest
    | "--kb-size" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v > 0 -> resolution_kb_size := Some v
        | Some _ | None ->
            Printf.eprintf "error: --kb-size expects a positive integer, got %S\n" n;
            exit 2);
        split_args dir acc rest
    | a :: rest -> split_args dir (a :: acc) rest
  in
  match List.tl (Array.to_list Sys.argv) with
  | "diff" :: rest -> run_diff rest
  | raw_args ->
  let dir, args = split_args None [] raw_args in
  let dir = Option.value dir ~default:"." in
  match args with
  | [] ->
      Printf.printf "PeerTrust benchmark harness — all experiments\n";
      List.iter (fun (name, f) -> with_metrics dir name f) experiments
  | [ "micro" ] -> micro ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) experiments with
          | Some f -> with_metrics dir (String.lowercase_ascii name) f
          | None ->
              if name = "micro" then micro ()
              else begin
                Printf.eprintf "unknown experiment %S\n" name;
                exit 1
              end)
        names
