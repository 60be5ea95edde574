(* Chaos tests: the paper's §4.1/§4.2 scenarios replayed under seeded
   fault schedules (drops, duplicates, delays, reordering, transient
   outages).  The property under test: every run terminates within the
   step budget and ends in either the fault-free outcome or a clean
   structured denial — never a hang, an uncaught exception, or a silent
   drop — and with all fault rates at zero the transcript is identical to
   the fault-free run. *)

open Peertrust
module Net = Peertrust_net
module Pobs = Peertrust_obs

let key_bits = 288 (* small keys keep the 100-seed sweeps fast *)
let max_steps = 20_000

let granted = function
  | Negotiation.Granted _ -> true
  | Negotiation.Denied _ -> false

(* One queued scenario-1 run; [faults] installs a plan before the
   reactor starts, [config] selects reactor options (answer cache,
   tabling, journals). *)
let run_s1 ?faults ?config () =
  let s = Scenario.scenario1 ~key_bits () in
  let net = s.Scenario.s1_session.Session.network in
  Option.iter (Net.Network.set_faults net) faults;
  let reactor = Reactor.create ?config s.Scenario.s1_session in
  let id =
    Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
      (Scenario.scenario1_goal ())
  in
  let steps = Reactor.run ~max_steps reactor in
  (Reactor.outcome reactor id, steps, reactor, net)

(* One queued scenario-2 run with the free and paid goals interleaved
   over a single reactor queue. *)
let run_s2 ?faults ?config () =
  let s = Scenario.scenario2 ~key_bits () in
  let net = s.Scenario.s2_session.Session.network in
  Option.iter (Net.Network.set_faults net) faults;
  let reactor = Reactor.create ?config s.Scenario.s2_session in
  let free =
    Reactor.submit reactor ~requester:"Bob" ~target:"E-Learn"
      (Scenario.scenario2_goal_free ())
  in
  let paid =
    Reactor.submit reactor ~requester:"Bob" ~target:"E-Learn"
      (Scenario.scenario2_goal_paid ())
  in
  let steps = Reactor.run ~max_steps reactor in
  ((Reactor.outcome reactor free, Reactor.outcome reactor paid), steps, reactor, net)

let chaos_plan ?(drop = 0.12) ?(outage = None) seed =
  let f =
    Net.Faults.create ~drop ~duplicate:0.1 ~delay:0.25 ~delay_max:4
      ~reorder:0.1 ~seed ()
  in
  (match outage with
  | Some (peer, from_tick, until_tick) ->
      Net.Faults.add_outage f ~peer ~from_tick ~until_tick
  | None -> ());
  f

(* A faulted outcome is acceptable when it matches the fault-free outcome
   or degrades into a denial (all denial reasons classify cleanly). *)
let acceptable ~label ~baseline outcome =
  match (baseline, outcome) with
  | _, Negotiation.Denied reason ->
      ignore (Negotiation.classify_denial reason : Negotiation.denial_class)
  | Negotiation.Granted _, Negotiation.Granted _ -> ()
  | Negotiation.Denied _, Negotiation.Granted _ ->
      Alcotest.failf "%s: granted under faults but denied fault-free" label

let transcript_sig net =
  List.map
    (fun e ->
      Printf.sprintf "[%d] %s->%s %s %d" e.Net.Network.time e.Net.Network.from
        e.Net.Network.target e.Net.Network.summary e.Net.Network.bytes_)
    (Net.Network.transcript net)

(* ------------------------------------------------------------------ *)

let test_chaos_sweep_scenario1 () =
  let baseline, _, _, _ = run_s1 () in
  Alcotest.(check bool) "fault-free baseline granted" true (granted baseline);
  Pobs.Obs.reset_metrics ();
  for seed = 1 to 100 do
    let faults =
      chaos_plan
        ~outage:(if seed mod 3 = 0 then Some ("UIUC", 3, 9) else None)
        (Int64.of_int seed)
    in
    let outcome, steps, reactor, _ =
      try run_s1 ~faults () with
      | exn ->
          Alcotest.failf "seed %d: uncaught exception %s" seed
            (Printexc.to_string exn)
    in
    if steps >= max_steps then Alcotest.failf "seed %d: hit step budget" seed;
    acceptable ~label:(Printf.sprintf "seed %d" seed) ~baseline outcome;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: nothing parked" seed)
      0 (Reactor.parked_count reactor);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no timers left" seed)
      0 (Reactor.pending_timers reactor)
  done;
  (* The sweep must have exercised the fault machinery and exported it. *)
  let snapshot = Pobs.Obs.snapshot () in
  let count name = Pobs.Registry.counter_value snapshot name in
  Alcotest.(check bool) "drops recorded" true (count "net.drops" > 0);
  Alcotest.(check bool) "duplicates recorded" true (count "net.duplicates" > 0);
  Alcotest.(check bool) "retries recorded" true (count "reactor.retries" > 0)

let test_chaos_sweep_scenario2 () =
  let (base_free, base_paid), _, _, _ = run_s2 () in
  Alcotest.(check bool) "free baseline granted" true (granted base_free);
  Alcotest.(check bool) "paid baseline granted" true (granted base_paid);
  for seed = 101 to 200 do
    let faults =
      chaos_plan
        ~outage:(if seed mod 4 = 0 then Some ("VISA", 2, 10) else None)
        (Int64.of_int seed)
    in
    let (free, paid), steps, reactor, _ =
      try run_s2 ~faults () with
      | exn ->
          Alcotest.failf "seed %d: uncaught exception %s" seed
            (Printexc.to_string exn)
    in
    if steps >= max_steps then Alcotest.failf "seed %d: hit step budget" seed;
    acceptable ~label:(Printf.sprintf "seed %d free" seed) ~baseline:base_free
      free;
    acceptable ~label:(Printf.sprintf "seed %d paid" seed) ~baseline:base_paid
      paid;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: nothing parked" seed)
      0 (Reactor.parked_count reactor);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no timers left" seed)
      0 (Reactor.pending_timers reactor)
  done

let test_zero_faults_byte_identical () =
  (* A seeded plan with all-zero rates and no outages must not change a
     single transcript byte relative to an untouched network. *)
  let plain_outcome, plain_steps, _, plain_net = run_s1 () in
  let zeroed = Net.Faults.create ~seed:42L () in
  Alcotest.(check bool) "zero-rate plan is fault-free" true
    (Net.Faults.is_none zeroed);
  let zero_outcome, zero_steps, _, zero_net = run_s1 ~faults:zeroed () in
  let none_outcome, none_steps, _, none_net =
    run_s1 ~faults:(Net.Faults.none ()) ()
  in
  Alcotest.(check (list string))
    "transcript identical (zero rates)" (transcript_sig plain_net)
    (transcript_sig zero_net);
  Alcotest.(check (list string))
    "transcript identical (none plan)" (transcript_sig plain_net)
    (transcript_sig none_net);
  Alcotest.(check int) "same steps (zero rates)" plain_steps zero_steps;
  Alcotest.(check int) "same steps (none plan)" plain_steps none_steps;
  Alcotest.(check bool) "same outcome" (granted plain_outcome)
    (granted zero_outcome && granted none_outcome)

let test_same_seed_same_schedule () =
  let a_outcome, a_steps, _, a_net = run_s1 ~faults:(chaos_plan 7L) () in
  let b_outcome, b_steps, _, b_net = run_s1 ~faults:(chaos_plan 7L) () in
  Alcotest.(check (list string))
    "identical transcripts" (transcript_sig a_net) (transcript_sig b_net);
  Alcotest.(check int) "identical steps" a_steps b_steps;
  Alcotest.(check bool) "identical outcome" (granted a_outcome)
    (granted b_outcome)

let test_outage_recovers_with_retries () =
  (* The target is unreachable for the opening window; retransmission with
     backoff rides it out and the negotiation still grants. *)
  Pobs.Obs.reset_metrics ();
  let faults = Net.Faults.none () in
  Net.Faults.add_outage faults ~peer:"E-Learn" ~from_tick:0 ~until_tick:12;
  let outcome, _, _, _ = run_s1 ~faults () in
  Alcotest.(check bool) "granted after the outage" true (granted outcome);
  let snapshot = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "retries happened" true
    (Pobs.Registry.counter_value snapshot "reactor.retries" > 0);
  Alcotest.(check bool) "drops counted" true
    (Pobs.Registry.counter_value snapshot "net.drops" > 0)

let test_black_hole_times_out () =
  (* Every copy of the top-level query is lost: the retry budget drains
     and the outcome is a structured timeout denial. *)
  let faults = Net.Faults.create ~seed:1L () in
  Net.Faults.set_link faults ~from:"Alice" ~target:"E-Learn"
    { Net.Faults.zero_rates with Net.Faults.drop = 1.0 };
  Pobs.Obs.reset_metrics ();
  let outcome, _, _, _ = run_s1 ~faults () in
  (match outcome with
  | Negotiation.Denied reason ->
      Alcotest.(check string)
        "classified as timeout" "timeout"
        (Negotiation.denial_class_to_string
           (Negotiation.classify_denial reason));
      Alcotest.(check bool) "transport denial" true
        (Negotiation.transport_denial reason)
  | Negotiation.Granted _ -> Alcotest.fail "black hole cannot grant");
  let snapshot = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "timeout counted" true
    (Pobs.Registry.counter_value snapshot "reactor.timeouts" > 0)

(* [elapsed] counts the ticks until the outcome settled.  A crash and
   restart scheduled long after the last message, which the run still
   executes, add nothing to it; a black-holed query counts the tick its
   retries ran out: 8 + 16 + 32 + 64 after the send at tick 0. *)
let test_elapsed_ends_at_settle () =
  let negotiate faults =
    let s = Scenario.scenario1 ~key_bits () in
    let session = s.Scenario.s1_session in
    Net.Network.set_faults session.Session.network faults;
    Reactor.negotiate session ~requester:"Alice" ~target:"E-Learn"
      (Scenario.scenario1_goal ())
  in
  let plain = negotiate (Net.Faults.none ()) in
  let late = Net.Faults.none () in
  Net.Faults.add_crash late ~peer:"UIUC" ~at_tick:1000 ~restart_tick:1001;
  let crashed = negotiate late in
  let black_hole = Net.Faults.create ~seed:1L () in
  Net.Faults.set_link black_hole ~from:"Alice" ~target:"E-Learn"
    { Net.Faults.zero_rates with Net.Faults.drop = 1.0 };
  let lost = negotiate black_hole in
  Alcotest.(check (list bool))
    "granted, granted, denied" [ true; true; false ]
    (List.map
       (fun r -> granted r.Negotiation.outcome)
       [ plain; crashed; lost ]);
  Alcotest.(check (list int))
    "ticks" [ 6; 6; 120 ]
    (List.map (fun r -> r.Negotiation.elapsed) [ plain; crashed; lost ])

let test_duplicates_are_idempotent () =
  (* Every message delivered twice: outcome and grant-set match the
     fault-free run, and the duplicate deliveries are counted. *)
  Pobs.Obs.reset_metrics ();
  let faults =
    Net.Faults.create ~duplicate:1.0 ~seed:5L ()
  in
  let outcome, _, _, _ = run_s1 ~faults () in
  Alcotest.(check bool) "still granted" true (granted outcome);
  let snapshot = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "duplicates counted" true
    (Pobs.Registry.counter_value snapshot "net.duplicates" > 0);
  Alcotest.(check bool) "duplicate deliveries deduplicated" true
    (Pobs.Registry.counter_value snapshot "reactor.dup_deliveries" > 0)

let test_every_duplicate_delivered () =
  (* Copy 0 delayed by one link latency lands on the same tick as an
     undelayed copy 1 of the same post; both must reach the receiver,
     so on a crash-free run whose dedup rings never evict, every
     duplicate the network made is one deduplicated delivery. *)
  Pobs.Obs.reset_metrics ();
  let faults = Net.Faults.create ~duplicate:0.5 ~delay:0.5 ~delay_max:1 ~seed:1L () in
  let outcome, _, _, _ = run_s1 ~faults () in
  Alcotest.(check bool) "still granted" true (granted outcome);
  let snapshot = Pobs.Obs.snapshot () in
  let count = Pobs.Registry.counter_value snapshot in
  Alcotest.(check int) "no crashes" 0 (count "reactor.crashes");
  Alcotest.(check int) "no dedup evictions" 0 (count "reactor.dedup_evictions");
  Alcotest.(check bool) "duplicates made" true (count "net.duplicates" > 0);
  Alcotest.(check int) "every duplicate delivered" (count "net.duplicates")
    (count "reactor.dup_deliveries")

(* ------------------------------------------------------------------ *)
(* Answer cache under chaos: across 100 fault seeds (50 per scenario),
   a run with a cold cache must be byte-identical to a cache-off run of
   the same fault plan — consulting an empty cache and filling it changes
   no behaviour — and a warm re-run (fresh session, same cache, same
   fault plan) must post no more envelopes than the cold run.  The
   top-level goals are invalidated between the cold and warm runs so the
   warm run exercises sub-query hits, not just whole-answer replay. *)

let posts net = Net.Stats.messages (Net.Network.stats net)

let cache_sweep ~label ~seeds
    ~(run :
       ?config:Reactor.config ->
       Net.Faults.t ->
       bool * int * Reactor.t * Net.Network.t) ~invalidate_top =
  let warm_hits = ref 0 in
  List.iter
    (fun seed ->
      let plan () = chaos_plan (Int64.of_int seed) in
      let off_out, off_steps, _, off_net = run ?config:None (plan ()) in
      let cache = Answer_cache.create () in
      let config =
        { Reactor.default_config with Reactor.cache = Some cache }
      in
      let cold_out, cold_steps, _, cold_net = run ~config (plan ()) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed %d: cold cache run is byte-identical" label
           seed)
        (transcript_sig off_net) (transcript_sig cold_net);
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d: same steps" label seed)
        off_steps cold_steps;
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: same outcome" label seed)
        off_out cold_out;
      invalidate_top cache;
      let hits_before = Answer_cache.hits cache in
      let warm_out, warm_steps, _, warm_net = run ~config (plan ()) in
      if warm_steps >= max_steps then
        Alcotest.failf "%s seed %d: warm run hit step budget" label seed;
      if cold_out && not warm_out then
        Alcotest.failf "%s seed %d: warm run lost the grant" label seed;
      if cold_out && posts warm_net > posts cold_net then
        Alcotest.failf "%s seed %d: warm run posted more envelopes (%d > %d)"
          label seed (posts warm_net) (posts cold_net);
      if Answer_cache.hits cache > hits_before then incr warm_hits)
    seeds;
  Alcotest.(check bool)
    (Printf.sprintf "%s: warm runs used the cache" label)
    true (!warm_hits > 0)

let test_cache_equivalence_scenario1 () =
  cache_sweep ~label:"s1"
    ~seeds:(List.init 50 (fun i -> 201 + i))
    ~run:(fun ?config faults ->
      let outcome, steps, reactor, net = run_s1 ~faults ?config () in
      (granted outcome, steps, reactor, net))
    ~invalidate_top:(fun cache ->
      ignore
        (Answer_cache.invalidate_goal cache ~owner:"E-Learn"
           (Scenario.scenario1_goal ())))

let test_cache_equivalence_scenario2 () =
  cache_sweep ~label:"s2"
    ~seeds:(List.init 50 (fun i -> 251 + i))
    ~run:(fun ?config faults ->
      let (free, paid), steps, reactor, net = run_s2 ~faults ?config () in
      (granted free && granted paid, steps, reactor, net))
    ~invalidate_top:(fun cache ->
      ignore
        (Answer_cache.invalidate_goal cache ~owner:"E-Learn"
           (Scenario.scenario2_goal_free ()));
      ignore
        (Answer_cache.invalidate_goal cache ~owner:"E-Learn"
           (Scenario.scenario2_goal_paid ())))

(* ------------------------------------------------------------------ *)
(* Distributed tabling under chaos.  Across 100 fault seeds, a cyclic
   mutual-accreditation web must terminate with the complete answer set
   and the same frozen tables as the fault-free run — a stronger pin
   than the scenario sweeps' "acceptable denial": Tanswer pushes carry
   the full monotone instance list and the completion protocol heals
   lost messages at quiescence, so drops, duplicates, delays and
   reordering may cost envelopes but never answers.  The fault-free
   cyclic transcript is additionally pinned byte-identical across
   repeats. *)

let tabling_chaos_config =
  {
    Reactor.default_config with
    Reactor.tabling = true;
    retry_limit = 6 (* deeper retry budget rides out clustered drops *);
  }

let run_accreditation ?faults ?(n = 3) () =
  let rw = Scenario.mutual_accreditation ~n () in
  let net = rw.Scenario.rw_session.Session.network in
  Option.iter (Net.Network.set_faults net) faults;
  let reactor =
    Reactor.create ~config:tabling_chaos_config rw.Scenario.rw_session
  in
  let id =
    Reactor.submit reactor ~requester:rw.Scenario.rw_requester
      ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
  in
  let steps = Reactor.run ~max_steps reactor in
  (Reactor.outcome reactor id, steps, reactor, net)

let granted_set = function
  | Negotiation.Granted instances ->
      List.map (fun (l, _) -> Peertrust_dlp.Literal.to_string l) instances
      |> List.sort_uniq String.compare
  | Negotiation.Denied reason -> [ "denied: " ^ reason ]

let table_sig reactor =
  List.map
    (fun (peer, key, answers, status) ->
      Printf.sprintf "%s %s %d %s" peer key answers status)
    (Reactor.tabling_summary reactor)

let test_tabling_chaos_sweep () =
  let base_out, _, base_reactor, _ = run_accreditation () in
  Alcotest.(check bool) "fault-free cyclic baseline granted" true
    (granted base_out);
  let base_set = granted_set base_out in
  let base_tables = table_sig base_reactor in
  Pobs.Obs.reset_metrics ();
  for seed = 301 to 400 do
    let faults = chaos_plan (Int64.of_int seed) in
    let outcome, steps, reactor, _ =
      try run_accreditation ~faults () with
      | exn ->
          Alcotest.failf "seed %d: uncaught exception %s" seed
            (Printexc.to_string exn)
    in
    if steps >= max_steps then Alcotest.failf "seed %d: hit step budget" seed;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: complete answer set under faults" seed)
      base_set (granted_set outcome);
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: same frozen tables as fault-free" seed)
      base_tables (table_sig reactor)
  done;
  let snapshot = Pobs.Obs.snapshot () in
  let count name = Pobs.Registry.counter_value snapshot name in
  Alcotest.(check bool) "drops recorded" true (count "net.drops" > 0);
  Alcotest.(check bool) "loops detected" true
    (count "tabling.loops_detected" > 0);
  Alcotest.(check bool) "completions recorded" true
    (count "tabling.completions" > 0)

let test_tabling_fault_free_pinned () =
  let a_out, a_steps, _, a_net = run_accreditation () in
  let b_out, b_steps, _, b_net = run_accreditation () in
  Alcotest.(check (list string))
    "cyclic fault-free transcript byte-identical across repeats"
    (transcript_sig a_net) (transcript_sig b_net);
  Alcotest.(check int) "same steps" a_steps b_steps;
  Alcotest.(check (list string)) "same answers" (granted_set a_out)
    (granted_set b_out)

(* ------------------------------------------------------------------ *)
(* Crash-stop recovery under chaos.  Across 100 seeds, scenario 1 runs
   with a randomized crash schedule (victim, crash tick, restart tick —
   some schedules never restart) layered over a randomized drop/delay
   plan, with per-peer write-ahead journals on.  Every run must
   terminate in the fault-free outcome or a cleanly classified denial,
   and a recovered victim's certificate wallet must hold no duplicate
   entries — journal replay learns through the idempotent wallet, never
   the verifier.  A schedule with no crashes and journals on must stay
   byte-identical to the plain fault-free run, and a cyclic tabled web
   must recover its complete frozen tables across member restarts. *)

let crash_config =
  { Reactor.default_config with Reactor.journal = Reactor.Journal_memory }

let wallet_serials session name =
  let peer = Session.peer session name in
  Hashtbl.fold
    (fun _ (c : Peertrust_crypto.Cert.t) acc ->
      c.Peertrust_crypto.Cert.serial :: acc)
    peer.Peer.certs []
  |> List.sort compare

let test_crash_chaos_sweep () =
  let baseline, _, _, _ = run_s1 () in
  Alcotest.(check bool) "fault-free baseline granted" true (granted baseline);
  Pobs.Obs.reset_metrics ();
  let recovered = ref 0 in
  for seed = 401 to 500 do
    (* randomized-but-deterministic schedule derived from the seed *)
    let victim = if seed mod 2 = 0 then "Alice" else "E-Learn" in
    let at_tick = 2 + (seed mod 11) in
    let restarts = seed mod 4 <> 3 in
    let restart_tick =
      if restarts then at_tick + 8 + (seed mod 17) else max_int
    in
    let faults = chaos_plan ~drop:0.08 (Int64.of_int seed) in
    Net.Faults.add_crash faults ~peer:victim ~at_tick ~restart_tick;
    let s = Scenario.scenario1 ~key_bits () in
    let session = s.Scenario.s1_session in
    Net.Network.set_faults session.Session.network faults;
    let reactor = Reactor.create ~config:crash_config session in
    let id =
      Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
        (Scenario.scenario1_goal ())
    in
    let steps =
      try Reactor.run ~max_steps reactor with
      | exn ->
          Alcotest.failf "seed %d: uncaught exception %s" seed
            (Printexc.to_string exn)
    in
    if steps >= max_steps then Alcotest.failf "seed %d: hit step budget" seed;
    let outcome = Reactor.outcome reactor id in
    acceptable ~label:(Printf.sprintf "seed %d" seed) ~baseline outcome;
    if restarts && granted outcome then incr recovered;
    (* zero duplicate certificate learning after replay: the wallet the
       victim recovered must not hold the same certificate twice *)
    let serials = wallet_serials session victim in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: no duplicate certs after replay" seed)
      (List.sort_uniq compare serials)
      serials
  done;
  Alcotest.(check bool) "some crashed runs recovered and granted" true
    (!recovered > 0);
  let snapshot = Pobs.Obs.snapshot () in
  let count name = Pobs.Registry.counter_value snapshot name in
  Alcotest.(check bool) "crashes recorded" true (count "reactor.crashes" > 0);
  Alcotest.(check bool) "restarts recorded" true
    (count "reactor.restarts" > 0);
  Alcotest.(check bool) "journal appends recorded" true
    (count "reactor.checkpoints" > 0);
  Alcotest.(check bool) "stale incarnations discarded" true
    (count "reactor.stale_epoch" > 0)

let test_crash_free_schedule_byte_identical () =
  (* Journals on but no crash scheduled: the write-ahead appends are
     invisible to the wire — transcript, steps and outcome must be
     byte-identical to the plain fault-free run. *)
  let plain_outcome, plain_steps, _, plain_net = run_s1 () in
  let j_outcome, j_steps, _, j_net = run_s1 ~config:crash_config () in
  Alcotest.(check (list string))
    "transcript identical with journals on" (transcript_sig plain_net)
    (transcript_sig j_net);
  Alcotest.(check int) "same steps" plain_steps j_steps;
  Alcotest.(check bool) "same outcome" (granted plain_outcome)
    (granted j_outcome)

let test_crash_tabling_recovers_tables () =
  (* A member of a cyclic accreditation web crash-stops mid-completion
     and restarts: the quiescence re-heal re-queries its lost tables
     (and, when the requester itself is the victim, the journal's Goal
     entry re-launches the root), so the final answers and frozen-table
     signature still match the fault-free run for every schedule. *)
  let config =
    { tabling_chaos_config with Reactor.journal = Reactor.Journal_memory }
  in
  let base_out, _, base_reactor, _ = run_accreditation () in
  Alcotest.(check bool) "fault-free cyclic baseline granted" true
    (granted base_out);
  let base_set = granted_set base_out in
  let base_tables = table_sig base_reactor in
  Pobs.Obs.reset_metrics ();
  for seed = 501 to 530 do
    let rw = Scenario.mutual_accreditation ~n:3 () in
    let session = rw.Scenario.rw_session in
    let members =
      List.sort compare
        (Hashtbl.fold (fun n _ acc -> n :: acc) session.Session.peers [])
    in
    let victim = List.nth members (seed mod List.length members) in
    let faults = Net.Faults.none () in
    Net.Faults.add_crash faults ~peer:victim
      ~at_tick:(2 + (seed mod 13))
      ~restart_tick:(2 + (seed mod 13) + 6 + (seed mod 9));
    Net.Network.set_faults session.Session.network faults;
    let reactor = Reactor.create ~config session in
    let id =
      Reactor.submit reactor ~requester:rw.Scenario.rw_requester
        ~target:rw.Scenario.rw_target rw.Scenario.rw_goal
    in
    let steps =
      try Reactor.run ~max_steps reactor with
      | exn ->
          Alcotest.failf "seed %d (victim %s): uncaught exception %s" seed
            victim (Printexc.to_string exn)
    in
    if steps >= max_steps then
      Alcotest.failf "seed %d (victim %s): hit step budget" seed victim;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d (victim %s): complete answers after restart"
         seed victim)
      base_set
      (granted_set (Reactor.outcome reactor id));
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d (victim %s): same frozen tables" seed victim)
      base_tables (table_sig reactor)
  done;
  let snapshot = Pobs.Obs.snapshot () in
  Alcotest.(check bool) "crashes recorded" true
    (Pobs.Registry.counter_value snapshot "reactor.crashes" > 0)

(* ------------------------------------------------------------------ *)
(* Adversarial peers.  The headline invariant: with guards on, a sweep
   of seeded misbehaving peers never costs an honest negotiation its
   fault-free outcome, and every flooding/malformed adversary ends the
   run quarantined.  With guards at the permissive default the run still
   terminates (the adversary's action budget bounds the abuse). *)

let slow =
  match Sys.getenv_opt "CHECK_SLOW" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let adversary_seed_count = if slow then 100 else 40
let guard_config = { Session.default_config with Session.guard = Guard.defaults }

let mallory seed =
  Net.Adversary.create ~seed ~name:"Mallory"
    [ Net.Adversary.Flood 12; Net.Adversary.Malformed 4 ]

let trudy seed =
  Net.Adversary.create ~seed ~name:"Trudy"
    [
      Net.Adversary.Unsolicited 4;
      Net.Adversary.Forged_certs;
      Net.Adversary.Oversized 65536;
      Net.Adversary.Bomb 40;
      Net.Adversary.Replay;
    ]

let run_s1_with_adversaries ?(config = guard_config) adversaries =
  let s = Scenario.scenario1 ~config ~key_bits () in
  let reactor = Reactor.create s.Scenario.s1_session in
  List.iter (Reactor.add_adversary reactor) adversaries;
  let id =
    Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
      (Scenario.scenario1_goal ())
  in
  let steps = Reactor.run ~max_steps:40_000 reactor in
  (Reactor.outcome reactor id, steps, reactor)

let test_adversary_sweep () =
  let baseline, _, _, _ = run_s1 () in
  Alcotest.(check bool) "fault-free baseline granted" true (granted baseline);
  Pobs.Obs.reset_metrics ();
  for seed = 1 to adversary_seed_count do
    let adversaries =
      [ mallory (Int64.of_int seed); trudy (Int64.of_int (seed + 5000)) ]
    in
    let outcome, steps, reactor =
      try run_s1_with_adversaries adversaries with
      | exn ->
          Alcotest.failf "seed %d: uncaught exception %s" seed
            (Printexc.to_string exn)
    in
    if steps >= 40_000 then Alcotest.failf "seed %d: hit step budget" seed;
    (match outcome with
    | Negotiation.Granted _ -> ()
    | Negotiation.Denied r ->
        Alcotest.failf "seed %d: honest negotiation denied: %s" seed r);
    let offenders =
      List.sort_uniq compare
        (List.map snd (Guard.quarantined (Reactor.guard reactor)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: Mallory quarantined" seed)
      true
      (List.mem "Mallory" offenders);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: Trudy quarantined" seed)
      true
      (List.mem "Trudy" offenders);
    List.iter
      (fun from ->
        if from <> "Mallory" && from <> "Trudy" then
          Alcotest.failf "seed %d: honest peer %s quarantined" seed from)
      offenders;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: nothing parked" seed)
      0 (Reactor.parked_count reactor)
  done;
  let snapshot = Pobs.Obs.snapshot () in
  let count name = Pobs.Registry.counter_value snapshot name in
  Alcotest.(check bool) "abuse rejected" true (count "guard.rejected" > 0);
  Alcotest.(check bool) "quarantines recorded" true
    (count "guard.quarantines" > 0);
  Alcotest.(check bool) "adversaries acted" true
    (count "adversary.actions" > 0)

let test_unguarded_adversary_terminates () =
  (* Guard permissive: the abuse lands, but the action budget still
     bounds the run and the honest negotiation still grants. *)
  let outcome, steps, reactor =
    run_s1_with_adversaries ~config:Session.default_config
      [ mallory 3L; trudy 4L ]
  in
  Alcotest.(check bool) "terminates" true (steps < 40_000);
  Alcotest.(check bool) "honest goal still granted" true (granted outcome);
  Alcotest.(check (list (pair string string))) "nothing quarantined" []
    (Guard.quarantined (Reactor.guard reactor))

let test_guard_defaults_honest_byte_identical () =
  (* Guards on, no adversaries: honest scenario-1 traffic must not
     change a single transcript byte relative to the permissive run. *)
  let _, plain_steps, _, plain_net = run_s1 () in
  let s = Scenario.scenario1 ~config:guard_config ~key_bits () in
  let net = s.Scenario.s1_session.Session.network in
  let reactor = Reactor.create s.Scenario.s1_session in
  let id =
    Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
      (Scenario.scenario1_goal ())
  in
  let steps = Reactor.run ~max_steps reactor in
  Alcotest.(check bool) "granted" true (granted (Reactor.outcome reactor id));
  Alcotest.(check (list string)) "transcript identical under guards"
    (transcript_sig plain_net) (transcript_sig net);
  Alcotest.(check int) "same steps" plain_steps steps

(* ------------------------------------------------------------------ *)
(* Tracing is observation only.  The pins: enabling the tracer changes
   no transcript byte, no step count and no outcome for either paper
   scenario (fault-free and under a seeded fault plan), and identically
   seeded traced runs export identical span logs. *)

let run_s1_traced ?faults () =
  let s = Scenario.scenario1 ~key_bits () in
  let net = s.Scenario.s1_session.Session.network in
  Option.iter (Net.Network.set_faults net) faults;
  let clock = Net.Network.clock net in
  let tracer = Pobs.Tracer.create ~now:(fun () -> Net.Clock.now clock) () in
  Pobs.Obs.set_tracer tracer;
  Fun.protect ~finally:Pobs.Obs.disable_tracing (fun () ->
      let reactor = Reactor.create s.Scenario.s1_session in
      let id =
        Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
          (Scenario.scenario1_goal ())
      in
      let steps = Reactor.run ~max_steps reactor in
      (Reactor.outcome reactor id, steps, tracer, net))

let run_s2_traced ?faults () =
  let s = Scenario.scenario2 ~key_bits () in
  let net = s.Scenario.s2_session.Session.network in
  Option.iter (Net.Network.set_faults net) faults;
  let clock = Net.Network.clock net in
  let tracer = Pobs.Tracer.create ~now:(fun () -> Net.Clock.now clock) () in
  Pobs.Obs.set_tracer tracer;
  Fun.protect ~finally:Pobs.Obs.disable_tracing (fun () ->
      let reactor = Reactor.create s.Scenario.s2_session in
      let free =
        Reactor.submit reactor ~requester:"Bob" ~target:"E-Learn"
          (Scenario.scenario2_goal_free ())
      in
      let paid =
        Reactor.submit reactor ~requester:"Bob" ~target:"E-Learn"
          (Scenario.scenario2_goal_paid ())
      in
      let steps = Reactor.run ~max_steps reactor in
      ((Reactor.outcome reactor free, Reactor.outcome reactor paid), steps,
       tracer, net))

let test_tracing_transparent_scenario1 () =
  let check_plan label mk_faults =
    let off_out, off_steps, _, off_net = run_s1 ?faults:(mk_faults ()) () in
    let on_out, on_steps, tracer, on_net =
      run_s1_traced ?faults:(mk_faults ()) ()
    in
    Alcotest.(check (list string))
      (label ^ ": transcript byte-identical under tracing")
      (transcript_sig off_net) (transcript_sig on_net);
    Alcotest.(check int) (label ^ ": same steps") off_steps on_steps;
    Alcotest.(check bool)
      (label ^ ": same outcome")
      (granted off_out) (granted on_out);
    Alcotest.(check bool)
      (label ^ ": the traced run actually recorded spans")
      true
      (Pobs.Tracer.spans tracer <> [])
  in
  check_plan "fault-free" (fun () -> None);
  check_plan "faulted" (fun () -> Some (chaos_plan 7L))

let test_tracing_transparent_scenario2 () =
  let check_plan label mk_faults =
    let (off_free, off_paid), off_steps, _, off_net =
      run_s2 ?faults:(mk_faults ()) ()
    in
    let (on_free, on_paid), on_steps, _, on_net =
      run_s2_traced ?faults:(mk_faults ()) ()
    in
    Alcotest.(check (list string))
      (label ^ ": transcript byte-identical under tracing")
      (transcript_sig off_net) (transcript_sig on_net);
    Alcotest.(check int) (label ^ ": same steps") off_steps on_steps;
    Alcotest.(check (pair bool bool))
      (label ^ ": same outcomes")
      (granted off_free, granted off_paid)
      (granted on_free, granted on_paid)
  in
  check_plan "fault-free" (fun () -> None);
  check_plan "faulted" (fun () -> Some (chaos_plan 11L))

let test_trace_determinism () =
  (* Identically seeded traced runs export byte-identical span logs —
     span and trace ids are deterministic counters on the simulated
     clock, so the artifact is diffable across runs. *)
  let export () =
    let _, _, tracer, _ = run_s1_traced ~faults:(chaos_plan 13L) () in
    Pobs.Export.spans_to_jsonl (Pobs.Tracer.spans tracer)
  in
  let a = export () and b = export () in
  Alcotest.(check bool) "spans exported" true (String.length a > 0);
  Alcotest.(check string) "identical span JSONL across runs" a b;
  let causal () =
    let _, _, tracer, _ = run_s1_traced ~faults:(chaos_plan 13L) () in
    Pobs.Export.spans_to_causal_jsonl (Pobs.Tracer.spans tracer)
  in
  Alcotest.(check string) "identical causal stream across runs" (causal ())
    (causal ())

let test_transcript_ring_buffer () =
  let net = Net.Network.create ~log_cap:8 () in
  (* The i-th post leaves at tick i - 1 and arrives at tick i. *)
  for i = 1 to 20 do
    ignore
      (Net.Network.post net ~from:"a" ~target:"b" ~at:(i - 1)
         (Net.Message.Raw ""))
  done;
  Alcotest.(check int) "ring keeps cap entries" 8
    (List.length (Net.Network.transcript net));
  Alcotest.(check int) "dropped entries counted" 12
    (Net.Network.dropped_log_entries net);
  let newest_first = List.rev (Net.Network.transcript net) in
  Alcotest.(check int) "newest entry retained" 20
    (match newest_first with e :: _ -> e.Net.Network.time | [] -> -1);
  Net.Network.clear_transcript net;
  Alcotest.(check int) "clear resets the drop count" 0
    (Net.Network.dropped_log_entries net)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "chaos"
    [
      ( "sweeps",
        [
          tc "scenario 1 under 100 seeds" test_chaos_sweep_scenario1;
          tc "scenario 2 under 100 seeds" test_chaos_sweep_scenario2;
        ] );
      ( "cache",
        [
          tc "scenario 1: cache on == cache off under faults"
            test_cache_equivalence_scenario1;
          tc "scenario 2: cache on == cache off under faults"
            test_cache_equivalence_scenario2;
        ] );
      ( "tabling",
        [
          tc "cyclic accreditation web under 100 seeds"
            test_tabling_chaos_sweep;
          tc "fault-free cyclic transcript pinned"
            test_tabling_fault_free_pinned;
        ] );
      ( "crash",
        [
          tc "scenario 1 crash schedules under 100 seeds"
            test_crash_chaos_sweep;
          tc "crash-free schedule with journals is byte-identical"
            test_crash_free_schedule_byte_identical;
          tc "cyclic tables recover across member restarts"
            test_crash_tabling_recovers_tables;
        ] );
      ( "identity",
        [
          tc "zero faults are byte-identical" test_zero_faults_byte_identical;
          tc "same seed, same schedule" test_same_seed_same_schedule;
        ] );
      ( "degradation",
        [
          tc "outage rides out on retries" test_outage_recovers_with_retries;
          tc "black hole times out" test_black_hole_times_out;
          tc "elapsed ends at the settle tick" test_elapsed_ends_at_settle;
          tc "duplicates are idempotent" test_duplicates_are_idempotent;
          tc "every duplicate delivered" test_every_duplicate_delivered;
        ] );
      ( "adversaries",
        [
          tc "guarded sweep: honest outcome, adversaries quarantined"
            test_adversary_sweep;
          tc "unguarded adversaries terminate"
            test_unguarded_adversary_terminates;
          tc "guards on honest traffic are byte-identical"
            test_guard_defaults_honest_byte_identical;
        ] );
      ( "tracing",
        [
          tc "scenario 1 transcripts identical with tracing on"
            test_tracing_transparent_scenario1;
          tc "scenario 2 transcripts identical with tracing on"
            test_tracing_transparent_scenario2;
          tc "same seed, same span log" test_trace_determinism;
        ] );
      ( "bounds",
        [ tc "transcript ring buffer" test_transcript_ring_buffer ] );
    ]
