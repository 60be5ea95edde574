(* World build and the closed negotiation loop through the reactor.

   Load model: [slots] negotiation slots, each submitting its next
   request only once its previous one has settled, because a requester
   waits for its outcome.  At a drained crash the slots hold back until
   every negotiation has settled and the reactor has run the crash and
   the restart.  The reactor is single-threaded and deterministic, so the
   event order, and every protocol count, is the same on every run of
   one seed; only wall time varies. *)

open Peertrust
module Net = Peertrust_net

type world = { session : Session.t; reactor : Reactor.t; setup_s : float }

(* Drained crashes sit far beyond any tick the traffic reaches: the
   reactor runs a scheduled event only when no delivery or timer is due
   before it, so a crash runs only once the loop has let the reactor
   drain.  The downtime outlasts the 8+16+32+64-tick retransmission
   budget. *)
let far_tick = 1 lsl 40
let downtime = 160
let crash_tick k = (k + 1) * far_tick

(* Key material comes from one fixed keystore seed, not from the workload
   seed: RSA key generation searches for primes, and a seed-dependent
   search would make set-up time vary from seed to seed. *)
let keystore_seed = 1L

(* An untraced build registers each peer with [Session.add_peer], so
   [setup_s] times the library's own set-up path.  A traced build makes
   the calls [Session.add_peer] makes one by one, so each layer's set-up
   call gets its own span; [world_digest] checks that both reach the same
   world. *)
let build ~traced ~journal_dir (shape : Gen.shape) (g : Gen.t) =
  let t0 = Spans.now () in
  let durable = shape.Gen.kind = Gen.Durable in
  let session, reactor =
    Spans.with_ "setup" (fun () ->
        let config =
          if durable then { Session.default_config with guard = Guard.defaults }
          else Session.default_config
        in
        let session = Session.create ~config ~seed:keystore_seed () in
        List.iter
          (fun p ->
            Spans.with_ "setup.keygen" ~label:p (fun () ->
                ignore
                  (Peertrust_crypto.Keystore.keypair session.Session.keystore p)))
          g.Gen.principals;
        List.iter
          (fun (name, program) ->
            if not traced then ignore (Session.add_peer session ~program name)
            else
              Spans.with_ "setup.peer" ~label:name (fun () ->
                  let peer = Peer.create name in
                  Spans.with_ "setup.load" ~label:name (fun () ->
                      Peer.load_program peer program);
                  Spans.with_ "setup.sign" ~label:name (fun () ->
                      Session.issue_signed_rules session peer);
                  Hashtbl.replace session.Session.peers name peer))
          g.Gen.programs;
        let config =
          if not durable then Reactor.default_config
          else begin
            let plan = Net.Faults.none () in
            List.iteri
              (fun k (c : Gen.crash) ->
                Net.Faults.add_crash plan ~peer:c.Gen.victim
                  ~at_tick:(crash_tick k)
                  ~restart_tick:(crash_tick k + downtime))
              g.Gen.crashes;
            Net.Network.set_faults session.Session.network plan;
            { Reactor.default_config with journal = Reactor.Journal_dir journal_dir }
          end
        in
        ( session,
          Spans.with_ "setup.create" (fun () -> Reactor.create ~config session) ))
  in
  { session; reactor; setup_s = Spans.seconds_between t0 (Spans.now ()) }

(* A digest of a freshly built world: every peer's knowledge base, in
   order, and its wallet. *)
let world_digest (w : world) (g : Gen.t) =
  let b = Buffer.create 65536 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line (string_of_int (Hashtbl.length w.session.Session.peers));
  List.iter
    (fun (name, _) ->
      let p = Session.peer w.session name in
      line name;
      List.iter
        (fun r -> line (Peertrust_dlp.Rule.to_string r))
        (Peertrust_dlp.Kb.rules p.Peer.kb);
      Hashtbl.fold (fun key c acc -> (key, c) :: acc) p.Peer.certs []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (key, (c : Peertrust_crypto.Cert.t)) ->
             line key;
             line (Peertrust_crypto.Cert.payload c);
             List.iter
               (fun (signer, s) ->
                 line (signer ^ " " ^ Peertrust_crypto.Bignum.to_hex s))
               c.Peertrust_crypto.Cert.signatures);
      line (string_of_int (Hashtbl.length p.Peer.origins)))
    g.Gen.programs;
  Digest.to_hex (Digest.string (Buffer.contents b))

exception Safety of string

(* Compare a settled outcome with the generator's expectation: a wrong
   grant raises [Safety]; any other miss is reported through [miss] with
   its denial class. *)
let check (q : Gen.request) outcome ~miss =
  match (q.Gen.expect, outcome) with
  | Gen.Grant text, Negotiation.Granted instances ->
      let exact (l, _) = String.equal (Peertrust_dlp.Literal.to_string l) text in
      if instances = [] || not (List.for_all exact instances) then
        raise
          (Safety
             (Printf.sprintf "%s granted a wrong instance for %s" q.Gen.target
                text))
  | Gen.Policy_denial, Negotiation.Granted _ ->
      raise
        (Safety
           (Printf.sprintf "%s granted %s to %s, expected a policy denial"
              q.Gen.target
              (Peertrust_dlp.Literal.to_string q.Gen.goal)
              q.Gen.requester))
  | Gen.Grant _, Negotiation.Denied reason -> miss reason
  | Gen.Policy_denial, Negotiation.Denied reason -> (
      match Negotiation.classify_denial reason with
      | Negotiation.Policy -> ()
      | _ -> miss reason)

type checkpoint = Mid  (** half the negotiations settled *) | End  (** all submitted *)

type result = {
  negotiations : int;  (** attempted *)
  settled : int;
  settled_by : (string * int) list;  (** settled negotiations per requester *)
  failed : int;
  fail_classes : (string * int) list;
  first_failure : string;  (** a sample denial reason, "" when none *)
  latencies_ms : float array;  (** one per settled negotiation, sorted *)
  wall_s : float;  (** first submit to last settle, checkpoints excluded *)
  steps : int;  (** [Reactor.step] calls *)
  certs : int;  (** certificates carried by the run's messages *)
  parked_mean : float;  (** mean [Reactor.parked_count] after a step (traced) *)
}

(* The transcript ring holds 10 000 entries; draining it well before
   that keeps every envelope's certificate count. *)
let drain_every = 4096

(* The checkpoint probes replay the most recent messages on the wire,
   so they see the run's own mix of goals and payloads. *)
let recent_messages = 256

(* [on_checkpoint c recent] runs with the loop paused, [recent] the
   transcript entries of the most recent messages; its time is excluded
   from the wall time and from the latencies in flight. *)
let run ~slots ~traced ~on_checkpoint (w : world) (g : Gen.t) =
  let r = w.reactor in
  let net = w.session.Session.network in
  let clock = Net.Network.clock net in
  let requests = g.Gen.requests in
  let n = Array.length requests in
  let step_budget = 400 * n in
  let drains = ref g.Gen.crashes and crash_no = ref 0 in
  let messages () = Net.Stats.messages (Net.Network.stats net) in
  let handles = Array.make n None and t_sub = Array.make n 0L in
  let latencies = ref [] in
  let slot = Array.make slots (-1) in
  let next = ref 0 and settled = ref 0 and failed = ref 0 in
  let settled_by = Hashtbl.create 64 in
  let classes = Hashtbl.create 4 and first_failure = ref "" in
  let miss_as cls reason =
    incr failed;
    if !first_failure = "" then first_failure := reason;
    Hashtbl.replace classes cls
      (1 + Option.value ~default:0 (Hashtbl.find_opt classes cls))
  in
  let miss reason =
    miss_as
      (Negotiation.denial_class_to_string (Negotiation.classify_denial reason))
      reason
  in
  let certs = ref 0 and drained_at = ref (messages ()) in
  (* The entries of the last drain, kept for the checkpoints. *)
  let last_drained = ref [] in
  let drain () =
    if Net.Network.dropped_log_entries net > 0 then
      failwith "transcript ring overflowed before it was drained";
    Spans.with_ "harness.drain" (fun () ->
        let entries = Net.Network.transcript net in
        List.iter (fun e -> certs := !certs + e.Net.Network.certs_) entries;
        if traced then last_drained := entries;
        Net.Network.clear_transcript net);
    drained_at := messages ()
  in
  let recent () =
    let all = !last_drained @ Net.Network.transcript net in
    let skip = List.length all - recent_messages in
    List.filteri (fun i _ -> i >= skip) all
  in
  let held () =
    match !drains with c :: _ -> !next >= c.Gen.drain_before | [] -> false
  in
  let submit s =
    if !next >= n || held () then slot.(s) <- -1
    else begin
      let i = !next in
      incr next;
      let q = requests.(i) in
      t_sub.(i) <- Spans.now ();
      handles.(i) <-
        Some
          (Spans.with_ ~nego:i "reactor.submit" (fun () ->
               Reactor.submit r ~requester:q.Gen.requester ~target:q.Gen.target
                 q.Gen.goal));
      slot.(s) <- i
    end
  in
  for s = 0 to slots - 1 do
    submit s
  done;
  let t_first = t_sub.(0) and t_last = ref t_sub.(0) in
  let paused = ref 0L in
  let steps = ref 0 and parked_sum = ref 0 in
  let step () =
    let progressed =
      if traced then Spans.with_ "reactor.step" (fun () -> Reactor.step r)
      else Reactor.step r
    in
    incr steps;
    if traced then parked_sum := !parked_sum + Reactor.parked_count r;
    (* An empty queue with requests in flight: let the reactor break the
       quiescence (it settles them as quiescent, which counts as a miss). *)
    if not progressed then
      ignore (Spans.with_ "reactor.run" (fun () -> Reactor.run r))
  in
  let freed = Array.make slots false in
  (* Settle what the last step finished; [true] when a slot came free. *)
  let poll () =
    let t = Spans.now () in
    let any = ref false in
    Array.iteri
      (fun s i ->
        if i >= 0 then
          match Reactor.result r (Option.get handles.(i)) with
          | None -> ()
          | Some outcome ->
              latencies := (Spans.seconds_between t_sub.(i) t *. 1e3) :: !latencies;
              t_last := t;
              incr settled;
              let who = requests.(i).Gen.requester in
              Hashtbl.replace settled_by who
                (1 + Option.value ~default:0 (Hashtbl.find_opt settled_by who));
              check requests.(i) outcome ~miss;
              slot.(s) <- -1;
              freed.(s) <- true;
              any := true)
      slot;
    !any
  in
  let pause c =
    let inflight = List.filter (fun i -> i >= 0) (Array.to_list slot) in
    let t0 = Spans.now () in
    on_checkpoint c (recent ());
    let d = Int64.sub (Spans.now ()) t0 in
    paused := Int64.add !paused d;
    List.iter (fun i -> t_sub.(i) <- Int64.add t_sub.(i) d) inflight
  in
  let mid_done = ref false and end_done = ref false in
  while !settled < n && !steps < step_budget do
    step ();
    if Spans.time "harness.poll" poll then
      Array.iteri
        (fun s free ->
          if free then begin
            freed.(s) <- false;
            submit s
          end)
        freed;
    (match !drains with
    | _ :: rest when Array.for_all (fun i -> i < 0) slot ->
        (* Drained: the reactor finishes its leftover deliveries and
           timers, then runs the crash and the restart. *)
        let restart = crash_tick !crash_no + downtime in
        while Net.Clock.now clock < restart && !steps < step_budget do
          step ()
        done;
        drains := rest;
        incr crash_no;
        Array.iteri (fun s _ -> submit s) slot
    | _ :: _ when Net.Clock.now clock >= crash_tick !crash_no ->
        failwith "a drained crash ran under load"
    | _ -> ());
    if traced && !settled * 2 >= n && (not !mid_done)
       && Array.exists (fun i -> i >= 0) slot
    then begin
      mid_done := true;
      pause Mid
    end;
    if traced && !next >= n && (not !end_done) && !mid_done then begin
      end_done := true;
      pause End
    end;
    if messages () - !drained_at > drain_every then drain ()
  done;
  drain ();
  for _ = !settled + 1 to n do
    miss_as "unsettled" "unsettled at the step budget"
  done;
  let latencies_ms = Array.of_list !latencies in
  Array.sort Float.compare latencies_ms;
  {
    negotiations = n;
    settled = !settled;
    settled_by =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) settled_by []
      |> List.sort compare;
    failed = !failed;
    fail_classes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) classes [] |> List.sort compare;
    first_failure = !first_failure;
    latencies_ms;
    wall_s = Spans.seconds_between t_first (Int64.sub !t_last !paused);
    steps = !steps;
    certs = !certs;
    parked_mean =
      (if !steps = 0 then 0. else float_of_int !parked_sum /. float_of_int !steps);
  }
