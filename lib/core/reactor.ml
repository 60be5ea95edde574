open Peertrust_dlp
module Net = Peertrust_net
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer
module Ojson = Peertrust_obs.Json
module Tctx = Peertrust_obs.Trace_context

let src = Logs.Src.create "peertrust.reactor" ~doc:"PeerTrust queued engine"

module Log = (val Logs.src_log src : Logs.LOG)

let m_steps = Obs.counter "reactor.steps"
let m_posts = Obs.counter "reactor.posts"
let m_parks = Obs.counter "reactor.parks"
let m_quiescence_breaks = Obs.counter "reactor.quiescence_breaks"
let m_drops = Obs.counter "reactor.drops"
let m_retries = Obs.counter "reactor.retries"
let m_timeouts = Obs.counter "reactor.timeouts"
let m_dup_deliveries = Obs.counter "reactor.dup_deliveries"
let m_dedup_evictions = Obs.counter "reactor.dedup_evictions"
let m_crashes = Obs.counter "reactor.crashes"
let m_restarts = Obs.counter "reactor.restarts"
let m_checkpoints = Obs.counter "reactor.checkpoints"
let m_crash_drops = Obs.counter "reactor.crash_drops"
let m_recovered_goals = Obs.counter "reactor.recovered_goals"
let m_reissued = Obs.counter "reactor.reissued_subqueries"
let m_stale_epoch = Obs.counter "reactor.stale_epoch"
let m_cancels = Obs.counter "reactor.cancels"
let m_cancelled_goals = Obs.counter "reactor.cancelled_goals"
let m_deadline_expiries = Obs.counter "reactor.deadline_expiries"
let g_outstanding = Obs.gauge "reactor.outstanding_subqueries"
let g_parked = Obs.gauge "reactor.parked_goals"
let h_steps = Obs.histogram "reactor.steps_per_run"

(* The SLD step counter, shared with the solver through the registry:
   the delta around an evaluation is the work charged against the
   requester's guard quota. *)
let m_sld_steps = Obs.counter "sld.steps"

(* Where the write-ahead journal lives.  [Journal_memory] is the
   simulator's stand-in for a durable disk: the buffer belongs to the
   reactor, not to the peer, so it survives the crash wipe exactly as a
   synced file would survive a process death. *)
type journal_mode = Journal_off | Journal_memory | Journal_dir of string

type config = {
  rto : int;  (* initial retransmission timeout, ticks *)
  retry_limit : int;  (* retransmissions per sub-query before timeout *)
  cache : Answer_cache.t option;
  (* answer cache consulted before posting a sub-query and filled on
     answer delivery; pass one reactor's cache to the next for the
     shared cross-session mode *)
  tabling : bool;
  (* route requests through distributed tabling: per-goal tables at the
     owning peer, monotone answer views, SCC completion at quiescence —
     terminates on mutually recursive cross-peer policies.  Off by
     default; fault-free transcripts with tabling off are unchanged. *)
  journal : journal_mode;
  (* write-ahead journal per peer: learned certificates, learned
     says-facts, completed table answers and accepted root goals are
     appended as they happen, and a restarting incarnation replays the
     journal instead of starting cold.  Off by default. *)
}

let default_config =
  {
    rto = 8;
    retry_limit = 3;
    cache = None;
    tabling = false;
    journal = Journal_off;
  }

type parked = {
  pk_peer : string;  (* the peer holding the goal *)
  pk_requester : string;  (* whom to answer *)
  pk_goal : Literal.t;
  mutable pk_waiting : string * string;  (* (target, goal key) *)
  pk_request : int option;  (* top-level request id *)
  pk_via : string option;
      (* the device a proxied query arrived at: the reply goes back
         through it *)
  pk_seq : int;  (* park order: a later park has a larger number *)
  mutable pk_reads : Kb.lookup list;
      (* the KB buckets its last evaluation looked up; none for a
         top-level goal, which is settled by its sub-query alone *)
  mutable pk_volatile : bool;
      (* its last evaluation consulted an external or ran out of fuel *)
  mutable pk_woken : bool;  (* queued for its peer's next wake-up *)
  mutable pk_live : bool;  (* still parked *)
}

(* The goals parked at one peer, indexed by what can unblock them. *)
type desk = {
  goals : (int, parked) Hashtbl.t;  (* by park order *)
  waiters : (string * string, parked list) Hashtbl.t;
      (* awaited (target, goal key) -> the goals parked on it *)
  readers : (Sym.t * int, (Flat.fkey, parked list) Hashtbl.t) Hashtbl.t;
      (* KB bucket -> first-argument key -> the goals whose last
         evaluation looked it up *)
  mutable woken : parked list;  (* to re-evaluate at the next wake-up *)
  mutable kb_seen : Kb.t;  (* the peer's KB as the reactor last left it *)
  mutable last_wake : int;  (* order number of the peer's last wake-up *)
}

(* Retransmission state of one outstanding sub-query. *)
type timer = {
  tm_goal : Literal.t;
  tm_payload : Net.Message.payload;  (* the Query or Tquery it resends *)
  mutable tm_attempt : int;
  mutable tm_rto : int;
  mutable tm_next : int;  (* clock tick of the next retransmit/timeout *)
  tm_trace : Tctx.t option;
      (* trace context captured when the timer was armed, so retransmits
         and timeout denials stay on the originating negotiation's trace *)
}

(* What a peer knows of a sub-query it asked, one record per (asker,
   target, goal key): a Query is posted at most once per asking peer. *)
type ask = {
  mutable resolved : bool;
  mutable answer : Engine.instance list option;  (* of the last Answer *)
  mutable denial : string option;  (* reason of the last Deny *)
  mutable timer : timer option;  (* armed retransmission timer *)
}

(* All pending work is on one agenda ordered by (tick, slot).  At one
   tick, scheduled events come first, in insertion order; then
   deliveries by envelope id (post order: plain FIFO when no delays are
   injected), with the enqueue number keeping apart the duplicated
   copies of one post, which share an id; then timers by sub-query. *)
type slot =
  | Scheduled of int  (* insertion number *)
  | Delivery of int * int  (* envelope id, enqueue number *)
  | Retry of (string * string * string)  (* (asker, target, goal key) *)

type work =
  | Crash of string
  | Restart of string
  | Deadline of int  (* request id *)
  | Deliver of Net.Envelope.t
  | Fire of (string * string * string) * timer

module Agenda = Map.Make (struct
  type t = int * slot

  let compare = compare
end)

(* A peer's durable baseline, captured at reactor creation: the world a
   crash-stop restart falls back to before replaying its journal.  The
   KB value is immutable (cheap to hold); the cert/origin tables are
   copied. *)
type snapshot = {
  sn_kb : Kb.t;
  sn_certs : (string, Peertrust_crypto.Cert.t) Hashtbl.t;
  sn_origins : (int, string) Hashtbl.t;
}

type t = {
  session : Session.t;
  config : config;
  guard : Guard.t;
  adversaries : (string, Net.Adversary.t) Hashtbl.t;
  mutable agenda : work Agenda.t;
  mutable enqueued : int;  (* insertion numbers handed out *)
  mutable next_synth : int;  (* ids for locally synthesized messages, < 0 *)
  rings : (string, Net.Dedup.t) Hashtbl.t;
  (* delivered envelope ids, one bounded dedup ring per receiving peer —
     volatile state a crash wipes for that peer alone *)
  asks : (string * string * string, ask) Hashtbl.t;
  desks : (string, desk) Hashtbl.t;  (* peer -> the goals parked there *)
  mutable n_parked : int;
  mutable order : int;  (* last park or wake-up order number *)
  results : (int, Negotiation.outcome) Hashtbl.t;
  mutable next_request : int;
  mutable budget_hit : bool;
  tabling_st : Tabling.t option;  (* present iff [config.tabling] *)
  (* -------- crash-stop machinery -------- *)
  incarnations : (string, int) Hashtbl.t;  (* peer -> current, 0 at boot *)
  observed_inc : (string * string, int) Hashtbl.t;
  (* (observer, sender) -> highest incarnation seen from sender *)
  last_crash : (string, int) Hashtbl.t;  (* peer -> tick of last crash *)
  snapshots : (string, snapshot) Hashtbl.t;
  journals : (string, Persist.Journal.t) Hashtbl.t;
  awaiting : (string, ((string * string * string) * timer) list) Hashtbl.t;
  (* crashed target -> sub-queries suspended until it restarts *)
  req_owner : (int, string) Hashtbl.t;  (* request id -> requester *)
}

type request = int

(* A scheduled event runs after those already scheduled for its tick. *)
let schedule t tick work =
  t.enqueued <- t.enqueued + 1;
  t.agenda <- Agenda.add (tick, Scheduled t.enqueued) work t.agenda

let enqueue t env =
  t.enqueued <- t.enqueued + 1;
  t.agenda <-
    Agenda.add
      (env.Net.Envelope.deliver_at, Delivery (env.Net.Envelope.id, t.enqueued))
      (Deliver env) t.agenda

let create ?(config = default_config) session =
  if config.rto < 1 then invalid_arg "Reactor.create: rto must be >= 1";
  if config.retry_limit < 0 then
    invalid_arg "Reactor.create: retry_limit must be >= 0";
  let verify =
    if session.Session.config.Session.verify_signatures then fun c ->
      Peertrust_crypto.Cert.verify session.Session.keystore
        ~now:session.Session.config.Session.now c
      = Ok ()
    else fun _ -> true
  in
  let snapshots = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name (peer : Peer.t) ->
      Hashtbl.replace snapshots name
        {
          sn_kb = peer.Peer.kb;
          sn_certs = Hashtbl.copy peer.Peer.certs;
          sn_origins = Hashtbl.copy peer.Peer.origins;
        })
    session.Session.peers;
  let journals = Hashtbl.create 8 in
  (match config.journal with
  | Journal_off -> ()
  | Journal_memory ->
      Hashtbl.iter
        (fun name _ ->
          Hashtbl.replace journals name (Persist.Journal.in_memory ()))
        session.Session.peers
  | Journal_dir dir ->
      Hashtbl.iter
        (fun name _ ->
          Hashtbl.replace journals name (Persist.Journal.for_peer ~dir ~peer:name))
        session.Session.peers);
  let t =
    {
      session;
      config;
      guard =
        Guard.create ~config:session.Session.config.Session.guard ~verify ();
      adversaries = Hashtbl.create 4;
      agenda = Agenda.empty;
      enqueued = 0;
      next_synth = -1;
      rings = Hashtbl.create 8;
      asks = Hashtbl.create 64;
      desks = Hashtbl.create 8;
      n_parked = 0;
      order = 0;
      results = Hashtbl.create 8;
      next_request = 1;
      budget_hit = false;
      tabling_st =
        (if config.tabling then Some (Tabling.create session) else None);
      incarnations = Hashtbl.create 8;
      observed_inc = Hashtbl.create 16;
      last_crash = Hashtbl.create 8;
      snapshots;
      journals;
      awaiting = Hashtbl.create 8;
      req_owner = Hashtbl.create 8;
    }
  in
  List.iter
    (fun (peer, at_tick, restart_tick) ->
      schedule t at_tick (Crash peer);
      if restart_tick <> max_int then schedule t restart_tick (Restart peer))
    (Net.Faults.crashes (Net.Network.faults session.Session.network));
  (* Cross-process recovery: a disk journal left by an earlier process
     replays its knowledge into the freshly loaded world.  Goal entries
     are not auto-resubmitted across processes — the driver owns request
     ids — but [next_request] moves past them so ids never collide. *)
  (match config.journal with
  | Journal_dir _ ->
      let names =
        Hashtbl.fold (fun n _ acc -> n :: acc) journals []
        |> List.sort String.compare
      in
      List.iter
        (fun name ->
          match Persist.Journal.entries (Hashtbl.find journals name) with
          | Ok entries ->
              Persist.Journal.replay_peer (Session.peer session name) entries;
              List.iter
                (function
                  | Persist.Journal.Goal { id; _ } ->
                      if id >= t.next_request then t.next_request <- id + 1
                  | _ -> ())
                entries
          | Error _ -> ())
        names
  | Journal_off | Journal_memory -> ());
  t

let goal_key = Peer.goal_key
let now t = Net.Clock.now (Net.Network.clock t.session.Session.network)

(* The trace context a message sent right now should carry: the innermost
   open span's, [None] on untraced runs.  Callers that act on behalf of a
   message received earlier (retransmits, timeout denials) pass the
   context they captured instead. *)
let ambient_trace () =
  let tracer = Obs.tracer () in
  if Otracer.enabled tracer then Otracer.current_context tracer else None

let resolve_trace = function
  | Some _ as explicit -> explicit
  | None -> ambient_trace ()

(* Enqueue a locally synthesized message (not charged on the network):
   the denial a sender owes itself when a target is unreachable or a
   sub-query times out, or a cache replay. *)
let enqueue_synthetic ?trace t ~from ~target payload =
  let id = t.next_synth in
  t.next_synth <- id - 1;
  let at = now t in
  enqueue t
    {
      Net.Envelope.id;
      seq = 0;
      from_ = from;
      target;
      sent_at = at;
      deliver_at = at;
      attempt = 0;
      incarnation = 0;
      trace = resolve_trace trace;
      payload;
    }

let incarnation_of t peer =
  Option.value ~default:0 (Hashtbl.find_opt t.incarnations peer)

let journal_of t peer = Hashtbl.find_opt t.journals peer

(* Append one durable entry to a peer's journal (a no-op with
   journaling off).  Every append is one checkpoint write. *)
let jappend t peer entry =
  match journal_of t peer with
  | None -> ()
  | Some j ->
      Persist.Journal.append j entry;
      Metric.incr m_checkpoints

(* Post a message: account it on the network under the fault plan and
   enqueue the surviving copies.  A target that is down, or is neither a
   session peer nor an adversary, is unreachable and costs no message:
   a query to it turns into a synthetic denial; other payloads are
   counted and traced as reactor drops. *)
let post ?at ?attempt ?trace t ~from ~target payload =
  Metric.incr m_posts;
  let trace = resolve_trace trace in
  match
    if
      Hashtbl.mem t.session.Session.peers target
      || Hashtbl.mem t.adversaries target
    then
      Net.Network.post t.session.Session.network ~from ~target ?at ?attempt
        ~incarnation:(incarnation_of t from) ?trace payload
    else raise (Net.Network.Unreachable target)
  with
  | envelopes -> List.iter (enqueue t) envelopes
  | exception Net.Network.Unreachable _ -> (
      match payload with
      | Net.Message.Query { goal } | Net.Message.Tquery { goal; _ } ->
          enqueue_synthetic ?trace t ~from:target ~target:from
            (Net.Message.Deny { goal; reason = "unreachable" })
      | Net.Message.Answer _ | Net.Message.Deny _ | Net.Message.Disclosure _
      | Net.Message.Raw _ | Net.Message.Tanswer _ | Net.Message.Tprobe _
      | Net.Message.Tstat _ | Net.Message.Tcomplete _ | Net.Message.Cancel _ ->
          Metric.incr m_drops;
          Otracer.event (Obs.tracer ())
            (Printf.sprintf "reactor.drop %s -> %s: %s (unreachable)" from
               target
               (Net.Message.summary payload));
          Log.debug (fun m ->
              m "dropping %s -> %s: %s (unreachable)" from target
                (Net.Message.summary payload)))
  | exception Net.Network.Budget_exhausted -> t.budget_hit <- true

(* Retransmission timers only run under an active fault plan: without one
   every posted message is delivered, and spurious retransmits would
   perturb the fault-free transcript. *)
let resilient t =
  not (Net.Faults.is_none (Net.Network.faults t.session.Session.network))

let put_timer t pkey tm =
  t.agenda <- Agenda.add (tm.tm_next, Retry pkey) (Fire (pkey, tm)) t.agenda

let disarm t pkey =
  match Hashtbl.find_opt t.asks pkey with
  | Some ({ timer = Some tm; _ } as r) ->
      t.agenda <- Agenda.remove (tm.tm_next, Retry pkey) t.agenda;
      r.timer <- None
  | Some { timer = None; _ } | None -> ()

let ask_record t pkey =
  match Hashtbl.find_opt t.asks pkey with
  | Some r -> r
  | None ->
      let r =
        { resolved = false; answer = None; denial = None; timer = None }
      in
      Hashtbl.add t.asks pkey r;
      r

(* Ask a sub-query: a [Query], or with [path] a tabling [Tquery], which
   healing may ask again (its record is kept).  A cache hit
   short-circuits into a locally synthesized reply (no envelope, no
   timer) — for a Tquery a final Tanswer, sound because the cache only
   ever holds completed tables; a miss posts the query and arms its
   retransmission timer. *)
let ask ?trace ?path t ~from ~target ~key goal =
  let pkey = (from, target, key) in
  let r = ask_record t pkey in
  let cached =
    match t.config.cache with
    | None -> None
    | Some c -> Answer_cache.find c ~now:(now t) ~asker:from ~owner:target goal
  in
  match cached with
  | Some a ->
      Otracer.event (Obs.tracer ())
        (Printf.sprintf "reactor.cache_hit %s -> %s: %s" from target
           (Literal.to_string goal));
      enqueue_synthetic ?trace t ~from:target ~target:from
        (match path with
        | None ->
            Net.Message.Answer
              {
                goal;
                instances = a.Answer_cache.instances;
                certs = a.Answer_cache.certs;
              }
        | Some _ ->
            Net.Message.Tanswer
              {
                goal;
                instances = List.map fst a.Answer_cache.instances;
                final = true;
              })
  | None ->
      let payload =
        match path with
        | Some path -> Net.Message.Tquery { goal; path }
        | None -> Net.Message.Query { goal }
      in
      post ?trace t ~from ~target payload;
      if resilient t && Option.is_none r.timer then begin
        let tm =
          {
            tm_goal = goal;
            tm_payload = payload;
            tm_attempt = 0;
            tm_rto = t.config.rto;
            tm_next = now t + t.config.rto;
            tm_trace = resolve_trace trace;
          }
        in
        r.timer <- Some tm;
        put_timer t pkey tm
      end

(* ------------------------------------------------------------------ *)
(* Parked goals and their wake-up indexes *)

let next_order t =
  t.order <- t.order + 1;
  t.order

let desk_of t name =
  match Hashtbl.find_opt t.desks name with
  | Some d -> d
  | None ->
      let d =
        {
          goals = Hashtbl.create 8;
          waiters = Hashtbl.create 8;
          readers = Hashtbl.create 8;
          woken = [];
          kb_seen =
            (match Hashtbl.find_opt t.session.Session.peers name with
            | Some peer -> peer.Peer.kb
            | None -> Kb.empty);
          last_wake = 0;
        }
      in
      Hashtbl.replace t.desks name d;
      d

let wake_later d p =
  if p.pk_live && not p.pk_woken then begin
    p.pk_woken <- true;
    d.woken <- p :: d.woken
  end

let push tbl key p =
  Hashtbl.replace tbl key
    (p :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let drop tbl key p =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some ps -> (
      match List.filter (fun q -> q != p) ps with
      | [] -> Hashtbl.remove tbl key
      | ps -> Hashtbl.replace tbl key ps)

(* File a goal under the sub-query it waits on and the KB buckets it
   read.  Wake rule (c): a volatile goal is queued for the next wake-up
   straight away. *)
let index d p =
  push d.waiters p.pk_waiting p;
  List.iter
    (fun (bucket, fkey) ->
      let by_key =
        match Hashtbl.find_opt d.readers bucket with
        | Some by_key -> by_key
        | None ->
            let by_key = Hashtbl.create 4 in
            Hashtbl.replace d.readers bucket by_key;
            by_key
      in
      push by_key fkey p)
    p.pk_reads;
  if p.pk_volatile then wake_later d p

let unindex d p =
  drop d.waiters p.pk_waiting p;
  List.iter
    (fun (bucket, fkey) ->
      match Hashtbl.find_opt d.readers bucket with
      | None -> ()
      | Some by_key ->
          drop by_key fkey p;
          if Hashtbl.length by_key = 0 then Hashtbl.remove d.readers bucket)
    p.pk_reads

(* Re-file a goal whose evaluation blocked again. *)
let reindex d p waiting (reads : Kb.reads) =
  unindex d p;
  p.pk_waiting <- waiting;
  p.pk_reads <- reads.Kb.lookups;
  p.pk_volatile <- reads.Kb.volatile;
  index d p

let park ?via ?request t ~peer ~requester goal waiting reads =
  let d = desk_of t peer in
  let p =
    {
      pk_peer = peer;
      pk_requester = requester;
      pk_goal = goal;
      pk_waiting = waiting;
      pk_request = request;
      pk_via = via;
      pk_seq = next_order t;
      pk_reads = reads.Kb.lookups;
      pk_volatile = reads.Kb.volatile;
      pk_woken = false;
      pk_live = true;
    }
  in
  Hashtbl.replace d.goals p.pk_seq p;
  t.n_parked <- t.n_parked + 1;
  index d p

let unpark t d p =
  p.pk_live <- false;
  Hashtbl.remove d.goals p.pk_seq;
  t.n_parked <- t.n_parked - 1;
  unindex d p

(* Wake rule (a): whatever resolves a sub-query — an answer, a denial, a
   deadline's withdrawal — queues the goals parked on it. *)
let resolve t ((peer, target, key) as pkey) r =
  r.resolved <- true;
  disarm t pkey;
  match Hashtbl.find_opt t.desks peer with
  | None -> ()
  | Some d -> (
      match Hashtbl.find_opt d.waiters (target, key) with
      | None -> ()
      | Some ps ->
          Hashtbl.remove d.waiters (target, key);
          List.iter (wake_later d) ps)

(* Wake rule (b): queue the goals whose recorded lookups could meet a
   rule a delivery added to [peer]'s KB ([before] is the KB it found). *)
let taught t (peer : Peer.t) ~before rules =
  if peer.Peer.kb != before then
    match Hashtbl.find_opt t.desks peer.Peer.name with
    | None -> ()
    | Some d ->
        d.kb_seen <- peer.Peer.kb;
        let wake_all ps = List.iter (wake_later d) ps in
        List.iter
          (fun r ->
            if Kb.mem r peer.Peer.kb && not (Kb.mem r before) then
              let bucket, fkey = Kb.head_lookup r in
              match Hashtbl.find_opt d.readers bucket with
              | None -> ()
              | Some by_key -> (
                  match fkey with
                  | Flat.Kany -> Hashtbl.iter (fun _ ps -> wake_all ps) by_key
                  | Flat.Kground _ | Flat.Kfunctor _ ->
                      Option.iter wake_all (Hashtbl.find_opt by_key Flat.Kany);
                      Option.iter wake_all (Hashtbl.find_opt by_key fkey)))
          rules

(* Wake rule (d): a KB changed behind the reactor's back (a caller
   loaded rules between steps) may unblock any goal parked there. *)
let sync t (peer : Peer.t) =
  match Hashtbl.find_opt t.desks peer.Peer.name with
  | Some d when d.kb_seen != peer.Peer.kb ->
      d.kb_seen <- peer.Peer.kb;
      Hashtbl.iter (fun _ p -> wake_later d p) d.goals
  | Some _ | None -> ()

(* Quiescence breaking forces goals in a fixed order, which the pinned
   transcripts rely on: the later of a goal's park and its peer's last
   wake-up, newest first, ties newest parked first. *)
let rank d p = (max p.pk_seq d.last_wake, p.pk_seq)

let all_parked t =
  Hashtbl.fold
    (fun _ d acc -> Hashtbl.fold (fun _ p acc -> (rank d p, d, p) :: acc) d.goals acc)
    t.desks []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)

(* Put a batch of tabling posts on the wire.  A Tquery is asked like any
   sub-query (its record lets the guard's solicitation oracle accept the
   eventual answers); everything else (answer pushes, probe traffic) is
   fire-and-forget: losses are repaired by quiescence healing, not
   timers. *)
let tabling_send t posts =
  List.iter
    (fun { Tabling.p_from; p_target; p_payload } ->
      match p_payload with
      | Net.Message.Tquery { goal; path } ->
          ask ~path t ~from:p_from ~target:p_target ~key:(goal_key goal) goal
      | _ -> post t ~from:p_from ~target:p_target p_payload)
    posts

let with_tabling t f =
  match t.tabling_st with None -> () | Some tb -> tabling_send t (f tb)

(* Evaluate a goal at a peer with a collecting remote callback; either
   respond or park the goal on the first remote call, in evaluation
   order, that has no answer yet — the call depth-first recursion would
   block on.  Later calls wait until that one is answered: asking them
   now would pay for speculative fallbacks an answer may make moot.
   Work is done on [requester]'s behalf: each inner solve is capped at
   the requester's unspent guard quota and the steps actually burnt are
   charged against it.  A parked goal carries what its evaluation read,
   for the wake-up indexes. *)
let evaluate_goal t peer ~requester goal ~respond =
  let blocked = ref [] in
  let collector ~target lit =
    blocked := (target, lit) :: !blocked;
    []
  in
  let answer () =
    let remaining =
      Guard.remaining_work t.guard ~from:requester ~target:peer.Peer.name
    in
    if remaining = max_int then
      Engine.answer ~remote:collector t.session peer ~requester goal
    else begin
      let saved = peer.Peer.options in
      peer.Peer.options <-
        { saved with Sld.max_steps = min remaining saved.Sld.max_steps };
      let before = Metric.value m_sld_steps in
      Fun.protect
        ~finally:(fun () ->
          peer.Peer.options <- saved;
          Guard.charge_work t.guard ~from:requester ~target:peer.Peer.name
            (Metric.value m_sld_steps - before))
        (fun () -> Engine.answer ~remote:collector t.session peer ~requester goal)
    end
  in
  match Kb.recording answer with
  | Ok (instances, certs), _ ->
      respond (Net.Message.Answer { goal; instances; certs });
      `Settled
  | Error reason, reads -> (
      let rec first_unanswered = function
        | [] -> None
        | (target, lit) :: rest -> (
            let key = goal_key lit in
            match Hashtbl.find_opt t.asks (peer.Peer.name, target, key) with
            | Some { resolved = true; _ } -> first_unanswered rest
            | Some _ -> Some (target, key)
            | None ->
                ask t ~from:peer.Peer.name ~target ~key lit;
                Some (target, key))
      in
      match first_unanswered (List.rev !blocked) with
      | None ->
          respond (Net.Message.Deny { goal; reason });
          `Settled
      | Some waiting -> `Parked (waiting, reads))

(* Checkpoint compaction threshold: once this many root goals have
   settled since the last compaction, the journal is rewritten without
   their Goal/Done pairs (and without duplicate knowledge entries). *)
let compact_after = 8

let maybe_compact t owner =
  match journal_of t owner with
  | None -> ()
  | Some j -> (
      match Persist.Journal.entries j with
      | Error _ -> ()
      | Ok entries ->
          if Hashtbl.length (Persist.Journal.finished entries) >= compact_after
          then begin
            let kept = Persist.Journal.compact entries in
            Persist.Journal.rewrite j kept;
            Otracer.event (Obs.tracer ())
              (Printf.sprintf "reactor.compact %s journal -> %d entries" owner
                 (List.length kept))
          end)

let settle_request t id outcome =
  if not (Hashtbl.mem t.results id) then begin
    Hashtbl.replace t.results id outcome;
    Negotiation.count outcome;
    match Hashtbl.find_opt t.req_owner id with
    | None -> ()
    | Some owner ->
        jappend t owner (Persist.Journal.Done { id });
        maybe_compact t owner
  end

(* A transport-level denial (injected by the resilience machinery, not
   by the target's policies) or a guard rejection surfaces as a
   structured outcome reason. *)
let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let denial_reason ~target = function
  | Some (( "timeout" | "unreachable" | "quarantined" | "rate-limited"
          | "quota" | "crashed" ) as structured) ->
      Printf.sprintf "%s: %s" structured target
  | Some reason when has_prefix ~prefix:"unsupported" reason ->
      (* A tabled evaluation hit a feature outside its fragment (NAF);
         keep the reason so {!Negotiation.classify_denial} sees it. *)
      reason
  | Some _ | None -> "denied by target"

(* Charge a device<->proxy forwarding hop: accounted on the network
   like any message but delivered to nobody, as the proxy answers in
   place.  [false] when the hop could not be made. *)
let hop ?at t ~from ~target payload =
  match
    Net.Network.post t.session.Session.network ~from ~target ?at payload
  with
  | (_ : Net.Envelope.t list) -> true
  | exception Net.Network.Unreachable _ -> false
  | exception Net.Network.Budget_exhausted ->
      t.budget_hit <- true;
      false

(* Reply from [peer] to a query from [requester]; a proxied query's
   reply travels back through the device it arrived at.  The proxy
   evaluates where the device received the query, so the inbound hop's
   ticks are paid here: the reply leaves the proxy once that hop has
   landed, and the device once both hops have. *)
let reply ?via t ~peer ~requester payload =
  match via with
  | None -> post t ~from:peer ~target:requester payload
  | Some device ->
      let latency from target =
        Net.Network.link_latency t.session.Session.network ~from ~target
      in
      let at = now t + latency device peer in
      if hop ~at t ~from:peer ~target:device payload then
        post ~at:(at + latency peer device) t ~from:device ~target:requester
          payload

(* A top-level goal is settled by its single sub-query alone: [true]
   once that is resolved. *)
let settle_root t id ~peer (target, key) =
  match Hashtbl.find_opt t.asks (peer, target, key) with
  | Some { resolved = true; answer; denial; _ } ->
      settle_request t id
        (match answer with
        | Some instances -> Negotiation.Granted instances
        | None -> Negotiation.Denied (denial_reason ~target denial));
      true
  | Some _ | None -> false

(* Try to settle one parked goal; [true] when it is resolved. *)
let try_settle t d p =
  match p.pk_request with
  | Some id -> settle_root t id ~peer:p.pk_peer p.pk_waiting
  | None -> (
      match
        evaluate_goal t
          (Session.peer t.session p.pk_peer)
          ~requester:p.pk_requester p.pk_goal
          ~respond:
            (reply ?via:p.pk_via t ~peer:p.pk_peer ~requester:p.pk_requester)
      with
      | `Settled -> true
      | `Parked (waiting, reads) ->
          reindex d p waiting reads;
          false)

(* An answer, denial or disclosure reached [name]: re-evaluate the goals
   parked there that something since their last evaluation may have
   unblocked (wake rules (a)-(d)), newest parked first.  Any other goal
   would block on the same call again, with no side effect, so it is
   skipped. *)
let wake t name =
  match Hashtbl.find_opt t.desks name with
  | None -> ()
  | Some d ->
      d.last_wake <- next_order t;
      let woken =
        List.sort (fun a b -> Int.compare b.pk_seq a.pk_seq) d.woken
      in
      d.woken <- [];
      List.iter
        (fun p ->
          p.pk_woken <- false;
          if p.pk_live && try_settle t d p then unpark t d p)
        woken

let handle_query ?via t peer ~from goal =
  let respond = reply ?via t ~peer:peer.Peer.name ~requester:from in
  match evaluate_goal t peer ~requester:from goal ~respond with
  | `Settled -> ()
  | `Parked (((target, _) as waiting), reads) ->
      Metric.incr m_parks;
      Log.debug (fun m ->
          m "%s parks %s for %s (waiting on %s)" peer.Peer.name
            (Literal.to_string goal) from target);
      park ?via t ~peer:peer.Peer.name ~requester:from goal waiting reads

(* Learn inbound certificates, journalling each one the peer did not
   already hold and that survived verification — checked against the
   wallet before and after so replaying the journal can never learn a
   certificate twice. *)
let learn_certs t (peer : Peer.t) ~from certs =
  let ckey (c : Peertrust_crypto.Cert.t) =
    Rule.canonical c.Peertrust_crypto.Cert.rule
  in
  let fresh =
    List.filter (fun c -> not (Hashtbl.mem peer.Peer.certs (ckey c))) certs
  in
  Engine.learn ~from_:from t.session peer certs;
  List.iter
    (fun c ->
      if Hashtbl.mem peer.Peer.certs (ckey c) then
        jappend t peer.Peer.name (Persist.Journal.Cert c))
    fresh

let cert_rules certs =
  List.map (fun (c : Peertrust_crypto.Cert.t) -> c.Peertrust_crypto.Cert.rule) certs

let dispatch t ~synthetic (from, target, payload) =
  match Hashtbl.find_opt t.session.Session.peers target with
  | None -> ()
  | Some peer -> (
      sync t peer;
      match payload with
      | Net.Message.Query { goal } -> (
          match Hashtbl.find_opt t.session.Session.proxies target with
          | None -> handle_query t peer ~from goal
          | Some proxy ->
              (* A device answers through its trusted proxy, which
                 evaluates the query against the original requester. *)
              if hop t ~from:target ~target:proxy payload then
                handle_query ~via:target t (Session.peer t.session proxy)
                  ~from goal
              else
                post t ~from:target ~target:from
                  (Net.Message.Deny { goal; reason = "proxy unreachable" }))
      | Net.Message.Answer { goal; instances; certs } ->
          let before = peer.Peer.kb in
          learn_certs t peer ~from certs;
          let facts =
            List.filter_map
              (fun ((inst : Literal.t), _) ->
                if Literal.is_ground inst then
                  Some (Rule.fact (Literal.push_authority inst (Term.str from)))
                else None)
              instances
          in
          List.iter
            (fun r ->
              if not (Kb.mem r peer.Peer.kb) then
                jappend t target (Persist.Journal.Fact r);
              Peer.add_rule peer r)
            facts;
          taught t peer ~before (cert_rules certs @ facts);
          (* Fill the cache from answers that travelled the wire; replayed
             (synthetic) hits must not refresh their own TTL. *)
          (match t.config.cache with
          | Some c when not synthetic ->
              Answer_cache.store c ~now:(now t) ~asker:target ~owner:from
                goal
                { Answer_cache.instances; certs }
          | Some _ | None -> ());
          let pkey = (target, from, goal_key goal) in
          let r = ask_record t pkey in
          r.answer <- Some instances;
          resolve t pkey r;
          wake t target
      | Net.Message.Deny { goal; reason } ->
          (* When tabling is on, a denial may kill a table's dependency
             view; the failure cascades to the view's dependent tables. *)
          with_tabling t (fun tb ->
              Tabling.handle_deny tb ~consumer:target ~from goal reason);
          let pkey = (target, from, goal_key goal) in
          let r = ask_record t pkey in
          if Option.is_none r.answer then r.denial <- Some reason;
          resolve t pkey r;
          wake t target
      | Net.Message.Disclosure { certs; _ } ->
          let before = peer.Peer.kb in
          learn_certs t peer ~from certs;
          taught t peer ~before (cert_rules certs);
          wake t target
      | Net.Message.Cancel { goal } ->
          (* The requester withdrew this goal (deadline expiry): drop
             the work parked on its behalf; sub-queries the evaluation
             already posted resolve into answers nobody consumes. *)
          let key = goal_key goal in
          (* parked here, or at the proxy that evaluates for this device *)
          let hosts =
            match Hashtbl.find_opt t.session.Session.proxies target with
            | Some proxy when not (String.equal proxy target) ->
                [ target; proxy ]
            | Some _ | None -> [ target ]
          in
          List.iter
            (fun host ->
              match Hashtbl.find_opt t.desks host with
              | None -> ()
              | Some d ->
                  Hashtbl.fold
                    (fun _ p acc ->
                      if
                        p.pk_request = None
                        && String.equal
                             (Option.value p.pk_via ~default:p.pk_peer)
                             target
                        && String.equal p.pk_requester from
                        && String.equal (goal_key p.pk_goal) key
                      then p :: acc
                      else acc)
                    d.goals []
                  |> List.iter (fun p ->
                         unpark t d p;
                         Metric.incr m_cancelled_goals;
                         Otracer.event (Obs.tracer ())
                           (Printf.sprintf
                              "reactor.cancelled %s withdraws %s at %s" from key
                              target)))
            hosts
      | Net.Message.Raw _ ->
          (* Garbage on the wire: without a guard there is nothing to do
             with it; the guard layer rejects it before dispatch. *)
          ()
      | Net.Message.Tquery { goal; path } ->
          with_tabling t (fun tb ->
              Tabling.handle_query tb ~owner:target ~from ~path goal)
      | Net.Message.Tanswer { goal; instances; final } ->
          with_tabling t (fun tb ->
              Tabling.handle_answer tb ~consumer:target ~from goal instances
                ~final);
          let pkey = (target, from, goal_key goal) in
          if final then begin
            (* Only completed tables reach the cache: the [completed]
               gate makes a premature (still-in-SCC) store impossible. *)
            (match t.config.cache with
            | Some c when not synthetic ->
                Answer_cache.store ~completed:true c ~now:(now t)
                  ~asker:target ~owner:from goal
                  {
                    Answer_cache.instances =
                      List.map (fun i -> (i, None)) instances;
                    certs = [];
                  }
            | Some _ | None -> ());
            jappend t target
              (Persist.Journal.Answer { owner = from; goal; instances });
            let r = ask_record t pkey in
            r.answer <- Some (List.map (fun i -> (i, None)) instances);
            resolve t pkey r;
            wake t target
          end
          else
            (* A non-final push proves the link is alive — stand the
               retransmission timer down, but keep the request pending
               until the table completes. *)
            disarm t pkey
      | Net.Message.Tprobe { leader; epoch; members } ->
          with_tabling t (fun tb ->
              Tabling.handle_probe tb ~peer:target ~from
                (leader, epoch, members))
      | Net.Message.Tstat { leader; epoch; entries } ->
          with_tabling t (fun tb ->
              Tabling.handle_stat tb ~peer:target ~from
                (leader, epoch, entries))
      | Net.Message.Tcomplete { leader; epoch; members } ->
          with_tabling t (fun tb ->
              Tabling.handle_complete tb ~peer:target
                (leader, epoch, members)))

(* Put a root goal in flight under an already allocated request id —
   shared by {!submit} and crash recovery, which re-launches a goal
   recovered from the journal under its original id. *)
let launch_root ?trace t ~id ~requester ~target goal =
  let key = goal_key goal in
  (match t.tabling_st with
  | Some tb ->
      Tabling.register_root tb ~consumer:requester ~owner:target goal;
      ask ?trace ~path:[] t ~from:requester ~target ~key goal
  | None ->
      if not (Hashtbl.mem t.asks (requester, target, key)) then
        ask ?trace t ~from:requester ~target ~key goal);
  if not (settle_root t id ~peer:requester (target, key)) then
    park ~request:id t ~peer:requester ~requester goal (target, key)
      { Kb.lookups = []; volatile = false }

let submit ?deadline t ~requester ~target goal =
  let id = t.next_request in
  t.next_request <- id + 1;
  Hashtbl.replace t.req_owner id requester;
  let key = goal_key goal in
  (* Root of the causal trace: join the ambient context (a surrounding
     [Negotiation.measure] span) or mint a fresh trace, and record the
     request itself as a zero-width span so every downstream span — on
     any peer — hangs off one negotiation root. *)
  let trace =
    let tracer = Obs.tracer () in
    if not (Otracer.enabled tracer) then None
    else
      let ctx =
        match Otracer.current_context tracer with
        | Some _ as ambient -> ambient
        | None -> Otracer.mint tracer
      in
      match ctx with
      | None -> None
      | Some c -> (
          match
            Otracer.record tracer ~ctx:c
              ~attrs:
                [
                  ("peer", Ojson.Str requester);
                  ("requester", Ojson.Str requester);
                  ("target", Ojson.Str target);
                  ("goal", Ojson.Str key);
                ]
              ~name:"negotiation.request" ~start_ticks:(now t)
              ~end_ticks:(now t) ()
          with
          | Some span -> Some (Tctx.child c ~parent_span:span.Peertrust_obs.Span.id)
          | None -> Some c)
  in
  (* The accepted goal is the journal's recovery anchor: a restart
     re-launches every Goal entry with no matching Done. *)
  jappend t requester (Persist.Journal.Goal { id; target; goal });
  Option.iter
    (fun tick ->
      if tick < 0 then invalid_arg "Reactor.submit: deadline must be >= 0";
      schedule t tick (Deadline id))
    deadline;
  launch_root ?trace t ~id ~requester ~target goal;
  id

(* ------------------------------------------------------------------ *)
(* Event loop: scheduled events, deliveries and timers on one agenda *)

let clock_to t tick =
  Net.Clock.advance_to (Net.Network.clock t.session.Session.network) tick

(* Does [name]'s current crash window end in a scheduled restart? *)
let restart_upcoming t name =
  let now = now t in
  List.exists
    (fun (peer, at_tick, restart_tick) ->
      String.equal peer name && at_tick <= now && now < restart_tick
      && restart_tick <> max_int)
    (Net.Faults.crashes (Net.Network.faults t.session.Session.network))

(* A timer came due: retransmit with doubled timeout while the retry
   budget lasts, then give up.  Exhaustion against a live target is a
   timeout denial; against a crashed target it is a [crashed] denial —
   unless a restart is scheduled, in which case the sub-query is
   suspended and reissued the moment the target comes back. *)
let fire_timer t ((peer, target, _key) as pkey) tm =
  (* Timer work runs outside any negotiation span, so the captured
     context re-attaches it to the originating trace; the retransmit
     (resp. denial) is posted inside the span and inherits from it. *)
  let in_span name body =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      Otracer.with_span tracer ?ctx:tm.tm_trace
        ~attrs:
          [
            ("peer", Ojson.Str peer);
            ("target", Ojson.Str target);
            ("goal", Ojson.Str (goal_key tm.tm_goal));
            ("attempt", Ojson.Int tm.tm_attempt);
          ]
        name body
    else body ()
  in
  if tm.tm_attempt < t.config.retry_limit then begin
    tm.tm_attempt <- tm.tm_attempt + 1;
    tm.tm_rto <- tm.tm_rto * 2;
    tm.tm_next <- now t + tm.tm_rto;
    put_timer t pkey tm;
    Metric.incr m_retries;
    Log.debug (fun m ->
        m "retry #%d %s -> %s: %s" tm.tm_attempt peer target
          (Literal.to_string tm.tm_goal));
    in_span "reactor.retry" (fun () ->
        Otracer.event (Obs.tracer ())
          (Printf.sprintf "reactor.retry #%d %s -> %s: %s" tm.tm_attempt peer
             target
             (Literal.to_string tm.tm_goal));
        post ~attempt:tm.tm_attempt t ~from:peer ~target tm.tm_payload)
  end
  else begin
    disarm t pkey;
    Metric.incr m_timeouts;
    let crashed =
      Net.Faults.in_crash
        (Net.Network.faults t.session.Session.network)
        target ~now:(now t)
    in
    if crashed && restart_upcoming t target then begin
      Log.debug (fun m ->
          m "suspend %s -> %s: %s (awaiting restart)" peer target
            (Literal.to_string tm.tm_goal));
      in_span "reactor.timeout" (fun () ->
          Otracer.event (Obs.tracer ())
            (Printf.sprintf
               "reactor.timeout %s -> %s: %s (suspended awaiting restart)"
               peer target
               (Literal.to_string tm.tm_goal)));
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt t.awaiting target)
      in
      Hashtbl.replace t.awaiting target (prev @ [ (pkey, tm) ])
    end
    else begin
      let reason = if crashed then "crashed" else "timeout" in
      Log.debug (fun m ->
          m "%s %s -> %s: %s" reason peer target
            (Literal.to_string tm.tm_goal));
      in_span "reactor.timeout" (fun () ->
          Otracer.event (Obs.tracer ())
            (Printf.sprintf "reactor.%s %s -> %s: %s (after %d retries)"
               reason peer target
               (Literal.to_string tm.tm_goal)
               tm.tm_attempt);
          enqueue_synthetic t ~from:target ~target:peer
            (Net.Message.Deny { goal = tm.tm_goal; reason }))
    end
  end

(* The guard's solicitation oracle: does [target] have this sub-query
   outstanding toward [from]? *)
let solicited_by t ~from ~target goal =
  match Hashtbl.find_opt t.asks (target, from, goal_key goal) with
  | None -> `Unknown
  | Some r -> if r.resolved then `Resolved else `Outstanding

(* A rejected query still owes its sender a reply — the honest reading
   of a rejection is a denial, and an honest requester that trips a
   limit must terminate with a structured outcome rather than hang.
   One Deny per rejected query (1:1, no amplification); rejected
   non-query payloads are dropped silently. *)
let reject_payload t ~from ~target violation payload =
  let reason = Guard.denial_reason violation in
  match payload with
  | Net.Message.Query { goal } | Net.Message.Tquery { goal; _ } ->
      post t ~from:target ~target:from (Net.Message.Deny { goal; reason })
  | Net.Message.Answer _ | Net.Message.Deny _ | Net.Message.Disclosure _
  | Net.Message.Raw _ | Net.Message.Tanswer _ | Net.Message.Tprobe _
  | Net.Message.Tstat _ | Net.Message.Tcomplete _ | Net.Message.Cancel _ ->
      ()

(* Inbound traffic for a registered adversary: let it misbehave in
   response. *)
let dispatch_adversary t adv ~from =
  List.iter
    (fun { Net.Adversary.act_target; act_payload } ->
      post t ~from:(Net.Adversary.name adv) ~target:act_target act_payload)
    (Net.Adversary.react adv ~from)

(* Goal skeleton of a payload, for span attributes. *)
let payload_goal = function
  | Net.Message.Query { goal }
  | Net.Message.Answer { goal; _ }
  | Net.Message.Deny { goal; _ }
  | Net.Message.Tquery { goal; _ }
  | Net.Message.Tanswer { goal; _ }
  | Net.Message.Cancel { goal } ->
      Some (goal_key goal)
  | Net.Message.Disclosure _ | Net.Message.Raw _ | Net.Message.Tprobe _
  | Net.Message.Tstat _ | Net.Message.Tcomplete _ ->
      None

(* Capacity of each peer's delivered-envelope-id dedup set; past it the
   oldest ids are forgotten (counted as reactor.dedup_evictions). *)
let dedup_cap = 8192

let ring_of t target =
  match Hashtbl.find_opt t.rings target with
  | Some r -> r
  | None ->
      let r = Net.Dedup.create ~cap:dedup_cap in
      Hashtbl.replace t.rings target r;
      r

(* Incarnation hygiene for an envelope that travelled the wire: discard
   anything sent by an incarnation that has since crashed (its sender
   died after posting), and anything stamped with a lower incarnation
   than the receiver has already observed from that sender. *)
let stale_incarnation t (env : Net.Envelope.t) =
  match Hashtbl.find_opt t.last_crash env.Net.Envelope.from_ with
  | Some ct when env.Net.Envelope.sent_at < ct -> true
  | Some _ | None ->
      let okey = (env.Net.Envelope.target, env.Net.Envelope.from_) in
      let observed =
        Option.value ~default:0 (Hashtbl.find_opt t.observed_inc okey)
      in
      if env.Net.Envelope.incarnation < observed then true
      else begin
        if env.Net.Envelope.incarnation > observed then
          Hashtbl.replace t.observed_inc okey env.Net.Envelope.incarnation;
        false
      end

let deliver_envelope t env =
  let wire = env.Net.Envelope.id >= 0 in
  if
    wire
    && Net.Faults.in_crash
         (Net.Network.faults t.session.Session.network)
         env.Net.Envelope.target ~now:(now t)
  then begin
    (* Landed inside the target's crash window (e.g. a multi-tick delay
       bridged the crash): the dead peer hears nothing. *)
    Metric.incr m_crash_drops;
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.crash_drop %s" (Net.Envelope.summary env))
  end
  else if wire && stale_incarnation t env then begin
    Metric.incr m_stale_epoch;
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.stale_epoch %s" (Net.Envelope.summary env))
  end
  else if Net.Dedup.mem (ring_of t env.Net.Envelope.target) env.Net.Envelope.id
  then begin
    Metric.incr m_dup_deliveries;
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.duplicate %s" (Net.Envelope.summary env))
  end
  else begin
    if Net.Dedup.add (ring_of t env.Net.Envelope.target) env.Net.Envelope.id
    then Metric.incr m_dedup_evictions;
    let from = env.Net.Envelope.from_ in
    let target = env.Net.Envelope.target in
    let payload = env.Net.Envelope.payload in
    let tracer = Obs.tracer () in
    let body () =
      match Hashtbl.find_opt t.adversaries target with
      | Some adv -> dispatch_adversary t adv ~from
      | None ->
          (* Synthetic envelopes (ids < 0) are the reactor's own bookkeeping
             — cache replays, timeout/unreachable denials — and bypass the
             guard; everything that travelled the wire is judged first. *)
          if env.Net.Envelope.id < 0 || not (Hashtbl.mem t.session.Session.peers target)
          then dispatch t ~synthetic:(env.Net.Envelope.id < 0) (from, target, payload)
          else
            match
              Guard.admit t.guard ~now:(now t) ~from ~target
                ~solicited:(solicited_by t ~from ~target)
                payload
            with
            | Guard.Admit -> dispatch t ~synthetic:false (from, target, payload)
            | Guard.Stale why ->
                Otracer.event tracer
                  (Printf.sprintf "guard.stale %s -> %s: %s" from target why)
            | Guard.Reject violation ->
                Otracer.set_attr tracer "denial.class"
                  (Ojson.Str
                     (Negotiation.denial_class_to_string
                        (Negotiation.classify_denial
                           (Guard.denial_reason violation))));
                reject_payload t ~from ~target violation payload
    in
    (* Join the sender's trace: reconstruct the wire transit as a
       retrospective span (real envelopes only — synthetic ones never
       travelled), then process the delivery in a receive span parented
       under it, so cross-peer causality survives the queue. *)
    match env.Net.Envelope.trace with
    | Some c when Otracer.enabled tracer && c.Tctx.sampled ->
        let kind = Net.Stats.kind_to_string (Net.Message.kind payload) in
        let ctx =
          if env.Net.Envelope.id < 0 then c
          else
            match
              Otracer.record tracer ~ctx:c
                ~attrs:
                  [
                    ("from", Ojson.Str from);
                    ("target", Ojson.Str target);
                    ("kind", Ojson.Str kind);
                    ("attempt", Ojson.Int env.Net.Envelope.attempt);
                  ]
                ~name:"net.wire" ~start_ticks:env.Net.Envelope.sent_at
                ~end_ticks:env.Net.Envelope.deliver_at ()
            with
            | Some span ->
                Tctx.child c ~parent_span:span.Peertrust_obs.Span.id
            | None -> c
        in
        let attrs =
          [
            ("peer", Ojson.Str target);
            ("requester", Ojson.Str from);
            ("kind", Ojson.Str kind);
          ]
          @
          match payload_goal payload with
          | Some g -> [ ("goal", Ojson.Str g) ]
          | None -> []
        in
        Otracer.with_span tracer ~ctx ~attrs ("recv." ^ kind) body
    | Some _ | None -> body ()
  end

(* ------------------------------------------------------------------ *)
(* Crash-stop: scheduled crash, restart and deadline events *)

let journaling t = t.config.journal <> Journal_off

(* Wipe everything volatile a crash-stop destroys at [name]: in-flight
   deliveries addressed to it, its own outstanding sub-queries, parked
   goals, dedup ring, guard admission state, cached answers, tables —
   and roll its knowledge back to the boot snapshot.  The journal (held
   by the reactor, standing in for a synced disk) survives. *)
let crash_peer t name =
  Metric.incr m_crashes;
  Hashtbl.replace t.last_crash name (now t);
  Otracer.event (Obs.tracer ())
    (Printf.sprintf "reactor.crash %s @%d" name (now t));
  Log.debug (fun m -> m "%s crashes at %d" name (now t));
  (* In-flight envelopes addressed to the dead peer: wire ones were sent
     at a live incarnation and die with it (stale epoch); synthetic ones
     are its own bookkeeping and vanish silently.  So do its sub-queries
     and their timers. *)
  t.agenda <-
    Agenda.filter
      (fun _ work ->
        match work with
        | Deliver env when String.equal env.Net.Envelope.target name ->
            if env.Net.Envelope.id >= 0 then Metric.incr m_stale_epoch;
            false
        | Fire ((asker, _, _), _) -> not (String.equal asker name)
        | Crash _ | Restart _ | Deadline _ | Deliver _ -> true)
      t.agenda;
  Hashtbl.filter_map_inplace
    (fun (asker, _, _) r -> if String.equal asker name then None else Some r)
    t.asks;
  Hashtbl.remove t.rings name;
  Guard.reset_peer t.guard name;
  (match t.config.cache with
  | Some c ->
      ignore (Answer_cache.invalidate_asker c name : int);
      ignore (Answer_cache.invalidate_owner c name : int)
  | None -> ());
  (match t.tabling_st with Some tb -> Tabling.crash tb name | None -> ());
  let mine =
    match Hashtbl.find_opt t.desks name with
    | None -> []
    | Some d ->
        Hashtbl.remove t.desks name;
        Hashtbl.fold (fun _ p acc -> p :: acc) d.goals []
        |> List.sort (fun a b -> Int.compare b.pk_seq a.pk_seq)
  in
  List.iter
    (fun p ->
      p.pk_live <- false;
      t.n_parked <- t.n_parked - 1)
    mine;
  List.iter
    (fun p ->
      match p.pk_request with
      | Some _ when journaling t && restart_upcoming t name ->
          (* the journal's Goal entry re-launches it at restart *)
          ()
      | Some id -> settle_request t id (Negotiation.Denied "peer crashed")
      | None -> ())
    mine;
  match Hashtbl.find_opt t.snapshots name with
  | Some sn ->
      let peer = Session.peer t.session name in
      peer.Peer.kb <- sn.sn_kb;
      Hashtbl.reset peer.Peer.certs;
      Hashtbl.iter (Hashtbl.replace peer.Peer.certs) sn.sn_certs;
      Hashtbl.reset peer.Peer.origins;
      Hashtbl.iter (Hashtbl.replace peer.Peer.origins) sn.sn_origins
  | None -> ()

(* A restart brings the peer back under a bumped incarnation: replay the
   journal (knowledge first, then unfinished root goals), then reissue
   the sub-queries counterparties had suspended awaiting the restart. *)
let restart_peer t name =
  Metric.incr m_restarts;
  let inc = incarnation_of t name + 1 in
  Hashtbl.replace t.incarnations name inc;
  Otracer.event (Obs.tracer ())
    (Printf.sprintf "reactor.restart %s (incarnation %d)" name inc);
  Log.debug (fun m ->
      m "%s restarts at %d (incarnation %d)" name (now t) inc);
  (match journal_of t name with
  | None -> ()
  | Some j -> (
      match Persist.Journal.entries j with
      | Error _ -> ()  (* mid-stream corruption: restart cold *)
      | Ok entries ->
          let peer = Session.peer t.session name in
          Persist.Journal.replay_peer peer entries;
          (match t.config.cache with
          | Some c ->
              List.iter
                (function
                  | Persist.Journal.Answer { owner; goal; instances } ->
                      Answer_cache.store ~completed:true c ~now:(now t)
                        ~asker:name ~owner goal
                        {
                          Answer_cache.instances =
                            List.map (fun i -> (i, None)) instances;
                          certs = [];
                        }
                  | _ -> ())
                entries
          | None -> ());
          let finished = Persist.Journal.finished entries in
          List.iter
            (function
              | Persist.Journal.Goal { id; target; goal }
                when (not (Hashtbl.mem finished id))
                     && not (Hashtbl.mem t.results id) ->
                  Metric.incr m_recovered_goals;
                  Otracer.event (Obs.tracer ())
                    (Printf.sprintf "reactor.recover %s request#%d: %s" name
                       id (goal_key goal));
                  launch_root t ~id ~requester:name ~target goal
              | _ -> ())
            entries));
  match Hashtbl.find_opt t.awaiting name with
  | None -> ()
  | Some suspended ->
      Hashtbl.remove t.awaiting name;
      List.iter
        (fun (((peer, target, _) as pkey), tm) ->
          match Hashtbl.find_opt t.asks pkey with
          | Some ({ resolved = false; _ } as r) ->
              Metric.incr m_reissued;
              Otracer.event (Obs.tracer ())
                (Printf.sprintf "reactor.reissue %s -> %s: %s" peer target
                   (Literal.to_string tm.tm_goal));
              (* it replaces any timer armed meanwhile *)
              disarm t pkey;
              tm.tm_attempt <- 0;
              tm.tm_rto <- t.config.rto;
              tm.tm_next <- now t + t.config.rto;
              r.timer <- Some tm;
              put_timer t pkey tm;
              post ?trace:tm.tm_trace t ~from:peer ~target tm.tm_payload
          | Some _ | None -> ())
        suspended

(* The requester's deadline passed with the request unsettled: deny it
   and withdraw its outstanding sub-queries with Cancel messages so
   counterparties drop the parked work. *)
let expire_deadline t id =
  if not (Hashtbl.mem t.results id) then begin
    Metric.incr m_deadline_expiries;
    let requester =
      Option.value ~default:"" (Hashtbl.find_opt t.req_owner id)
    in
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.deadline request#%d at %s expired" id
         requester);
    let mine =
      Hashtbl.fold
        (fun ((asker, _, _) as pkey) r acc ->
          match r.timer with
          | Some tm when String.equal asker requester -> (pkey, r, tm) :: acc
          | Some _ | None -> acc)
        t.asks []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    in
    List.iter
      (fun (((_, target, _) as pkey), r, tm) ->
        Metric.incr m_cancels;
        resolve t pkey r;
        post ?trace:tm.tm_trace t ~from:requester ~target
          (Net.Message.Cancel { goal = tm.tm_goal }))
      mine;
    let akeys = Hashtbl.fold (fun k _ acc -> k :: acc) t.awaiting [] in
    List.iter
      (fun k ->
        Hashtbl.replace t.awaiting k
          (List.filter
             (fun ((p, _, _), _) -> not (String.equal p requester))
             (Hashtbl.find t.awaiting k)))
      akeys;
    (match Hashtbl.find_opt t.desks requester with
    | None -> ()
    | Some d ->
        Hashtbl.fold
          (fun _ p acc -> if p.pk_request = Some id then p :: acc else acc)
          d.goals []
        |> List.iter (unpark t d));
    settle_request t id (Negotiation.Denied "deadline expired")
  end

(* Process the first item on the agenda: at one tick, a scheduled
   crash/restart/deadline, then a delivery, then a timer; [false] when
   the agenda is empty. *)
let step t =
  match Agenda.min_binding_opt t.agenda with
  | None -> false
  | Some (((tick, _) as key), work) ->
      t.agenda <- Agenda.remove key t.agenda;
      clock_to t tick;
      (match work with
      | Crash name -> crash_peer t name
      | Restart name -> restart_peer t name
      | Deadline id -> expire_deadline t id
      | Deliver env -> deliver_envelope t env
      | Fire (pkey, tm) -> fire_timer t pkey tm);
      true

(* At quiescence, parked goals form dependency cycles (or wait on goals
   that do).  Force-deny one non-top-level goal to break the cycle — the
   finite-failure reading of cyclic policies — and let the denial
   propagate; top-level survivors are denied as quiescent. *)
let break_quiescence t =
  let parked = all_parked t in
  match
    List.find_opt (fun (_, _, p) -> p.pk_request = None) parked, parked
  with
  | Some (_, d, p), _ ->
      unpark t d p;
      reply ?via:p.pk_via t ~peer:p.pk_peer ~requester:p.pk_requester
        (Net.Message.Deny { goal = p.pk_goal; reason = "negotiation cycle" });
      true
  | None, (_, d, p) :: _ -> (
      match p.pk_request with
      | Some id ->
          settle_request t id (Negotiation.Denied "negotiation quiescent");
          unpark t d p;
          true
      | None -> false)
  | None, [] -> false

(* Tabling's quiescence hook: heal lagging views, then (if all in sync)
   start an SCC probe epoch.  Runs before [break_quiescence] so cyclic
   tabled goals complete rather than being force-denied. *)
let tabling_quiesce t =
  match t.tabling_st with
  | None -> false
  | Some tb -> (
      match Tabling.quiesce tb with
      | [] -> false
      | posts ->
          tabling_send t posts;
          true)

let run_inner ?(max_steps = 100_000) t =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps && not t.budget_hit do
    if step t then begin
      incr steps;
      Metric.incr m_steps
    end
    else if tabling_quiesce t then Metric.incr m_steps
    else if break_quiescence t then Metric.incr m_quiescence_breaks
    else continue := false
  done;
  if t.budget_hit then
    List.iter
      (fun (_, _, p) ->
        match p.pk_request with
        | Some id ->
            settle_request t id (Negotiation.Denied "message budget exhausted")
        | None -> ())
      (all_parked t);
  !steps

let run ?max_steps t =
  let steps =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      Otracer.with_span tracer "reactor.run" (fun () ->
          let steps = run_inner ?max_steps t in
          Otracer.set_attr tracer "steps" (Peertrust_obs.Json.Int steps);
          steps)
    else run_inner ?max_steps t
  in
  Metric.observe_int h_steps steps;
  Metric.set g_outstanding
    (float_of_int
       (Hashtbl.fold
          (fun _ r acc -> if r.resolved then acc else acc + 1)
          t.asks 0));
  Metric.set g_parked (float_of_int t.n_parked);
  steps

let result t id = Hashtbl.find_opt t.results id

let outcome t id =
  match result t id with
  | Some o -> o
  | None -> Negotiation.Denied "negotiation quiescent"

let parked_count t = t.n_parked
let pending_timers t =
  Hashtbl.fold
    (fun _ r n -> if Option.is_some r.timer then n + 1 else n)
    t.asks 0

let tabling_summary t =
  match t.tabling_st with None -> [] | Some tb -> Tabling.summary tb
let guard t = t.guard
let dedup_evictions t =
  Hashtbl.fold (fun _ ring acc -> acc + Net.Dedup.evictions ring) t.rings 0

(* Register an adversary — posts to it now reach it — and queue its
   opening burst against [targets] (default: every honest session
   peer). *)
let add_adversary ?targets t adv =
  let name = Net.Adversary.name adv in
  Hashtbl.replace t.adversaries name adv;
  let targets =
    match targets with
    | Some l -> l
    | None -> Session.peer_names t.session
  in
  List.iter
    (fun { Net.Adversary.act_target; act_payload } ->
      post t ~from:name ~target:act_target act_payload)
    (Net.Adversary.burst adv ~targets)

let negotiate ?config ?max_steps ?(adversaries = []) session ~requester
    ~target goal =
  Negotiation.measure session (fun () ->
      let tracer = Obs.tracer () in
      if Otracer.enabled tracer then begin
        Otracer.set_attr tracer "requester" (Ojson.Str requester);
        Otracer.set_attr tracer "target" (Ojson.Str target);
        Otracer.set_attr tracer "goal" (Ojson.Str (goal_key goal))
      end;
      let t = create ?config session in
      List.iter (add_adversary t) adversaries;
      let id = submit t ~requester ~target goal in
      ignore (run ?max_steps t);
      let o = outcome t id in
      (* a run cut at [max_steps] leaves the root unsettled *)
      settle_request t id o;
      o)
