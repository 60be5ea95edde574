module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer

exception Unreachable of string
exception Budget_exhausted

(* The registry mirror of {!Stats}: process-wide totals that survive
   across sessions and export with the rest of the metrics. *)
let m_messages = Obs.counter "net.messages"
let m_bytes = Obs.counter "net.bytes"
let m_kind_query = Obs.counter "net.messages.query"
let m_kind_answer = Obs.counter "net.messages.answer"
let m_kind_deny = Obs.counter "net.messages.deny"
let m_kind_disclosure = Obs.counter "net.messages.disclosure"
let m_kind_tabling = Obs.counter "net.messages.tabling"
let m_kind_other = Obs.counter "net.messages.other"
let h_message_bytes = Obs.histogram "net.message_bytes"

(* Fault-injection accounting. *)
let m_drops = Obs.counter "net.drops"
let m_duplicates = Obs.counter "net.duplicates"
let m_delayed = Obs.counter "net.delayed"

let kind_counter = function
  | Stats.Query -> m_kind_query
  | Stats.Answer -> m_kind_answer
  | Stats.Deny -> m_kind_deny
  | Stats.Disclosure -> m_kind_disclosure
  | Stats.Tabling -> m_kind_tabling
  | Stats.Other -> m_kind_other

type entry = {
  time : int;
  from : string;
  target : string;
  summary : string;
  bytes_ : int;
  certs_ : int;
}

type t = {
  clock : Clock.t;
  stats : Stats.t;
  latency : int;
  link_latency : (string * string, int) Hashtbl.t;  (* directed overrides *)
  max_messages : int option;
  mutable observers :
    (from:string -> target:string -> Message.payload -> unit) list;
  down : (string, unit) Hashtbl.t;
  log : entry Queue.t;  (* chronological; bounded ring *)
  log_cap : int;
  mutable log_dropped : int;
  mutable faults : Faults.t;
  mutable next_id : int;  (* envelope ids *)
  seq : (string * string, int ref) Hashtbl.t;  (* per-link sequence *)
}

let default_log_cap = 10_000

let create ?(latency = 1) ?max_messages ?(log_cap = default_log_cap) () =
  if log_cap < 1 then invalid_arg "Network.create: log_cap must be >= 1";
  {
    clock = Clock.create ();
    stats = Stats.create ();
    latency;
    link_latency = Hashtbl.create 8;
    max_messages;
    observers = [];
    down = Hashtbl.create 4;
    log = Queue.create ();
    log_cap;
    log_dropped = 0;
    faults = Faults.none ();
    next_id = 0;
    seq = Hashtbl.create 16;
  }

let clock t = t.clock
let stats t = t.stats
let observe t f = t.observers <- t.observers @ [ f ]
let set_down t name down =
  if down then Hashtbl.replace t.down name ()
  else Hashtbl.remove t.down name

let is_down t name = Hashtbl.mem t.down name
let set_faults t plan = t.faults <- plan
let faults t = t.faults

let set_link_latency t ~from ~target ticks =
  if ticks < 0 then invalid_arg "Network.set_link_latency: negative";
  Hashtbl.replace t.link_latency (from, target) ticks

let link_latency t ~from ~target =
  Option.value ~default:t.latency (Hashtbl.find_opt t.link_latency (from, target))

let log_entry t entry =
  Queue.add entry t.log;
  if Queue.length t.log > t.log_cap then begin
    ignore (Queue.pop t.log);
    t.log_dropped <- t.log_dropped + 1
  end

let dropped_log_entries t = t.log_dropped
let logged t = Queue.length t.log + t.log_dropped

let deliver ?(note = "") t ~from ~target payload =
  (match t.max_messages with
  | Some budget when Stats.messages t.stats >= budget -> raise Budget_exhausted
  | Some _ | None -> ());
  let bytes_ = Message.size payload in
  let kind = Message.kind payload in
  Clock.advance t.clock (link_latency t ~from ~target);
  Stats.record t.stats kind ~bytes_ ~from ~target;
  Metric.incr m_messages;
  Metric.add m_bytes bytes_;
  Metric.incr (kind_counter kind);
  Metric.observe_int h_message_bytes bytes_;
  let summary = Message.summary payload ^ note in
  let tracer = Obs.tracer () in
  if Otracer.enabled tracer then
    Otracer.event tracer (Printf.sprintf "%s -> %s: %s" from target summary);
  log_entry t
    {
      time = Clock.now t.clock;
      from;
      target;
      summary;
      bytes_;
      certs_ = Message.cert_count payload;
    }

let next_seq t ~from ~target =
  match Hashtbl.find_opt t.seq (from, target) with
  | Some r ->
      let s = !r in
      incr r;
      s
  | None ->
      Hashtbl.add t.seq (from, target) (ref 1);
      0

let lost_event ~from ~target ~why payload =
  Metric.incr m_drops;
  let tracer = Obs.tracer () in
  if Otracer.enabled tracer then
    Otracer.event tracer
      (Printf.sprintf "%s -> %s: %s lost in transit (%s)" from target
         (Message.summary payload) why)

let post t ~from ~target ?(attempt = 0) ?(incarnation = 0) ?trace payload =
  if is_down t target then raise (Unreachable target);
  let decision = Faults.decide t.faults ~from ~target in
  let now = Clock.now t.clock in
  let outage = Faults.in_outage t.faults target ~now in
  let crashed = Faults.in_crash t.faults target ~now in
  let id = t.next_id in
  t.next_id <- id + 1;
  let seq = next_seq t ~from ~target in
  let envelopes =
    match decision.Faults.dec_delays with
    | [] ->
        (* Sampled as lost: the send is still charged and logged. *)
        deliver ~note:" [lost]" t ~from ~target payload;
        lost_event ~from ~target ~why:"fault" payload;
        []
    | delays when crashed ->
        (* The target is down between crash and restart: every copy is
           lost in transit, exactly like an outage window. *)
        List.iter
          (fun _ -> deliver ~note:" [lost: crashed]" t ~from ~target payload)
          delays;
        lost_event ~from ~target ~why:"crash" payload;
        []
    | delays when outage ->
        (* Transient outage window: every copy is lost in transit. *)
        List.iter
          (fun _ -> deliver ~note:" [lost: outage]" t ~from ~target payload)
          delays;
        lost_event ~from ~target ~why:"outage" payload;
        []
    | delays ->
        List.mapi
          (fun i extra ->
            let sent_at = Clock.now t.clock in
            deliver
              ~note:(if i > 0 then " [dup]" else "")
              t ~from ~target payload;
            if i > 0 then Metric.incr m_duplicates;
            if extra > 0 then Metric.incr m_delayed;
            {
              Envelope.id;
              seq;
              from_ = from;
              target;
              sent_at;
              deliver_at = Clock.now t.clock + extra;
              attempt;
              incarnation;
              trace;
              payload;
            })
          delays
  in
  List.iter (fun f -> f ~from ~target payload) t.observers;
  envelopes

let transcript t = List.of_seq (Queue.to_seq t.log)

let clear_transcript t =
  Queue.clear t.log;
  t.log_dropped <- 0

let pp_transcript fmt t =
  Queue.iter
    (fun e ->
      Format.fprintf fmt "[%4d] %s -> %s: %s (%d bytes)@\n" e.time e.from
        e.target e.summary e.bytes_)
    t.log
