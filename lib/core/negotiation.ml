open Peertrust_dlp
module Net = Peertrust_net
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer
module Ojson = Peertrust_obs.Json

type outcome = Granted of Engine.instance list | Denied of string

type denial_class =
  | Policy
  | Timeout
  | Unreachable
  | Budget
  | Cycle
  | Quiescent
  | Quarantined
  | Rate_limited
  | Quota
  | Unsupported
  | Crashed

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* The resilience machinery uses a small stable vocabulary of reasons;
   anything else is an ordinary policy denial. *)
let classify_denial reason =
  if has_prefix ~prefix:"timeout" reason then Timeout
  else if
    has_prefix ~prefix:"unreachable" reason
    || has_prefix ~prefix:"peer unreachable" reason
  then Unreachable
  else if String.equal reason "message budget exhausted" then Budget
  else if String.equal reason "negotiation cycle" then Cycle
  else if String.equal reason "negotiation quiescent" then Quiescent
  else if has_prefix ~prefix:"quarantined" reason then Quarantined
  else if has_prefix ~prefix:"rate-limited" reason then Rate_limited
  else if has_prefix ~prefix:"quota" reason then Quota
  else if has_prefix ~prefix:"unsupported" reason then Unsupported
  else if
    has_prefix ~prefix:"crashed" reason
    || has_prefix ~prefix:"peer crashed" reason
  then Crashed
  else Policy

let denial_class_to_string = function
  | Policy -> "policy"
  | Timeout -> "timeout"
  | Unreachable -> "unreachable"
  | Budget -> "budget"
  | Cycle -> "cycle"
  | Quiescent -> "quiescent"
  | Quarantined -> "quarantined"
  | Rate_limited -> "rate-limited"
  | Quota -> "quota"
  | Unsupported -> "unsupported"
  | Crashed -> "crashed"

(* Denials produced by transport failures rather than policy decisions. *)
let transport_denial reason =
  match classify_denial reason with
  | Timeout | Unreachable | Budget -> true
  | Policy | Cycle | Quiescent | Quarantined | Rate_limited | Quota
  | Unsupported | Crashed ->
      (* A crash denial is a fate of the counterparty, not of the
         links: retransmitting harder cannot help, so it is not a
         transport denial. *)
      false

type report = {
  outcome : outcome;
  messages : int;
  bytes : int;
  disclosures : int;
  elapsed : int;
  transcript : Net.Network.entry list;
}

let succeeded r = match r.outcome with Granted _ -> true | Denied _ -> false

let m_negotiations = Obs.counter "negotiation.count"
let m_granted = Obs.counter "negotiation.granted"
let m_denied = Obs.counter "negotiation.denied"
let h_messages = Obs.histogram "negotiation.messages"
let h_bytes = Obs.histogram "negotiation.bytes"
let h_disclosures = Obs.histogram "negotiation.disclosures"
let h_ticks = Obs.histogram "negotiation.ticks"

let count outcome =
  Metric.incr m_negotiations;
  Metric.incr
    (match outcome with Granted _ -> m_granted | Denied _ -> m_denied)

let measure_inner session run =
  let net = session.Session.network in
  let stats = Net.Network.stats net in
  let clock = Net.Network.clock net in
  let msgs0 = Net.Stats.messages stats in
  let bytes0 = Net.Stats.bytes stats in
  let t0 = Net.Clock.now clock in
  let log0 = Net.Network.logged net in
  let outcome, settled_at =
    try run () with
    | Net.Network.Budget_exhausted -> (Denied "message budget exhausted", None)
    | Net.Network.Unreachable peer ->
        (Denied ("peer unreachable: " ^ peer), None)
  in
  (* The newest entries of the ring; its length stops growing at the
     cap, so count what was logged. *)
  let transcript =
    let all = Net.Network.transcript net in
    let skip = List.length all - (Net.Network.logged net - log0) in
    List.filteri (fun i _ -> i >= skip) all
  in
  {
    outcome;
    messages = Net.Stats.messages stats - msgs0;
    bytes = Net.Stats.bytes stats - bytes0;
    disclosures =
      List.fold_left (fun acc e -> acc + e.Net.Network.certs_) 0 transcript;
    elapsed =
      Option.value ~default:(Net.Clock.now clock) settled_at - t0;
    transcript;
  }

let measure session run =
  let report =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      (* Each negotiation roots its own causal trace; the minted context
         propagates on every message the engines send on its behalf. *)
      let ctx = Otracer.mint tracer in
      Otracer.with_span tracer ?ctx "negotiation" (fun () ->
          let r = measure_inner session run in
          Otracer.set_attr tracer "outcome"
            (Ojson.Str (if succeeded r then "granted" else "denied"));
          (match r.outcome with
          | Denied reason ->
              Otracer.set_attr tracer "denial.class"
                (Ojson.Str (denial_class_to_string (classify_denial reason)))
          | Granted _ -> ());
          Otracer.set_attr tracer "messages" (Ojson.Int r.messages);
          Otracer.set_attr tracer "disclosures" (Ojson.Int r.disclosures);
          r)
    else measure_inner session run
  in
  Metric.observe_int h_messages report.messages;
  Metric.observe_int h_bytes report.bytes;
  Metric.observe_int h_disclosures report.disclosures;
  Metric.observe_int h_ticks report.elapsed;
  report

let pp_outcome fmt = function
  | Granted instances ->
      Format.fprintf fmt "granted: %a"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
           (fun fmt (l, _) -> Literal.pp fmt l))
        instances
  | Denied reason -> Format.fprintf fmt "denied (%s)" reason

let pp_report fmt r =
  Format.fprintf fmt
    "%a@\n%d message(s), %d byte(s), %d disclosure(s), %d tick(s)" pp_outcome
    r.outcome r.messages r.bytes r.disclosures r.elapsed
