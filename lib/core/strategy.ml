open Peertrust_dlp
module Net = Peertrust_net
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer

type t = Relevant | Eager | Push_relevant

let m_eager_rounds = Obs.counter "strategy.eager_rounds"

(* One disclosure round of the eager strategies, as a [round] span when
   tracing is on. *)
let in_round n f =
  Metric.incr m_eager_rounds;
  let tracer = Obs.tracer () in
  if Otracer.enabled tracer then
    Otracer.with_span tracer
      ~attrs:[ ("n", Peertrust_obs.Json.Int n) ]
      "round" f
  else f ()

let all = [ Relevant; Eager; Push_relevant ]

let to_string = function
  | Relevant -> "relevant"
  | Eager -> "eager"
  | Push_relevant -> "push-relevant"

let eager_rounds_limit = 64

(* Charge one message on the session network.  The eager loop acts on
   its messages in place, so the delivered envelopes are not needed. *)
let charge session ~from ~target payload =
  ignore
    (Net.Network.post session.Session.network ~from ~target payload
      : Net.Envelope.t list)

(* Push credentials to [target] in one Disclosure message; the target
   verifies and learns them. *)
let push session (from_peer : Peer.t) ~target certs =
  if certs <> [] then begin
    charge session ~from:from_peer.Peer.name ~target
      (Net.Message.Disclosure { certs; rules = [] });
    Engine.learn ~from_:from_peer.Peer.name session
      (Session.peer session target)
      certs
  end

(* The eager loop.  Each round the requester checks the goal at the
   target against the target's local knowledge only — the loop never
   counter-queries, so it needs no runtime — and on a denial every
   participant pushes each other participant the credentials newly
   releasable to it, until the goal is granted or a round pushes
   nothing. *)
let run_eager session ~participants ~requester ~target goal =
  if not (List.mem requester participants && List.mem target participants)
  then invalid_arg "Strategy.negotiate_multi: requester/target not listed";
  let peers = List.map (Session.peer session) participants in
  let r_peer = Session.peer session requester in
  let t_peer = Session.peer session target in
  let sent = Hashtbl.create 64 in
  let push_fresh (from_peer : Peer.t) to_name =
    let key (c : Peertrust_crypto.Cert.t) =
      (from_peer.Peer.name, to_name, c.Peertrust_crypto.Cert.serial)
    in
    let fresh =
      Engine.releasable_certs from_peer ~requester:to_name
      |> List.filter (fun c -> not (Hashtbl.mem sent (key c)))
    in
    List.iter (fun c -> Hashtbl.add sent (key c) ()) fresh;
    push session from_peer ~target:to_name fresh;
    fresh <> []
  in
  let push_round () =
    List.fold_left
      (fun progress (p : Peer.t) ->
        List.fold_left
          (fun progress other ->
            if String.equal other p.Peer.name then progress
            else push_fresh p other || progress)
          progress participants)
      false peers
  in
  let rec round n =
    if n > eager_rounds_limit then
      Negotiation.Denied "eager rounds limit exceeded"
    else
      let decision =
        in_round n (fun () ->
            charge session ~from:requester ~target (Net.Message.Query { goal });
            match Engine.answer session t_peer ~requester goal with
            | Ok (instances, certs) ->
                charge session ~from:target ~target:requester
                  (Net.Message.Answer { goal; instances; certs });
                Engine.learn ~from_:target session r_peer certs;
                `Done (Negotiation.Granted instances)
            | Error reason ->
                charge session ~from:target ~target:requester
                  (Net.Message.Deny { goal; reason });
                if push_round () then `Retry
                else `Done (Negotiation.Denied "no safe disclosure sequence"))
      in
      match decision with `Done o -> o | `Retry -> round (n + 1)
  in
  round 1

let negotiate_multi session ~participants ~requester ~target goal =
  let report =
    Negotiation.measure session (fun () ->
        (run_eager session ~participants ~requester ~target goal, None))
  in
  Negotiation.count report.Negotiation.outcome;
  report

let negotiate session ~strategy ~requester ~target goal =
  match strategy with
  | Relevant -> Reactor.negotiate session ~requester ~target goal
  | Eager ->
      negotiate_multi session ~participants:[ requester; target ] ~requester
        ~target goal
  | Push_relevant ->
      Negotiation.measure session (fun () ->
          let r_peer = Session.peer session requester in
          push session r_peer ~target
            (Engine.releasable_certs r_peer ~requester:target);
          let reactor = Reactor.create session in
          let id = Reactor.submit reactor ~requester ~target goal in
          ignore (Reactor.run reactor : int);
          (Reactor.outcome reactor id, Reactor.settled_at reactor id))

let negotiate_str session ~strategy ~requester ~target goal_src =
  negotiate session ~strategy ~requester ~target
    (Parser.parse_literal goal_src)
