open Peertrust_dlp
module Net = Peertrust_net
module Crypto = Peertrust_crypto
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer

type config = {
  enabled : bool;
  max_bytes : int;
  max_goal_depth : int;
  rate : int;
  rate_window : int;
  quota : int;
  quarantine_after : int;
  violation_window : int;
  quarantine_ticks : int;
}

let defaults =
  {
    enabled = true;
    max_bytes = 8192;
    max_goal_depth = 16;
    rate = 8;
    rate_window = 8;
    quota = 50_000;
    quarantine_after = 4;
    violation_window = 64;
    quarantine_ticks = 128;
  }

let permissive = { defaults with enabled = false }

type violation =
  | Malformed of string
  | Oversized of int
  | Unsolicited of string
  | Bad_cert of string
  | Flooding
  | Quota_exhausted
  | Bomb of int
  | Quarantined

let violation_to_string = function
  | Malformed m -> "malformed: " ^ m
  | Oversized n -> Printf.sprintf "oversized: %d bytes" n
  | Unsolicited g -> "unsolicited: " ^ g
  | Bad_cert m -> "bad certificate: " ^ m
  | Flooding -> "flooding"
  | Quota_exhausted -> "quota exhausted"
  | Bomb d -> Printf.sprintf "delegation bomb: depth %d" d
  | Quarantined -> "quarantined"

(* The stable vocabulary {!Negotiation.classify_denial} matches on; the
   guarded peer owes a rejected query a reply from this list so the
   requester's negotiation terminates with a structured outcome. *)
let denial_reason = function
  | Quarantined -> "quarantined"
  | Flooding -> "rate-limited"
  | Quota_exhausted -> "quota"
  | Malformed _ -> "malformed"
  | Oversized _ -> "oversized"
  | Bad_cert _ -> "bad certificate"
  | Unsolicited _ -> "unsolicited"
  | Bomb _ -> "delegation bomb"

type verdict = Admit | Stale of string | Reject of violation

type breaker = Closed | Open of { until : int } | Half_open

(* Per directed (guarded peer, requester) pair. *)
type state = {
  mutable queries : int list;  (* recent query ticks, newest first *)
  mutable violations : int list;  (* recent violation ticks, newest first *)
  mutable work : int;  (* resolution steps spent on this requester *)
  mutable breaker : breaker;
}

type t = {
  config : config;
  verify : Crypto.Cert.t -> bool;
  states : (string * string, state) Hashtbl.t;  (* (target, from) *)
}

let m_admitted = Obs.counter "guard.admitted"
let m_rejected = Obs.counter "guard.rejected"
let m_stale = Obs.counter "guard.stale"
let m_quarantines = Obs.counter "guard.quarantines"
let m_recoveries = Obs.counter "guard.recoveries"
let m_malformed = Obs.counter "guard.malformed"
let m_oversized = Obs.counter "guard.oversized"
let m_unsolicited = Obs.counter "guard.unsolicited"
let m_bad_cert = Obs.counter "guard.bad_cert"
let m_rate_limited = Obs.counter "guard.rate_limited"
let m_quota = Obs.counter "guard.quota"
let m_bomb = Obs.counter "guard.bomb"

let violation_counter = function
  | Malformed _ -> m_malformed
  | Oversized _ -> m_oversized
  | Unsolicited _ -> m_unsolicited
  | Bad_cert _ -> m_bad_cert
  | Flooding -> m_rate_limited
  | Quota_exhausted -> m_quota
  | Bomb _ -> m_bomb
  | Quarantined -> m_quarantines

let create ?(config = permissive) ~verify () =
  if config.enabled then begin
    if config.rate < 1 then invalid_arg "Guard.create: rate must be >= 1";
    if config.rate_window < 1 then
      invalid_arg "Guard.create: rate_window must be >= 1";
    if config.quarantine_after < 1 then
      invalid_arg "Guard.create: quarantine_after must be >= 1"
  end;
  { config; verify; states = Hashtbl.create 16 }

let config t = t.config

let state t ~from ~target =
  let key = (target, from) in
  match Hashtbl.find_opt t.states key with
  | Some s -> s
  | None ->
      let s = { queries = []; violations = []; work = 0; breaker = Closed } in
      Hashtbl.add t.states key s;
      s

(* Sliding windows keep only ticks young enough to still matter. *)
let prune ~now ~window ticks = List.filter (fun tk -> now - tk < window) ticks

let rec term_depth = function
  | Term.Var _ | Term.Str _ | Term.Int _ | Term.Atom _ -> 1
  | Term.Compound (_, args) ->
      1 + List.fold_left (fun acc a -> max acc (term_depth a)) 0 args

let goal_depth (goal : Literal.t) =
  let terms = max (List.length goal.Literal.auth)
      (List.fold_left (fun acc a -> max acc (term_depth a)) 0 goal.Literal.args)
  in
  terms

let bad_cert t certs =
  List.find_map
    (fun (c : Crypto.Cert.t) ->
      if t.verify c then None
      else Some (Printf.sprintf "certificate #%d" c.Crypto.Cert.serial))
    certs

(* Structural + solicitation checks for one payload (no breaker, no
   violation recording — [admit] wraps this). *)
let check t st ~now ~solicited payload =
  let cfg = t.config in
  let size = Net.Message.size payload in
  if size > cfg.max_bytes then Reject (Oversized size)
  else
    match payload with
    | Net.Message.Raw s -> (
        (* Honest peers never put raw bytes on the wire; the only
           charitable reading is a certificate blob, so attempt a decode
           and blame the garbage precisely. *)
        match Crypto.Wire.decode_many s with
        | Error (Crypto.Wire.Malformed m) -> Reject (Malformed m)
        | Ok _ -> Reject (Malformed "raw certificate blob outside a disclosure"))
    | Net.Message.Query { goal } ->
        let depth = goal_depth goal in
        if depth > cfg.max_goal_depth then Reject (Bomb depth)
        else begin
          st.queries <- now :: prune ~now ~window:cfg.rate_window st.queries;
          if List.length st.queries > cfg.rate then Reject Flooding
          else if st.work >= cfg.quota then Reject Quota_exhausted
          else Admit
        end
    | Net.Message.Answer { goal; certs; _ } -> (
        match solicited goal with
        | `Unknown -> Reject (Unsolicited (Literal.to_string goal))
        | `Resolved -> Stale (Literal.to_string goal)
        | `Outstanding -> (
            match bad_cert t certs with
            | Some which -> Reject (Bad_cert which)
            | None -> Admit))
    | Net.Message.Deny { goal; _ } -> (
        match solicited goal with
        | `Unknown -> Reject (Unsolicited (Literal.to_string goal))
        | `Resolved -> Stale (Literal.to_string goal)
        | `Outstanding -> Admit)
    | Net.Message.Disclosure { certs; _ } -> (
        match bad_cert t certs with
        | Some which -> Reject (Bad_cert which)
        | None -> Admit)
    | Net.Message.Tquery { goal; path } ->
        (* Tabling control plane: structural checks only.  Solicitation
           tracking does not apply — a completed table legitimately
           pushes several answers for one query — and the rate/quota
           budget is charged like a query. *)
        let depth = goal_depth goal in
        if depth > cfg.max_goal_depth then Reject (Bomb depth)
        else if List.length path > 64 then
          Reject (Malformed "tabling path too long")
        else begin
          st.queries <- now :: prune ~now ~window:cfg.rate_window st.queries;
          if List.length st.queries > cfg.rate then Reject Flooding
          else if st.work >= cfg.quota then Reject Quota_exhausted
          else Admit
        end
    | Net.Message.Tanswer _ | Net.Message.Tprobe _ | Net.Message.Tstat _
    | Net.Message.Tcomplete _ ->
        Admit
    | Net.Message.Cancel _ ->
        (* Withdrawing one's own outstanding query is harmless: the
           receiver only drops work parked for the sender itself. *)
        Admit

let record_violation t st ~now ~from ~target v =
  Metric.incr m_rejected;
  Metric.incr (violation_counter v);
  Otracer.event (Obs.tracer ())
    (Printf.sprintf "guard.reject %s -> %s: %s" from target
       (violation_to_string v));
  match st.breaker with
  | Open _ -> ()  (* already quarantined; nothing further to trip *)
  | Half_open ->
      (* A violation during probation re-opens immediately. *)
      Metric.incr m_quarantines;
      st.violations <- [];
      st.breaker <- Open { until = now + t.config.quarantine_ticks }
  | Closed ->
      st.violations <-
        now :: prune ~now ~window:t.config.violation_window st.violations;
      if List.length st.violations >= t.config.quarantine_after then begin
        Metric.incr m_quarantines;
        Otracer.event (Obs.tracer ())
          (Printf.sprintf "guard.quarantine %s at %s until %d" from target
             (now + t.config.quarantine_ticks));
        st.violations <- [];
        st.breaker <- Open { until = now + t.config.quarantine_ticks }
      end

let admit t ~now ~from ~target ?(solicited = fun _ -> `Unknown) payload =
  if not t.config.enabled then Admit
  else begin
    let st = state t ~from ~target in
    (* Expire a served quarantine into probation. *)
    (match st.breaker with
    | Open { until } when now >= until -> st.breaker <- Half_open
    | Open _ | Closed | Half_open -> ());
    match st.breaker with
    | Open _ ->
        Metric.incr m_rejected;
        Reject Quarantined
    | Closed | Half_open -> (
        match check t st ~now ~solicited payload with
        | Admit ->
            Metric.incr m_admitted;
            if st.breaker = Half_open then begin
              Metric.incr m_recoveries;
              Otracer.event (Obs.tracer ())
                (Printf.sprintf "guard.recover %s at %s" from target);
              st.breaker <- Closed;
              st.violations <- []
            end;
            Admit
        | Stale why ->
            Metric.incr m_stale;
            Stale why
        | Reject v ->
            record_violation t st ~now ~from ~target v;
            Reject v)
  end

let charge_work t ~from ~target n =
  if t.config.enabled && n > 0 then begin
    let st = state t ~from ~target in
    st.work <- st.work + n
  end

let remaining_work t ~from ~target =
  if not t.config.enabled then max_int
  else
    let st = state t ~from ~target in
    max 0 (t.config.quota - st.work)

let breaker_state t ~from ~target =
  if not t.config.enabled then Closed
  else
    match Hashtbl.find_opt t.states (target, from) with
    | None -> Closed
    | Some st -> st.breaker

let reset_peer t name =
  (* A crash-stop failure loses [name]'s volatile guard state: every
     rate window, work quota and breaker it kept about its requesters.
     State other peers keep about [name] survives — they did not crash. *)
  let stale =
    Hashtbl.fold
      (fun ((target, _) as key) _ acc ->
        if String.equal target name then key :: acc else acc)
      t.states []
  in
  List.iter (Hashtbl.remove t.states) stale

let quarantined t =
  Hashtbl.fold
    (fun key st acc ->
      match st.breaker with Open _ -> key :: acc | Closed | Half_open -> acc)
    t.states []
  |> List.sort compare
