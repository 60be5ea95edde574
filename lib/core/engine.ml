open Peertrust_dlp
module Crypto = Peertrust_crypto
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer
module Ojson = Peertrust_obs.Json

type instance = Literal.t * Trace.t option

let src = Logs.Src.create "peertrust.engine" ~doc:"PeerTrust negotiation engine"

module Log = (val Logs.src_log src : Logs.LOG)

let m_answers = Obs.counter "engine.answers"
let m_denials = Obs.counter "engine.denials"
let m_certs_learned = Obs.counter "engine.certs_learned"
let m_certs_rejected = Obs.counter "engine.certs_rejected"
let h_proof_depth = Obs.histogram "engine.proof_depth"

let learn ?from_ session peer certs =
  let ok (cert : Crypto.Cert.t) =
    (not session.Session.config.Session.verify_signatures)
    || Crypto.Cert.verify session.Session.keystore
         ~now:session.Session.config.Session.now cert
       = Ok ()
  in
  List.iter
    (fun (c : Crypto.Cert.t) ->
      if ok c then begin
        Metric.incr m_certs_learned;
        Peer.add_cert ?origin:from_ peer c
      end
      else begin
        Metric.incr m_certs_rejected;
        Log.warn (fun m ->
            m "%s rejects certificate #%d (verification failed)"
              peer.Peer.name c.Crypto.Cert.serial)
      end)
    certs

(* Local evaluation over the peer's own knowledge; [remote] (default:
   none) is consulted for goals whose outermost authority is another
   peer. *)
let evaluate ?remote ?solutions ?requester peer goals =
  let bindings =
    match requester with
    | Some r -> [ ("Requester", Term.str r) ]
    | None -> []
  in
  let options =
    match solutions with
    | None -> peer.Peer.options
    | Some n -> { peer.Peer.options with Sld.max_solutions = n }
  in
  Sld.solve ~options ~externals:peer.Peer.externals ?remote ~bindings
    ~self:peer.Peer.name peer.Peer.kb goals

let prover ?remote peer : Policy.prover =
 fun ~requester goals ->
  (* One witness suffices to grant a release. *)
  match evaluate ?remote ~solutions:1 ~requester peer goals with
  | [] -> None
  | a :: _ -> Some a

(* Rename the residual solver-generated variables (raw fresh ids, or a
   solve's [Email~2] display names) in an answer instance to neutral
   names, so reports and clients see [_G1] instead of internal ids. *)
let tidy_instance (l : Literal.t) =
  let mapping = Hashtbl.create 4 in
  let counter = ref 0 in
  let internal v =
    Term.is_fresh v || String.contains (Term.var_name v) '~'
  in
  let rec tidy = function
    | Term.Var v when internal v -> (
        match Hashtbl.find_opt mapping v with
        | Some fresh -> fresh
        | None ->
            incr counter;
            let fresh = Term.var ("_G" ^ string_of_int !counter) in
            Hashtbl.add mapping v fresh;
            fresh)
    | (Term.Var _ | Term.Str _ | Term.Int _ | Term.Atom _) as t -> t
    | Term.Compound (f, args) -> Term.Compound (f, List.map tidy args)
  in
  {
    l with
    Literal.args = List.map tidy l.Literal.args;
    Literal.auth = List.map tidy l.Literal.auth;
  }

(* Split a context into the cheap built-in guards (evaluated before the
   body, so they can bind variables like [Requester = Party]) and the
   proper literals (counter-query material, evaluated after the body). *)
let split_ctx ctx =
  List.partition (fun l -> Builtin.is_builtin (Literal.key l)) ctx

let dedup_certs certs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (c : Crypto.Cert.t) ->
      if Hashtbl.mem seen c.Crypto.Cert.serial then false
      else begin
        Hashtbl.add seen c.Crypto.Cert.serial ();
        true
      end)
    certs

(* Certificates backing the signed rules used in the given proofs, plus
   [extra] rules (the top-level rule when it is itself signed), filtered by
   their release policies towards [requester].  A certificate the requester
   itself sent is never echoed back to it. *)
let releasable_proof_certs ?remote peer ~requester proofs extra =
  let used = Trace.credentials_of_list proofs @ extra in
  let prover = prover ?remote peer in
  let self = peer.Peer.name in
  used
  |> List.filter_map (fun rule ->
         match Peer.cert_for peer rule with
         | None -> None
         | Some cert when Peer.cert_origin peer cert = Some requester -> None
         | Some cert -> (
             match
               Policy.credential_releasable ~prover ~kb:peer.Peer.kb ~requester
                 ~self rule
             with
             | Policy.Granted -> Some cert
             | Policy.Denied _ -> None))
  |> dedup_certs

let answer_body ?remote session peer ~requester goal =
  let self = peer.Peer.name in
  let config = session.Session.config in
  let bindings =
    Subst.bind "Requester" (Term.str requester)
      (Subst.bind "Self" (Term.str self) Subst.empty)
  in
  let results = ref [] (* (instance, proofs) *) in
  let certs = ref [] in
  let saw_release_rule = ref false in
  let consider rule =
    match rule.Rule.head_ctx with
    | None -> ()
    | Some _ ->
        saw_release_rule := true;
        let r = Rule.rename_apart rule in
        let ctx = Option.value ~default:[] r.Rule.head_ctx in
        let ctx_builtin, ctx_rest = split_ctx ctx in
        let heads =
          r.Rule.head
          ::
          (if Rule.is_signed r then
             List.map
               (fun a -> Literal.push_authority r.Rule.head (Term.str a))
               r.Rule.signer
           else [])
        in
        let try_head head =
          if List.length !results >= config.Session.max_answers then ()
          else
            match Literal.unify goal head bindings with
            | None -> ()
            | Some s0 ->
                let pre_goals =
                  List.map (Literal.apply s0) (ctx_builtin @ r.Rule.body)
                in
                let body_answers =
                  evaluate ?remote ~solutions:config.Session.max_answers
                    ~requester peer pre_goals
                in
                let n_builtin = List.length ctx_builtin in
                let use_answer (a : Sld.answer) =
                  if List.length !results >= config.Session.max_answers
                  then ()
                  else begin
                    let s1 = a.Sld.subst in
                    let body_proofs =
                      List.filteri (fun i _ -> i >= n_builtin) a.Sld.proofs
                    in
                    let remaining =
                      List.map
                        (fun l -> Literal.apply s1 (Literal.apply s0 l))
                        ctx_rest
                    in
                    let ctx_ok =
                      match remaining with
                      | [] -> Some Subst.empty
                      | goals -> (
                          match
                            evaluate ?remote ~solutions:1 ~requester peer goals
                          with
                          | [] -> None
                          | a2 :: _ -> Some a2.Sld.subst)
                    in
                    match ctx_ok with
                    | None -> ()
                    | Some s2 ->
                        let instance =
                          tidy_instance
                            (Literal.apply s2
                               (Literal.apply s1 (Literal.apply s0 goal)))
                        in
                        let extra = if Rule.is_signed r then [ rule ] else [] in
                        let answer_certs =
                          releasable_proof_certs ?remote peer ~requester
                            body_proofs extra
                        in
                        certs := !certs @ answer_certs;
                        let proof =
                          if config.Session.attach_proofs then
                            Some
                              (Trace.Apply
                                 ( Rule.apply s2 (Rule.apply s1 (Rule.apply s0 r)),
                                   body_proofs ))
                          else None
                        in
                        List.iter
                          (fun p ->
                            Metric.observe_int h_proof_depth
                              (Trace.depth p))
                          body_proofs;
                        results := (instance, proof) :: !results
                  end
                in
                List.iter use_answer body_answers
        in
        List.iter try_head heads
  in
  (* Second source of answers: a signed rule (credential) whose head —
     directly or through the signed-rule axiom [h @ signer] — matches
     the goal may be disclosed when its own release policy grants it,
     even without a covering [$]-context rule matching the decorated
     goal.  This is how a query for [visaCard(C) @ "VISA"] is answered
     from a VISA-signed card gated by an undecorated release rule. *)
  let consider_credential rule =
    (* Only credentials whose body is pure built-in guards qualify:
       disclosing an instance of such a rule reveals nothing beyond
       the (releasable) rule text.  A signed rule with proper body
       literals derives new statements, whose disclosure is governed
       by covering release rules, i.e. the first source. *)
    let builtin_only_body =
      List.for_all
        (fun l -> Builtin.is_builtin (Literal.key l))
        rule.Rule.body
    in
    if
      Rule.is_signed rule && builtin_only_body
      && List.length !results < config.Session.max_answers
    then begin
      let r = Rule.rename_apart rule in
      let heads =
        r.Rule.head
        :: List.map
             (fun a -> Literal.push_authority r.Rule.head (Term.str a))
             r.Rule.signer
      in
      let try_head head =
        if List.length !results >= config.Session.max_answers then ()
        else
          match Literal.unify goal head bindings with
          | None -> ()
          | Some s0 -> (
              saw_release_rule := true;
              let prover = prover ?remote peer in
              match
                Policy.credential_releasable ~prover ~kb:peer.Peer.kb
                  ~requester ~self rule
              with
              | Policy.Denied _ -> ()
              | Policy.Granted -> (
                  let body_goals =
                    List.map (Literal.apply s0) r.Rule.body
                  in
                  match
                    evaluate ?remote ~solutions:1 ~requester peer
                      body_goals
                  with
                  | [] -> ()
                  | a :: _ ->
                      let s1 = a.Sld.subst in
                      let instance =
                        tidy_instance
                          (Literal.apply s1 (Literal.apply s0 goal))
                      in
                      let answer_certs =
                        releasable_proof_certs ?remote peer ~requester
                          a.Sld.proofs [ rule ]
                      in
                      certs := !certs @ answer_certs;
                      let proof =
                        if config.Session.attach_proofs then
                          Some
                            (Trace.Apply
                               ( Rule.apply s1 (Rule.apply s0 r),
                                 a.Sld.proofs ))
                        else None
                      in
                      results := (instance, proof) :: !results))
      in
      List.iter try_head heads
    end
  in
  let candidates = Kb.matching goal peer.Peer.kb in
  List.iter consider candidates;
  List.iter consider_credential candidates;
  (* Deduplicate instances (a signed [$ true] fact is found by both
     sources). *)
  let dedup_instances instances =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (l, _) ->
        let key = Literal.to_string l in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      instances
  in
  match dedup_instances (List.rev !results) with
  | [] ->
      Error
        (if !saw_release_rule then "release policy not satisfied"
         else "no release policy covers goal")
  | instances -> Ok (instances, dedup_certs !certs)

let answer ?remote session peer ~requester goal =
  let run () = answer_body ?remote session peer ~requester goal in
  let result =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      Otracer.with_span tracer
        ~attrs:
          [
            ("peer", Ojson.Str peer.Peer.name);
            ("requester", Ojson.Str requester);
            ("goal", Ojson.Str (Literal.to_string goal));
          ]
        "answer"
        (fun () ->
          let r = run () in
          Otracer.set_attr tracer "outcome"
            (Ojson.Str
               (match r with
               | Ok _ -> "granted"
               | Error reason -> "denied: " ^ reason));
          r)
    else run ()
  in
  (match result with
  | Ok _ -> Metric.incr m_answers
  | Error _ -> Metric.incr m_denials);
  result

let releasable_certs peer ~requester =
  let prover = prover peer in
  let self = peer.Peer.name in
  Hashtbl.fold (fun _ c acc -> c :: acc) peer.Peer.certs []
  |> List.filter (fun (c : Crypto.Cert.t) ->
         match
           Policy.credential_releasable ~prover ~kb:peer.Peer.kb ~requester
             ~self c.Crypto.Cert.rule
         with
         | Policy.Granted -> true
         | Policy.Denied _ -> false)
  |> dedup_certs
