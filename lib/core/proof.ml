open Peertrust_dlp
module Crypto = Peertrust_crypto

type t = {
  prover : string;
  goal : Literal.t;
  trace : Trace.t;
  certs : Crypto.Cert.t list;
  signature : Crypto.Bignum.t;
}

type error =
  | Bad_package_signature
  | Missing_certificate of Rule.t
  | Certificate_invalid of Crypto.Cert.error
  | Unsound_step of string
  | Goal_mismatch

let conclusion = function
  | Trace.Apply (r, _) -> Some r.Rule.head
  | Trace.Builtin l | Trace.External l -> Some l
  | Trace.Remote { goal; _ } -> Some goal

(* Canonical byte string covered by the package signature. *)
let payload ~prover ~goal ~trace ~certs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf prover;
  Buffer.add_char buf '|';
  Buffer.add_string buf (Rule.canonical (Rule.fact goal));
  Buffer.add_char buf '|';
  let rec add_trace = function
    | Trace.Apply (r, children) ->
        Buffer.add_string buf "A(";
        Buffer.add_string buf (Rule.canonical r);
        List.iter add_trace children;
        Buffer.add_char buf ')'
    | Trace.Builtin l ->
        Buffer.add_string buf "B(";
        Buffer.add_string buf (Rule.canonical (Rule.fact l));
        Buffer.add_char buf ')'
    | Trace.External l ->
        Buffer.add_string buf "E(";
        Buffer.add_string buf (Rule.canonical (Rule.fact l));
        Buffer.add_char buf ')'
    | Trace.Remote { peer; goal; proof } -> (
        Buffer.add_string buf "R(";
        Buffer.add_string buf peer;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Rule.canonical (Rule.fact goal));
        (match proof with Some p -> add_trace p | None -> ());
        Buffer.add_char buf ')')
  in
  add_trace trace;
  Buffer.add_char buf '|';
  List.iter
    (fun (c : Crypto.Cert.t) ->
      Buffer.add_string buf (string_of_int c.Crypto.Cert.serial);
      Buffer.add_char buf ',')
    certs;
  Buffer.contents buf

let create session ~prover ~goal trace =
  let peer = Session.peer session prover in
  let certs =
    List.filter_map (Peer.cert_for peer) (Trace.credentials trace)
  in
  let msg = payload ~prover ~goal ~trace ~certs in
  let kp = Crypto.Keystore.keypair session.Session.keystore prover in
  { prover; goal; trace; certs; signature = Crypto.Rsa.sign kp msg }

(* A literal [b] is established by conclusion [c] when they unify, possibly
   after extending [c] with a signer authority (the signed-rule axiom) or
   stripping prover-local authority layers. *)
let establishes ~signers b c =
  let unifies x y = Option.is_some (Literal.unify x y Subst.empty) in
  unifies b c
  || List.exists
       (fun s -> unifies b (Literal.push_authority c (Term.str s)))
       signers

let rec check_trace = function
  | Trace.Builtin l -> (
      match Builtin.eval l Subst.empty with
      | Some (_ :: _) -> Ok ()
      | Some [] | None ->
          Error (Unsound_step (Literal.to_string l ^ " does not hold")))
  | Trace.External _ -> Ok ()  (* external calls are trusted at the caller *)
  | Trace.Remote _ -> Ok ()  (* remote instances are certified separately *)
  | Trace.Apply (r, children) ->
      if List.length children <> List.length r.Rule.body then
        Error
          (Unsound_step
             (Printf.sprintf "rule %s: %d sub-proofs for %d body literals"
                (Rule.to_string r) (List.length children)
                (List.length r.Rule.body)))
      else begin
        let rec steps body children =
          match (body, children) with
          | [], [] -> Ok ()
          | b :: body', child :: children' -> (
              match conclusion child with
              | None -> Error (Unsound_step "sub-proof without conclusion")
              | Some c ->
                  let signers =
                    match child with
                    | Trace.Apply (r', _) -> r'.Rule.signer
                    | Trace.Builtin _ | Trace.External _ | Trace.Remote _ -> []
                  in
                  if establishes ~signers b c then
                    match check_trace child with
                    | Ok () -> steps body' children'
                    | Error _ as e -> e
                  else
                    Error
                      (Unsound_step
                         (Printf.sprintf "%s is not established by %s"
                            (Literal.to_string b) (Literal.to_string c))))
          | _, _ -> Error (Unsound_step "arity mismatch")
        in
        steps r.Rule.body children
      end

let verify session t =
  let msg =
    payload ~prover:t.prover ~goal:t.goal ~trace:t.trace ~certs:t.certs
  in
  if
    not
      (Crypto.Keystore.verify session.Session.keystore ~signer:t.prover msg
         t.signature)
  then
    Error Bad_package_signature
  else begin
    (* Every signed rule used must be certificate-backed and valid. *)
    let find_cert rule =
      List.find_opt
        (fun (c : Crypto.Cert.t) ->
          Rule.subsumes ~general:c.Crypto.Cert.rule ~specific:rule)
        t.certs
    in
    let rec check_certs = function
      | [] -> Ok ()
      | rule :: rest -> (
          match find_cert rule with
          | None -> Error (Missing_certificate rule)
          | Some cert -> (
              match
                Crypto.Cert.verify session.Session.keystore
                  ~now:session.Session.config.Session.now cert
              with
              | Ok () -> check_certs rest
              | Error e -> Error (Certificate_invalid e)))
    in
    match check_certs (Trace.credentials t.trace) with
    | Error _ as e -> e
    | Ok () -> (
        match conclusion t.trace with
        | Some c
          when establishes
                 ~signers:
                   (match t.trace with
                   | Trace.Apply (r, _) -> r.Rule.signer
                   | _ -> [])
                 t.goal c ->
            check_trace t.trace
        | Some _ | None -> Error Goal_mismatch)
  end

let rec redact ~releasable ~self = function
  | Trace.Apply (r, children) ->
      if releasable r then
        Trace.Apply (r, List.map (redact ~releasable ~self) children)
      else Trace.Remote { peer = self; goal = r.Rule.head; proof = None }
  | (Trace.Builtin _ | Trace.External _) as t -> t
  | Trace.Remote { peer; goal; proof } ->
      Trace.Remote
        { peer; goal; proof = Option.map (redact ~releasable ~self) proof }

let pp_error fmt = function
  | Bad_package_signature -> Format.pp_print_string fmt "bad package signature"
  | Missing_certificate r ->
      Format.fprintf fmt "no certificate for signed rule %a" Rule.pp r
  | Certificate_invalid e ->
      Format.fprintf fmt "certificate invalid: %a" Crypto.Cert.pp_error e
  | Unsound_step s -> Format.fprintf fmt "unsound step: %s" s
  | Goal_mismatch -> Format.pp_print_string fmt "trace does not prove the goal"
