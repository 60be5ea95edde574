open Peertrust_dlp
module Crypto = Peertrust_crypto

type t = Crypto.Cert.t

type error =
  | Invalid of Crypto.Cert.error
  | Wrong_holder of string
  | Wrong_service
  | Not_a_token

(* The service a goal denotes, abstracted from its concrete arguments:
   the predicate key.  The holder is bound separately, so a token covers
   "this peer using this service", not one fixed argument vector. *)
let service_skeleton goal =
  let p, n = Literal.key goal in
  Printf.sprintf "%s/%d" p n

let token_rule ~issuer ~holder ~goal =
  Rule.fact ~signer:[ issuer ]
    (Literal.make "accessToken"
       [ Term.str holder; Term.str (service_skeleton goal) ])

let grant session ~issuer ~holder ~goal ~ttl =
  let rule = token_rule ~issuer ~holder ~goal in
  let now = session.Session.config.Session.now in
  match
    Crypto.Cert.issue session.Session.keystore ~not_before:now
      ~not_after:(now + ttl) rule
  with
  | Ok cert -> cert
  | Error e ->
      invalid_arg (Format.asprintf "Token.grant: %a" Crypto.Cert.pp_error e)

let negotiate_with_token session ~requester ~target ~ttl goal =
  let report = Reactor.negotiate session ~requester ~target goal in
  if Negotiation.succeeded report then
    (report, Some (grant session ~issuer:target ~holder:requester ~goal ~ttl))
  else (report, None)

let redeem session ~issuer ~bearer ~goal (token : t) =
  match token.Crypto.Cert.rule.Rule.head with
  | { Literal.pred = "accessToken";
      args = [ Term.Str holder; Term.Str service ];
      auth = [];
    } ->
      let holder = Sym.name holder and service = Sym.name service in
      if not (List.mem issuer token.Crypto.Cert.rule.Rule.signer) then
        Error (Invalid (Crypto.Cert.Missing_signature issuer))
      else if not (String.equal holder bearer) then Error (Wrong_holder bearer)
      else if not (String.equal service (service_skeleton goal)) then
        Error Wrong_service
      else (
        match
          Crypto.Cert.verify session.Session.keystore
            ~now:session.Session.config.Session.now token
        with
        | Ok () -> Ok ()
        | Error e -> Error (Invalid e))
  | _ -> Error Not_a_token

let revoke session (token : t) =
  Crypto.Keystore.revoke session.Session.keystore
    ~serial:token.Crypto.Cert.serial

let pp_error fmt = function
  | Invalid e -> Format.fprintf fmt "invalid token: %a" Crypto.Cert.pp_error e
  | Wrong_holder b -> Format.fprintf fmt "token is not transferable (bearer %s)" b
  | Wrong_service -> Format.pp_print_string fmt "token covers a different service"
  | Not_a_token -> Format.pp_print_string fmt "not an access token"
