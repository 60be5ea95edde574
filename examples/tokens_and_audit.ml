(* The rest of the paper's §3 access-granting paragraph: after a
   successful negotiation the service can hand out a nontransferable,
   expiring token so repeat access skips the negotiation, and every
   decision lands in an audit trail.

     dune exec examples/tokens_and_audit.exe
*)

open Peertrust
module Dlp = Peertrust_dlp
module Net = Peertrust_net

let () =
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|course("spanish1", Party) $ Requester = Party <-{true}
             offered("spanish1"), student(Party) @ "University" @ Party.
           offered("spanish1").|}
       "elearn");
  ignore
    (Session.add_peer session
       ~program:{|student("alice") @ "University" $ true signedBy ["University"].|}
       "alice");
  let audit = Audit.create () in
  Audit.attach audit session;

  (* First access: full negotiation, then a 100-tick token. *)
  let goal = Dlp.Parser.parse_literal {|course("spanish1", "alice")|} in
  let report, token =
    Token.negotiate_with_token session ~requester:"alice" ~target:"elearn"
      ~ttl:100 goal
  in
  Format.printf "First access: %a@.@." Negotiation.pp_report report;
  let token = Option.get token in
  Format.printf "Token issued: serial #%d, valid until tick %d@.@."
    token.Peertrust_crypto.Cert.serial token.Peertrust_crypto.Cert.not_after;

  (* Repeat accesses redeem the token: zero messages. *)
  let stats = Net.Network.stats session.Session.network in
  let before = Net.Stats.messages stats in
  for i = 1 to 3 do
    match Token.redeem session ~issuer:"elearn" ~bearer:"alice" ~goal token with
    | Ok () -> Format.printf "Access %d: token accepted@." i
    | Error e -> Format.printf "Access %d: %a@." i Token.pp_error e
  done;
  Format.printf "Messages spent on the three repeats: %d@.@."
    (Net.Stats.messages stats - before);

  (* The token is not transferable and dies with revocation. *)
  (match Token.redeem session ~issuer:"elearn" ~bearer:"mallory" ~goal token with
  | Error e -> Format.printf "Mallory presents it: %a@." Token.pp_error e
  | Ok () -> Format.printf "Mallory presents it: accepted?!@.");
  Token.revoke session token;
  (match Token.redeem session ~issuer:"elearn" ~bearer:"alice" ~goal token with
  | Error e -> Format.printf "After revocation: %a@.@." Token.pp_error e
  | Ok () -> Format.printf "After revocation: accepted?!@.@.");

  (* The audit trail shows every decision each peer made. *)
  Format.printf "Audit trail:@.%a@." Audit.pp audit
