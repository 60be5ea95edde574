(* Distributed credential chain discovery — the paper's accreditation
   example (§2): to get the student discount, Bob must show that his
   university is accredited by ABET, but the supporting delegations are
   scattered across peers:

     ABET  delegates accreditation listing to  the regional board,
     the regional board                    to  the state board,
     the state board          certifies        Bob's university.

   Bob's peer discovers and collects the whole certificate chain by
   querying ABET and letting each authority follow its delegation.

     dune exec examples/chain_discovery.exe
*)

open Peertrust
module Dlp = Peertrust_dlp

let () =
  (* A linear delegation world of configurable depth. *)
  let depth = 4 in
  let session, root, last =
    Chain.linear_world ~depth ~pred:"accredited" ~subject:"tech_university" ()
  in
  ignore (Session.add_peer session "bob");

  Format.printf "Delegation chain: %s -> ... -> %s (%d hops)@.@." root last
    depth;

  let result =
    Chain.discover session ~requester:"bob" ~root
      (Dlp.Parser.parse_literal {|accredited("tech_university")|})
  in
  Format.printf "Discovered: %b@." result.Chain.found;
  Format.printf "Certificates collected: %d@." (List.length result.Chain.chain);
  List.iter
    (fun (c : Peertrust_crypto.Cert.t) ->
      Format.printf "  #%d %a@." c.Peertrust_crypto.Cert.serial Dlp.Rule.pp
        c.Peertrust_crypto.Cert.rule)
    result.Chain.chain;
  Format.printf "Cost: %d message(s), %d tick(s)@.@."
    result.Chain.report.Negotiation.messages
    result.Chain.report.Negotiation.elapsed;

  (* Severing a link breaks discovery. *)
  Peertrust_net.Network.set_down session.Session.network "auth2" true;
  let broken =
    Chain.discover session ~requester:"bob" ~root
      (Dlp.Parser.parse_literal {|accredited("another_university")|})
  in
  Format.printf "With auth2 down, a fresh discovery finds: %b@."
    broken.Chain.found
