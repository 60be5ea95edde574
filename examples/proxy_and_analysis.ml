(* Two of the paper's forward-looking features together (§4.2, §6):

   1. Negotiation by proxy — a weak device forwards incoming queries to a
      trusted home machine that holds the principal's policies and
      credentials and negotiates on its behalf.
   2. Static analysis — before deploying policies, check which guarded
      resources can ever unlock and whether any release policies deadlock.

     dune exec examples/proxy_and_analysis.exe
*)

open Peertrust

let () =
  (* --- proxy ------------------------------------------------------- *)
  let session = Session.create () in
  ignore
    (Session.add_peer session
       ~program:
         {|paper(Id) $ subscriber(Requester) @ "Publisher" <-{true} inCatalog(Id).
           inCatalog(42).
           subscriber(X) @ "Publisher" <- subscriber(X) @ "Publisher" @ X.|}
       "journal");
  ignore
    (Session.add_peer session
       ~program:{|subscriber("phone") @ "Publisher" $ true signedBy ["Publisher"].|}
       "laptop");
  ignore (Proxy.attach_device session ~device:"phone" ~proxy:"laptop");

  let r =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:"phone" ~target:"journal"
      "paper(Id)"
  in
  Format.printf "phone requests a paper: %a@." Negotiation.pp_report r;
  Format.printf "queries forwarded by the phone to the laptop: %d@.@."
    (Proxy.forwarded_count session ~device:"phone");
  List.iter
    (fun e ->
      Format.printf "  [%d] %-8s -> %-8s %s@." e.Peertrust_net.Network.time
        e.Peertrust_net.Network.from e.Peertrust_net.Network.target
        e.Peertrust_net.Network.summary)
    r.Negotiation.transcript;

  (* --- static analysis --------------------------------------------- *)
  Format.printf "@.Static analysis of a deadlocked policy pair:@.@.";
  let world =
    Analysis.world_of_programs
      [
        ( "seller",
          {|invoice("s") $ taxId(Requester) @ "Gov" <-{true} invoice("s").
            invoice("s") @ "Gov" signedBy ["Gov"].
            taxId(X) @ "Gov" <- taxId(X) @ "Gov" @ X.|} );
        ( "buyer",
          {|taxId("b") $ invoice(Requester) @ "Gov" <-{true} taxId("b").
            taxId("b") @ "Gov" signedBy ["Gov"].
            invoice(X) @ "Gov" <- invoice(X) @ "Gov" @ X.|} );
      ]
  in
  Format.printf "%a" Analysis.pp_report (Analysis.analyze world);
  Format.printf "may invoice(\"s\") at seller ever be granted? %b@."
    (Analysis.may_succeed world ~owner:"seller"
       ~goal:(Peertrust_dlp.Parser.parse_literal {|invoice("s")|}))
