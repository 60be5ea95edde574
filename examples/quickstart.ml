(* Quickstart: a minimal two-peer trust negotiation.

   A library releases its catalogue only to readers who prove they hold a
   city-issued library card; the reader releases the card to anyone
   (public release policy).  Run with:

     dune exec examples/quickstart.exe
*)

open Peertrust

let library_program =
  {|
    % The catalogue is released to requesters who present a City library
    % card; the card check is forwarded to the requester (the @ X idiom).
    catalogue(Doc) $ card(Requester) @ "City" <-{true} holding(Doc).
    card(X) @ "City" <- card(X) @ "City" @ X.

    holding("moby-dick").
    holding("ocaml-manual").
  |}

let reader_program =
  {|
    % The reader's library card, certified by the City, public release.
    card("reader") @ "City" $ true signedBy ["City"].
  |}

let () =
  (* 1. Create a world: network + keystore + configuration. *)
  let session = Session.create () in

  (* 2. Add peers with their policy programs; signed rules automatically
        get certificates from the simulated PKI. *)
  let _library = Session.add_peer session ~program:library_program "library" in
  let _reader = Session.add_peer session ~program:reader_program "reader" in

  (* 3. Negotiate: the reader asks for the catalogue. *)
  let report =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:"reader" ~target:"library"
      "catalogue(Doc)"
  in
  Format.printf "Outcome: %a@.@." Negotiation.pp_report report;

  (* 4. Inspect the message exchange. *)
  Format.printf "Transcript:@.";
  List.iter
    (fun e ->
      Format.printf "  [%d] %s -> %s: %s@." e.Peertrust_net.Network.time
        e.Peertrust_net.Network.from e.Peertrust_net.Network.target
        e.Peertrust_net.Network.summary)
    report.Negotiation.transcript;

  (* 5. A stranger without the card is refused. *)
  ignore (Session.add_peer session "stranger");
  let refused =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:"stranger" ~target:"library"
      "catalogue(Doc)"
  in
  Format.printf "@.Stranger: %a@." Negotiation.pp_report refused
