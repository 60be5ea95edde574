(* Scenario 1 of the paper (§4.1): Alice negotiates a discounted Spanish
   course with E-Learn Associates.

   The dance, exactly as the paper narrates it:
   - Alice asks for the discounted enrolment;
   - E-Learn's policy needs proof that Alice is a UIUC student, and asks
     her for it (UIUC itself answers only its registrar);
   - Alice's release policy for her student credential demands that the
     requester prove Better-Business-Bureau membership, so she
     counter-queries E-Learn;
   - E-Learn presents its BBB certificate; Alice presents her
     registrar-issued student ID together with UIUC's delegation rule;
   - E-Learn completes the proof (via ELENA's signed preferred-customer
     rule) and grants the discount.

     dune exec examples/scenario_elearn.exe
*)

open Peertrust
module Dlp = Peertrust_dlp

let show_report label (r : Negotiation.report) =
  Format.printf "== %s ==@.%a@." label Negotiation.pp_report r;
  List.iter
    (fun e ->
      Format.printf "  [%d] %-8s -> %-8s %s@." e.Peertrust_net.Network.time
        e.Peertrust_net.Network.from e.Peertrust_net.Network.target
        e.Peertrust_net.Network.summary)
    r.Negotiation.transcript;
  Format.printf "@."

let () =
  let s = Scenario.scenario1 () in
  let session = s.Scenario.s1_session in

  (* The successful negotiation. *)
  let ok =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:s.Scenario.s1_alice
      ~target:s.Scenario.s1_elearn {|discountEnroll(spanish101, "Alice")|}
  in
  show_report "Alice requests the discounted Spanish course" ok;

  (* What E-Learn cannot do: query UIUC directly about Alice. *)
  let refused =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:s.Scenario.s1_elearn
      ~target:s.Scenario.s1_uiuc {|student("Alice")|}
  in
  show_report "E-Learn tries to ask UIUC directly (refused)" refused;

  (* Alice can produce a certified proof of her student status that any
     third party can check without re-running the negotiation. *)
  let alice = Session.peer session s.Scenario.s1_alice in
  let goal = Dlp.Parser.parse_literal {|student("Alice") @ "UIUC"|} in
  match Engine.evaluate alice [ goal ] with
  | { Dlp.Sld.proofs = [ trace ]; _ } :: _ -> (
      let proof = Proof.create session ~prover:"Alice" ~goal trace in
      Format.printf "Certified proof of student status:@.%a@." Dlp.Trace.pp
        proof.Proof.trace;
      match Proof.verify session proof with
      | Ok () -> Format.printf "Proof package verifies: OK@."
      | Error e -> Format.printf "Proof package rejected: %a@." Proof.pp_error e)
  | _ -> Format.printf "no local proof@."
