(* Scenario 2 of the paper (§4.2): Bob, from IBM's HR department, signs up
   for learning services at E-Learn.

   Shows:
   - free-course enrolment for employees of ELENA member companies (the
     eligibility rule itself stays private — policy protection);
   - pay-per-use enrolment against the company VISA card, which Bob only
     discloses to authorized VISA merchants that are ELENA members
     (policy27), with the purchase-approval external call at VISA;
   - the failure modes: a course over Bob's authorization limit, a VISA
     credit-limit refusal, and an outsider who can't see the card at all.

     dune exec examples/scenario_services.exe
*)

open Peertrust

let show label (r : Negotiation.report) =
  Format.printf "== %s ==@.%a@.@." label Negotiation.pp_report r

let () =
  let s = Scenario.scenario2 () in
  let session = s.Scenario.s2_session in
  let enroll course =
    Printf.sprintf {|enroll(%s, "Bob", "IBM", Email, Price)|} course
  in

  show "Free course (cs101)"
    (Strategy.negotiate_str ~strategy:Relevant session
       ~requester:"Bob" ~target:"E-Learn"
       {|enroll(cs101, "Bob", "IBM", Email, 0)|});

  show "Pay-per-use course (cs411, $1000)"
    (Strategy.negotiate_str ~strategy:Relevant session
       ~requester:"Bob" ~target:"E-Learn"
       (enroll "cs411"));

  show "Course over Bob's $2000 authorization (cs500, $3000) — denied"
    (Strategy.negotiate_str ~strategy:Relevant session
       ~requester:"Bob" ~target:"E-Learn"
       (enroll "cs500"));

  show "Asking for the private eligibility rule directly — denied"
    (Strategy.negotiate_str ~strategy:Relevant session
       ~requester:"Bob" ~target:"E-Learn"
       {|freebieEligible(cs101, "Bob", "IBM", Email)|});

  (* A tight-fisted VISA: the card is fine but the approval call fails. *)
  let s' = Scenario.scenario2 ~visa_limit:500 () in
  show "Same purchase with a $500 credit limit — denied at VISA"
    (Strategy.negotiate_str ~strategy:Relevant s'.Scenario.s2_session
       ~requester:"Bob"
       ~target:"E-Learn" (enroll "cs411"));

  (* An outsider cannot learn the card exists. *)
  ignore (Session.add_peer session "Eve");
  show "Eve asks Bob for the VISA card — denied"
    (Strategy.negotiate_str ~strategy:Relevant session
       ~requester:"Eve" ~target:"Bob"
       {|visaCard("IBM") @ "VISA"|})
