(* The full ELENA pipeline from the paper's introduction: Edutella-style
   metadata search over RDF course descriptions, followed by a trust
   negotiation for the chosen course.

   1. Two providers publish course metadata (RDF registries, released
      publicly through QEL).
   2. A learner broadcasts a query for affordable courses.
   3. She picks the cheapest hit and negotiates enrolment — the provider
      demands a student credential, which she releases only to
      accredited providers.

     dune exec examples/search_and_enroll.exe
*)

open Peertrust
module Dlp = Peertrust_dlp
module Rdf = Peertrust_rdf

let provider_policy =
  {|
    % Enrolment for students (proof requested from the requester); the
    % outcome is releasable to the enrollee.
    enroll(Course, Party) $ Requester = Party <-{true}
      price(Course, P), student(Party) @ "UIUC" @ Party.

    % Accreditation credential, shown to anyone.
    accredited(Self) @ "Agency" $ true signedBy ["Agency"].
  |}

let learner_program =
  {|
    student("lea") @ "UIUC" signedBy ["UIUC"].
    student(X) @ Y $ accredited(Requester) @ "Agency" @ Requester <-{true}
      student(X) @ Y.
  |}

let make_provider session name courses =
  let reg = Rdf.Registry.create () in
  List.iter
    (fun (id, price) -> Rdf.Registry.add_course reg ~id ~price ())
    courses;
  let program = Qel.searchable_program reg ^ provider_policy in
  ignore (Session.add_peer session ~program name)

let () =
  let session = Session.create () in
  make_provider session "courseware" [ ("spanish1", 900); ("french1", 2400) ];
  make_provider session "acme_learn" [ ("spanish2", 700); ("latin1", 5000) ];
  ignore (Session.add_peer session ~program:learner_program "lea");

  (* Step 1: metadata search across providers. *)
  let query = Qel.parse "C, P <- price(C, P), P < 1000" in
  Format.printf "Searching: %s@.@." (Qel.to_string query);
  let hits =
    Qel.search_all session ~requester:"lea"
      ~providers:[ "courseware"; "acme_learn" ] query
  in
  List.iter
    (fun (provider, rows) ->
      List.iter
        (fun row ->
          Format.printf "  %s offers %s@." provider
            (String.concat " at $" (List.map Dlp.Term.to_string row)))
        rows)
    hits;

  (* Step 2: pick the cheapest hit. *)
  let best =
    List.concat_map
      (fun (provider, rows) ->
        List.filter_map
          (function
            | [ Dlp.Term.Atom c; Dlp.Term.Int p ] ->
                Some (provider, Dlp.Sym.name c, p)
            | _ -> None)
          rows)
      hits
    |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare a b)
    |> function
    | [] -> None
    | hit :: _ -> Some hit
  in
  match best with
  | None -> Format.printf "@.no affordable course found@."
  | Some (provider, course, price) ->
      Format.printf "@.Cheapest: %s at %s ($%d) — negotiating enrolment@.@."
        course provider price;
      let report =
        Strategy.negotiate_str ~strategy:Relevant session
          ~requester:"lea" ~target:provider
          (Printf.sprintf {|enroll(%s, "lea")|} course)
      in
      Format.printf "%a@.@." Negotiation.pp_report report;
      List.iter
        (fun e ->
          Format.printf "  [%d] %-10s -> %-10s %s@."
            e.Peertrust_net.Network.time e.Peertrust_net.Network.from
            e.Peertrust_net.Network.target e.Peertrust_net.Network.summary)
        report.Negotiation.transcript
