(* Negotiating trust on the grid (the paper's pointer to Basney et al.,
   SemPGRID'04): a researcher's job submission to a compute cluster.

   - The cluster admits jobs from members of a virtual organisation (VO);
     VO membership certification is delegated by the VO to its
     registration service.
   - The researcher releases her VO membership only to resources that
     prove they are part of the grid (signed by the Grid CA).
   - RDF metadata describes the cluster's queues; policies range over the
     derived facts (an Edutella-style resource description).

     dune exec examples/scenario_grid.exe
*)

open Peertrust

let () =
  let g = Scenario.grid () in
  let session = g.Scenario.g_session in

  let submit q cores =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:g.Scenario.g_user
      ~target:g.Scenario.g_cluster
      (Printf.sprintf {|submit(%s, "%s", %d)|} q g.Scenario.g_user cores)
  in

  let ok = submit "batch" 256 in
  Format.printf "submit(batch, 256 cores): %a@.@." Negotiation.pp_report ok;
  List.iter
    (fun e ->
      Format.printf "  [%d] %-10s -> %-10s %s@." e.Peertrust_net.Network.time
        e.Peertrust_net.Network.from e.Peertrust_net.Network.target
        e.Peertrust_net.Network.summary)
    ok.Negotiation.transcript;

  let too_big = submit "debug" 64 in
  Format.printf "@.submit(debug, 64 cores): %a@." Negotiation.pp_report too_big;

  (* An impostor cluster without the GridCA credential never sees Ada's VO
     membership. *)
  ignore
    (Session.add_peer session
       ~program:
         {|submit(Queue, Requester, Cores) $ true <-
             voMember(Requester) @ "PhysicsVO" @ Requester.|}
       "rogue");
  let rogue =
    Strategy.negotiate_str ~strategy:Relevant session
      ~requester:"ada" ~target:"rogue"
      {|submit(q, "ada", 1)|}
  in
  Format.printf "@.rogue cluster: %a@." Negotiation.pp_report rogue
