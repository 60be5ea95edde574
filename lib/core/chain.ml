open Peertrust_dlp

type result = {
  found : bool;
  chain : Peertrust_crypto.Cert.t list;
  report : Negotiation.report;
}

let cert_serials (peer : Peer.t) =
  Hashtbl.fold
    (fun _ (c : Peertrust_crypto.Cert.t) acc ->
      c.Peertrust_crypto.Cert.serial :: acc)
    peer.Peer.certs []

let discover session ~requester ~root goal =
  let peer = Session.peer session requester in
  let before = cert_serials peer in
  let decorated = Literal.push_authority goal (Term.str root) in
  let report = Reactor.negotiate session ~requester ~target:root decorated in
  let chain =
    Hashtbl.fold
      (fun _ (c : Peertrust_crypto.Cert.t) acc ->
        if List.mem c.Peertrust_crypto.Cert.serial before then acc else c :: acc)
      peer.Peer.certs []
    |> List.sort (fun (a : Peertrust_crypto.Cert.t) b ->
           Int.compare a.Peertrust_crypto.Cert.serial
             b.Peertrust_crypto.Cert.serial)
  in
  { found = Negotiation.succeeded report; chain; report }

let linear_world ?session ~depth ~pred ~subject () =
  if depth < 1 then invalid_arg "Chain.linear_world: depth must be >= 1";
  let session =
    match session with Some s -> s | None -> Session.create ()
  in
  let auth i = Printf.sprintf "auth%d" i in
  for i = 0 to depth - 1 do
    let program =
      Printf.sprintf {|%s(X) $ true <- signedBy ["%s"] %s(X) @ "%s".|} pred
        (auth i) pred
        (auth (i + 1))
    in
    ignore (Session.add_peer session ~program (auth i))
  done;
  let last_program =
    Printf.sprintf {|%s("%s") $ true signedBy ["%s"].|} pred subject
      (auth depth)
  in
  ignore (Session.add_peer session ~program:last_program (auth depth));
  (session, auth 0, auth depth)
