type config = {
  max_answers : int;
  verify_signatures : bool;
  attach_proofs : bool;
  now : int;
  guard : Guard.config;
}

let default_config =
  {
    max_answers = 4;
    verify_signatures = true;
    attach_proofs = false;
    now = 0;
    guard = Guard.permissive;
  }

type t = {
  network : Peertrust_net.Network.t;
  keystore : Peertrust_crypto.Keystore.t;
  peers : (string, Peer.t) Hashtbl.t;
  config : config;
  proxies : (string, string) Hashtbl.t;
}

let create ?(config = default_config) ?latency ?max_messages ?(seed = 1L)
    ?key_bits () =
  {
    network = Peertrust_net.Network.create ?latency ?max_messages ();
    keystore = Peertrust_crypto.Keystore.create ?bits:key_bits ~seed ();
    peers = Hashtbl.create 16;
    config;
    proxies = Hashtbl.create 2;
  }

let issue_signed_rules t peer =
  List.iter
    (fun rule ->
      match Peer.cert_for peer rule with
      | Some _ -> ()
      | None -> (
          match Peertrust_crypto.Cert.issue t.keystore rule with
          | Ok cert -> Peer.add_cert peer cert
          | Error _ -> ()))
    (Peertrust_dlp.Kb.signed_rules peer.Peer.kb)

let add_peer t ?options ?externals ?program name =
  let peer = Peer.create ?options ?externals name in
  Option.iter (Peer.load_program peer) program;
  issue_signed_rules t peer;
  Hashtbl.replace t.peers name peer;
  peer

let peer t name =
  match Hashtbl.find_opt t.peers name with
  | Some p -> p
  | None -> raise Not_found

let peer_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.peers []
  |> List.sort String.compare
