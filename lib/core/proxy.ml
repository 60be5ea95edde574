module Net = Peertrust_net

let attach_device session ~device ~proxy =
  ignore (Session.peer session proxy : Peer.t);
  let device_peer = Session.add_peer session device in
  Hashtbl.replace session.Session.proxies device proxy;
  device_peer

let forwarded_count session ~device =
  match Hashtbl.find_opt session.Session.proxies device with
  | None -> 0
  | Some proxy ->
      Net.Stats.between (Net.Network.stats session.Session.network) device
        proxy
