open Peertrust_dlp

let authority_fact ~pred ~authority =
  Rule.fact (Literal.make "authority" [ Term.atom pred; Term.str authority ])

let install_directory peer directory =
  List.iter
    (fun (pred, authority) ->
      Peer.add_rule peer (authority_fact ~pred ~authority))
    directory

let add_broker session ~name ~directory =
  let peer = Session.add_peer session name in
  List.iter
    (fun (pred, authority) ->
      let fact = authority_fact ~pred ~authority in
      (* Publicly queryable directory entry. *)
      Peer.add_rule peer { fact with Rule.head_ctx = Some [] })
    directory;
  peer

let lookup session ~requester ~broker ~pred =
  let goal =
    Literal.make "authority" [ Term.atom pred; Term.var "Authority" ]
  in
  match (Reactor.negotiate session ~requester ~target:broker goal).outcome with
  | Negotiation.Denied _ -> []
  | Negotiation.Granted instances ->
      List.filter_map
        (fun ((inst : Literal.t), _) ->
          match inst.Literal.args with
          | [ _; a ] -> Term.const_name a
          | _ -> None)
        instances
