(** Negotiation by proxy (§4.2): "handheld devices may not have enough
    power to carry out trust negotiation directly.  In this case, Bob's
    device can forward any queries it receives to another peer that Bob
    trusts, such as his home or office computer."

    The device peer holds no policies or credentials; the {!Reactor}
    forwards every query addressed to it to the trusted proxy, which
    evaluates it against the principal's knowledge base — with the
    original requester bound — and answers through the device.  Both
    forwarding hops are charged on the network.
    Private keys conceptually stay on the device: the proxy holds the
    principal's certificates (issued once at setup), not its signing
    key. *)

val attach_device :
  Session.t -> device:string -> proxy:string -> Peer.t
(** Create the (empty) device peer and route its queries to [proxy]
    ([Session.proxies]).  @raise Not_found unless the proxy peer
    exists.  Returns the device peer. *)

val forwarded_count : Session.t -> device:string -> int
(** How many queries the device has forwarded so far (its messages to
    the proxy). *)
