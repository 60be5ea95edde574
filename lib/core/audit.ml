open Peertrust_dlp
module Net = Peertrust_net

type decision = Grant | Deny of string

type entry = {
  at : int;
  peer : string;
  requester : string;
  goal : Literal.t;
  decision : decision;
  credentials : int list;
}

type t = { mutable log : entry list (* reverse order *) }

let create () = { log = [] }

let record t ~at ~peer ~requester ~goal ~decision ~credentials =
  t.log <- { at; peer; requester; goal; decision; credentials } :: t.log

let attach t session =
  let net = session.Session.network in
  Net.Network.observe net (fun ~from ~target payload ->
      let at = Net.Clock.now (Net.Network.clock net) in
      match payload with
      | Net.Message.Answer { goal; certs; _ } ->
          record t ~at ~peer:from ~requester:target ~goal ~decision:Grant
            ~credentials:
              (List.map
                 (fun (c : Peertrust_crypto.Cert.t) ->
                   c.Peertrust_crypto.Cert.serial)
                 certs)
      | Net.Message.Deny { goal; reason } ->
          record t ~at ~peer:from ~requester:target ~goal
            ~decision:(Deny reason) ~credentials:[]
      | _ -> ())

let entries t = List.rev t.log
let for_peer t name = List.filter (fun e -> String.equal e.peer name) (entries t)
let grants t = List.filter (fun e -> e.decision = Grant) (entries t)

let denials t =
  List.filter (fun e -> match e.decision with Deny _ -> true | Grant -> false) (entries t)

let pp_entry fmt e =
  Format.fprintf fmt "[%d] %s: %s asked %a -> %s" e.at e.peer e.requester
    Literal.pp e.goal
    (match e.decision with
    | Grant ->
        Printf.sprintf "granted (%d credential(s))" (List.length e.credentials)
    | Deny reason -> Printf.sprintf "denied (%s)" reason)

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
    pp_entry fmt (entries t)
