type t = {
  serial : int;
  rule : Peertrust_dlp.Rule.t;
  not_before : int;
  not_after : int;
  signatures : (string * Bignum.t) list;
}

type error =
  | Unsigned_rule
  | Missing_signature of string
  | Bad_signature of string
  | Expired of { now : int }
  | Revoked of int

let payload t =
  let buf = Buffer.create 128 in
  List.iter
    (fun i ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf '|')
    [ t.serial; t.not_before; t.not_after ];
  Buffer.add_string buf (Peertrust_dlp.Rule.canonical t.rule);
  Buffer.contents buf

let issue ks ?(not_before = 0) ?(not_after = max_int) rule =
  match rule.Peertrust_dlp.Rule.signer with
  | [] -> Error Unsigned_rule
  | signers ->
      let cert =
        {
          serial = Keystore.fresh_serial ks;
          rule;
          not_before;
          not_after;
          signatures = [];
        }
      in
      let msg = payload cert in
      let signatures =
        List.map (fun s -> (s, Rsa.sign (Keystore.keypair ks s) msg)) signers
      in
      Ok { cert with signatures }

let verify ks ?(now = 0) t =
  if Keystore.is_revoked ks ~serial:t.serial then Error (Revoked t.serial)
  else if now < t.not_before || now > t.not_after then Error (Expired { now })
  else begin
    match t.rule.Peertrust_dlp.Rule.signer with
    | [] -> Error Unsigned_rule
    | signers ->
        let msg = payload t in
        let check acc signer =
          match acc with
          | Error _ as e -> e
          | Ok () -> (
              match List.assoc_opt signer t.signatures with
              | None -> Error (Missing_signature signer)
              | Some s ->
                  if Keystore.verify ks ~signer msg s then Ok ()
                  else Error (Bad_signature signer))
        in
        List.fold_left check (Ok ()) signers
  end

let pp_error fmt = function
  | Unsigned_rule -> Format.pp_print_string fmt "rule carries no signedBy annotation"
  | Missing_signature s -> Format.fprintf fmt "no signature from %s" s
  | Bad_signature s -> Format.fprintf fmt "invalid signature from %s" s
  | Expired { now } -> Format.fprintf fmt "certificate not valid at time %d" now
  | Revoked serial -> Format.fprintf fmt "certificate %d is revoked" serial
