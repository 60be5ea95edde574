let m_signature_checks = Peertrust_obs.Obs.counter "crypto.signature_checks"
let m_rsa_verifies = Peertrust_obs.Obs.counter "crypto.rsa_verifies"

type t = {
  bits : int;
  seed : int64;
  keys : (string, Rsa.keypair) Hashtbl.t;
  mutable order : string list;  (* reverse generation order *)
  revoked : (int, unit) Hashtbl.t;
  mutable next_serial : int;
  verified : (string * string, Bignum.t) Hashtbl.t;
      (* (signer, signed bytes) -> the signature RSA accepted for them *)
}

let create ?(bits = 384) ~seed () =
  {
    bits;
    seed;
    keys = Hashtbl.create 16;
    order = [];
    revoked = Hashtbl.create 16;
    next_serial = 1;
    verified = Hashtbl.create 16;
  }

let keypair t name =
  match Hashtbl.find_opt t.keys name with
  | Some kp -> kp
  | None ->
      (* Derive an independent generator per principal so that a
         principal's key does not depend on generation order. *)
      let name_seed =
        String.fold_left
          (fun acc c -> Int64.add (Int64.mul acc 131L) (Int64.of_int (Char.code c)))
          t.seed name
      in
      let kp = Rsa.generate ~bits:t.bits (Prng.create name_seed) in
      Hashtbl.add t.keys name kp;
      t.order <- name :: t.order;
      kp

let public t name = (keypair t name).Rsa.public
let known t name = Hashtbl.mem t.keys name

(* A key never changes, so a signature RSA accepted once it accepts
   again; the padding admits one valid signature per key and message,
   so [verified] holds at most one entry per message our keys signed. *)
let verify t ~signer msg signature =
  Peertrust_obs.Metric.incr m_signature_checks;
  let key = (signer, msg) in
  match Hashtbl.find_opt t.verified key with
  | Some s when Bignum.equal s signature -> true
  | Some _ | None ->
      Peertrust_obs.Metric.incr m_rsa_verifies;
      let ok = Rsa.verify (public t signer) msg signature in
      if ok then Hashtbl.replace t.verified key signature;
      ok

let revoke t ~serial = Hashtbl.replace t.revoked serial ()
let is_revoked t ~serial = Hashtbl.mem t.revoked serial

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

let claim_serial t s = if s >= t.next_serial then t.next_serial <- s + 1

let principals t = List.rev t.order
