type t = {
  bits : int;
  seed : int64;
  keys : (string, Rsa.keypair) Hashtbl.t;
  mutable order : string list;  (* reverse generation order *)
  revoked : (int, unit) Hashtbl.t;
  mutable next_serial : int;
}

let create ?(bits = 384) ~seed () =
  {
    bits;
    seed;
    keys = Hashtbl.create 16;
    order = [];
    revoked = Hashtbl.create 16;
    next_serial = 1;
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
let revoke t ~serial = Hashtbl.replace t.revoked serial ()
let is_revoked t ~serial = Hashtbl.mem t.revoked serial

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

let claim_serial t s = if s >= t.next_serial then t.next_serial <- s + 1

let principals t = List.rev t.order
