open Peertrust_dlp

type t = {
  name : string;
  mutable kb : Kb.t;
  certs : (string, Peertrust_crypto.Cert.t) Hashtbl.t;
  origins : (int, string) Hashtbl.t;
  externals : Sld.externals;
  mutable options : Sld.options;
  mutable kb_watchers : (unit -> unit) list;
}

let create ?(options = Sld.default_options) ?(externals = fun _ -> None)
    ?(kb = Kb.empty) name =
  {
    name;
    kb;
    certs = Hashtbl.create 16;
    origins = Hashtbl.create 16;
    externals;
    options;
    kb_watchers = [];
  }

let on_kb_update t f = t.kb_watchers <- f :: t.kb_watchers
let notify_kb t = List.iter (fun f -> f ()) (List.rev t.kb_watchers)

let load_program t src =
  t.kb <- Kb.add_list (Parser.parse_program src) t.kb;
  notify_kb t

let set_kb t kb =
  t.kb <- kb;
  notify_kb t

(* Deliberately does NOT notify the KB watchers: [add_rule] fires for
   every fact learned during a negotiation (the hot path), and learned
   facts only ever grow the derivable set — cached answers stay sound. *)
let add_rule t r = t.kb <- Kb.add r t.kb

let add_cert ?origin t (c : Peertrust_crypto.Cert.t) =
  let key = Rule.canonical c.Peertrust_crypto.Cert.rule in
  if not (Hashtbl.mem t.certs key) then Hashtbl.add t.certs key c;
  Option.iter
    (fun o ->
      if not (Hashtbl.mem t.origins c.Peertrust_crypto.Cert.serial) then
        Hashtbl.add t.origins c.Peertrust_crypto.Cert.serial o)
    origin;
  add_rule t c.Peertrust_crypto.Cert.rule

let cert_origin t (c : Peertrust_crypto.Cert.t) =
  Hashtbl.find_opt t.origins c.Peertrust_crypto.Cert.serial

let cert_for t r =
  match Hashtbl.find_opt t.certs (Rule.canonical r) with
  | Some c -> Some c
  | None ->
      (* Rules in proof traces are instantiated; fall back to a subsumption
         scan so the backing credential is still found. *)
      Hashtbl.fold
        (fun _ (c : Peertrust_crypto.Cert.t) acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if
                Rule.subsumes ~general:c.Peertrust_crypto.Cert.rule ~specific:r
              then Some c
              else None)
        t.certs None

let goal_key lit = Rule.canonical (Rule.fact lit)
