open Peertrust_dlp
module Crypto = Peertrust_crypto
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric

type behavior =
  | Flood of int
  | Malformed of int
  | Unsolicited of int
  | Replay
  | Forged_certs
  | Oversized of int
  | Bomb of int

let behavior_to_string = function
  | Flood n -> Printf.sprintf "flood=%d" n
  | Malformed n -> Printf.sprintf "malformed=%d" n
  | Unsolicited n -> Printf.sprintf "unsolicited=%d" n
  | Replay -> "replay"
  | Forged_certs -> "forged"
  | Oversized n -> Printf.sprintf "oversized=%d" n
  | Bomb d -> Printf.sprintf "bomb=%d" d

let behavior_of_string s =
  let name, arg =
    match String.index_opt s '=' with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let with_default d = Option.value ~default:d arg in
  match String.lowercase_ascii name with
  | "flood" -> Ok (Flood (with_default 12))
  | "malformed" -> Ok (Malformed (with_default 4))
  | "unsolicited" -> Ok (Unsolicited (with_default 4))
  | "replay" -> Ok Replay
  | "forged" -> Ok Forged_certs
  | "oversized" -> Ok (Oversized (with_default 65_536))
  | "bomb" -> Ok (Bomb (with_default 40))
  | _ ->
      Error
        (Printf.sprintf
           "unknown behavior %S (expected \
            flood|malformed|unsolicited|replay|forged|oversized|bomb, \
            optionally =N)"
           s)

type action = { act_target : string; act_payload : Message.payload }

type t = {
  name : string;
  behaviors : behavior list;
  prng : Crypto.Prng.t;
  budget : int;
  mutable sent : int;
  mutable history : action list;  (* most recent first, for replays *)
}

let m_actions = Obs.counter "adversary.actions"
let m_floods = Obs.counter "adversary.floods"
let m_malformed = Obs.counter "adversary.malformed"
let m_unsolicited = Obs.counter "adversary.unsolicited"
let m_replays = Obs.counter "adversary.replays"
let m_forged = Obs.counter "adversary.forged"
let m_oversized = Obs.counter "adversary.oversized"
let m_bombs = Obs.counter "adversary.bombs"

let create ?(seed = 1L) ?(budget = 64) ~name behaviors =
  if budget < 0 then invalid_arg "Adversary.create: budget must be >= 0";
  {
    name;
    behaviors;
    prng = Crypto.Prng.create seed;
    budget;
    sent = 0;
    history = [];
  }

let name t = t.name
let behaviors t = t.behaviors
let actions_sent t = t.sent

let probe_goal t =
  Literal.make "adv_probe" [ Term.Int (Crypto.Prng.next_int t.prng 1_000_000) ]

(* A goal whose authority chain is the adversary itself, [depth] layers
   deep: a victim that evaluates it pops one layer per hop and
   counter-queries the adversary each time. *)
let bomb_goal t ~depth =
  Literal.make
    ~auth:(List.init depth (fun _ -> Term.str t.name))
    "adv_bomb"
    [ Term.Int (Crypto.Prng.next_int t.prng 1_000_000) ]

let junk_bytes t n =
  String.init n (fun _ -> Char.chr (32 + Crypto.Prng.next_int t.prng 95))

(* Garbage flavors: raw noise, a truncated certificate envelope, and a
   complete-looking envelope whose fields do not parse. *)
let malformed_payload t =
  match Crypto.Prng.next_int t.prng 3 with
  | 0 -> Message.Raw (junk_bytes t (16 + Crypto.Prng.next_int t.prng 64))
  | 1 -> Message.Raw "-----BEGIN PEERTRUST CERTIFICATE-----\nserial: 1\n"
  | _ ->
      Message.Raw
        (Printf.sprintf
           "-----BEGIN PEERTRUST CERTIFICATE-----\n\
            serial: %s\n\
            not-before: never\n\
            rule: )(\n\
            -----END PEERTRUST CERTIFICATE-----\n"
           (junk_bytes t 6))

let forged_cert t =
  let n = Crypto.Prng.next_int t.prng 1_000_000 in
  let rule =
    Rule.fact ~signer:[ t.name ] (Literal.make "adv_cred" [ Term.Int n ])
  in
  {
    Crypto.Cert.serial = 900_000 + n;
    rule;
    not_before = 0;
    not_after = max_int;
    signatures = [ (t.name, Crypto.Bignum.of_int (1 + Crypto.Prng.next_int t.prng 1_000_000)) ];
  }

let spoofed_answer ?(certs = []) t =
  let goal = probe_goal t in
  Message.Answer { goal; instances = [ (goal, None) ]; certs }

let behavior_actions t ~target = function
  | Flood n ->
      List.init n (fun _ ->
          Metric.incr m_floods;
          { act_target = target; act_payload = Message.Query { goal = probe_goal t } })
  | Malformed n ->
      List.init n (fun _ ->
          Metric.incr m_malformed;
          { act_target = target; act_payload = malformed_payload t })
  | Unsolicited n ->
      List.init n (fun _ ->
          Metric.incr m_unsolicited;
          { act_target = target; act_payload = spoofed_answer t })
  | Replay -> []  (* replays react to traffic; see {!react} *)
  | Forged_certs ->
      Metric.incr m_forged;
      [ { act_target = target; act_payload = spoofed_answer ~certs:[ forged_cert t ] t } ]
  | Oversized n ->
      Metric.incr m_oversized;
      [ { act_target = target; act_payload = Message.Raw (junk_bytes t n) } ]
  | Bomb depth ->
      Metric.incr m_bombs;
      [ { act_target = target; act_payload = Message.Query { goal = bomb_goal t ~depth } } ]

(* Clip to the remaining budget and remember what went out. *)
let charge t actions =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | a :: rest -> a :: take (n - 1) rest
  in
  let out = take (t.budget - t.sent) actions in
  t.sent <- t.sent + List.length out;
  Metric.add m_actions (List.length out);
  t.history <- List.rev_append out t.history;
  out

let burst t ~targets =
  if targets = [] then []
  else
    charge t
      (List.concat_map
         (fun b -> List.concat_map (fun tg -> behavior_actions t ~target:tg b) targets)
         t.behaviors)

let replays t ~target =
  if not (List.mem Replay t.behaviors) || t.history = [] then []
  else
    let pool = Array.of_list t.history in
    List.init 2 (fun _ ->
        Metric.incr m_replays;
        let a = pool.(Crypto.Prng.next_int t.prng (Array.length pool)) in
        { a with act_target = target })

let react t ~from =
  charge t
    (replays t ~target:from
    @ List.concat_map (fun b -> behavior_actions t ~target:from b) t.behaviors)
