(* Seeded workload generator.  Everything a round submits is decided
   here, from the workload seed alone: the peers' program texts, the
   goals, the submission order, the expected outcome of every request
   and the crash placement.  The library only ever receives program
   text, goals and the crash schedule. *)

module Dlp = Peertrust_dlp

type kind =
  | Hub  (** fan-in at one provider that checks each purchase online *)
  | Durable
      (** E13 marketplace traffic (many providers, credential exchange)
          with guards, disk journals and crashes *)

type shape = {
  kind : kind;
  providers : int;
  learners : int;
  slots : int;  (** closed-loop negotiation slots (k) *)
}

(* [tiny] sizes serve the determinism self-test. *)
let shape ~tiny workload =
  let mk kind providers learners slots = { kind; providers; learners; slots } in
  match (workload, tiny) with
  | "hub", false -> mk Hub 1 2048 64
  | "hub", true -> mk Hub 1 48 8
  | "durable", false -> mk Durable 64 16 8
  | "durable", true -> mk Durable 4 8 3
  | _ -> invalid_arg ("unknown workload: " ^ workload)

type expect =
  | Grant of string  (** the one instance a grant must carry *)
  | Policy_denial
      (** an impostor or an over-limit purchase: a policy must refuse *)

type request = {
  requester : string;
  target : string;
  goal : Dlp.Literal.t;
  expect : expect;
}

type crash = {
  victim : string;
  drain_before : int;
      (** the loop holds this request back until every negotiation in
          flight has settled and the victim has crashed and restarted *)
}

type t = {
  programs : (string * string) list;  (** peer name, program text *)
  principals : string list;  (** signing authorities named by the programs *)
  requests : request array;  (** in submission order *)
  crashes : crash list;  (** in submission order *)
}

let provider i = Printf.sprintf "provider%d" i
let learner i = Printf.sprintf "learner%d" i
let hub = "hub"
let bank = "Bank"

(* Priced courses per provider. *)
let courses = 4

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [picks rng n m] marks [m] of [n] positions at random. *)
let picks rng n m =
  let order = Array.init n Fun.id in
  shuffle rng order;
  let marked = Array.make n false in
  Array.iteri (fun rank i -> if rank < m then marked.(i) <- true) order;
  marked

(* Another learner than [l]: the impostor who asks on [l]'s behalf. *)
let other rng ~learners l = (l + 1 + Random.State.int rng (learners - 1)) mod learners

let grant goal = Grant (Dlp.Literal.to_string goal)

(* ---- durable: the E13 marketplace, the ELENA policies of §4.2 over
   many providers.  Enrolment needs a University-signed student credential
   from the party itself, and a learner releases that credential only to
   a provider the Agency accredits. *)

let provider_program rng i =
  let buf = Buffer.create 512 in
  for c = 0 to courses - 1 do
    Buffer.add_string buf
      (Printf.sprintf "price(course%d_%d, %d).\n" i c
         (100 + Random.State.int rng 1900))
  done;
  Buffer.add_string buf
    {|price(C, P) $ true <-{true} price(C, P).
enroll(Course, Party) $ Requester = Party <-{true}
  price(Course, P), student(Party) @ "University" @ Party.
|};
  Buffer.add_string buf
    (Printf.sprintf {|accredited("%s") @ "Agency" $ true signedBy ["Agency"].|}
       (provider i));
  Buffer.contents buf

let learner_program i =
  Printf.sprintf
    {|student("%s") @ "University" signedBy ["University"].
student(X) @ Y $ accredited(Requester) @ "Agency" @ Requester <-{true}
  student(X) @ Y.|}
    (learner i)

(* Every learner enrols once at every provider, in shuffled order; one
   request in eight is an impostor asking to enrol another learner. *)
let market rng s =
  let programs =
    List.init s.providers (fun i -> (provider i, provider_program rng i))
    @ List.init s.learners (fun i -> (learner i, learner_program i))
  in
  let pairs =
    Array.init (s.providers * s.learners) (fun k ->
        (k / s.providers, k mod s.providers))
  in
  shuffle rng pairs;
  let n = Array.length pairs in
  let impostor = picks rng n (n / 8) in
  let requests =
    Array.mapi
      (fun k (l, p) ->
        let goal =
          Dlp.Parser.parse_literal
            (Printf.sprintf {|enroll(course%d_%d, "%s")|} p
               (Random.State.int rng courses)
               (learner l))
        in
        if impostor.(k) then
          {
            requester = learner (other rng ~learners:s.learners l);
            target = provider p;
            goal;
            expect = Policy_denial;
          }
        else { requester = learner l; target = provider p; goal; expect = grant goal })
      pairs
  in
  (programs, [ "Agency"; "University" ], requests)

(* ---- hub: §4.2's pay-per-use shape at one provider.  Each learner buys
   one course; the hub asks the Bank to approve every purchase against
   the buyer's limit.  The Bank answers from its limit table with no
   certificate, and the hub's answer carries its own Bank-signed merchant
   credential, so no wallet that serves a query grows during the run. *)

let hub_program prices =
  let buf = Buffer.create 512 in
  Array.iteri
    (fun c p -> Buffer.add_string buf (Printf.sprintf "price(course%d, %d).\n" c p))
    prices;
  Buffer.add_string buf
    {|authorizedMerchant("hub") $ true signedBy ["Bank"].
buy(Course, Party) $ Requester = Party <-{true}
  price(Course, P), approved(Party, P) @ "Bank",
  authorizedMerchant("hub") @ "Bank".
|};
  Buffer.contents buf

(* One request in eight is an impostor buying for another learner, and
   one in eight is over the buyer's limit.  Prices have four digits
   whatever the seed, so the bytes a purchase puts on the wire do not
   depend on it. *)
let hub_world rng s =
  let prices = Array.init courses (fun _ -> 1000 + Random.State.int rng 9000) in
  let n = s.learners in
  let order = Array.init n Fun.id in
  shuffle rng order;
  (* A quarter of the learners is marked: the first half of them are
     impersonated, the second half buy over their limit. *)
  let kinds = picks rng n (n / 4) in
  let marked = List.filter (fun i -> kinds.(i)) (List.init n Fun.id) in
  let impostor_of = Array.make n false and over = Array.make n false in
  List.iteri
    (fun rank i -> if rank < n / 8 then impostor_of.(i) <- true else over.(i) <- true)
    marked;
  let limits = Buffer.create (32 * n) in
  Buffer.add_string limits
    "approved(Party, Price) $ true <- limit(Party, L), Price <= L.\n";
  let requests =
    Array.map
      (fun l ->
        let c = Random.State.int rng courses in
        let price = prices.(c) in
        let limit =
          if over.(l) then Random.State.int rng price
          else price + Random.State.int rng 1000
        in
        Buffer.add_string limits
          (Printf.sprintf "limit(\"%s\", %d).\n" (learner l) limit);
        let goal =
          Dlp.Parser.parse_literal
            (Printf.sprintf {|buy(course%d, "%s")|} c (learner l))
        in
        if impostor_of.(l) then
          {
            requester = learner (other rng ~learners:n l);
            target = hub;
            goal;
            expect = Policy_denial;
          }
        else
          {
            requester = learner l;
            target = hub;
            goal;
            expect = (if over.(l) then Policy_denial else grant goal);
          })
      order
  in
  let programs =
    ((hub, hub_program prices) :: (bank, Buffer.contents limits)
    :: List.init n (fun i -> (learner i, "")))
  in
  (programs, [ bank ], requests)

let generate ~tiny ~seed workload =
  let s = shape ~tiny workload in
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  let programs, principals, requests =
    match s.kind with Durable -> market rng s | Hub -> hub_world rng s
  in
  let crashes =
    match s.kind with
    | Hub -> []
    | Durable ->
        (* Two crash-restarts of distinct providers, drained before the
           requests a third and two thirds of the way through.  The seed
           picks the victims; fixed positions keep the recovery work the
           same from seed to seed. *)
        let first = Random.State.int rng s.providers in
        let second =
          (first + 1 + Random.State.int rng (s.providers - 1)) mod s.providers
        in
        let n = Array.length requests in
        [
          { victim = provider first; drain_before = n / 3 };
          { victim = provider second; drain_before = 2 * n / 3 };
        ]
  in
  { programs; principals; requests; crashes }

(* A digest of the submission order and expectations, so two runs can be
   compared without printing the traffic. *)
let order_digest t =
  Array.to_list t.requests
  |> List.map (fun r ->
         Printf.sprintf "%s>%s:%s%s" r.requester r.target
           (Dlp.Literal.to_string r.goal)
           (match r.expect with Grant _ -> "" | Policy_denial -> " !"))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex
