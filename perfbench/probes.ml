(* Unit costs of the layers under the reactor, probed from outside the
   library at a checkpoint while the loop is paused.  Each probe calls a
   layer's public entry point on the round's own state and inputs:
   the most recent queries on the wire, the certificates learned so far,
   the journals on disk.  Probes leave the reactor's state as they found it; the caller
   discounts the counters they move. *)

open Peertrust
module Net = Peertrust_net
module Crypto = Peertrust_crypto
module Journal = Persist.Journal

type t = {
  useful_us : float;
      (** [Engine.answer] on a recent query whose evaluation settles it *)
  blocked_us : float;
      (** [Engine.answer] on a recent query still blocked on a sub-query *)
  verify_us : float;  (** [Cert.verify] on a learned certificate *)
  post_us : float;  (** [Network.post] of a query or an answer *)
  admit_us : float;  (** [Guard.admit] of the same payloads; 0 unguarded *)
  append_us : float;  (** [Journal.append] of one journal entry; 0 unjournalled *)
  entries_ms : float;  (** [Journal.entries] of a learner journal, mean *)
  rewrite_ms : float;
      (** [Journal.rewrite] of a learner journal's live entries, mean *)
  replay_ms : float;  (** [Journal.replay_peer] of the first crash victim *)
}

let zero =
  {
    useful_us = 0.; blocked_us = 0.; verify_us = 0.; post_us = 0.;
    admit_us = 0.; append_us = 0.; entries_ms = 0.; rewrite_ms = 0.;
    replay_ms = 0.;
  }

(* A probe repeats its calls at least [min_reps] times and until it has
   run [min_probe_s], and reports the median repetition, so a preempted
   repetition does not count. *)
let min_probe_s = 0.005
let min_reps = 3
let max_reps = 2000

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Median seconds of [run (prepare ())] over the repetitions, inside one
   probe span; [prepare] is not timed. *)
let timed name ~prepare run =
  Spans.with_ name (fun () ->
      let t0 = Spans.now () in
      let rec go reps times =
        let x = prepare () in
        let r0 = Spans.now () in
        run x;
        let r1 = Spans.now () in
        let times = Spans.seconds_between r0 r1 :: times in
        if
          (reps >= min_reps && Spans.seconds_between t0 r1 >= min_probe_s)
          || reps >= max_reps
        then median times
        else go (reps + 1) times
      in
      go 1 [])

(* Seconds per call of [f] over [items]. *)
let per_call name items f =
  match items with
  | [] -> 0.
  | _ ->
      timed name ~prepare:ignore (fun () -> List.iter f items)
      /. float_of_int (List.length items)

(* Certificates peers received during the round (those with an origin),
   by serial, at most [max_certs] of them spread evenly over the serials. *)
let max_certs = 64

let learned_certs (session : Session.t) =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (p : Peer.t) ->
      Hashtbl.iter
        (fun _ (c : Crypto.Cert.t) ->
          if Hashtbl.mem p.Peer.origins c.Crypto.Cert.serial then
            Hashtbl.replace seen c.Crypto.Cert.serial c)
        p.Peer.certs)
    session.Session.peers;
  let all =
    Hashtbl.fold (fun _ c acc -> c :: acc) seen []
    |> List.sort (fun (a : Crypto.Cert.t) b -> Int.compare a.serial b.serial)
    |> Array.of_list
  in
  let n = Array.length all in
  if n <= max_certs then Array.to_list all
  else List.init max_certs (fun i -> all.(i * n / max_certs))

(* The last position of [sep] in [s]. *)
let rfind s sep =
  let k = String.length sep in
  let rec go i =
    if i < 0 then None else if String.sub s i k = sep then Some i else go (i - 1)
  in
  go (String.length s - k)

(* The payload of a query, answer or denial in the transcript, rebuilt
   from its summary: ["query G"], ["answer G: N instance(s), M cert(s)"]
   or ["deny G (reason)"], with any fault note [" [...]"] stripped.  An
   answer carries [M] of [certs] and the goal as its instance.  [None]
   for other messages. *)
let payload_of ~certs (e : Net.Network.entry) =
  let s = e.Net.Network.summary in
  let s =
    match rfind s " [" with
    | Some i when s.[String.length s - 1] = ']' -> String.sub s 0 i
    | _ -> s
  in
  let sub a b = String.sub s a (b - a) in
  let goal a b = Peertrust_dlp.Parser.parse_literal (sub a b) in
  let n = String.length s in
  let payload () =
    match String.index_opt s ' ' with
    | None -> None
    | Some i -> (
        match (String.sub s 0 i, rfind s ": ", rfind s " (") with
        | "query", _, _ -> Some (Net.Message.Query { goal = goal (i + 1) n })
        | "answer", Some j, _ ->
            let g = goal (i + 1) j in
            let m = Scanf.sscanf (sub j n) ": %d instance(s), %d cert(s)" (fun _ m -> m) in
            Some
              (Net.Message.Answer
                 { goal = g; instances = [ (g, None) ];
                   certs = List.filteri (fun k _ -> k < m) certs })
        | "deny", _, Some j ->
            Some (Net.Message.Deny { goal = goal (i + 1) j; reason = sub (j + 2) (n - 1) })
        | _ -> None)
  in
  match payload () with
  | Some p -> Some (e.Net.Network.from, e.Net.Network.target, p)
  | None -> None
  | exception
      ( Peertrust_dlp.Parser.Error _ | Peertrust_dlp.Lexer.Error _
      | Scanf.Scan_failure _ | End_of_file ) ->
      None

let journal ~journal_dir name = Journal.for_peer ~dir:journal_dir ~peer:name

let entries j = match Journal.entries j with Ok es -> es | Error _ -> []

(* Journal bytes on disk over every peer. *)
let journal_bytes ~journal_dir (g : Gen.t) =
  List.fold_left
    (fun acc (name, _) ->
      acc + String.length (Journal.contents (journal ~journal_dir name)))
    0 g.Gen.programs

let persist ~journal_dir (g : Gen.t) =
  let learners =
    List.filter_map
      (fun (name, _) ->
        if String.starts_with ~prefix:"learner" name then Some name else None)
      g.Gen.programs
  in
  let sized =
    List.map
      (fun name -> (String.length (Journal.contents (journal ~journal_dir name)), name))
      learners
  in
  let largest = snd (List.fold_left max (List.hd sized) sized) in
  let scratch_path = journal_dir ^ "-probe.journal" in
  let scratch = Journal.on_disk scratch_path in
  let append_us =
    1e6
    *. per_call "probe.persist.append"
         (entries (journal ~journal_dir largest))
         (Journal.append scratch)
  in
  if Sys.file_exists scratch_path then Sys.remove scratch_path;
  (* Compaction rewrites a requester's journal without its finished
     goals and without duplicates, as the reactor computes them; only the
     rewrite is timed.  The mean over the learners' journals. *)
  let live name =
    let es = entries (journal ~journal_dir name) in
    let finished =
      List.filter_map (function Journal.Done { id } -> Some id | _ -> None) es
    in
    List.fold_left
      (fun acc e ->
        match e with
        | (Journal.Done { id } | Journal.Goal { id; _ }) when List.mem id finished
          ->
            acc
        | e -> if List.mem e acc then acc else e :: acc)
      [] es
    |> List.rev
  in
  let rewrite_ms =
    1e3
    *. per_call "probe.persist.rewrite" (List.map live learners)
         (Journal.rewrite scratch)
  in
  if Sys.file_exists scratch_path then Sys.remove scratch_path;
  (* The compaction check re-reads the requester's journal on every
     settle: the mean read over the learners' journals. *)
  let entries_ms =
    1e3
    *. per_call "probe.persist.entries" learners (fun name ->
           ignore (Journal.entries (journal ~journal_dir name)))
  in
  (* Replay into a freshly booted copy of the victim each time, as a
     restart does; booting it is not timed. *)
  let replay_ms =
    match g.Gen.crashes with
    | [] -> 0.
    | { Gen.victim; _ } :: _ ->
        let es = entries (journal ~journal_dir victim) in
        let program = List.assoc victim g.Gen.programs in
        1e3
        *. timed "probe.persist.replay"
             ~prepare:(fun () ->
               let peer = Peer.create victim in
               Peer.load_program peer program;
               peer)
             (fun peer -> Journal.replay_peer peer es)
  in
  (append_us, entries_ms, rewrite_ms, replay_ms)

let take ~journal_dir ~(shape : Gen.shape) (session : Session.t) (g : Gen.t)
    recent =
  let certs = learned_certs session in
  let payloads = List.filter_map (payload_of ~certs) recent in
  let requests =
    List.filter_map
      (function
        | requester, target, Net.Message.Query { goal }
          when Hashtbl.mem session.Session.peers target ->
            Some (requester, target, goal)
        | _ -> None)
      payloads
  in
  (* The reactor's own collector: a remote sub-goal is recorded as
     blocked and answers nothing.  A goal whose evaluation records none
     settles (answer or denial); the others re-park. *)
  let blocked = ref [] in
  let collector ~target lit =
    blocked := (target, lit) :: !blocked;
    []
  in
  let answer (requester, target, goal) =
    blocked := [];
    ignore
      (Engine.answer ~remote:collector session
         (Session.peer session target) ~requester goal)
  in
  let useful, parked =
    List.partition
      (fun q ->
        answer q;
        !blocked = [])
      requests
  in
  let useful_us = 1e6 *. per_call "probe.engine.answer" useful answer in
  let blocked_us = 1e6 *. per_call "probe.engine.answer" parked answer in
  let now = session.Session.config.Session.now in
  let verify c = Crypto.Cert.verify session.Session.keystore ~now c in
  let verify_us =
    1e6 *. per_call "probe.crypto.verify" certs (fun c -> ignore (verify c))
  in
  let scratch_net = Net.Network.create () in
  let post_us =
    1e6
    *. per_call "probe.net.post" payloads (fun (from, target, p) ->
           ignore (Net.Network.post scratch_net ~from ~target p))
  in
  let durable = shape.Gen.kind = Gen.Durable in
  let admit_us =
    if not durable then 0.
    else
      let guard =
        Guard.create ~config:Guard.defaults ~verify:(fun c -> verify c = Ok ()) ()
      in
      let tick = ref 0 in
      1e6
      *. per_call "probe.guard.admit" payloads (fun (from, target, p) ->
             (* one rate window apart, so admission never rate-limits *)
             tick := !tick + Guard.defaults.Guard.rate_window;
             ignore
               (Guard.admit guard ~now:!tick ~from ~target
                  ~solicited:(fun _ -> `Outstanding)
                  p))
  in
  let append_us, entries_ms, rewrite_ms, replay_ms =
    if durable then persist ~journal_dir g else (0., 0., 0., 0.)
  in
  {
    useful_us;
    blocked_us;
    verify_us;
    post_us;
    admit_us;
    append_us;
    entries_ms;
    rewrite_ms;
    replay_ms;
  }
