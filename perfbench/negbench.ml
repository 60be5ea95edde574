(* One benchmark round in a fresh process: generate the workload from the
   seed, build the world, drive every negotiation through the reactor in
   a closed loop, check each outcome against the generator's oracle, and
   print the round's raw measurements as one JSON line.  perfbench/run.py
   runs rounds and aggregates them.

     negbench.exe --workload NAME --seed N [--tiny] [--traced]
                  [--spans-out FILE] [--scratch DIR] [--flip-expectation]

   [--traced] records the benchmark's spans, probes the layers at the
   midpoint and end checkpoints, and adds the per-layer table with its
   reconciliation; [--spans-out] writes the spans as JSONL.
   [--flip-expectation] expects the first grant to be a policy denial
   instead: a self-test of the oracle, which must stop the round with a
   safety error.  Exit codes: 0 done, 2 usage, 3 safety error (a wrong
   grant).  Disk journals of the durable workload live under
   [--scratch] and are removed when the round ends. *)

open Peertrust
module Json = Peertrust_obs.Json
module Obs = Peertrust_obs.Obs
module Registry = Peertrust_obs.Registry

let usage () =
  prerr_endline
    "usage: negbench.exe --workload hub|durable --seed N [--tiny] \
     [--traced] [--spans-out FILE] [--scratch DIR] [--flip-expectation]";
  exit 2

(* Counters the round reports: deltas over the timed phase, less what
   the checkpoint probes moved. *)
let counters =
  [
    "engine.answers"; "engine.denials"; "engine.certs_learned";
    "engine.certs_rejected"; "sld.steps"; "net.messages.answer";
    "net.messages.deny"; "reactor.retries"; "reactor.checkpoints";
    "reactor.restarts"; "guard.admitted"; "guard.stale"; "guard.rejected";
  ]

(* The setup parts may miss [setup_s] by at most this share of it: the
   rest is session creation and the fault plan, which no part covers. *)
let setup_residual_bound = 0.05

let setup_reps = 3

(* The reactor rewrites a requester's journal once this many of its root
   goals have settled since the last rewrite (its [compact_after]). *)
let compact_after = 8

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let flip_first_grant (g : Gen.t) =
  let requests = g.Gen.requests in
  match
    List.find_opt
      (fun i -> requests.(i).Gen.expect <> Gen.Policy_denial)
      (List.init (Array.length requests) Fun.id)
  with
  | Some i -> requests.(i) <- { (requests.(i)) with Gen.expect = Gen.Policy_denial }
  | None -> ()

let () =
  let workload = ref "" and seed = ref (-1) and tiny = ref false in
  let traced = ref false and spans_out = ref "" and scratch = ref "." in
  let flip = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--traced" :: rest -> traced := true; parse rest
    | "--spans-out" :: v :: rest -> spans_out := v; parse rest
    | "--scratch" :: v :: rest -> scratch := v; parse rest
    | "--flip-expectation" :: rest -> flip := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let shape =
    try Gen.shape ~tiny:!tiny !workload with Invalid_argument _ -> usage ()
  in
  if !seed < 0 then usage ();
  let g = Gen.generate ~tiny:!tiny ~seed:!seed !workload in
  if !flip then flip_first_grant g;
  let traced = !traced in
  Spans.enabled := traced;
  Obs.reset_metrics ();
  let journal_dir =
    Filename.concat !scratch
      (Printf.sprintf "journals-%s-%d-%d" !workload !seed (Unix.getpid ()))
  in
  remove_tree journal_dir;
  (* Set-up time is the median of [setup_reps] builds of the world; the
     loop runs on the last one, after a full collection of the others. *)
  let rec builds k times =
    let w = Loop.build ~traced ~journal_dir shape g in
    let times = w.Loop.setup_s :: times in
    if k <= 1 then (w, times) else builds (k - 1) times
  in
  let w, setup_times = builds setup_reps [] in
  let world_digest = Loop.world_digest w g in
  let setup_s = Probes.median setup_times in
  Gc.full_major ();
  let excluded = Hashtbl.create 16 in
  let excluded_of name = Option.value ~default:0 (Hashtbl.find_opt excluded name) in
  let probes = ref [] in
  let on_checkpoint c queries =
    if traced then begin
      let before = Obs.snapshot () in
      let p =
        Spans.with_
          (match c with Loop.Mid -> "checkpoint.mid" | Loop.End -> "checkpoint.end")
          (fun () -> Probes.take ~journal_dir ~shape w.Loop.session g queries)
      in
      let after = Obs.snapshot () in
      List.iter
        (fun name ->
          Hashtbl.replace excluded name
            (excluded_of name + Registry.counter_value after name
           - Registry.counter_value before name))
        counters;
      probes := (c, p) :: !probes
    end
  in
  let before = Obs.snapshot () and words0 = Gc.minor_words () in
  let outcome =
    try Ok (Loop.run ~slots:shape.Gen.slots ~traced ~on_checkpoint w g)
    with Loop.Safety msg -> Error msg
  in
  let words = Gc.minor_words () -. words0 in
  let after = Obs.snapshot () in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  match outcome with
  | Error msg ->
      remove_tree journal_dir;
      prerr_endline ("safety error: " ^ msg);
      exit 3
  | Ok res ->
      let counter name =
        Registry.counter_value after name - Registry.counter_value before name
        - excluded_of name
      in
      let stats = Peertrust_net.Network.stats w.Loop.session.Session.network in
      let messages = Peertrust_net.Stats.messages stats in
      let bytes = Peertrust_net.Stats.bytes stats in
      let evals = counter "engine.answers" + counter "engine.denials" in
      let verifies =
        counter "engine.certs_learned" + counter "engine.certs_rejected"
      in
      let admit_calls =
        counter "guard.admitted" + counter "guard.stale" + counter "guard.rejected"
      in
      let durable = shape.Gen.kind = Gen.Durable in
      let compactions =
        if not durable then 0
        else
          List.fold_left
            (fun acc (_, settled) -> acc + (settled / compact_after))
            0 res.Loop.settled_by
      in
      let counts =
        [
          ("messages", messages);
          ("bytes", bytes);
          ("certs", res.Loop.certs);
          ("evals", evals);
          ("useful", counter "net.messages.answer" + counter "net.messages.deny");
          ("sld_steps", counter "sld.steps");
          ("verifies", verifies);
          ("retries", counter "reactor.retries");
          ("admits", counter "guard.admitted");
          ("stale", counter "guard.stale");
          ("appends", counter "reactor.checkpoints");
          ("restarts", counter "reactor.restarts");
          ("compactions", compactions);
          ("steps", res.Loop.steps);
        ]
      in
      let journal_bytes =
        if durable then Probes.journal_bytes ~journal_dir g else 0
      in
      let n = float_of_int res.Loop.negotiations in
      let per_nego x = float_of_int x /. n in
      let layers =
        if not traced then []
        else begin
          let mid = Option.value ~default:Probes.zero (List.assoc_opt Loop.Mid !probes) in
          let fin = Option.value ~default:mid (List.assoc_opt Loop.End !probes) in
          (* Engine time per negotiation: evaluations that settle their
             goal post one answer or denial each; the rest re-park.  A
             class with no recent query at the checkpoint borrows the
             other's cost. *)
          let useful = List.assoc "useful" counts in
          let engine_us (p : Probes.t) =
            let pick a b = if a > 0. then a else b in
            (pick p.Probes.useful_us p.Probes.blocked_us *. per_nego useful)
            +. (pick p.Probes.blocked_us p.Probes.useful_us *. per_nego (evals - useful))
          in
          let per_eval p = engine_us p /. Float.max 1. (per_nego evals) in
          let secs name = fst (Spans.total name) in
          (* Set-up spans are per build. *)
          let setup_secs name = secs name /. float_of_int setup_reps in
          let step_s, nsteps = Spans.total "reactor.step" in
          let submit_s, nsubmits = Spans.total "reactor.submit" in
          let reactor_us = 1e6 *. (step_s +. submit_s +. secs "reactor.run") /. n in
          (* Lower-layer time inside the reactor's calls, per negotiation:
             the midpoint probe's unit cost times the round's exact count.
             The compaction check reads the requester's journal on every
             settle, a compaction rewrites it, and each restart replays
             the victim's journal. *)
          let attributed =
            [
              ("engine", engine_us mid);
              ("crypto", mid.Probes.verify_us *. per_nego verifies);
              ("net", mid.Probes.post_us *. per_nego messages);
              ("guard", mid.Probes.admit_us *. per_nego admit_calls);
              ( "persist",
                (mid.Probes.append_us *. per_nego (counter "reactor.checkpoints"))
                +. (1e3 *. mid.Probes.entries_ms *. per_nego res.Loop.settled)
                +. (1e3 *. mid.Probes.rewrite_ms *. per_nego compactions)
                +. (1e3 *. mid.Probes.replay_ms *. per_nego (counter "reactor.restarts")) );
            ]
          in
          let self_us =
            reactor_us -. List.fold_left (fun acc (_, v) -> acc +. v) 0. attributed
          in
          let peer_s =
            setup_secs "setup.peer" -. setup_secs "setup.load" -. setup_secs "setup.sign"
          in
          let parts =
            [
              ("keygen", 1e3 *. setup_secs "setup.keygen");
              ("load", 1e3 *. setup_secs "setup.load");
              ("sign", 1e3 *. setup_secs "setup.sign");
              ("peers", 1e3 *. peer_s);
              ("create", 1e3 *. setup_secs "setup.create");
            ]
          in
          let setup_ms =
            1e3 *. List.fold_left ( +. ) 0. setup_times /. float_of_int setup_reps
          in
          let residual_ms =
            setup_ms -. List.fold_left (fun acc (_, v) -> acc +. v) 0. parts
          in
          let wallet_max =
            Hashtbl.fold
              (fun _ (p : Peer.t) acc -> max acc (Hashtbl.length p.Peer.certs))
              w.Loop.session.Session.peers 0
          in
          let metrics =
            [
              ("reactor.step_us", 1e6 *. step_s /. float_of_int (max 1 nsteps));
              ("reactor.submit_us", 1e6 *. submit_s /. float_of_int (max 1 nsubmits));
              ("reactor.create_ms", 1e3 *. setup_secs "setup.create");
              ("reactor.evals_per_nego", per_nego evals);
              ( "reactor.useful_eval_ratio",
                float_of_int (List.assoc "useful" counts) /. float_of_int (max 1 evals) );
              ("reactor.parked_mean", res.Loop.parked_mean);
              ("reactor.self_us_per_nego", self_us);
              ("reactor.retries_per_nego", per_nego (counter "reactor.retries"));
              ("engine.answer_us", per_eval mid);
              ( "engine.answer_growth",
                if per_eval mid > 0. then per_eval fin /. per_eval mid else 0. );
              ("engine.wallet_max", float_of_int wallet_max);
              ("dlp.sld_steps_per_nego", per_nego (counter "sld.steps"));
              ("dlp.load_ms", 1e3 *. setup_secs "setup.load");
              ("crypto.verifies_per_nego", per_nego verifies);
              ("crypto.verify_us", mid.Probes.verify_us);
              ("crypto.sign_ms", 1e3 *. setup_secs "setup.sign");
              ("crypto.keygen_ms", 1e3 *. setup_secs "setup.keygen");
              ("net.post_us", mid.Probes.post_us);
              ( "net.bytes_per_msg",
                float_of_int bytes /. float_of_int (max 1 messages) );
              ("guard.admits_per_nego", per_nego (counter "guard.admitted"));
              ("guard.admit_us", mid.Probes.admit_us);
              ("guard.stale_per_nego", per_nego (counter "guard.stale"));
              ("persist.appends_per_nego", per_nego (counter "reactor.checkpoints"));
              ("persist.append_us", mid.Probes.append_us);
              ("persist.entries_ms", mid.Probes.entries_ms);
              ("persist.rewrite_ms", mid.Probes.rewrite_ms);
              ("persist.replay_ms", mid.Probes.replay_ms);
              ("persist.journal_kb", float_of_int journal_bytes /. 1024.);
              ("harness.poll_share", secs "harness.poll" /. res.Loop.wall_s);
              ("harness.setup_residual_share", residual_ms /. setup_ms);
            ]
          in
          let floats l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
          if !spans_out <> "" then Spans.write !spans_out;
          [
            ("layers", floats metrics);
            ( "attribution_us_per_nego",
              floats (attributed @ [ ("reactor_self", self_us); ("reactor_total", reactor_us) ]) );
            ("setup_parts_ms", floats (parts @ [ ("residual", residual_ms) ]));
            ( "probes",
              Json.Obj
                (List.map
                   (fun (c, (p : Probes.t)) ->
                     ( (match c with Loop.Mid -> "mid" | Loop.End -> "end"),
                       floats
                         [
                           ("useful_us", p.Probes.useful_us);
                           ("blocked_us", p.Probes.blocked_us);
                           ("verify_us", p.Probes.verify_us);
                           ("post_us", p.Probes.post_us);
                           ("admit_us", p.Probes.admit_us);
                           ("append_us", p.Probes.append_us);
                           ("entries_ms", p.Probes.entries_ms);
                           ("rewrite_ms", p.Probes.rewrite_ms);
                           ("replay_ms", p.Probes.replay_ms);
                         ] ))
                   (List.rev !probes)) );
            ( "reconciled",
              Json.Bool
                (self_us >= 0.
                && Float.abs residual_ms <= setup_residual_bound *. setup_ms) );
            ("setup_residual_bound", Json.Float setup_residual_bound);
          ]
        end
      in
      remove_tree journal_dir;
      let int k v = (k, Json.Int v) and float k v = (k, Json.Float v) in
      let fields =
        [
          ("workload", Json.Str !workload);
          int "seed" !seed;
          ("traced", Json.Bool traced);
          ("order_digest", Json.Str (Gen.order_digest g));
          ("world_digest", Json.Str world_digest);
          int "negotiations" res.Loop.negotiations;
          int "settled" res.Loop.settled;
          int "failed" res.Loop.failed;
          ( "fail_classes",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) res.Loop.fail_classes) );
          ("first_failure", Json.Str res.Loop.first_failure);
          float "setup_s" setup_s;
          ("setup_times_s", Json.List (List.rev_map (fun t -> Json.Float t) setup_times));
          float "wall_s" res.Loop.wall_s;
          ( "latencies_ms",
            Json.List
              (Array.to_list
                 (Array.map (fun l -> Json.Float l) res.Loop.latencies_ms)) );
          float "heap_peak_mb" heap_peak_mb;
          float "alloc_kw_per_nego" (words /. n /. 1e3);
          ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counts));
        ]
        @ layers
      in
      print_endline (Json.to_string (Json.Obj fields))
