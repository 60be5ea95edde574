(* The peertrust command-line tool.

   Subcommands:
     parse      check and pretty-print a policy program, with lint warnings
     eval       evaluate a query against a program (backward chaining)
     forward    saturate a program (forward chaining) and print the facts
     negotiate  run a trust negotiation between peers loaded from files
     scenario   run one of the paper's built-in scenarios
     trace      reconstruct cross-peer timelines from a span log
*)

open Cmdliner
module Dlp = Peertrust_dlp
module Pobs = Peertrust_obs
open Peertrust

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

(* ------------------------------------------------------------------ *)
(* Observability plumbing shared by negotiate and scenario *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write a metrics JSON snapshot of the run here.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL span log of the run here (input format of the \
           trace subcommand).")

let trace_chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-chrome" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run here (loadable in \
           chrome://tracing or Perfetto).")

let trace_causal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-causal" ] ~docv:"FILE"
        ~doc:
          "Write a flat causal JSONL stream here: one record per span \
           start, point event and span end, in tick order.")

(* Reset the global metrics, install a tracer on the session clock when
   spans are wanted (a trace file or -v), and return the finaliser that
   writes the artifacts and, under -v, renders the span tree. *)
let setup_obs ~verbose ~metrics_out ~trace_out ?trace_chrome ?trace_causal
    session =
  Pobs.Obs.reset_metrics ();
  let tracing =
    verbose || trace_out <> None || trace_chrome <> None
    || trace_causal <> None
  in
  if tracing then begin
    let clock = Peertrust_net.Network.clock session.Session.network in
    Pobs.Obs.set_tracer
      (Pobs.Tracer.create ~now:(fun () -> Peertrust_net.Clock.now clock) ())
  end;
  fun () ->
    let spans = Pobs.Obs.spans () in
    let write what file f =
      try f file
      with Sys_error reason ->
        Printf.eprintf "error: cannot write %s to %s (%s)\n" what file reason;
        exit 1
    in
    Option.iter
      (fun file ->
        write "trace" file (fun file ->
            Pobs.Export.write_spans_jsonl file spans);
        Printf.printf "trace: %d span(s) written to %s\n" (List.length spans)
          file)
      trace_out;
    Option.iter
      (fun file ->
        write "chrome trace" file (fun file ->
            Pobs.Export.write_spans_chrome file spans);
        Printf.printf "chrome trace written to %s\n" file)
      trace_chrome;
    Option.iter
      (fun file ->
        write "causal stream" file (fun file ->
            Pobs.Export.write_spans_causal file spans);
        Printf.printf "causal stream written to %s\n" file)
      trace_causal;
    Option.iter
      (fun file ->
        write "metrics" file (fun file ->
            Pobs.Export.write_metrics_json file (Pobs.Obs.snapshot ()));
        Printf.printf "metrics written to %s\n" file)
      metrics_out;
    if verbose && spans <> [] then begin
      print_endline "spans:";
      print_string (Pobs.Export.span_tree spans)
    end;
    Pobs.Obs.disable_tracing ()

(* ------------------------------------------------------------------ *)
(* Fault-injection flags shared by negotiate and scenario *)

type fault_opts = {
  fo_seed : int option;
  fo_drop : float;
  fo_duplicate : float;
  fo_delay : float;
  fo_delay_max : int;
  fo_reorder : float;
  fo_outages : (string * int * int) list;
  fo_crashes : (string * int * int) list;
  fo_journal : string option;
}

let fault_opts_term =
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "Seed for the deterministic fault plan; required by the \
             probability flags below.")
  in
  let prob name doc =
    Arg.(value & opt float 0. & info [ name ] ~docv:"P" ~doc)
  in
  let drop = prob "drop" "Per-message drop probability in [0,1]." in
  let duplicate = prob "duplicate" "Per-message duplication probability." in
  let delay = prob "delay" "Per-message extra-delay probability." in
  let delay_max =
    Arg.(
      value & opt int 4
      & info [ "delay-max" ] ~docv:"TICKS"
          ~doc:"Maximum extra delivery delay in simulated ticks.")
  in
  let reorder = prob "reorder" "Per-message reordering probability." in
  let outage_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ peer; a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some f, Some u when 0 <= f && f <= u -> Ok (peer, f, u)
          | _ -> Error (`Msg "expected PEER:FROM:UNTIL with 0 <= FROM <= UNTIL")
          )
      | _ -> Error (`Msg "expected PEER:FROM:UNTIL")
    in
    Arg.conv (parse, fun fmt (p, f, u) -> Format.fprintf fmt "%s:%d:%d" p f u)
  in
  let outages =
    Arg.(
      value
      & opt_all outage_conv []
      & info [ "outage" ] ~docv:"PEER:FROM:UNTIL"
          ~doc:
            "Make PEER unreachable for the simulated-clock window \
             [FROM,UNTIL) (repeatable).")
  in
  let crash_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ peer; a ] -> (
          match int_of_string_opt a with
          | Some at when at >= 0 -> Ok (peer, at, max_int)
          | _ -> Error (`Msg "expected PEER:TICK[:RESTART] with TICK >= 0"))
      | [ peer; a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some at, Some r when 0 <= at && at < r -> Ok (peer, at, r)
          | _ ->
              Error (`Msg "expected PEER:TICK[:RESTART] with 0 <= TICK < RESTART")
          )
      | _ -> Error (`Msg "expected PEER:TICK[:RESTART]")
    in
    Arg.conv
      ( parse,
        fun fmt (p, a, r) ->
          if r = max_int then Format.fprintf fmt "%s:%d" p a
          else Format.fprintf fmt "%s:%d:%d" p a r )
  in
  let crashes =
    Arg.(
      value
      & opt_all crash_conv []
      & info [ "crash" ] ~docv:"PEER:TICK[:RESTART]"
          ~doc:
            "Crash-stop PEER at simulated tick TICK, wiping its volatile \
             state; with RESTART it comes back at that tick under a new \
             incarnation (repeatable).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Keep per-peer write-ahead journals under DIR (created on \
             demand) and replay them at restart, so crashed peers recover \
             learned credentials and unfinished goals; implies the \
             relevant strategy.")
  in
  let make fo_seed fo_drop fo_duplicate fo_delay fo_delay_max fo_reorder
      fo_outages fo_crashes fo_journal =
    {
      fo_seed;
      fo_drop;
      fo_duplicate;
      fo_delay;
      fo_delay_max;
      fo_reorder;
      fo_outages;
      fo_crashes;
      fo_journal;
    }
  in
  Term.(
    const make $ seed $ drop $ duplicate $ delay $ delay_max $ reorder
    $ outages $ crashes $ journal)

(* ------------------------------------------------------------------ *)
(* Guard and adversary flags shared by negotiate and scenario *)

type guard_opts = {
  go_on : bool;
  go_rate : int option;
  go_quota : int option;
  go_quarantine : int option;
}

let guard_opts_term =
  let on =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Enable the inbound guard layer at every peer: payload checks, \
             per-requester rate limits and work quotas, and a quarantine \
             circuit breaker (implies the relevant strategy; implied by \
             --rate/--quota/--quarantine).")
  in
  let rate =
    Arg.(
      value
      & opt (some int) None
      & info [ "rate" ] ~docv:"N"
          ~doc:
            "Queries admitted per requester per rate window (implies \
             --guard).")
  in
  let quota =
    Arg.(
      value
      & opt (some int) None
      & info [ "quota" ] ~docv:"STEPS"
          ~doc:
            "Resolution steps a requester may burn at a peer over the whole \
             run (implies --guard).")
  in
  let quarantine =
    Arg.(
      value
      & opt (some int) None
      & info [ "quarantine" ] ~docv:"TICKS"
          ~doc:
            "Quarantine duration once a requester trips the breaker \
             (implies --guard).")
  in
  let make go_on go_rate go_quota go_quarantine =
    { go_on; go_rate; go_quota; go_quarantine }
  in
  Term.(const make $ on $ rate $ quota $ quarantine)

let guard_requested o =
  o.go_on || o.go_rate <> None || o.go_quota <> None || o.go_quarantine <> None

let resolve_guard o =
  if not (guard_requested o) then Guard.permissive
  else
    let d = Guard.defaults in
    {
      d with
      Guard.rate = Option.value ~default:d.Guard.rate o.go_rate;
      quota = Option.value ~default:d.Guard.quota o.go_quota;
      quarantine_ticks =
        Option.value ~default:d.Guard.quarantine_ticks o.go_quarantine;
    }

let adversary_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "adversary" ] ~docv:"PEER:BEHAVIORS"
        ~doc:
          "Attach a misbehaving peer, e.g. mallory:flood,malformed or \
           trudy:bomb=40 (repeatable; implies the relevant strategy).  \
           Behaviors: flood[=N], malformed[=N], unsolicited[=N], replay, \
           forged, oversized[=BYTES], bomb[=DEPTH].")

let parse_adversaries specs =
  List.mapi
    (fun i spec ->
      match String.index_opt spec ':' with
      | None ->
          Printf.eprintf
            "bad --adversary %S (expected PEER:BEHAVIOR[,BEHAVIOR...])\n" spec;
          exit 1
      | Some j ->
          let name = String.sub spec 0 j in
          let behaviors =
            String.sub spec (j + 1) (String.length spec - j - 1)
            |> String.split_on_char ','
            |> List.map (fun b ->
                   match Peertrust_net.Adversary.behavior_of_string b with
                   | Ok b -> b
                   | Error msg ->
                       Printf.eprintf "bad --adversary %S: %s\n" spec msg;
                       exit 1)
          in
          Peertrust_net.Adversary.create
            ~seed:(Int64.of_int (i + 1))
            ~name behaviors)
    specs

(* Post-run guard/adversary accounting, printed whenever either feature
   was on (reads the same metrics registry setup_obs resets). *)
let print_guard_summary ~guarded ~adversaries () =
  if guarded || adversaries <> [] then begin
    let snapshot = Pobs.Obs.snapshot () in
    let c name = Pobs.Registry.counter_value snapshot name in
    Printf.printf
      "guard: %d admitted, %d rejected, %d stale, %d quarantine(s), %d \
       recovery(ies)\n"
      (c "guard.admitted") (c "guard.rejected") (c "guard.stale")
      (c "guard.quarantines") (c "guard.recoveries");
    if adversaries <> [] then
      Printf.printf "adversary: %d action(s) sent by %d peer(s)\n"
        (c "adversary.actions")
        (List.length adversaries)
  end

(* ------------------------------------------------------------------ *)
(* Answer-cache flags shared by negotiate and scenario *)

type cache_opts = { co_on : bool; co_off : bool; co_ttl : int }

let cache_opts_term =
  let cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Enable the cross-negotiation answer cache (implies the \
             relevant strategy).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Explicitly disable the answer cache (overrides --cache).")
  in
  let ttl =
    Arg.(
      value & opt int 1024
      & info [ "cache-ttl" ] ~docv:"TICKS"
          ~doc:"Lifetime of cached answers in simulated clock ticks.")
  in
  let make co_on co_off co_ttl = { co_on; co_off; co_ttl } in
  Term.(const make $ cache $ no_cache $ ttl)

(* The cache requested by the flags; [--no-cache] wins over [--cache]. *)
let resolve_cache o =
  if o.co_on && not o.co_off then
    try Some (Answer_cache.create ~ttl:o.co_ttl ())
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  else None

(* Distributed-tabling flag shared by negotiate and scenario *)

let tabling_arg =
  Arg.(
    value & flag
    & info [ "tabling" ]
        ~doc:
          "Evaluate goals through the distributed tabling engine (implies \
           the relevant strategy): one table per goal at its owning \
           peer, with GEM-style termination detection, so mutually \
           recursive cross-peer policies terminate with their complete \
           answer sets.")

(* The reactor configuration implied by the cache, tabling and journal
   flags; [None] is the default configuration. *)
let reactor_config ~cache ~tabling ~journal =
  let journal =
    match journal with
    | Some dir -> Reactor.Journal_dir dir
    | None -> Reactor.Journal_off
  in
  if cache = None && (not tabling) && journal = Reactor.Journal_off then None
  else
    Some { Reactor.default_config with Reactor.cache = cache; tabling; journal }

let print_cache_summary =
  Option.iter (fun c ->
      Printf.printf "cache: %d hit(s), %d miss(es), %d entr%s, %d eviction(s), %d invalidation(s)\n"
        (Answer_cache.hits c) (Answer_cache.misses c) (Answer_cache.length c)
        (if Answer_cache.length c = 1 then "y" else "ies")
        (Answer_cache.evictions c)
        (Answer_cache.invalidations c))

(* Install the requested fault plan on the session network.  Returns
   [true] when a fault plan or a journal needs the reactor. *)
let install_faults session o =
  let has_rates =
    o.fo_drop > 0. || o.fo_duplicate > 0. || o.fo_delay > 0.
    || o.fo_reorder > 0.
  in
  let plan =
    match o.fo_seed with
    | Some seed -> (
        try
          Peertrust_net.Faults.create ~drop:o.fo_drop
            ~duplicate:o.fo_duplicate ~delay:o.fo_delay
            ~delay_max:o.fo_delay_max ~reorder:o.fo_reorder
            ~seed:(Int64.of_int seed) ()
        with Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1)
    | None ->
        if has_rates then begin
          Printf.eprintf
            "error: --drop/--duplicate/--delay/--reorder require \
             --fault-seed\n";
          exit 1
        end;
        Peertrust_net.Faults.none ()
  in
  List.iter
    (fun (peer, from_tick, until_tick) ->
      Peertrust_net.Faults.add_outage plan ~peer ~from_tick ~until_tick)
    o.fo_outages;
  (try
     List.iter
       (fun (peer, at_tick, restart_tick) ->
         Peertrust_net.Faults.add_crash plan ~peer ~at_tick ~restart_tick)
       o.fo_crashes
   with Invalid_argument msg ->
     Printf.eprintf "error: %s\n" msg;
     exit 1);
  let active = not (Peertrust_net.Faults.is_none plan) in
  if active then Peertrust_net.Network.set_faults session.Session.network plan;
  active || o.fo_journal <> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let handle_syntax_errors f =
  try f () with
  | Dlp.Parser.Error (msg, line, col) ->
      Printf.eprintf "syntax error at %d:%d: %s\n" line col msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* Arguments *)

let program_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Policy program file.")

let self_arg =
  Arg.(
    value & opt string "self"
    & info [ "self" ] ~docv:"NAME" ~doc:"Name of the local peer.")

let query_arg ~pos_index =
  Arg.(
    required
    & pos pos_index (some string) None
    & info [] ~docv:"QUERY" ~doc:"Goal conjunction, e.g. 'p(X), q(X)'.")

(* ------------------------------------------------------------------ *)
(* parse *)

let parse_cmd =
  let run file =
    handle_syntax_errors @@ fun () ->
    let rules = Dlp.Program.parse (read_file file) in
    print_endline (Dlp.Program.to_string rules);
    let warnings = Dlp.Program.check rules in
    List.iter
      (fun w -> Format.eprintf "warning: %a@." Dlp.Program.pp_warning w)
      warnings;
    Printf.printf "%% %d rule(s), %d warning(s)\n" (List.length rules)
      (List.length warnings)
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse, lint and pretty-print a policy program.")
    Term.(const run $ program_file)

(* ------------------------------------------------------------------ *)
(* eval *)

let eval_cmd =
  let run file self query max_solutions engine =
    handle_syntax_errors @@ fun () ->
    let kb = Dlp.Kb.of_string (read_file file) in
    let goals = Dlp.Parser.parse_query query in
    let answers =
      match engine with
      | "sld" ->
          let options = { Dlp.Sld.default_options with max_solutions } in
          Dlp.Sld.answers ~options ~self kb goals
      | "tabled" ->
          (try Dlp.Tabled.solve ~self kb goals
           with Dlp.Tabled.Unsupported msg ->
             Printf.eprintf "tabled: %s\n" msg;
             exit 1)
      | other ->
          Printf.eprintf "unknown engine %S (sld or tabled)\n" other;
          exit 1
    in
    if answers = [] then print_endline "no."
    else
      List.iter
        (fun s ->
          if Dlp.Subst.is_empty s then print_endline "yes."
          else print_endline (Dlp.Subst.to_string s))
        answers
  in
  let max_solutions =
    Arg.(
      value & opt int 32
      & info [ "n"; "max-solutions" ] ~docv:"N" ~doc:"Answer limit.")
  in
  let engine =
    Arg.(
      value & opt string "sld"
      & info [ "engine" ] ~docv:"E"
          ~doc:"Evaluation engine: sld (depth-first) or tabled.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a query with backward chaining.")
    Term.(const run $ program_file $ self_arg $ query_arg ~pos_index:1
          $ max_solutions $ engine)

(* ------------------------------------------------------------------ *)
(* forward *)

let forward_cmd =
  let run file self =
    handle_syntax_errors @@ fun () ->
    let kb = Dlp.Kb.of_string (read_file file) in
    let result = Dlp.Forward.saturate ~self kb in
    List.iter
      (fun l -> print_endline (Dlp.Literal.to_string l))
      result.Dlp.Forward.facts;
    Printf.printf "%% %d fact(s), %d derived, %d round(s)\n"
      (List.length result.Dlp.Forward.facts)
      result.Dlp.Forward.derived result.Dlp.Forward.rounds
  in
  Cmd.v
    (Cmd.info "forward" ~doc:"Saturate a program with forward chaining.")
    Term.(const run $ program_file $ self_arg)

(* ------------------------------------------------------------------ *)
(* negotiate *)

let negotiate_cmd =
  let run verbose peer_specs requester target goal strategy show_transcript
      narrative mermaid wallet save_wallet save_world metrics_out trace_out
      trace_chrome trace_causal fault_opts cache_opts guard_opts
      adversary_specs tabling =
    setup_logs verbose;
    handle_syntax_errors @@ fun () ->
    let guarded = guard_requested guard_opts in
    let session =
      Session.create
        ~config:
          { Session.default_config with Session.guard = resolve_guard guard_opts }
        ()
    in
    List.iter
      (fun spec ->
        match String.index_opt spec '=' with
        | None ->
            Printf.eprintf "bad --peer %S (expected name=file)\n" spec;
            exit 1
        | Some i ->
            let name = String.sub spec 0 i in
            let file = String.sub spec (i + 1) (String.length spec - i - 1) in
            ignore (Session.add_peer session ~program:(read_file file) name))
      peer_specs;
    (* Import a credential wallet into the requester. *)
    Option.iter
      (fun file ->
        match Peertrust_crypto.Wire.decode_many (read_file file) with
        | Ok certs ->
            Engine.learn session (Session.peer session requester) certs
        | Error e ->
            Format.eprintf "wallet %s: %a@." file Peertrust_crypto.Wire.pp_error e;
            exit 1)
      wallet;
    let strategy =
      match strategy with
      | "relevant" -> Strategy.Relevant
      | "eager" -> Strategy.Eager
      | "push" | "push-relevant" -> Strategy.Push_relevant
      | other ->
          Printf.eprintf "unknown strategy %S\n" other;
          exit 1
    in
    let cache = resolve_cache cache_opts in
    let adversaries = parse_adversaries adversary_specs in
    let reactor_only =
      install_faults session fault_opts
      || cache <> None || tabling || guarded || adversaries <> []
    in
    let finish_obs =
      setup_obs ~verbose ~metrics_out ~trace_out ?trace_chrome ?trace_causal
        session
    in
    let report =
      (* The reactor negotiates relevant-style; faulted (cached, tabled,
         guarded, adversarial, journalled) runs need it whatever the
         strategy. *)
      if strategy = Strategy.Relevant || reactor_only then
        Reactor.negotiate
          ?config:(reactor_config ~cache ~tabling ~journal:fault_opts.fo_journal)
          ~adversaries session ~requester ~target
          (Dlp.Parser.parse_literal goal)
      else Strategy.negotiate_str session ~strategy ~requester ~target goal
    in
    Format.printf "%a@." Negotiation.pp_report report;
    print_cache_summary cache;
    print_guard_summary ~guarded ~adversaries ();
    if narrative then print_endline (Explain.narrative report);
    if mermaid then print_string (Explain.sequence_diagram report);
    if show_transcript then
      List.iter
        (fun e ->
          Format.printf "[%4d] %s -> %s: %s@." e.Peertrust_net.Network.time
            e.Peertrust_net.Network.from e.Peertrust_net.Network.target
            e.Peertrust_net.Network.summary)
        report.Negotiation.transcript;
    (* Export the requester's credentials (own plus acquired). *)
    Option.iter
      (fun file ->
        let peer = Session.peer session requester in
        let certs = Hashtbl.fold (fun _ c acc -> c :: acc) peer.Peer.certs [] in
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Peertrust_crypto.Wire.encode_many certs));
        Printf.printf "wallet: %d certificate(s) written to %s\n"
          (List.length certs) file)
      save_wallet;
    Option.iter
      (fun dir ->
        Persist.save session ~dir;
        Printf.printf "world saved to %s\n" dir)
      save_world;
    finish_obs ();
    exit (if Negotiation.succeeded report then 0 else 2)
  in
  let peers =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "p"; "peer" ] ~docv:"NAME=FILE"
          ~doc:"Add a peer with the given policy program (repeatable).")
  in
  let requester =
    Arg.(
      required
      & opt (some string) None
      & info [ "requester" ] ~docv:"NAME" ~doc:"Requesting peer.")
  in
  let target =
    Arg.(
      required
      & opt (some string) None
      & info [ "target" ] ~docv:"NAME" ~doc:"Peer owning the resource.")
  in
  let goal =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GOAL" ~doc:"Requested literal.")
  in
  let strategy =
    Arg.(
      value & opt string "relevant"
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Negotiation strategy: relevant, eager or push-relevant.")
  in
  let transcript =
    Arg.(value & flag & info [ "transcript" ] ~doc:"Print the message log.")
  in
  let narrative =
    Arg.(
      value & flag
      & info [ "narrative" ] ~doc:"Print a prose account of the negotiation.")
  in
  let mermaid =
    Arg.(
      value & flag
      & info [ "mermaid" ] ~doc:"Print a Mermaid sequence diagram.")
  in
  let save_world =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-world" ] ~docv:"DIR"
          ~doc:
            "Save the post-negotiation world here: per peer, its program \
             (.pt) and its journal (.journal), which holds its wallet.")
  in
  let wallet =
    Arg.(
      value
      & opt (some file) None
      & info [ "wallet" ] ~docv:"FILE"
          ~doc:"Import this credential wallet into the requester first.")
  in
  let save_wallet =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-wallet" ] ~docv:"FILE"
          ~doc:"Write the requester's credentials (own and acquired) here.")
  in
  Cmd.v
    (Cmd.info "negotiate" ~doc:"Run a trust negotiation between peers.")
    Term.(
      const run $ verbose_arg $ peers $ requester $ target $ goal $ strategy
      $ transcript $ narrative $ mermaid $ wallet $ save_wallet $ save_world
      $ metrics_out_arg $ trace_out_arg $ trace_chrome_arg $ trace_causal_arg
      $ fault_opts_term $ cache_opts_term $ guard_opts_term $ adversary_arg
      $ tabling_arg)

(* ------------------------------------------------------------------ *)
(* world: negotiate inside a saved world directory *)

let world_cmd =
  let run verbose dir requester target goal save =
    setup_logs verbose;
    handle_syntax_errors @@ fun () ->
    match Persist.load ~dir () with
    | Error e ->
        Format.eprintf "%a@." Persist.pp_error e;
        exit 1
    | Ok session -> (
        match goal with
        | None ->
            (* Just describe the world. *)
            List.iter
              (fun name ->
                let peer = Session.peer session name in
                Printf.printf "%s: %d rule(s), %d certificate(s)\n" name
                  (Dlp.Kb.size peer.Peer.kb)
                  (Hashtbl.length peer.Peer.certs))
              (Session.peer_names session)
        | Some goal ->
            let required what = function
              | Some v -> v
              | None ->
                  Printf.eprintf "--%s required with a goal\n" what;
                  exit 1
            in
            let requester = required "requester" requester in
            let target = required "target" target in
            let report =
              Strategy.negotiate_str session ~strategy:Relevant ~requester
                ~target goal
            in
            Format.printf "%a@." Negotiation.pp_report report;
            Option.iter
              (fun out ->
                Persist.save session ~dir:out;
                Printf.printf "world saved to %s\n" out)
              save;
            exit (if Negotiation.succeeded report then 0 else 2))
  in
  let dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"World directory (see --save-world).")
  in
  let requester =
    Arg.(
      value
      & opt (some string) None
      & info [ "requester" ] ~docv:"NAME" ~doc:"Requesting peer.")
  in
  let target =
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"NAME" ~doc:"Peer owning the resource.")
  in
  let goal =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"GOAL" ~doc:"Requested literal (omit to describe).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR" ~doc:"Save the updated world here.")
  in
  Cmd.v
    (Cmd.info "world"
       ~doc:"Inspect a saved world, or run a negotiation inside it.")
    Term.(const run $ verbose_arg $ dir $ requester $ target $ goal $ save)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let run peer_specs goal_spec critical =
    handle_syntax_errors @@ fun () ->
    let world =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | None ->
              Printf.eprintf "bad --peer %S (expected name=file)\n" spec;
              exit 1
          | Some i ->
              let name = String.sub spec 0 i in
              let file = String.sub spec (i + 1) (String.length spec - i - 1) in
              (name, read_file file))
        peer_specs
      |> Analysis.world_of_programs
    in
    let report = Analysis.analyze world in
    Format.printf "%a" Analysis.pp_report report;
    match goal_spec with
    | None -> ()
    | Some spec -> (
        match String.index_opt spec ':' with
        | None ->
            Printf.eprintf "bad --goal %S (expected owner:literal)\n" spec;
            exit 1
        | Some i ->
            let owner = String.sub spec 0 i in
            let goal =
              Dlp.Parser.parse_literal
                (String.sub spec (i + 1) (String.length spec - i - 1))
            in
            let ok = Analysis.may_succeed world ~owner ~goal in
            Format.printf "goal %a at %s: %s@." Dlp.Literal.pp goal owner
              (if ok then "may succeed" else "cannot succeed");
            if critical then
              List.iter
                (fun (holder, cred) ->
                  Format.printf "critical: %s holds %a@." holder Dlp.Rule.pp
                    cred)
                (Analysis.critical_credentials world ~owner ~goal);
            exit (if ok then 0 else 2))
  in
  let peers =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "p"; "peer" ] ~docv:"NAME=FILE"
          ~doc:"Add a peer program to the analysed world (repeatable).")
  in
  let goal =
    Arg.(
      value
      & opt (some string) None
      & info [ "goal" ] ~docv:"OWNER:LITERAL"
          ~doc:"Also decide reachability of this goal at that owner.")
  in
  let critical =
    Arg.(
      value & flag
      & info [ "critical" ]
          ~doc:
            "With --goal: list the credentials whose refusal alone would \
             make the negotiation fail.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static negotiation analysis: which guarded resources can unlock, \
          which are deadlocked.")
    Term.(const run $ peers $ goal $ critical)

(* ------------------------------------------------------------------ *)
(* scenario *)

let scenario_cmd =
  let run verbose name metrics_out trace_out trace_chrome trace_causal
      fault_opts cache_opts guard_opts adversary_specs repeat tabling =
    setup_logs verbose;
    if repeat < 1 then begin
      Printf.eprintf "error: --repeat must be >= 1\n";
      exit 1
    end;
    let guarded = guard_requested guard_opts in
    let session_config =
      { Session.default_config with Session.guard = resolve_guard guard_opts }
    in
    let show (r : Negotiation.report) =
      Format.printf "%a@." Negotiation.pp_report r;
      List.iter
        (fun e ->
          Format.printf "[%4d] %s -> %s: %s@." e.Peertrust_net.Network.time
            e.Peertrust_net.Network.from e.Peertrust_net.Network.target
            e.Peertrust_net.Network.summary)
        r.Negotiation.transcript
    in
    let session, goals =
      match name with
      | "elearn" ->
          let s = Scenario.scenario1 ~config:session_config () in
          ( s.Scenario.s1_session,
            [ ("Alice", "E-Learn", Scenario.scenario1_goal ()) ] )
      | "services" ->
          let s = Scenario.scenario2 ~config:session_config () in
          ( s.Scenario.s2_session,
            [
              ("Bob", "E-Learn", Scenario.scenario2_goal_free ());
              ("Bob", "E-Learn", Scenario.scenario2_goal_paid ());
            ] )
      | "accreditation" ->
          let rw =
            Scenario.mutual_accreditation ~config:session_config ()
          in
          ( rw.Scenario.rw_session,
            [
              ( rw.Scenario.rw_requester,
                rw.Scenario.rw_target,
                rw.Scenario.rw_goal );
            ] )
      | "federation" ->
          let rw = Scenario.federation ~config:session_config () in
          ( rw.Scenario.rw_session,
            [
              ( rw.Scenario.rw_requester,
                rw.Scenario.rw_target,
                rw.Scenario.rw_goal );
            ] )
      | other ->
          Printf.eprintf
            "unknown scenario %S (try elearn, services, accreditation or \
             federation)\n"
            other;
          exit 1
    in
    (* One cache shared by every goal (and every --repeat pass): later
       negotiations run warm. *)
    let cache = resolve_cache cache_opts in
    let adversaries = parse_adversaries adversary_specs in
    ignore (install_faults session fault_opts : bool);
    let config =
      reactor_config ~cache ~tabling ~journal:fault_opts.fo_journal
    in
    let finish_obs =
      setup_obs ~verbose ~metrics_out ~trace_out ?trace_chrome ?trace_causal
        session
    in
    Fun.protect ~finally:finish_obs (fun () ->
        for pass = 1 to repeat do
          if repeat > 1 then Printf.printf "%% pass %d\n" pass;
          List.iter
            (fun (requester, target, goal) ->
              show
                (Reactor.negotiate ?config ~adversaries session ~requester
                   ~target goal))
            goals
        done;
        print_cache_summary cache;
        print_guard_summary ~guarded ~adversaries ())
  in
  let scenario_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Scenario name: elearn, services, accreditation (a cyclic \
             mutual-accreditation pair — pass --tabling to complete it) \
             or federation (chained accreditation rings).")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Run the scenario's goal sequence N times over one session \
             (with --cache, later passes run warm).")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run one of the paper's built-in scenarios.")
    Term.(
      const run $ verbose_arg $ scenario_name $ metrics_out_arg
      $ trace_out_arg $ trace_chrome_arg $ trace_causal_arg $ fault_opts_term
      $ cache_opts_term $ guard_opts_term $ adversary_arg $ repeat
      $ tabling_arg)

(* ------------------------------------------------------------------ *)
(* trace: reconstruct cross-peer timelines from a span log *)

let trace_cmd =
  let run file trace_id json chrome_out causal_out =
    let text =
      try read_file file
      with Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    match Pobs.Export.spans_of_jsonl text with
    | Error msg ->
        Printf.eprintf "error: %s: %s\n" file msg;
        exit 1
    | Ok spans ->
        let write what out f =
          try f out
          with Sys_error reason ->
            Printf.eprintf "error: cannot write %s to %s (%s)\n" what out
              reason;
            exit 1
        in
        Option.iter
          (fun out ->
            write "chrome trace" out (fun out ->
                Pobs.Export.write_spans_chrome out spans);
            Printf.printf "chrome trace written to %s\n" out)
          chrome_out;
        Option.iter
          (fun out ->
            write "causal stream" out (fun out ->
                Pobs.Export.write_spans_causal out spans);
            Printf.printf "causal stream written to %s\n" out)
          causal_out;
        let timelines = Pobs.Timeline.build spans in
        let timelines =
          match trace_id with
          | None -> timelines
          | Some id ->
              List.filter
                (fun tl -> tl.Pobs.Timeline.tl_trace = id)
                timelines
        in
        if timelines = [] then begin
          (match trace_id with
          | Some id -> Printf.eprintf "error: no trace %d in %s\n" id file
          | None ->
              Printf.eprintf "error: no traced spans in %s (%d span(s))\n"
                file (List.length spans));
          exit 1
        end;
        if json then
          print_endline
            (Pobs.Json.to_string
               (Pobs.Json.List (List.map Pobs.Timeline.to_json timelines)))
        else
          List.iter
            (fun tl -> print_string (Pobs.Timeline.to_string tl))
            timelines
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Span log written by --trace-out (JSONL).")
  in
  let trace_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace" ] ~docv:"ID"
          ~doc:"Only render the timeline of this trace id.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the timelines as JSON instead of text.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:"Also convert the log to Chrome trace_event JSON here.")
  in
  let causal_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "causal-out" ] ~docv:"FILE"
          ~doc:"Also convert the log to a flat causal JSONL stream here.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Reconstruct cross-peer negotiation timelines — per-peer lanes, \
          critical path, latency breakdown and anomaly flags — from a span \
          log.")
    Term.(const run $ file $ trace_id $ json $ chrome_out $ causal_out)

let () =
  let info =
    Cmd.info "peertrust" ~version:"1.0.0"
      ~doc:"Automated trust negotiation with distributed logic programs."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; eval_cmd; forward_cmd; negotiate_cmd; analyze_cmd;
            world_cmd; scenario_cmd; trace_cmd;
          ]))
