module Crypto = Peertrust_crypto

type error = Bad_world of string

(* Crash-atomic: a reader never observes a half-written file.  The
   contents land in a sibling temp file first; the final [Sys.rename]
   is atomic on POSIX, so a crash between the two leaves either the old
   file or the complete new one, plus at worst an orphan [.tmp]. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      flush oc);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let pp_error fmt (Bad_world msg) = Format.fprintf fmt "bad world: %s" msg

module Journal = struct
  module Dlp = Peertrust_dlp

  type entry =
    | Cert of Crypto.Cert.t
    | Fact of Dlp.Rule.t
    | Answer of {
        owner : string;
        goal : Dlp.Literal.t;
        instances : Dlp.Literal.t list;
      }
    | Goal of { id : int; target : string; goal : Dlp.Literal.t }
    | Done of { id : int }

  type sink = Disk of string | Memory of Buffer.t
  type t = { sink : sink; mutable appends : int }

  let in_memory () = { sink = Memory (Buffer.create 256); appends = 0 }
  let on_disk path = { sink = Disk path; appends = 0 }

  let for_peer ~dir ~peer =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    on_disk (Filename.concat dir (Crypto.Hex.encode peer ^ ".journal"))

  let appends t = t.appends

  (* One line per entry; every free-form field (peer names, literal
     text) is hex-armoured so newlines and spaces in the payload cannot
     break the line discipline the torn-tail recovery depends on. *)
  let line_of_entry = function
    | Cert c -> "cert " ^ Crypto.Hex.encode (Crypto.Wire.encode c)
    | Fact r -> "fact " ^ Crypto.Hex.encode (Dlp.Rule.to_string r)
    | Answer { owner; goal; instances } ->
        Printf.sprintf "answer %s %s %s" (Crypto.Hex.encode owner)
          (Crypto.Hex.encode (Dlp.Literal.to_string goal))
          (match instances with
          | [] -> "-"
          | is ->
              String.concat ","
                (List.map
                   (fun i -> Crypto.Hex.encode (Dlp.Literal.to_string i))
                   is))
    | Goal { id; target; goal } ->
        Printf.sprintf "goal %d %s %s" id (Crypto.Hex.encode target)
          (Crypto.Hex.encode (Dlp.Literal.to_string goal))
    | Done { id } -> Printf.sprintf "done %d" id

  let literal_of_hex h =
    match Crypto.Hex.decode h with
    | None -> Error "bad hex"
    | Some s -> (
        match Dlp.Parser.parse_literal s with
        | lit -> Ok lit
        | exception Dlp.Parser.Error (m, _, _) -> Error m
        | exception _ -> Error "unparseable literal")

  let parse_line line =
    let ( let* ) = Result.bind in
    match String.split_on_char ' ' line with
    | [ "cert"; hex ] -> (
        match Crypto.Hex.decode hex with
        | None -> Error "cert: bad hex"
        | Some blob -> (
            match Crypto.Wire.decode blob with
            | Ok c -> Ok (Cert c)
            | Error (Crypto.Wire.Malformed m) -> Error ("cert: " ^ m)))
    | [ "fact"; hex ] -> (
        match Crypto.Hex.decode hex with
        | None -> Error "fact: bad hex"
        | Some text -> (
            match Dlp.Parser.parse_rule text with
            | r -> Ok (Fact r)
            | exception Dlp.Parser.Error (m, _, _) -> Error ("fact: " ^ m)
            | exception _ -> Error "fact: unparseable rule"))
    | [ "answer"; owner_hex; goal_hex; insts ] -> (
        match Crypto.Hex.decode owner_hex with
        | None -> Error "answer: bad owner hex"
        | Some owner ->
            let* goal =
              Result.map_error (fun m -> "answer: goal: " ^ m)
                (literal_of_hex goal_hex)
            in
            let* instances =
              if String.equal insts "-" then Ok []
              else
                List.fold_right
                  (fun h acc ->
                    let* acc = acc in
                    let* lit =
                      Result.map_error (fun m -> "answer: instance: " ^ m)
                        (literal_of_hex h)
                    in
                    Ok (lit :: acc))
                  (String.split_on_char ',' insts)
                  (Ok [])
            in
            Ok (Answer { owner; goal; instances }))
    | [ "goal"; id; target_hex; goal_hex ] -> (
        match (int_of_string_opt id, Crypto.Hex.decode target_hex) with
        | Some id, Some target ->
            let* goal =
              Result.map_error (fun m -> "goal: " ^ m)
                (literal_of_hex goal_hex)
            in
            Ok (Goal { id; target; goal })
        | None, _ -> Error "goal: bad id"
        | _, None -> Error "goal: bad target hex")
    | [ "done"; id ] -> (
        match int_of_string_opt id with
        | Some id -> Ok (Done { id })
        | None -> Error "done: bad id")
    | _ -> Error "unrecognised entry"

  (* Total over arbitrary bytes.  The final segment without a trailing
     newline is a torn tail — the write the crash interrupted — and is
     dropped; so is an unparseable {e last} complete line (a flush can
     land the newline before the crash).  Damage earlier in the stream
     is not crash-shaped and comes back as a line-numbered error. *)
  let parse text =
    let complete =
      match List.rev (String.split_on_char '\n' text) with
      | _torn_tail :: rev -> List.rev rev
      | [] -> []
    in
    let rec go acc n = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          if String.trim line = "" then go acc (n + 1) rest
          else
            match parse_line line with
            | Ok e -> go (e :: acc) (n + 1) rest
            | Error _ when rest = [] -> Ok (List.rev acc)
            | Error m ->
                Error
                  (Bad_world (Printf.sprintf "journal line %d: %s" n m)))
    in
    go [] 1 complete

  let append t entry =
    let line = line_of_entry entry ^ "\n" in
    (match t.sink with
    | Memory b -> Buffer.add_string b line
    | Disk path ->
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc line;
            flush oc));
    t.appends <- t.appends + 1

  let contents t =
    match t.sink with
    | Memory b -> Buffer.contents b
    | Disk path -> if Sys.file_exists path then read_file path else ""

  let entries t = parse (contents t)

  let rewrite t entries =
    let text =
      String.concat "" (List.map (fun e -> line_of_entry e ^ "\n") entries)
    in
    match t.sink with
    | Memory b ->
        Buffer.clear b;
        Buffer.add_string b text
    | Disk path -> write_file path text

  let reset t = rewrite t []

  let finished entries =
    let ids = Hashtbl.create 16 in
    List.iter
      (function Done { id } -> Hashtbl.replace ids id () | _ -> ())
      entries;
    ids

  (* Entries hashed structurally, deep enough to tell certificates and
     facts apart, and compared with [=]: two entries are equal exactly
     when their journal lines are. *)
  module Seen = Hashtbl.Make (struct
    type t = entry

    let equal = ( = )
    let hash = Hashtbl.hash_param 32 256
  end)

  let compact entries =
    let settled = finished entries in
    let seen = Seen.create 64 in
    List.filter
      (fun e ->
        match e with
        | (Goal { id; _ } | Done { id }) when Hashtbl.mem settled id -> false
        | _ ->
            if Seen.mem seen e then false
            else begin
              Seen.add seen e ();
              true
            end)
      entries

  let replay_peer peer entries =
    List.iter
      (function
        | Cert c -> Peer.add_cert peer c
        | Fact r -> Peer.add_rule peer r
        | Answer _ | Goal _ | Done _ -> ())
      entries
end

(* A world directory holds, per peer, [<hex name>.pt] (the program)
   and [<hex name>.journal] (the wallet, one [Cert] entry per
   certificate). *)
let save session ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let stems = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (peer : Peer.t) ->
      let stem = Crypto.Hex.encode name in
      Hashtbl.replace stems stem ();
      write_file
        (Filename.concat dir (stem ^ ".pt"))
        (Peertrust_dlp.Program.to_string (Peertrust_dlp.Kb.rules peer.Peer.kb));
      Journal.rewrite
        (Journal.for_peer ~dir ~peer:name)
        (Hashtbl.fold (fun _ c acc -> Journal.Cert c :: acc) peer.Peer.certs []))
    session.Session.peers;
  (* Saving over an older world must not bring its other peers back. *)
  Array.iter
    (fun file ->
      let stale suffix =
        match Filename.chop_suffix_opt ~suffix file with
        | Some stem -> not (Hashtbl.mem stems stem)
        | None -> false
      in
      if stale ".pt" || stale ".journal" then
        Sys.remove (Filename.concat dir file))
    (Sys.readdir dir)

(* Total over a corrupt directory: every failure is a [Bad_world]
   naming the file and, where a parser is involved, the line. *)
let load ?config ?seed ~dir () =
  let ( let* ) = Result.bind in
  let bad fmt = Printf.ksprintf (fun m -> Error (Bad_world m)) fmt in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        each f rest
  in
  match Sys.readdir dir with
  | exception Sys_error m -> Error (Bad_world m)
  | files ->
      (* Sorted hex stems are sorted names: peers load in name order. *)
      let files = List.sort String.compare (Array.to_list files) in
      let stems suffix =
        List.filter_map (Filename.chop_suffix_opt ~suffix) files
      in
      let programs = stems ".pt" in
      let* () =
        each
          (fun stem ->
            if List.mem stem programs then Ok ()
            else bad "%s.journal: no program %s.pt beside it" stem stem)
          (stems ".journal")
      in
      if programs = [] then bad "%s: no peer program (*.pt)" dir
      else begin
        let session = Session.create ?config ?seed () in
        let load_peer stem =
          let file = stem ^ ".pt" in
          match Crypto.Hex.decode stem with
          | None -> bad "%s: file name is not a hex-encoded peer name" file
          | Some name -> (
              let peer = Session.add_peer session name in
              match
                Peer.load_program peer (read_file (Filename.concat dir file))
              with
              | exception Sys_error m -> Error (Bad_world m)
              | exception Peertrust_dlp.Parser.Error (m, l, _) ->
                  bad "%s line %d: %s" file l m
              | () -> (
                  match Journal.entries (Journal.for_peer ~dir ~peer:name) with
                  | exception Sys_error m -> Error (Bad_world m)
                  | Ok entries -> Ok (Journal.replay_peer peer entries)
                  | Error (Bad_world m) -> bad "%s.journal: %s" stem m))
        in
        let* () = each load_peer programs in
        (* Certificates are told apart by serial: a signed rule no
           journal held a certificate for gets one numbered above every
           loaded serial. *)
        Hashtbl.iter
          (fun _ (peer : Peer.t) ->
            Hashtbl.iter
              (fun _ (c : Crypto.Cert.t) ->
                Crypto.Keystore.claim_serial session.Session.keystore
                  c.Crypto.Cert.serial)
              peer.Peer.certs)
          session.Session.peers;
        List.iter
          (fun name ->
            Session.issue_signed_rules session (Session.peer session name))
          (Session.peer_names session);
        Ok session
      end
