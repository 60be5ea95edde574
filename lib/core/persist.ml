module Crypto = Peertrust_crypto

type error = Bad_world of string

let hex_of_string s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    s;
  Buffer.contents buf

let string_of_hex h =
  if String.length h mod 2 <> 0 then None
  else
    try
      Some
        (String.init
           (String.length h / 2)
           (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))
    with Failure _ | Invalid_argument _ -> None

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

let magic = "peertrust-world 1"

let save session ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let peers =
    Hashtbl.fold (fun name peer acc -> (name, peer) :: acc)
      session.Session.peers []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let meta = Buffer.create 256 in
  Buffer.add_string meta magic;
  Buffer.add_char meta '\n';
  List.iteri
    (fun i (name, (peer : Peer.t)) ->
      Buffer.add_string meta (Printf.sprintf "peer: %d %s\n" i (hex_of_string name));
      write_file
        (Filename.concat dir (Printf.sprintf "peer%d.pt" i))
        (Peertrust_dlp.Program.to_string (Peertrust_dlp.Kb.rules peer.Peer.kb));
      let certs = Hashtbl.fold (fun _ c acc -> c :: acc) peer.Peer.certs [] in
      write_file
        (Filename.concat dir (Printf.sprintf "peer%d.wallet" i))
        (Crypto.Wire.encode_many certs))
    peers;
  write_file (Filename.concat dir "world.meta") (Buffer.contents meta)

(* Loading must survive a corrupt world directory: a truncated meta
   file, garbage rule or wallet files, unreadable entries — every
   failure is a structured [Bad_world] naming the file and (where a
   parser is involved) the offending line, never an exception. *)
let load ?config ?seed ~dir () =
  let meta_path = Filename.concat dir "world.meta" in
  if not (Sys.file_exists meta_path) then
    Error (Bad_world "missing world.meta")
  else begin
    match read_file meta_path with
    | exception Sys_error m -> Error (Bad_world m)
    | exception End_of_file ->
        Error (Bad_world "world.meta: truncated file")
    | meta_contents -> (
    match String.split_on_char '\n' meta_contents with
    | first :: rest when String.equal (String.trim first) magic -> (
        let parse_line lineno line =
          let line = String.trim line in
          let err msg =
            Error (Bad_world (Printf.sprintf "world.meta line %d: %s" lineno msg))
          in
          if line = "" then Ok None
          else if String.length line > 6 && String.sub line 0 6 = "peer: " then begin
            let payload = String.sub line 6 (String.length line - 6) in
            match String.index_opt payload ' ' with
            | None -> err ("bad index line: " ^ line)
            | Some i -> (
                let idx = String.sub payload 0 i in
                let name_hex =
                  String.sub payload (i + 1) (String.length payload - i - 1)
                in
                match (int_of_string_opt idx, string_of_hex name_hex) with
                | Some idx, Some name -> Ok (Some (idx, name))
                | _, _ -> err ("bad index line: " ^ line))
          end
          else err ("unrecognised line: " ^ line)
        in
        let rec collect acc lineno = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              match parse_line lineno line with
              | Ok None -> collect acc (lineno + 1) rest
              | Ok (Some entry) -> collect (entry :: acc) (lineno + 1) rest
              | Error e -> Error e)
        in
        (* The magic header is line 1; entries start on line 2. *)
        match collect [] 2 rest with
        | Error e -> Error e
        | Ok entries -> (
            let session = Session.create ?config ?seed () in
            let load_peer (idx, name) =
              let program_path =
                Filename.concat dir (Printf.sprintf "peer%d.pt" idx)
              in
              if not (Sys.file_exists program_path) then
                Error (Bad_world (Printf.sprintf "missing peer%d.pt" idx))
              else begin
                match
                  Session.add_peer session ~program:(read_file program_path)
                    name
                with
                | exception Sys_error m -> Error (Bad_world m)
                | exception Peertrust_dlp.Parser.Error (m, l, _) ->
                    Error
                      (Bad_world
                         (Printf.sprintf "peer%d.pt line %d: %s" idx l m))
                | peer -> (
                    let wallet_path =
                      Filename.concat dir (Printf.sprintf "peer%d.wallet" idx)
                    in
                    if not (Sys.file_exists wallet_path) then Ok ()
                    else
                      match Crypto.Wire.decode_many (read_file wallet_path) with
                      | exception Sys_error m -> Error (Bad_world m)
                      | Ok certs ->
                          List.iter (Peer.add_cert peer) certs;
                          Ok ()
                      | Error (Crypto.Wire.Malformed m) ->
                          Error
                            (Bad_world
                               (Printf.sprintf "peer%d.wallet: %s" idx m)))
              end
            in
            let rec load_all = function
              | [] -> Ok ()
              | entry :: rest -> (
                  match load_peer entry with
                  | Ok () -> load_all rest
                  | Error e -> Error e)
            in
            match load_all entries with
            | Error e -> Error e
            | Ok () -> Ok session))
    | _ -> Error (Bad_world "world.meta line 1: bad magic line"))
  end

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
    on_disk (Filename.concat dir (hex_of_string peer ^ ".journal"))

  let appends t = t.appends

  (* One line per entry; every free-form field (peer names, literal
     text) is hex-armoured so newlines and spaces in the payload cannot
     break the line discipline the torn-tail recovery depends on. *)
  let line_of_entry = function
    | Cert c -> "cert " ^ hex_of_string (Crypto.Wire.encode c)
    | Fact r -> "fact " ^ hex_of_string (Dlp.Rule.to_string r)
    | Answer { owner; goal; instances } ->
        Printf.sprintf "answer %s %s %s" (hex_of_string owner)
          (hex_of_string (Dlp.Literal.to_string goal))
          (match instances with
          | [] -> "-"
          | is ->
              String.concat ","
                (List.map
                   (fun i -> hex_of_string (Dlp.Literal.to_string i))
                   is))
    | Goal { id; target; goal } ->
        Printf.sprintf "goal %d %s %s" id (hex_of_string target)
          (hex_of_string (Dlp.Literal.to_string goal))
    | Done { id } -> Printf.sprintf "done %d" id

  let literal_of_hex h =
    match string_of_hex h with
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
        match string_of_hex hex with
        | None -> Error "cert: bad hex"
        | Some blob -> (
            match Crypto.Wire.decode blob with
            | Ok c -> Ok (Cert c)
            | Error (Crypto.Wire.Malformed m) -> Error ("cert: " ^ m)))
    | [ "fact"; hex ] -> (
        match string_of_hex hex with
        | None -> Error "fact: bad hex"
        | Some text -> (
            match Dlp.Parser.parse_rule text with
            | r -> Ok (Fact r)
            | exception Dlp.Parser.Error (m, _, _) -> Error ("fact: " ^ m)
            | exception _ -> Error "fact: unparseable rule"))
    | [ "answer"; owner_hex; goal_hex; insts ] -> (
        match string_of_hex owner_hex with
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
        match (int_of_string_opt id, string_of_hex target_hex) with
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
