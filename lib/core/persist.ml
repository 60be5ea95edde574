module Crypto = Peertrust_crypto
module Metric = Peertrust_obs.Metric

type error = Bad_world of string

(* Crash-atomic: a reader never observes a half-written file.  The
   contents land in a sibling temp file first; the final [Sys.rename]
   is atomic on POSIX, so a crash between the two leaves either the old
   file or the complete new one, plus at worst an orphan [.tmp]. *)
let write_file path output =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output oc;
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

  type t = Disk of string | Memory of Buffer.t

  let in_memory () = Memory (Buffer.create 256)
  let on_disk path = Disk path

  let for_peer ~dir ~peer =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    on_disk (Filename.concat dir (Crypto.Hex.encode peer ^ ".journal"))

  let m_reads = Peertrust_obs.Obs.counter "persist.reads"
  let m_rewrites = Peertrust_obs.Obs.counter "persist.rewrites"
  let m_bytes_written = Peertrust_obs.Obs.counter "persist.bytes_written"
  let m_lines_decoded = Peertrust_obs.Obs.counter "persist.lines_decoded"

  (* One line per entry; every free-form field (peer names, literal
     text) is hex-armoured so newlines and spaces in the payload cannot
     break the line discipline the torn-tail recovery depends on. *)
  let add_line buf entry =
    let hex s = Crypto.Hex.encode_to buf s in
    let literal l = hex (Dlp.Literal.to_string l) in
    (match entry with
    | Cert c ->
        Buffer.add_string buf "cert ";
        hex (Crypto.Wire.encode c)
    | Fact r ->
        Buffer.add_string buf "fact ";
        hex (Dlp.Rule.to_string r)
    | Answer { owner; goal; instances } -> (
        Buffer.add_string buf "answer ";
        hex owner;
        Buffer.add_char buf ' ';
        literal goal;
        Buffer.add_char buf ' ';
        match instances with
        | [] -> Buffer.add_char buf '-'
        | i :: is ->
            literal i;
            List.iter
              (fun i ->
                Buffer.add_char buf ',';
                literal i)
              is)
    | Goal { id; target; goal } ->
        Buffer.add_string buf "goal ";
        Buffer.add_string buf (string_of_int id);
        Buffer.add_char buf ' ';
        hex target;
        Buffer.add_char buf ' ';
        literal goal
    | Done { id } ->
        Buffer.add_string buf "done ";
        Buffer.add_string buf (string_of_int id));
    Buffer.add_char buf '\n'

  (* Decoding walks the text by index: a line is [text.[i .. j)], and
     each hex field is decoded from its slice. *)

  let rec index_in text i j c =
    if i = j then None
    else if String.unsafe_get text i = c then Some i
    else index_in text (i + 1) j c

  let rec is_blank text i j =
    i = j
    || (match String.unsafe_get text i with
       | ' ' | '\t' | '\r' | '\012' -> true
       | _ -> false)
       && is_blank text (i + 1) j

  let hex_of text i j = Crypto.Hex.decode_sub text ~pos:i ~len:(j - i)

  (* The decoder accepts exactly what [add_line] writes, so an entry has
     one text: an id is what [string_of_int] prints, and a literal or
     rule payload is the printer's text of its own parse (as a
     certificate's [rule:] line is, see [Wire]). *)
  let int_of text i j =
    let s = String.sub text i (j - i) in
    match int_of_string_opt s with
    | Some n when String.equal (string_of_int n) s -> Some n
    | _ -> None

  let literal_of_hex text i j =
    match hex_of text i j with
    | None -> Error "bad hex"
    | Some s -> (
        match Dlp.Parser.parse_literal s with
        | lit ->
            if String.equal (Dlp.Literal.to_string lit) s then Ok lit
            else Error "not in printed form"
        | exception Dlp.Parser.Error (m, _, _) -> Error m
        | exception _ -> Error "unparseable literal")

  (* The slices of [text.[i .. j)] between the separators [c], as
     bounds. *)
  let rec split text i j c acc =
    match index_in text i j c with
    | Some k -> split text (k + 1) j c ((i, k) :: acc)
    | None -> List.rev ((i, j) :: acc)

  let decode_line text i j =
    let ( let* ) = Result.bind in
    Metric.incr m_lines_decoded;
    match split text i j ' ' [] with
    | [] -> Error "unrecognised entry"
    | (t, u) :: fields -> (
        match (String.sub text t (u - t), fields) with
        | "cert", [ (p, q) ] -> (
            match hex_of text p q with
            | None -> Error "cert: bad hex"
            | Some blob -> (
                match Crypto.Wire.decode blob with
                | Ok c -> Ok (Cert c)
                | Error (Crypto.Wire.Malformed m) -> Error ("cert: " ^ m)))
        | "fact", [ (p, q) ] -> (
            match hex_of text p q with
            | None -> Error "fact: bad hex"
            | Some rule -> (
                match Dlp.Parser.parse_rule rule with
                | r ->
                    if String.equal (Dlp.Rule.to_string r) rule then Ok (Fact r)
                    else Error "fact: not in printed form"
                | exception Dlp.Parser.Error (m, _, _) -> Error ("fact: " ^ m)
                | exception _ -> Error "fact: unparseable rule"))
        | "answer", [ (p, q); (g, h); (s, e) ] -> (
            match hex_of text p q with
            | None -> Error "answer: bad owner hex"
            | Some owner ->
                let* goal =
                  Result.map_error
                    (fun m -> "answer: goal: " ^ m)
                    (literal_of_hex text g h)
                in
                let* instances =
                  if e = s + 1 && text.[s] = '-' then Ok []
                  else
                    (* Right to left: a bad instance reports as the
                       rightmost one. *)
                    List.fold_right
                      (fun (p, q) acc ->
                        let* acc = acc in
                        let* lit =
                          Result.map_error
                            (fun m -> "answer: instance: " ^ m)
                            (literal_of_hex text p q)
                        in
                        Ok (lit :: acc))
                      (split text s e ',' [])
                      (Ok [])
                in
                Ok (Answer { owner; goal; instances }))
        | "goal", [ (p, q); (t, u); (g, h) ] -> (
            match (int_of text p q, hex_of text t u) with
            | Some id, Some target ->
                let* goal =
                  Result.map_error
                    (fun m -> "goal: " ^ m)
                    (literal_of_hex text g h)
                in
                Ok (Goal { id; target; goal })
            | None, _ -> Error "goal: bad id"
            | _, None -> Error "goal: bad target hex")
        | "done", [ (p, q) ] -> (
            match int_of text p q with
            | Some id -> Ok (Done { id })
            | None -> Error "done: bad id")
        | _, _ -> Error "unrecognised entry")

  (* Every [cert] and [fact] line that decoded, by its exact bytes, for
     the whole process: the same certificates and facts recur in every
     journal that learned them, whichever handle reads it.  Decoding is a
     pure function of the bytes and entries are immutable, so a hit is
     what a fresh decode would give.  Only lines that decoded are held: a
     damaged line is decoded, and refused, every time it is read. *)
  let decoded : (string, entry) Hashtbl.t = Hashtbl.create 256

  let tabled text i j =
    j - i > 5
    && match String.sub text i 5 with "cert " | "fact " -> true | _ -> false

  let parse_line text i j =
    if tabled text i j then begin
      let line = String.sub text i (j - i) in
      match Hashtbl.find_opt decoded line with
      | Some e -> Ok e
      | None ->
          let r = decode_line text i j in
          Result.iter (Hashtbl.add decoded line) r;
          r
    end
    else decode_line text i j

  (* The first newline in [text] at or after [i].  Once lines are
     looked up rather than decoded, finding where they end is most of a
     read, so eight bytes are tested at a time: after the xor, a word
     holds a newline exactly when [(w - 0x01..01) land (lnot w)] has a
     high bit set in some byte, and the byte search then finds it. *)
  let rec newline_from text i =
    if i + 8 > String.length text then String.index_from_opt text i '\n'
    else
      let w = Int64.logxor (String.get_int64_le text i) 0x0a0a0a0a0a0a0a0aL in
      let high =
        Int64.(
          logand
            (logand (sub w 0x0101010101010101L) (lognot w))
            0x8080808080808080L)
      in
      if Int64.equal high 0L then newline_from text (i + 8)
      else String.index_from_opt text i '\n'

  (* Total over arbitrary bytes.  The final segment without a trailing
     newline is a torn tail — the write the crash interrupted — and is
     dropped; so is an unparseable {e last} complete line (a flush can
     land the newline before the crash).  Damage earlier in the stream
     is not crash-shaped and comes back as a line-numbered error. *)
  let parse text =
    let rec go acc lineno i =
      match newline_from text i with
      | None -> Ok (List.rev acc)
      | Some j when is_blank text i j -> go acc (lineno + 1) (j + 1)
      | Some j -> (
          match parse_line text i j with
          | Ok e -> go (e :: acc) (lineno + 1) (j + 1)
          | Error m ->
              if Option.is_none (String.index_from_opt text (j + 1) '\n') then
                Ok (List.rev acc)
              else
                Error
                  (Bad_world (Printf.sprintf "journal line %d: %s" lineno m)))
    in
    go [] 1 0

  let append t entry =
    let start, buf =
      match t with
      | Memory b -> (Buffer.length b, b)
      | Disk _ -> (0, Buffer.create 256)
    in
    add_line buf entry;
    (match t with
    | Memory _ -> ()
    | Disk path ->
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Buffer.output_buffer oc buf;
            flush oc));
    Metric.add m_bytes_written (Buffer.length buf - start)

  let contents t =
    match t with
    | Memory b -> Buffer.contents b
    | Disk path -> if Sys.file_exists path then read_file path else ""

  let entries t =
    Metric.incr m_reads;
    parse (contents t)

  let rewrite t entries =
    let buf =
      match t with
      | Memory b ->
          Buffer.clear b;
          b
      | Disk _ -> Buffer.create 4096
    in
    List.iter (add_line buf) entries;
    (match t with
    | Memory _ -> ()
    | Disk path -> write_file path (fun oc -> Buffer.output_buffer oc buf));
    Metric.incr m_rewrites;
    Metric.add m_bytes_written (Buffer.length buf)

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
        (fun oc ->
          output_string oc
            (Peertrust_dlp.Program.to_string
               (Peertrust_dlp.Kb.rules peer.Peer.kb)));
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
