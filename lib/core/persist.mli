(** Saving and loading negotiation worlds.

    A world directory holds two files per peer, each named by the
    peer's name in lowercase hex (so any name survives, [""] included):

    {v
      <hex name>.pt        policy program (pretty-printed knowledge base)
      <hex name>.journal   the peer's {!Journal}: one [Cert] entry per
                           wallet certificate
    v}

    Certificates have one on-disk format, the journal's, and one parser.
    A world directory is therefore also a valid [Reactor.Journal_dir]:
    a reactor journalling into it appends to the same files, and {!load}
    replays whatever they hold.  Keys are not stored: the simulated PKI
    derives them from the session seed, so load a world with the same
    [seed] it was built with (the default matches {!Session.create}'s
    default). *)

type error = Bad_world of string

val save : Session.t -> dir:string -> unit
(** Write the world; creates [dir] if needed and removes the [.pt] and
    [.journal] files of peers the session does not have.  Each file
    lands crash-atomically (temp file + rename), so a crash mid-save
    leaves every file either old or new: atomic per file, not per
    world.  @raise Sys_error on I/O problems. *)

val load :
  ?config:Session.config -> ?seed:int64 -> dir:string -> unit ->
  (Session.t, error) result
(** Rebuild a session from a world directory.  The peers are the [.pt]
    files, loaded in name order; each program goes through the parser
    and each journal through {!Journal.entries} and
    {!Journal.replay_peer}.  Total over corrupt input: an empty
    directory, a [.pt] whose name is not strict lowercase hex, a journal
    with no program beside it, a garbage program and journal damage
    before the last line all come back as [Error (Bad_world reason)]
    naming the file (and the line, where a parser is involved), never
    an exception.  A torn last journal line is dropped, as in every
    journal. *)

val pp_error : Format.formatter -> error -> unit

(** Incremental write-ahead journal backing crash-stop recovery.

    A full {!save} is a checkpoint: it rewrites each peer's journal to
    the peer's wallet certificates.  Between checkpoints a peer appends
    one line per durable event — a learned certificate, a learned
    says-fact, a completed table answer, an accepted root goal — and a
    restarting incarnation replays world + journal instead of starting
    cold.  One journal per peer (its file name hex-encodes the peer
    name), line-oriented with hex-armoured payloads so arbitrary
    contents cannot fake a record boundary.

    Recovery is total over torn files: a crash interrupts at most the
    last append, so the unterminated (or unparseable) final line is
    dropped and the intact prefix used.  Corruption {e earlier} in the
    stream is not crash-shaped and surfaces as a line-numbered
    {!error}.

    Each entry has exactly one text: the decoder accepts only what
    {!append} writes (an id as [string_of_int] prints it, a rule or
    literal as its printer writes its own parse, a certificate as
    [Wire.encode] does), so equal entries are exactly those with equal
    lines.

    Decoding is paid once per distinct line per process.  One
    process-wide table maps the exact bytes of every [cert] and [fact]
    line that decoded to its entry, and {!parse} (so {!entries}, and
    through them {!load} and every reactor read) runs the decoder only
    on lines the table does not hold.  Entries are immutable and may be
    shared between reads: a hit is the value a fresh decode of those
    bytes gives.  A line that does not decode is never held, so a
    damaged line is decoded and refused on every read.  The table holds
    the distinct certificate and fact lines the process has decoded,
    with their entries, and is never emptied.

    Every journal counts what its I/O cost scales with, in the global
    metrics registry: [persist.reads] ({!entries} calls),
    [persist.rewrites] ({!rewrite} and {!reset} calls),
    [persist.bytes_written] (bytes appended or rewritten) and
    [persist.lines_decoded] (lines the decoder ran on: every line a read
    met that the table did not answer), for memory and disk sinks
    alike. *)
module Journal : sig
  type entry =
    | Cert of Peertrust_crypto.Cert.t  (** a credential learned *)
    | Fact of Peertrust_dlp.Rule.t  (** a says-fact learned *)
    | Answer of {
        owner : string;
        goal : Peertrust_dlp.Literal.t;
        instances : Peertrust_dlp.Literal.t list;
      }  (** a completed (final) remote answer set *)
    | Goal of { id : int; target : string; goal : Peertrust_dlp.Literal.t }
        (** a root goal accepted for negotiation (request [id]) *)
    | Done of { id : int }  (** that root goal settled *)

  type t

  val in_memory : unit -> t
  (** A buffer-backed journal — the simulator default, so journalled
      runs need no filesystem and stay hermetic. *)

  val on_disk : string -> t
  (** Backed by one append-only file; created on first append. *)

  val for_peer : dir:string -> peer:string -> t
  (** [on_disk] under [dir] (created if needed) with the peer's name
      hex-encoded into the file name. *)

  val append : t -> entry -> unit
  (** Append one entry and flush it (disk sinks open/close per append:
      a crash can tear at most the line being written). *)

  val entries : t -> (entry list, error) result
  (** Parse the journal back.  Torn-tail tolerant: the trailing
      unterminated or unparseable last line is dropped ([Ok] of the
      usable prefix); damage on an earlier line is a line-numbered
      [Bad_world].  Never raises.  Costs a read of the whole journal
      and a {!parse} of it. *)

  val parse : string -> (entry list, error) result
  (** {!entries} over raw text (exposed for durability tests).  Linear
      in the text: a [cert] or [fact] line the process has decoded
      before costs a search for its end (eight bytes at a time), a copy
      and a hash of its bytes, and only the other lines are decoded. *)

  val contents : t -> string
  (** Raw journal bytes as currently stored. *)

  val rewrite : t -> entry list -> unit
  (** Checkpoint compaction: atomically replace the journal with just
      [entries] (temp file + rename for disk sinks). *)

  val reset : t -> unit
  (** [rewrite t []]. *)

  val finished : entry list -> (int, unit) Hashtbl.t
  (** The request ids that have a [Done] entry. *)

  val compact : entry list -> entry list
  (** The entries a compaction keeps: the [Goal]/[Done] pairs of
      {!finished} requests go, and so does every entry that repeats an
      earlier one (equal entries are exactly those with equal journal
      lines); the rest keep their order.  Linear in the journal length:
      a hash set, not a list scan. *)

  val replay_peer : Peer.t -> entry list -> unit
  (** Re-learn [Cert] and [Fact] entries into a peer.  Idempotent —
      {!Peer.add_cert} and the KB dedup structurally — so replaying a
      journal twice equals replaying it once.  [Answer]/[Goal]/[Done]
      entries are reactor-level and ignored here. *)
end
