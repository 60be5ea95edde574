(** Messages exchanged between negotiating peers.

    A synchronous request/response pair models one round-trip of the
    paper's outer layer; the eager strategy additionally pushes
    [Disclosure] messages. *)

open Peertrust_dlp

type table_ref = string * string
(** A distributed table's identity: [(owning peer, goal skeleton key)].
    The key is {!Peertrust_dlp.Rule.canonical} of the goal as a fact, so
    alpha-variant calls share one table. *)

type tstat_entry = {
  ts_key : string;  (** goal skeleton of the reporting peer's table *)
  ts_size : int;  (** answers accumulated so far *)
  ts_deps : (string * string * int * bool) list;
      (** per remote dependency [(owner, key, answers seen, final)] *)
}
(** One table's contribution to a {!Tstat} reply: the SCC leader uses
    [ts_size]/[ts_deps] as GEM-style counters to check that every
    consumer has seen every producer's full answer set. *)

type payload =
  | Query of { goal : Literal.t }
      (** evaluate this literal and answer with provable instances *)
  | Answer of {
      goal : Literal.t;
      instances : (Literal.t * Trace.t option) list;
      certs : Peertrust_crypto.Cert.t list;
          (** credentials supporting the instances, released under the
              sender's release policies *)
    }
  | Deny of { goal : Literal.t; reason : string }
      (** refusal: no answer, or release policy not satisfied *)
  | Disclosure of {
      certs : Peertrust_crypto.Cert.t list;
      rules : Rule.t list;
    }  (** unsolicited push of unlocked resources (eager strategy) *)
  | Raw of string
      (** an uninterpreted byte string — honest peers never send one; the
          adversary harness uses it to model garbage on the wire.  The
          guard layer attempts {!Peertrust_crypto.Wire} decoding and
          rejects it as malformed; an unguarded reactor ignores it. *)
  | Tquery of { goal : Literal.t; path : table_ref list }
      (** distributed-tabling call: evaluate [goal] against the owner's
          table, streaming answers back; [path] is the chain of tables
          whose evaluation led here (loop detection) *)
  | Tanswer of { goal : Literal.t; instances : Literal.t list; final : bool }
      (** monotone answer push: the owner's {e full} current instance
          list for the table (so duplicates/reorder are harmless — the
          consumer merges by skeleton); [final] marks a completed table *)
  | Tprobe of { leader : table_ref; epoch : int; members : table_ref list }
      (** SCC leader asking members for their counters at quiescence *)
  | Tstat of { leader : table_ref; epoch : int; entries : tstat_entry list }
      (** member's counter report for one probe epoch *)
  | Tcomplete of { leader : table_ref; epoch : int; members : table_ref list }
      (** leader's verdict: the SCC is globally quiescent; freeze every
          member table and release its answers as final *)
  | Cancel of { goal : Literal.t }
      (** the requester no longer needs an answer to [goal] — posted when
          a submission's deadline expires so responders can drop parked
          work instead of answering into the void *)

val kind : payload -> Stats.kind

val size : payload -> int
(** Wire-size estimate in bytes: serialised rules/literals plus signature
    material. *)

val cert_count : payload -> int
(** Number of certificates (credential disclosures) carried. *)

val summary : payload -> string
(** One-line rendering for transcripts. *)
