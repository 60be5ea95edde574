(** A peer's knowledge base: a persistent store of rules indexed by the
    [(predicate, arity)] key of their heads, with first-argument indexing
    inside each predicate bucket (the classic Prolog optimisation: a goal
    whose first argument is a constant only meets the clauses whose head
    starts with the same constant, plus those starting with a variable).

    The KB is immutable; peers that learn new rules during a negotiation
    hold a mutable reference to a KB value. *)

type t

val empty : t
(** First-argument indexing enabled. *)

val empty_linear : t
(** No first-argument indexing — {!matching} always scans the whole
    predicate bucket.  Exists for the indexing ablation (bench E12). *)

val add : Rule.t -> t -> t
(** Add a rule.  Duplicates (structurally equal rules) are ignored. *)

val add_list : Rule.t list -> t -> t
val remove : Rule.t -> t -> t
val mem : Rule.t -> t -> bool

val find : string * int -> t -> Rule.t list
(** Rules whose head has the given predicate key, in insertion order. *)

val matching : Literal.t -> t -> Rule.t list
(** Rules whose head can possibly unify with the literal: same predicate
    key, and (with indexing) a compatible first argument.  Insertion
    order. *)

val matching_compiled : Literal.t -> t -> Rule.compiled list
(** As {!matching}, returning the pre-compiled rules; the resolution hot
    path instantiates these without re-processing the source rules. *)

val matching_parts :
  Sym.t * int -> Flat.fkey -> t -> Rule.compiled list * Rule.compiled list
(** As {!matching_compiled}, keyed by an interned predicate symbol and a
    flat first-argument key ({!Flat.goal_first_key}), split into
    [(facts, proper_rules)] — each in insertion order.  The flat solver's
    entry point: no literal rebuilt, no partition per call. *)

val rules : t -> Rule.t list
(** All rules, in insertion order.  Inside {!recording}, marks the read
    set volatile: a whole-KB read can meet any rule added later. *)

val size : t -> int
val fold : (Rule.t -> 'a -> 'a) -> t -> 'a -> 'a

val signed_rules : t -> Rule.t list
(** The credentials: rules carrying at least one signature. *)

val of_string : ?indexing:bool -> string -> t
(** Parse a program text into a KB (indexing on by default).
    @raise Parser.Error on bad syntax. *)

val union : t -> t -> t
(** Left-biased union (duplicates dropped); keeps the left KB's indexing
    mode. *)

val pp : Format.formatter -> t -> unit

(** {2 Read sets}

    What an evaluation read from the KBs it consulted, so a caller can
    tell which later additions could change its result.  Every candidate
    lookup ({!matching}, {!matching_compiled}, {!matching_parts},
    {!find}) made while {!recording} runs is recorded by predicate bucket
    and first-argument key.  An addition no recorded lookup could have
    returned leaves every lookup, hence the evaluation, unchanged. *)

type lookup = (Sym.t * int) * Flat.fkey
(** A predicate bucket (interned predicate, arity) and the first-argument
    key it was searched with — [Kany] for a scan, which an unindexed KB
    always does. *)

type reads = {
  lookups : lookup list;  (** distinct, sorted *)
  volatile : bool;
      (** the result may change with no KB change: the evaluation
          consulted something outside the KB (an external predicate, see
          {!mark_volatile}) or read the whole KB *)
}

val recording : (unit -> 'a) -> 'a * reads
(** [recording f] runs [f] and returns its result with what it read.
    Recordings nest: an inner recording's reads also count for the
    outer one. *)

val mark_volatile : unit -> unit
(** Mark the read set being recorded volatile; a no-op outside
    {!recording}. *)

val head_lookup : Rule.t -> lookup
(** The bucket a rule's head lives in and its first-argument class
    ([Kany] for a variable first argument).  A lookup [(k, f)] can return
    the rule exactly when [k] is its bucket and [f] and the head's class
    are equal or either is [Kany] — the filter {!matching} applies. *)
