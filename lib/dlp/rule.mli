(** Rules (definite Horn clauses) of the PeerTrust language.

    Concrete syntax accepted by {!Parser}:

    {v
      head [$ CTX] [<- [{CTX}] [signedBy ["A",...]] body] [signedBy ["A",...]] .
    v}

    - [head_ctx] is the release policy ([$] guard) of the head literal: the
      derived literal may only be disclosed to a requester satisfying it.
    - [rule_ctx] is the release policy of the rule itself (the subscript on
      the arrow in the paper, written [<-{ctx}] here).
    - A context of [None] means the paper's default, [Requester = Self]:
      private to the local peer.  [Some []] is the explicit context [true]:
      releasable to anyone.
    - [signer] lists the authorities whose signatures the rule carries
      ([signedBy \["UIUC"\]]); credentials are signed rules with empty
      bodies. *)

type ctx = Literal.t list
(** A context: conjunction of context literals.  [Requester]/[Self] appear
    as the distinguished variables of the same names. *)

type t = {
  head : Literal.t;
  head_ctx : ctx option;
  rule_ctx : ctx option;
  body : Literal.t list;
  signer : string list;
}

val make :
  ?head_ctx:ctx ->
  ?rule_ctx:ctx ->
  ?signer:string list ->
  Literal.t ->
  Literal.t list ->
  t

val fact : ?signer:string list -> Literal.t -> t
(** A rule with an empty body. *)

val is_fact : t -> bool
val is_signed : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val apply : Subst.t -> t -> t

val display : Store.t -> t -> t
(** Resolve every literal through the store with display-name conversion
    ({!Literal.display}); for rules that escape the solver (proof traces). *)

val rename_apart : t -> t
(** Rename all (non-pseudo) variables of the rule to globally fresh ones
    ({!Term.fresh_id}); used to rename a rule apart before resolving
    against a goal.  The one renaming for source rules: it interns no
    name, and a renamed variable prints as [_G<k>].  Compiled rules rename
    by a block shift instead ({!instantiate}). *)

val vars : t -> int list

val strip_contexts : t -> t
(** Remove both contexts; the paper strips contexts from rules and literals
    when they are sent to another peer. *)

val subsumes : general:t -> specific:t -> bool
(** [subsumes ~general ~specific] is [true] when [specific] is an instance
    of [general]: same signers, and some substitution of [general]'s
    variables maps its head and body onto [specific]'s.  Contexts are
    ignored (like {!canonical}).  Used to recognise an instantiated rule in
    a proof trace as a use of a stored credential. *)

val canonical : t -> string
(** A canonical serialisation used as the signing payload for signed rules.
    Two alpha-equivalent rules share a canonical form. *)

(** {2 Compiled rules}

    A rule pre-processed for the resolution hot path: variables renumbered
    into a compiled-local block and signed head variants precomputed, so
    renaming apart is one counter bump plus a structure-sharing shift.
    Ground rules instantiate with zero allocation. *)

type compiled

val compile : t -> compiled

val source : compiled -> t
(** The original rule (as stored in the KB); traces and signatures use it. *)

val compiled_is_fact : compiled -> bool

val nvars : compiled -> int
(** Number of distinct non-pseudo variables in the rule. *)

val slot_names : compiled -> string array
(** Source display name of each compiled variable slot, in slot order; used
    to name the fresh variables of an instantiation for user-visible output
    ({!Store.note_names}). *)

val instantiate : compiled -> t * Literal.t list * int
(** A copy of the rule renamed apart with globally fresh variables, paired
    with its head variants (head plus one [head @ signer] per signature)
    and the fresh-block offset [k0] ([0] when the rule is ground). *)

val flat_heads : compiled -> Flat.head array
(** Flat forms of the head variants, in {!instantiate} order; unified
    against flat goals at a fresh-block offset ({!Flat.unify}). *)

val instantiate_at : compiled -> int -> t
(** The boxed rule shifted into an already reserved fresh-block offset
    (ignored when the rule has no variables).  With {!flat_heads} this
    lets the solver defer the boxed instantiation until a head variant
    has actually unified. *)

(** {2 Printing}

    One printer, as for {!Literal}: the head, [" $ ctx"] for a head
    context, [" <-{ctx} body"] for a rule context and body, and
    [signedBy] with the signers quoted as string constants, in brackets;
    an empty context prints [true] and every rule ends in ['.'].  The
    text re-parses to an equal rule. *)

val to_buffer : Buffer.t -> t -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
