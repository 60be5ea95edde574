(** Literals of the PeerTrust language: a predicate applied to terms,
    optionally extended with a chain of authority arguments,

    {v lit @ A1 @ A2 ... @ Ak v}

    The paper evaluates authority chains outermost-first; we store the chain
    in source order, so the {e outermost} authority is the {e last} element
    of [auth].  A literal with an empty chain is local ([@ Self]). *)

type t = { pred : string; args : Term.t list; auth : Term.t list }

val make : ?auth:Term.t list -> string -> Term.t list -> t
val arity : t -> int

val key : t -> string * int
(** [(pred, arity)] index key. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val outer_authority : t -> Term.t option
(** The outermost (last) authority, if any. *)

val pop_authority : t -> (t * Term.t) option
(** [pop_authority l] removes the outermost authority [a], returning
    [(l', a)]; [None] if the chain is empty. *)

val push_authority : t -> Term.t -> t
(** [push_authority l a] appends [a] as the new outermost authority. *)

val apply : Subst.t -> t -> t

val resolve : Store.t -> t -> t
(** Fully resolve arguments and authorities through the store. *)

val display : Store.t -> t -> t
(** {!resolve} with display-name conversion ({!Store.display}); for
    literals that escape the solver. *)

val rename_apart : t -> t
(** Rename all non-pseudo variables to globally fresh ones. *)

val rename_with : (int, int) Hashtbl.t -> t -> t
(** As {!rename_apart}, sharing the renaming across calls via [mapping]. *)

val shift_fresh : int -> t -> t
(** Relocate compiled-local variables (see {!Term.shift_fresh}). *)

val map_vars : (int -> int) -> t -> t

val vars : t -> int list
val add_vars : (int, unit) Hashtbl.t -> int list ref -> t -> unit
val is_ground : t -> bool

val to_term : t -> Term.t
(** Encode a literal as a compound term (used for hashing, signing and for
    meta-predicates); inverse of {!of_term}. *)

val of_term : Term.t -> t option

val unify : t -> t -> Subst.t -> Subst.t option
(** Unify predicate, arguments and authority chains. *)

val unify_store : Store.t -> t -> t -> bool
(** Trailed variant of {!unify}; on [false] some bindings may remain —
    callers bracket with [Store.mark]/[Store.undo]. *)

val negate : t -> t
(** Wrap a literal as negation-as-failure: [not lit].  Encoded as the
    predicate [not/1] holding the literal's term encoding. *)

val naf_inner : t -> t option
(** The literal under a [not/1] wrapper, if this is one. *)

(** {2 Printing}

    One printer, as for {!Term}: [not lit] for negation, built-in
    comparisons infix ([X < 3]), otherwise [pred(args)] followed by
    [" @ A"] per authority. *)

val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
