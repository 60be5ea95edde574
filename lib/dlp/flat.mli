(** Flat compiled literals: each literal as one int array.

    A literal [p(t1,...,tn) @ a1 ... @ ak] flattens to
    [[| pred; n; e1; ...; e_(n+k) |]] where [pred] is the interned
    predicate symbol, [n] the arity, and each element [e] encodes one
    argument (authorities follow the arguments):

    - [e >= 0]: the hash-consed id ({!Gterm}) of a ground argument — so
      ground-vs-ground comparison during unification is [e1 = e2];
    - [e < 0]: a side-table escape.  For compiled {e heads} the escape is
      a variable code (pseudo-variable or compiled-local slot) or an index
      into a per-head array of boxed non-ground compounds; for runtime
      {e goals} it indexes an array of boxed walked subterms.

    Unification of a goal against a head is then an int-compare loop over
    adjacent memory that falls back to the boxed unifier only on escape
    elements, binding through the same trailed {!Store} (so trails,
    binding order, and therefore answers and transcripts are identical to
    the boxed path).

    The module also provides canonical encodings (variables numbered by
    first occurrence) used for the variant-ancestor loop check and for
    integer-keyed answer deduplication: two literals are variants iff
    their canonical encodings are equal. *)

type head
(** Flat form of a compiled rule head (variables are pseudo-variables or
    compiled-local slots, see {!Rule.compile}). *)

val compile_head : Literal.t -> head
(** Flatten a compiled head literal.  Call once at rule compilation. *)

type goal = { g_flat : int array; g_vals : Term.t array }
(** Flat form of a runtime goal: ground arguments as {!Gterm} ids,
    everything else as an index into [g_vals] holding the walked boxed
    subterm (re-walked through the store at unification time, so bindings
    made by earlier argument pairs are seen by later ones). *)

type arena
(** Per-solve scratch buffers for flattening and canonical encoding; one
    arena per store/solve (never shared across nested solves). *)

val arena : unit -> arena

val flatten : arena -> Store.t -> Literal.t -> goal
(** Flatten a goal with arguments walked through the store. *)

val pred : goal -> Sym.t
val nargs : goal -> int
val nauth : goal -> int

val is_ground : goal -> bool
(** Every argument and authority is ground (a {!Gterm} id). *)

val unify : Store.t -> k0:int -> goal -> head -> bool
(** Unify a goal against a head instantiated at fresh-block offset [k0]
    (head-local slot [j] denotes the live variable [Term.local_id (k0+j)]).
    Binds destructively through {!Store.bind}; on [false] some bindings
    may remain — callers bracket with [Store.mark]/[Store.undo].  Makes
    exactly the bindings (same cells, same order, same values up to
    sharing) that [Literal.unify_store] makes against the boxed
    instantiated head. *)

(** {2 First-argument index keys} *)

type fkey =
  | Kany  (** no argument, or a variable first argument: no filtering *)
  | Kground of int  (** non-compound ground first argument, by {!Gterm} id *)
  | Kfunctor of Sym.t * int  (** compound first argument, by functor/arity *)

val goal_first_key : goal -> fkey

(** {2 Canonical encodings} *)

val canon_set : arena -> Store.t -> Literal.t -> unit
(** Encode the literal (resolved through the store, variables renumbered
    by first occurrence) into the arena's primary canon buffer. *)

val canon_eq : arena -> Store.t -> Literal.t -> bool
(** Encode into the secondary buffer and compare with the primary: [true]
    iff the two literals are variants (equal up to consistent variable
    renaming) of each other — the {!Unify.variant} test, integer-coded. *)

val subst_key : Subst.t -> int array
(** Injective integer key of a substitution (variables raw-coded); used
    for answer deduplication instead of string printing.  Finer than
    printed equality only where printing is ambiguous (e.g. an atom whose
    name spells an integer). *)
