(** First-order terms of the PeerTrust distributed-logic-program language.

    A term is a logical variable, a constant (string, integer or atom), or a
    compound term [f(t1,...,tn)].  Symbols are interned ({!Sym}) and
    variables are integers: named (source) variables occupy a dense id space
    starting at 0, with the pseudo-variables [Requester] and [Self] of the
    paper pre-interned as ids 0 and 1; machine-generated fresh variables are
    allocated from a process-global counter at the top of the id space
    ([max_int - 1 - k]), so the two populations never collide.  Use the
    smart constructors ([var], [str], ...) to build terms from source
    strings. *)

type t =
  | Var of int  (** logical variable, by id (see {!var_id}, {!var_name}) *)
  | Str of Sym.t  (** quoted string constant, e.g. ["Alice"] *)
  | Int of int  (** integer constant *)
  | Atom of Sym.t  (** lower-case symbolic constant, e.g. [cs101] *)
  | Compound of Sym.t * t list  (** compound term [f(t1,...,tn)], n >= 1 *)

val var : string -> t
(** Variable with the given source name (interned). *)

val str : string -> t
val atom : string -> t
val compound : string -> t list -> t

val var_id : string -> int
(** Intern a source variable name. *)

val var_name : int -> string
(** Source name of a named variable; fresh variables print as [_G<k>]. *)

val named_var_count : unit -> int
(** Number of named-variable ids interned so far. *)

val compare : t -> t -> int
val compare_lists : t list -> t list -> int
val equal : t -> t -> bool

val requester : t
(** The pseudo-variable [Requester]. *)

val self : t
(** The pseudo-variable [Self]. *)

val requester_id : int
val self_id : int

val is_pseudo : int -> bool
(** [true] for the ids of the pseudo-variables [Requester] and [Self]. *)

val is_ground : t -> bool
(** [is_ground t] is [true] iff [t] contains no variable. *)

val vars : t -> int list
(** Variable ids occurring in [t], each reported once, in first-occurrence
    order. *)

val iter_vars : (int -> unit) -> t -> unit
(** Apply [f] to every variable occurrence (with repeats), left to right. *)

val add_vars : (int, unit) Hashtbl.t -> int list ref -> t -> unit
(** Accumulate unseen variable ids of [t] onto [acc] (reversed); shared
    de-duplication state for collecting over several terms. *)

val const_name : t -> string option
(** Source text of a [Str] or [Atom] constant, [None] otherwise. *)

(** {2 Fresh variables and renaming} *)

val fresh : unit -> t
val fresh_id : unit -> int

val is_fresh : int -> bool
(** [true] for machine-generated (renamed-apart) variable ids. *)

val fresh_mark : unit -> int
(** Current value of the fresh counter; ids allocated from here on have
    [k >= fresh_mark ()]. *)

val fresh_block : int -> int
(** [fresh_block n] reserves [n] consecutive fresh ids and returns the
    block offset [k0] for {!shift_fresh}. *)

val local_id : int -> int
(** [local_id j] is the compiled-local variable id for slot [j]; shifted
    into a live block by {!shift_fresh}. *)

val local_slot : int -> int
(** Inverse of {!local_id}: the slot of a compiled-local (or, shifted, a
    live fresh) variable id. *)

val shift_fresh : int -> t -> t
(** [shift_fresh k0 t] relocates compiled-local fresh variables of [t] into
    the block reserved by [fresh_block]: [local_id j] becomes the live id
    [local_id j - k0]. *)

val map_vars : (int -> int) -> t -> t
(** Apply [f] to every variable id (including pseudo-variables); shares
    structure where nothing changes. *)

val map_sharing : ('a -> 'a) -> 'a list -> 'a list
(** [List.map] preserving physical identity when no element changes. *)

val rename_with : (int, int) Hashtbl.t -> t -> t
(** Rename every non-pseudo variable to a globally fresh one, memoising
    through [mapping] so shared variables stay shared across calls. *)

(** {2 Printing}

    One printer: {!to_buffer} writes the text, {!to_string} returns it
    and {!pp} prints it, so the three agree byte for byte.  A string
    constant is [String.escaped] in double quotes, arithmetic prints
    infix in parentheses, and arguments are separated by [", "]. *)

val to_buffer : Buffer.t -> t -> unit

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [add_list buf add xs] writes the items with [add], separated by
    [", "]: the printer's list spelling. *)

val add_quoted : Buffer.t -> string -> unit
(** A string in the spelling of a string constant: [String.escaped]
    in double quotes. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
