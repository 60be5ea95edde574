(** Depth-bounded SLD resolution over a single peer's knowledge base.

    This is the local (backward-chaining) evaluation engine of §3.2.  The
    distributed behaviour is obtained by plugging a [remote] callback: when
    a goal's outermost authority is a ground peer name different from
    [self], the engine — only when no local rule yields an answer for the
    goal — ships the literal (with the outermost authority popped) to that
    peer and unifies the returned instances.

    Evaluation of one goal:

    + strip [@ a] layers whose authority equals [self];
    + built-in predicates ({!Builtin});
    + registered external predicates (revocation checks,
      [authenticatesTo], ... — §4.2);
    + local rules with a matching head, including the signed-rule axiom:
      a rule [h signedBy \[A\]] also proves goals matching [h @ A];
    + remote dispatch as described above.

    Negation as failure: a body literal [not lit] succeeds when the ground
    [lit] has no local proof.  Remote dispatch is disabled inside the
    sub-proof — the absence of a remote answer is not evidence of falsity —
    and a NAF goal whose inner literal is non-ground fails (floundering).

    Termination: a depth bound plus an ancestor check that fails any goal
    which is a variant of a goal already on its own call path.

    Inside {!Kb.recording} a solve records the KB lookups it makes, and
    marks its read set volatile when it consults an external predicate
    or runs out of [max_steps] fuel: its result can then change with no
    KB change. *)

type options = {
  max_depth : int;
  max_solutions : int;
  max_steps : int;
      (** resolution work budget: an upper bound on solver steps
          ([prove_one] calls) per {!solve}; past it the remaining search
          space is abandoned and the answers found so far are returned.
          Used by the guard layer to cap the effort a peer spends on one
          requester's behalf.  Cutoffs count into [sld.step_cutoffs]. *)
}

val default_options : options
(** [{ max_depth = 64; max_solutions = 32; max_steps = max_int }] *)

type answer = { subst : Subst.t; proofs : Trace.t list }
(** One solution: the substitution (full, unrestricted) and one proof per
    input goal, fully instantiated with the answer substitution. *)

type external_fn = Literal.t -> Subst.t -> Subst.t list
(** An external predicate: receives the goal (substitution already applied)
    and the substitution; returns the substitutions under which it holds. *)

type externals = string * int -> external_fn option

type remote = target:string -> Literal.t -> (Literal.t * Trace.t option) list
(** [remote ~target lit] asks peer [target] for instances of [lit] (whose
    outermost authority has been popped); each returned instance may carry
    the remote proof. *)

val solve :
  ?options:options ->
  ?externals:externals ->
  ?remote:remote ->
  ?bindings:(string * Term.t) list ->
  self:string ->
  Kb.t ->
  Literal.t list ->
  answer list
(** Solve the conjunction of goals.  [bindings] pre-binds variables —
    typically [("Self", Str self); ("Requester", Str r)].  [Self] is always
    bound to [self] (a [bindings] entry may not override it). *)

val provable :
  ?options:options ->
  ?externals:externals ->
  ?remote:remote ->
  ?bindings:(string * Term.t) list ->
  self:string ->
  Kb.t ->
  Literal.t list ->
  bool

val answers :
  ?options:options ->
  ?externals:externals ->
  ?remote:remote ->
  ?bindings:(string * Term.t) list ->
  self:string ->
  Kb.t ->
  Literal.t list ->
  Subst.t list
(** Like {!solve} but each substitution is restricted to the variables of
    the query, and duplicate answers are removed. *)
