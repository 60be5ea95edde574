(** Reference SLD resolution: persistent substitution maps and
    renamed-apart rules, with no binding trail and no term interning —
    the pre-interning algorithm, kept as the answer oracle for the
    engine's flat, trailed core ({!Peertrust_dlp.Sld}).

    It covers pure Datalog with built-ins; externals, remote calls and
    negation as failure are out of scope.  The search order mirrors the
    engine's: built-ins first, then facts before proper rules in
    insertion order, with variant-ancestor pruning and a per-application
    depth budget — so answer lists can be compared order-sensitively as
    well as as sets. *)

val answers :
  max_depth:int ->
  self:string ->
  Peertrust_dlp.Kb.t ->
  Peertrust_dlp.Literal.t list ->
  Peertrust_dlp.Subst.t list
(** Every distinct answer to the goals, in discovery order, each
    restricted to the goals' variables ([Self] is bound to [self]). *)
