(** QEL-style metadata queries — the Edutella substrate of the paper's
    introduction: "each peer manages distributed resources described by
    RDF metadata, and interfaces to the Edutella network using a
    Datalog-based query language".

    A query is a projection over a conjunctive Datalog body:

    {v  C, P <- course(C), price(C, P), P < 1500  v}

    Queries run over a provider's released metadata through the ordinary
    negotiation engine — each body literal is decorated with
    [@ provider] and answered under the provider's release policies, so
    the same machinery serves open metadata search (everything [$ true])
    and guarded catalogues.  This is the "search, then negotiate" pipeline
    of the ELENA scenarios. *)

open Peertrust_dlp

type t = { projection : string list; body : Literal.t list }

val parse : string -> t
(** Parse ["X, Y <- lit, lit, ..."].  Projection variables must occur in
    the body.  @raise Parser.Error on bad syntax, [Invalid_argument] on an
    unbound projection variable. *)

val to_string : t -> string

type row = Term.t list

val eval_store : Peertrust_rdf.Triple.Store.store -> t -> row list
(** Evaluate locally over an RDF store's fact projection (no network). *)

val eval_kb : self:string -> Kb.t -> t -> row list
(** Evaluate locally over a knowledge base. *)

val searchable_program : Peertrust_rdf.Registry.t -> string
(** A policy program exposing a registry's metadata publicly: the
    registry's facts plus a [$ true] release rule for each metadata
    predicate ([course/1], [price/2], [freeCourse/1], [<lang>Course/1],
    [triple/3]). *)

val search :
  Session.t -> requester:string -> provider:string -> t -> row list
(** Run the query against one provider over the network: each body
    literal the requester cannot answer locally is negotiated with the
    provider (subject to its release policies), one literal at a time in
    evaluation order, and the projections of the combined answers are
    returned, de-duplicated. *)

val search_all :
  Session.t -> requester:string -> providers:string list -> t ->
  (string * row list) list
(** Fan a query out to several providers (the Edutella broadcast); an
    unreachable provider contributes no rows. *)
