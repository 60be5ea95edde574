module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer

type options = { max_depth : int; max_solutions : int; max_steps : int }

let default_options =
  { max_depth = 64; max_solutions = 32; max_steps = max_int }

(* Always-on counters (a field update each); spans only when a tracer is
   installed. *)
let m_queries = Obs.counter "sld.queries"
let m_steps = Obs.counter "sld.steps"
let m_depth_cutoffs = Obs.counter "sld.depth_cutoffs"
let m_step_cutoffs = Obs.counter "sld.step_cutoffs"
let m_solutions = Obs.counter "sld.solutions"
let h_steps = Obs.histogram "sld.steps_per_query"

type answer = { subst : Subst.t; proofs : Trace.t list }
type external_fn = Literal.t -> Subst.t -> Subst.t list
type externals = string * int -> external_fn option
type remote = target:string -> Literal.t -> (Literal.t * Trace.t option) list

exception Enough
exception Exhausted of int

let no_externals : externals = fun _ -> None
let no_remote : remote = fun ~target:_ _ -> []

(* Fully instantiate a finished trace against the store at answer time;
   traces are built with partially bound rules as resolution proceeds, so
   their snapshots still contain raw solver variables.  [display] both
   resolves them and converts leftover named fresh variables to their
   user-visible [name~ordinal] form. *)
let rec display_trace st = function
  | Trace.Apply (r, subs) ->
      Trace.Apply (Rule.display st r, List.map (display_trace st) subs)
  | Trace.Builtin l -> Trace.Builtin (Literal.display st l)
  | Trace.External l -> Trace.External (Literal.display st l)
  | Trace.Remote { peer; goal; proof } ->
      Trace.Remote
        {
          peer;
          goal = Literal.display st goal;
          proof = Option.map (display_trace st) proof;
        }

let peer_name_of_term = function
  | Term.Str s | Term.Atom s -> Some (Sym.name s)
  | Term.Var _ | Term.Int _ | Term.Compound _ -> None

let not_sym = Sym.intern "not"

(* Ancestor stack for the variant loop check: an immutable list, because a
   goal's entry must scope over its own subtree only — the continuation [k]
   escapes to sibling goals, which must not see it.  Each entry is tagged
   with its predicate symbol so the canonical comparison runs only against
   same-predicate ancestors (an int compare skips the rest). *)
type anc = Anil | Acons of Sym.t * Literal.t * anc

(* The solver threads one trailed {!Store} through the whole proof:
   unification binds cells destructively, each choice point brackets its
   attempt with mark/undo, and persistent substitutions are materialised
   only at the boundaries (answers, external calls).  Goals are flattened
   ({!Flat}) at each resolution step, so candidate lookup and head
   unification run on int arrays; the boxed rule is instantiated only
   after a head has unified. *)
let solve_body ?(options = default_options) ?(externals = no_externals)
    ?(remote = no_remote) ?(bindings = []) ~self kb goals =
  let st = Store.create () in
  let arena = Flat.arena () in
  let bind_initial v t =
    let id = Term.var_id v in
    if Store.is_bound st id then
      invalid_arg ("Subst.bind: already bound: " ^ v)
    else Store.bind st id t
  in
  List.iter
    (fun (v, t) -> if not (String.equal v "Self") then bind_initial v t)
    bindings;
  bind_initial "Self" (Term.str self);
  (* Rule-application ordinal: fresh variables of application [n] display
     as [Name~n], the user-visible renaming scheme (deterministic per
     solve, so transcripts do not depend on global solver state). *)
  let app = ref 0 in
  let results = ref [] in
  let count = ref 0 in
  (* This solve's own resolution steps; nested solves (remote callbacks
     enter fresh [solve_body]s) count theirs, so per-query histogram
     observations sum to the global step counter. *)
  let local_steps = ref 0 in
  (* Ids of the ground-goal frames that may cut their own alternatives
     ([Exhausted]); 0 marks a non-ground goal. *)
  let frames = ref 0 in
  (* Pop authority layers that refer to the local peer. *)
  let rec strip_self goal =
    match Literal.pop_authority goal with
    | Some (inner, a) -> (
        match peer_name_of_term (Store.walk st a) with
        | Some name when String.equal name self -> strip_self inner
        | Some _ | None -> goal)
    | None -> goal
  in
  (* The goal's canonical encoding is computed lazily: only if some
     ancestor shares its predicate symbol (goals are recorded unresolved;
     both sides resolve through the store inside the encoder, which is
     sound because store resolution is monotone along a derivation). *)
  let is_ancestor psym goal ancestors =
    let set = ref false in
    let rec scan = function
      | Anil -> false
      | Acons (p, anc, rest) ->
          (Sym.equal p psym
          && begin
               if not !set then begin
                 Flat.canon_set arena st goal;
                 set := true
               end;
               Flat.canon_eq arena st anc
             end)
          || scan rest
    in
    scan ancestors
  in
  (* Merge the delta of an external's answer substitution back into the
     store (externals work on materialised substitutions). *)
  let merge_delta s' =
    Subst.fold_ids
      (fun v t () -> if not (Store.is_bound st v) then Store.bind st v t)
      s' ()
  in
  (* Remote dispatch is disabled inside negation-as-failure sub-proofs:
     absence of a remote answer is not evidence of falsity. *)
  let remote_enabled = ref true in
  (* Resolution work budget: each [prove_one] call burns one unit of
     fuel; at zero the remaining search space is abandoned (answers
     found so far survive).  This is the per-requester work quota the
     guard layer threads in — a bound on effort spent on one
     counterparty's behalf, not a soundness device. *)
  let fuel = ref options.max_steps in
  let rec prove_one goal depth ancestors k =
    Metric.incr m_steps;
    incr local_steps;
    if !fuel <= 0 then Metric.incr m_step_cutoffs
    else if depth <= 0 then Metric.incr m_depth_cutoffs
    else begin
      decr fuel;
      let goal = strip_self goal in
      let fg = Flat.flatten arena st goal in
      let psym = Flat.pred fg in
      let nargs = Flat.nargs fg in
      let naf =
        (* Negation as failure; the inner literal is decoded from the
           resolved goal (its argument may be a bound variable). *)
        if Sym.equal psym not_sym && nargs = 1 && Flat.nauth fg = 0 then begin
          let rg = Literal.resolve st goal in
          match Literal.naf_inner rg with
          | Some inner -> Some (rg, inner)
          | None -> None
        end
        else None
      in
      match naf with
      | Some (rg, inner) ->
          (* Only for ground inner literals (a non-ground NAF goal
             flounders and fails). *)
          if Literal.is_ground inner then begin
            let found = ref false in
            let exception Found in
            let saved = !remote_enabled in
            remote_enabled := false;
            let m = Store.mark st in
            Fun.protect
              ~finally:(fun () ->
                remote_enabled := saved;
                Store.undo st m)
              (fun () ->
                try
                  prove_one inner (depth - 1) ancestors (fun _ ->
                      found := true;
                      raise Found)
                with Found -> ());
            if not !found then k (Trace.Builtin rg)
          end
      | None -> (
      match
        if Builtin.is_builtin_sym psym && nargs = 2 then
          Builtin.eval_store st goal
        else None
      with
      | Some holds -> if holds then k (Trace.Builtin (Literal.resolve st goal))
      | None -> (
          match externals (goal.Literal.pred, nargs) with
          | Some f ->
              let s = Store.to_subst st in
              List.iter
                (fun s' ->
                  let m = Store.mark st in
                  merge_delta s';
                  k (Trace.External (Literal.resolve st goal));
                  Store.undo st m)
                (f (Literal.resolve st goal) s)
          | None ->
              if is_ancestor psym goal ancestors then ()
              else begin
                let ancestors' = Acons (psym, goal, ancestors) in
                let local_hit = ref false in
                (* A ground goal's other proofs bind nothing new: once the
                   continuation of one of its proofs has yielded no
                   answer, its remaining clauses and remote instances are
                   skipped.  Answers, their order and their proofs are
                   unchanged, and a conjunction of ground goals whose
                   later conjunct fails is searched in linear rather
                   than exponential time. *)
                let frame =
                  if Flat.is_ground fg then begin
                    incr frames;
                    !frames
                  end
                  else 0
                in
                let k tr =
                  local_hit := true;
                  if frame = 0 then k tr
                  else begin
                    let before = !count in
                    k tr;
                    if !count = before then raise_notrace (Exhausted frame)
                  end
                in
                let m0 = Store.mark st in
                try
                  let resolve_with compiled =
                    incr app;
                    let nv = Rule.nvars compiled in
                    let k0 = if nv = 0 then 0 else Term.fresh_block nv in
                    if nv > 0 then
                      Store.note_names st k0 (Rule.slot_names compiled) !app;
                    let heads = Rule.flat_heads compiled in
                    for hi = 0 to Array.length heads - 1 do
                      let m = Store.mark st in
                      if Flat.unify st ~k0 fg heads.(hi) then begin
                        (* Boxed instantiation deferred to here: failed
                           candidates cost the flat unify only. *)
                        let r = Rule.instantiate_at compiled k0 in
                        prove_goals r.Rule.body (depth - 1) ancestors'
                          (fun children -> k (Trace.Apply (r, children)))
                      end;
                      Store.undo st m
                    done
                  in
                  (* Facts first: a cached credential or learned instance
                     answers the goal without the counter-queries a proper
                     rule's body might trigger. *)
                  let facts, proper =
                    Kb.matching_parts (psym, nargs) (Flat.goal_first_key fg) kb
                  in
                  List.iter resolve_with facts;
                  List.iter resolve_with proper;
                  (* Remote dispatch is a fallback: a peer asks another peer
                     only when it cannot establish the goal from its own
                     rules (each peer controls how much effort it spends on
                     other peers' behalf — §3.2). *)
                  if !local_hit || not !remote_enabled then ()
                  else
                  match Literal.pop_authority goal with
                  | None -> ()
                  | Some (inner, a) -> (
                      match peer_name_of_term (Store.walk st a) with
                      | Some peer when not (String.equal peer self) ->
                          let shipped = Literal.display st inner in
                          let use_instance (inst, proof) =
                            let inst_lit =
                              Literal.push_authority inst (Term.str peer)
                            in
                            let m = Store.mark st in
                            if Literal.unify_store st goal inst_lit then
                              k
                                (Trace.Remote
                                   {
                                     peer;
                                     goal = Literal.resolve st goal;
                                     proof;
                                   });
                            Store.undo st m
                          in
                          List.iter use_instance (remote ~target:peer shipped)
                      | Some _ | None -> ())
                with Exhausted f when f = frame -> Store.undo st m0
              end))
    end
  and prove_goals goals depth ancestors k =
    match goals with
    | [] -> k []
    | g :: rest ->
        prove_one g depth ancestors (fun tr ->
            prove_goals rest depth ancestors (fun trs -> k (tr :: trs)))
  in
  (try
     prove_goals goals options.max_depth Anil (fun trs ->
         let s = Store.answer_subst st in
         results :=
           { subst = s; proofs = List.map (display_trace st) trs } :: !results;
         incr count;
         if !count >= options.max_solutions then raise Enough)
   with Enough -> ());
  (List.rev !results, !local_steps)

let solve ?options ?externals ?remote ?bindings ~self kb goals =
  Metric.incr m_queries;
  let run () = solve_body ?options ?externals ?remote ?bindings ~self kb goals in
  let result, steps =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      Otracer.with_span tracer
        ~attrs:
          [
            ( "goal",
              Peertrust_obs.Json.Str
                (String.concat ", " (List.map Literal.to_string goals)) );
            ("self", Peertrust_obs.Json.Str self);
          ]
        "sld.solve" run
    else run ()
  in
  Metric.observe_int h_steps steps;
  Metric.add m_solutions (List.length result);
  result

let provable ?options ?externals ?remote ?bindings ~self kb goals =
  let opts =
    { (Option.value ~default:default_options options) with max_solutions = 1 }
  in
  solve ~options:opts ?externals ?remote ?bindings ~self kb goals <> []

let answers ?options ?externals ?remote ?bindings ~self kb goals =
  let qvars =
    List.concat_map Literal.vars goals
    |> List.filter (fun v -> not (Term.is_pseudo v))
  in
  let all = solve ?options ?externals ?remote ?bindings ~self kb goals in
  let restricted = List.map (fun a -> Subst.restrict qvars a.subst) all in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let key = Flat.subst_key s in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    restricted
