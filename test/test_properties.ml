(* Property-based tests over the negotiation engine and the whole stack:
   random worlds, random programs, random rules.  These check the
   system-level invariants the paper's design promises:

   - safety: every credential a peer receives was releasable to it under
     the origin's release policies;
   - strategy completeness and interoperability: on solvable worlds every
     strategy succeeds, on unsolvable worlds every strategy fails;
   - the static analysis is definitive on failure and agrees with the
     engine on the generated world family;
   - the forward and backward engines derive the same ground facts;
   - printing is the left inverse of parsing for generated rules. *)

open Peertrust
open Peertrust_dlp
module Crypto = Peertrust_crypto

let granted = Negotiation.succeeded

(* CHECK_SLOW=1 (see check.sh) multiplies every iteration count. *)
let slow =
  match Sys.getenv_opt "CHECK_SLOW" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let scale n = if slow then n * 5 else n

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_world_params =
  QCheck.make
    ~print:(fun (d, e, m) ->
      Printf.sprintf "depth=%d extras=%d missing=%s" d e
        (match m with Some k -> string_of_int k | None -> "-"))
    QCheck.Gen.(
      let* depth = int_range 1 6 in
      let* extras = int_range 0 3 in
      let* missing =
        frequency [ (2, return None); (1, map Option.some (int_range 1 depth)) ]
      in
      return (depth, extras, missing))

let build_world (depth, extras, missing) =
  Scenario.policy_chain ~extra_creds:extras ?missing ~depth ()

let run_world strategy (w : Scenario.chain_world) =
  Strategy.negotiate w.Scenario.cw_session ~strategy
    ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
    w.Scenario.cw_goal

(* ------------------------------------------------------------------ *)
(* Safety: no credential reaches a peer its origin would not release it
   to. *)

let prop_no_unsafe_disclosure =
  QCheck.Test.make ~name:"engine: every received credential was releasable"
    ~count:(scale 40) gen_world_params (fun params ->
      let w = build_world params in
      let session = w.Scenario.cw_session in
      ignore (run_world Strategy.Relevant w);
      let ok = ref true in
      Hashtbl.iter
        (fun _ (holder : Peer.t) ->
          Hashtbl.iter
            (fun _ (cert : Crypto.Cert.t) ->
              match Peer.cert_origin holder cert with
              | None -> ()  (* the peer's own credential *)
              | Some origin ->
                  let origin_peer = Session.peer session origin in
                  let prover = Engine.prover origin_peer in
                  let decision =
                    Policy.credential_releasable ~prover
                      ~kb:origin_peer.Peer.kb ~requester:holder.Peer.name
                      ~self:origin cert.Crypto.Cert.rule
                  in
                  if decision <> Policy.Granted then ok := false)
            holder.Peer.certs)
        session.Session.peers;
      !ok)

(* ------------------------------------------------------------------ *)
(* Strategy completeness and interoperability *)

let prop_strategies_agree =
  QCheck.Test.make
    ~name:"strategies: all succeed on solvable worlds, all fail otherwise"
    ~count:(scale 30) gen_world_params (fun ((_, _, missing) as params) ->
      let solvable = missing = None in
      List.for_all
        (fun strategy ->
          let w = build_world params in
          granted (run_world strategy w) = solvable)
        Strategy.all)

let prop_multi_eager_matches_two_party =
  QCheck.Test.make
    ~name:"strategies: n-party eager with both parties behaves like 2-party"
    ~count:(scale 20) gen_world_params (fun params ->
      let w = build_world params in
      let multi =
        Strategy.negotiate_multi w.Scenario.cw_session
          ~participants:[ w.Scenario.cw_requester; w.Scenario.cw_owner ]
          ~requester:w.Scenario.cw_requester ~target:w.Scenario.cw_owner
          w.Scenario.cw_goal
      in
      let w2 = build_world params in
      let two = run_world Strategy.Eager w2 in
      granted multi = granted two)

(* ------------------------------------------------------------------ *)
(* Static analysis vs runtime *)

let prop_analysis_agrees =
  QCheck.Test.make ~name:"analysis: prediction matches engine on chain worlds"
    ~count:(scale 30) gen_world_params (fun params ->
      let w = build_world params in
      let world = Analysis.world_of_session w.Scenario.cw_session in
      let predicted =
        Analysis.may_succeed world ~owner:w.Scenario.cw_owner
          ~goal:w.Scenario.cw_goal
      in
      let actual = granted (run_world Strategy.Relevant (build_world params)) in
      predicted = actual)

(* ------------------------------------------------------------------ *)
(* Forward / backward agreement on random Datalog *)

let gen_graph =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "nodes=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges)))
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let* m = int_range 1 14 in
      let* edges =
        list_size (return m)
          (pair (int_range 1 n) (int_range 1 n))
      in
      return (n, edges))

let prop_tabled_forward_agree =
  QCheck.Test.make ~name:"engines: tabled and forward agree on reachability"
    ~count:(scale 40) gen_graph (fun (n, edges) ->
      let buf = Buffer.create 128 in
      (* Left-recursive formulation: the regime where SLD is incomplete
         and tabling must still match the forward fixpoint. *)
      Buffer.add_string buf
        "path(X, Z) <- path(X, Y), edge(Y, Z). path(X, Y) <- edge(X, Y).\n";
      List.iter
        (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" a b))
        edges;
      let kb = Kb.of_string (Buffer.contents buf) in
      let fwd = Forward.saturate ~self:"p" kb in
      let fwd_paths =
        List.filter
          (fun (l : Literal.t) -> String.equal l.Literal.pred "path")
          fwd.Forward.facts
      in
      let _ = n in
      let tabled = Tabled.solve ~self:"p" kb (Parser.parse_query "path(A, B)") in
      List.length tabled = List.length fwd_paths)

let prop_forward_backward_agree =
  QCheck.Test.make ~name:"engines: forward and SLD agree on reachability"
    ~count:(scale 60) gen_graph (fun (n, edges) ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf
        "path(X, Y) <- edge(X, Y). path(X, Z) <- edge(X, Y), path(Y, Z).\n";
      List.iter
        (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" a b))
        edges;
      let kb = Kb.of_string (Buffer.contents buf) in
      let fwd = Forward.saturate ~self:"p" kb in
      let agree a b =
        let goal = Printf.sprintf "path(%d, %d)" a b in
        let f =
          List.exists
            (Literal.equal (Parser.parse_literal goal))
            fwd.Forward.facts
        in
        let bwd =
          Sld.provable
            ~options:
              {
                Sld.default_options with
                max_depth = (2 * (n + List.length edges)) + 8;
                max_solutions = 1;
              }
            ~self:"p" kb
            (Parser.parse_query goal)
        in
        f = bwd
      in
      List.for_all
        (fun a -> List.for_all (fun b -> agree a b) (List.init n succ))
        (List.init n succ))

(* ------------------------------------------------------------------ *)
(* Differential testing: the three evaluation paradigms on random
   stratified, non-recursive, ground-able Datalog programs.  This is the
   regime where SLD, tabling and forward chaining are all defined, so
   their answer sets must coincide exactly.  Programs that draw a NAF
   rule exercise the documented divergence instead: the tabled engine
   must reject the whole program ([Tabled.Unsupported] — a NAF check
   against an unfinished table would be unsound), forward chaining skips
   the NAF rule, and SLD on the program without that rule must agree
   with forward chaining on the full program.  Tabled skips are counted
   and reported by the last test of the [paradigms] section. *)

type stratified = {
  sp_base : string;  (* NAF-free program text *)
  sp_naf : string option;  (* one stratified NAF rule for the top pred *)
  sp_top : string;  (* top predicate name *)
  sp_nconst : int;  (* constants c1..c<n> *)
}

let gen_stratified =
  QCheck.Gen.(
    let pred_of k = if k = 0 then "e0" else Printf.sprintf "p%d" k in
    let* nconst = int_range 2 3 in
    let* facts =
      list_size (int_range 2 6) (pair (int_range 1 nconst) (int_range 1 nconst))
    in
    let* depth = int_range 1 3 in
    let gen_rule_at i =
      let* q = int_range 0 (i - 1) in
      let* r = int_range 0 (i - 1) in
      let* shape = int_range 0 2 in
      return
        (match shape with
        | 0 -> Printf.sprintf "%s(X, Y) <- %s(X, Y).\n" (pred_of i) (pred_of q)
        | 1 ->
            Printf.sprintf "%s(X, Z) <- %s(X, Y), %s(Y, Z).\n" (pred_of i)
              (pred_of q) (pred_of r)
        | _ ->
            Printf.sprintf "%s(X, Y) <- %s(X, Y), %s(Y, W).\n" (pred_of i)
              (pred_of q) (pred_of r))
    in
    let rec strata i acc =
      if i > depth then return acc
      else
        let* rules = list_size (int_range 1 2) (gen_rule_at i) in
        strata (i + 1) (acc ^ String.concat "" rules)
    in
    let base_facts =
      String.concat ""
        (List.map
           (fun (a, b) -> Printf.sprintf "e0(c%d, c%d).\n" a b)
           facts)
    in
    let* base = strata 1 base_facts in
    let* naf =
      frequency
        [
          (3, return None);
          ( 1,
            let* q = int_range 0 (depth - 1) in
            return
              (Some
                 (Printf.sprintf "%s(X, Y) <- e0(X, Y), not %s(X, Y).\n"
                    (pred_of depth) (pred_of q))) );
        ]
    in
    return
      { sp_base = base; sp_naf = naf; sp_top = pred_of depth;
        sp_nconst = nconst })

let arb_stratified =
  QCheck.make
    ~print:(fun sp -> sp.sp_base ^ Option.value ~default:"" sp.sp_naf)
    gen_stratified

let naf_skips = ref 0

let prop_three_paradigms_agree =
  QCheck.Test.make
    ~name:"engines: SLD, tabled and forward agree on stratified programs"
    ~count:(scale 60) arb_stratified (fun sp ->
      let kb_base = Kb.of_string sp.sp_base in
      let kb_full =
        match sp.sp_naf with
        | None -> kb_base
        | Some r -> Kb.of_string (sp.sp_base ^ r)
      in
      (* Forward chaining is the reference answer set. *)
      let fwd = Forward.saturate ~self:"p" kb_full in
      let fwd_set =
        List.filter
          (fun (l : Literal.t) -> String.equal l.Literal.pred sp.sp_top)
          fwd.Forward.facts
        |> List.map Literal.to_string
        |> List.sort_uniq String.compare
      in
      (* SLD: point queries over the whole ground space (complete here:
         the programs are non-recursive).  In the NAF case the engine
         runs on the base program, mirroring forward chaining's
         skip-NAF-rules semantics. *)
      let consts = List.init sp.sp_nconst succ in
      let sld_agrees =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                let text = Printf.sprintf "%s(c%d, c%d)" sp.sp_top a b in
                let in_fwd =
                  List.mem
                    (Literal.to_string (Parser.parse_literal text))
                    fwd_set
                in
                Sld.provable
                  ~options:{ Sld.default_options with max_depth = 64; max_solutions = 1 }
                  ~self:"p" kb_base (Parser.parse_query text)
                = in_fwd)
              consts)
          consts
      in
      let goal = Parser.parse_query (sp.sp_top ^ "(A, B)") in
      match sp.sp_naf with
      | Some _ ->
          incr naf_skips;
          let rejected =
            match Tabled.solve ~self:"p" kb_full goal with
            | _ -> false
            | exception Tabled.Unsupported _ -> true
          in
          rejected && sld_agrees
      | None ->
          let goal_lit = List.hd goal in
          let tabled_set =
            Tabled.solve ~self:"p" kb_full goal
            |> List.map (fun s -> Literal.to_string (Literal.apply s goal_lit))
            |> List.sort_uniq String.compare
          in
          tabled_set = fwd_set && sld_agrees)

let report_naf_skips () =
  Printf.printf
    "  tabled: %d generated NAF program(s) skipped via Unsupported (as \
     documented — tabling rejects negation as failure)\n"
    !naf_skips

(* ------------------------------------------------------------------ *)
(* Printer/parser roundtrip on generated rules *)

(* Constants as the printer may meet them: small ints and a few
   names (so that goals unify with heads), ints over the whole range,
   and strings over arbitrary bytes, which print with [\ddd], [\r] and
   [\b] escapes. *)
let gen_const =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun i -> Term.Int i) (int_bound 99));
      ( 1,
        map
          (fun i -> Term.Int i)
          (oneof [ int; oneofl [ min_int; max_int; -1 ] ]) );
      (3, map (fun i -> Term.str (Printf.sprintf "s%d" i)) (int_bound 4));
      (1, map Term.str (string_size ~gen:char (int_range 0 6)));
      (3, map (fun i -> Term.atom (Printf.sprintf "a%d" i)) (int_bound 4));
    ]

let gen_term =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun i -> Term.var (Printf.sprintf "V%d" i)) (int_bound 3));
      (3, gen_const);
      ( 1,
        map2
          (fun f args -> Term.compound (Printf.sprintf "f%d" f) args)
          (int_bound 2)
          (list_size (int_range 1 2) gen_const) );
    ]

let gen_literal =
  let open QCheck.Gen in
  let* p = int_bound 4 in
  let* args = list_size (int_range 0 3) gen_term in
  let* auth = list_size (int_range 0 2) gen_term in
  return (Literal.make ~auth (Printf.sprintf "p%d" p) args)

let gen_rule =
  let open QCheck.Gen in
  let* head = gen_literal in
  let* body = list_size (int_range 0 3) gen_literal in
  let* head_ctx =
    frequency
      [
        (2, return None);
        (1, return (Some []));
        (1, map (fun l -> Some [ l ]) gen_literal);
      ]
  in
  let* rule_ctx = frequency [ (3, return None); (1, return (Some [])) ] in
  let* signer =
    frequency
      [
        (3, return []);
        (1, map (fun i -> [ Printf.sprintf "CA%d" i ]) (int_bound 2));
      ]
  in
  return (Rule.make ?head_ctx ?rule_ctx ~signer head body)

let arb_rule =
  QCheck.make ~print:Rule.to_string gen_rule

let prop_rule_roundtrip =
  QCheck.Test.make ~name:"parser: print/parse roundtrip on generated rules"
    ~count:(scale 300) arb_rule (fun r ->
      Rule.equal r (Parser.parse_rule (Rule.to_string r)))

let prop_canonical_alpha_invariant =
  QCheck.Test.make ~name:"rule: canonical form is alpha-invariant" ~count:(scale 200)
    arb_rule (fun r ->
      String.equal (Rule.canonical r)
        (Rule.canonical (Rule.rename_apart r)))

let prop_subsumes_reflexive_on_instances =
  QCheck.Test.make ~name:"rule: instances are subsumed by their rule"
    ~count:(scale 200) arb_rule (fun r ->
      (* Ground every variable and check subsumption. *)
      let s =
        List.fold_left
          (fun s v -> Subst.bind_id v (Term.atom "c") s)
          Subst.empty (Rule.vars r)
      in
      Rule.subsumes ~general:r ~specific:(Rule.apply s r))

(* ------------------------------------------------------------------ *)
(* Differential: trailed-store unification vs the map-based oracle.
   [Unify.terms] over persistent substitutions is the boundary-path
   implementation and serves as the oracle; [Unify.store_terms] is the
   destructive hot path.  They must agree on unifiability, and on success
   both unifiers must make the pair syntactically equal.  The generator
   draws from a small shared variable pool so aliasing chains and occurs
   check failures (X =? f(X)) are common. *)

let rec gen_unify_term depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map (fun i -> Term.var (Printf.sprintf "U%d" i)) (int_bound 4));
        (2, gen_const);
      ]
  in
  if depth = 0 then leaf
  else
    frequency
      [
        (2, leaf);
        ( 3,
          map2
            (fun f args -> Term.compound (Printf.sprintf "g%d" f) args)
            (int_bound 2)
            (list_size (int_range 1 3) (gen_unify_term (depth - 1))) );
      ]

let arb_term_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Format.asprintf "%a =? %a" Term.pp a Term.pp b)
    QCheck.Gen.(
      let* a = gen_unify_term 3 in
      let* b = gen_unify_term 3 in
      return (a, b))

let prop_unify_differential =
  QCheck.Test.make
    ~name:"unify: trailed store agrees with the map-based oracle"
    ~count:(scale 1000) arb_term_pair (fun (a, b) ->
      let oracle = Unify.terms a b Subst.empty in
      let st = Store.create () in
      let m = Store.mark st in
      let ok = Unify.store_terms st a b in
      let agree =
        match (oracle, ok) with
        | None, false -> true
        | Some s, true ->
            Term.equal (Store.resolve st a) (Store.resolve st b)
            && Term.equal (Subst.apply s a) (Subst.apply s b)
        | Some _, false | None, true -> false
      in
      Store.undo st m;
      agree)

(* ------------------------------------------------------------------ *)
(* First-argument indexing is invisible to [Kb.matching] up to the
   unifiability filter (correctness side of the E12 ablation): the
   indexed KB may return fewer candidates than the linear scan, but it
   must never drop a clause whose head unifies with the goal, and every
   candidate it returns must also be in the linear scan. *)

let head_unifiable goal r =
  (* Rename apart so shared variable names don't block unification. *)
  let fresh = Rule.rename_apart r in
  Option.is_some (Literal.unify goal fresh.Rule.head Subst.empty)

let arb_kb_and_goal =
  QCheck.make
    ~print:(fun (rules, goal) ->
      Printf.sprintf "goal=%s kb=[%s]" (Literal.to_string goal)
        (String.concat " " (List.map Rule.to_string rules)))
    QCheck.Gen.(
      let* rules = list_size (int_range 0 30) gen_rule in
      let* goal = gen_literal in
      return (rules, goal))

let prop_indexing_transparent =
  QCheck.Test.make
    ~name:"kb: first-argument indexing never changes the unifiable match set"
    ~count:(scale 300) arb_kb_and_goal (fun (rules, goal) ->
      let indexed = Kb.add_list rules Kb.empty in
      let linear = Kb.add_list rules Kb.empty_linear in
      let mi = Kb.matching goal indexed in
      let ml = Kb.matching goal linear in
      let subset = List.for_all (fun r -> List.exists (Rule.equal r) ml) mi in
      let complete =
        List.for_all
          (fun r -> List.exists (Rule.equal r) mi || not (head_unifiable goal r))
          ml
      in
      let key_set l =
        List.filter (head_unifiable goal) l
        |> List.map Rule.canonical
        |> List.sort_uniq String.compare
      in
      subset && complete && key_set mi = key_set ml)

(* ------------------------------------------------------------------ *)
(* Differential: the flat resolution path (int-array clauses, hash-consed
   ground ids, first-argument index, canonical-encoding ancestor check)
   against the boxed map-substitution oracle ({!Peertrust_oracle.Oracle},
   shared with the resolution benchmark) that mirrors the solver's search
   order — facts before proper rules in insertion order, variant-ancestor
   pruning, per-application depth budget.  The answer
   LISTS must be equal: same solutions in the same order, not just the
   same sets (solution order is what negotiation transcripts pin).
   Programs are stratified joins whose facts carry nested compounds,
   strings and ints, so goals route through every flat-argument class:
   ground id, compound escape, and variable slot. *)

let gen_flat_program =
  QCheck.Gen.(
    let pred_of k = if k = 0 then "e0" else Printf.sprintf "q%d" k in
    let* nconst = int_range 2 3 in
    (* One base-fact argument: constant, nested compound, string or int —
       all the argument classes the flat encoding distinguishes. *)
    let arg =
      let* k = int_range 1 nconst in
      oneofl
        [
          Printf.sprintf "c%d" k;
          Printf.sprintf "f(c%d)" k;
          Printf.sprintf "g(c%d, h(%d))" k (k + 10);
          Printf.sprintf "\"s%d\"" k;
          string_of_int k;
        ]
    in
    let* facts =
      list_size (int_range 2 7)
        (let* a = arg in
         let* b = arg in
         return (Printf.sprintf "e0(%s, %s).\n" a b))
    in
    let* depth = int_range 1 3 in
    let gen_rule_at i =
      let* q = int_range 0 (i - 1) in
      let* r = int_range 0 (i - 1) in
      let* shape = int_range 0 2 in
      return
        (match shape with
        | 0 -> Printf.sprintf "%s(X, Y) <- %s(X, Y).\n" (pred_of i) (pred_of q)
        | 1 ->
            Printf.sprintf "%s(X, Z) <- %s(X, Y), %s(Y, Z).\n" (pred_of i)
              (pred_of q) (pred_of r)
        | _ ->
            Printf.sprintf "%s(X, Y) <- %s(X, Y), %s(Y, W).\n" (pred_of i)
              (pred_of q) (pred_of r))
    in
    let rec strata i acc =
      if i > depth then return acc
      else
        let* rules = list_size (int_range 1 2) (gen_rule_at i) in
        strata (i + 1) (acc ^ String.concat "" rules)
    in
    let* src = strata 1 (String.concat "" facts) in
    return (src, pred_of depth))

let arb_flat_program =
  QCheck.make ~print:(fun (src, top) -> src ^ "?- " ^ top ^ "(A, B).")
    gen_flat_program

let prop_flat_boxed_differential =
  QCheck.Test.make
    ~name:"sld: flat resolution matches the boxed oracle, answers and order"
    ~count:(scale 150) arb_flat_program (fun (src, top) ->
      let kb = Kb.of_string src in
      let goals = Parser.parse_query (top ^ "(A, B)") in
      let engine =
        Sld.answers
          ~options:
            { Sld.default_options with max_depth = 48; max_solutions = 10_000 }
          ~self:"p" kb goals
        |> List.map Subst.to_string
      in
      let oracle =
        Peertrust_oracle.Oracle.answers ~max_depth:48 ~self:"p" kb goals
        |> List.map Subst.to_string
      in
      engine = oracle)

(* ------------------------------------------------------------------ *)
(* Certificates for random rules *)

let prop_cert_roundtrip =
  QCheck.Test.make ~name:"cert: issue/verify for generated signed rules"
    ~count:(scale 25) arb_rule (fun r ->
      QCheck.assume (Rule.is_signed r);
      let ks = Crypto.Keystore.create ~bits:320 ~seed:9L () in
      match Crypto.Cert.issue ks r with
      | Ok cert -> Crypto.Cert.verify ks cert = Ok ()
      | Error _ -> false)

(* A keystore records the signatures it has verified (Keystore.verify);
   the record must change no verdict.  Two certificates, issued with
   generated rules, signers and validity windows, and tampered copies
   of the first: a signature off by one either way, the other's
   signatures, its rule, a serial or window moved by one, a signer or a
   signature dropped.  A keystore that has already checked every one of
   them, and revoked some, gives each the verdict a fresh keystore of
   the same seed gives, at a time inside or outside the windows. *)
let gen_cert_case =
  let open QCheck.Gen in
  let gen_signers =
    let* n = int_range 1 2 in
    let* first = int_bound 2 in
    return (List.init n (fun i -> Printf.sprintf "CA%d" ((first + i) mod 3)))
  in
  let gen_signed =
    let* r = gen_rule in
    let* signer = gen_signers in
    let* not_before = int_bound 4 in
    let* len = int_bound 6 in
    return ({ r with Rule.signer }, not_before, not_before + len)
  in
  let* c1 = gen_signed and* c2 = gen_signed in
  let* now = int_bound 12 in
  let* revoke1 = bool and* revoke2 = bool in
  return (c1, c2, now, revoke1, revoke2)

let prop_verified_set_no_verdict =
  let print ((r1, b1, a1), (r2, b2, a2), now, v1, v2) =
    Printf.sprintf "%s [%d, %d]; %s [%d, %d]; now %d; revoked %b %b"
      (Rule.to_string r1) b1 a1 (Rule.to_string r2) b2 a2 now v1 v2
  in
  QCheck.Test.make
    ~name:"cert: a keystore that verified before gives a fresh one's verdicts"
    ~count:(scale 20) (QCheck.make ~print gen_cert_case)
    (fun ((r1, b1, a1), (r2, b2, a2), now, revoke1, revoke2) ->
      let seed = 17L in
      let warm = Crypto.Keystore.create ~bits:320 ~seed () in
      let issue r not_before not_after =
        Result.get_ok (Crypto.Cert.issue warm ~not_before ~not_after r)
      in
      let c1 = issue r1 b1 a1 and c2 = issue r2 b2 a2 in
      let open Crypto.Cert in
      let nudge f =
        match c1.signatures with
        | (s, v) :: rest -> { c1 with signatures = (s, f v) :: rest }
        | [] -> c1
      in
      let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
      let tampered =
        [
          nudge (fun v -> Crypto.Bignum.add v Crypto.Bignum.one);
          nudge (fun v ->
              if Crypto.Bignum.is_zero v then v
              else Crypto.Bignum.sub v Crypto.Bignum.one);
          { c1 with signatures = c2.signatures };
          { c1 with rule = { c2.rule with Rule.signer = c1.rule.Rule.signer } };
          { c1 with serial = c1.serial + 1 };
          { c1 with not_before = c1.not_before - 1 };
          { c1 with not_after = c1.not_after + 1 };
          { c1 with rule = { c1.rule with Rule.signer = drop_last c1.rule.Rule.signer } };
          { c1 with signatures = drop_last c1.signatures };
        ]
      in
      let all = c1 :: c2 :: tampered in
      (* Every original inside its window, then every certificate at
         [now]: what the warm keystore records, it records here. *)
      List.iter (fun c -> ignore (verify warm ~now:c.not_before c)) [ c1; c2 ];
      List.iter (fun c -> ignore (verify warm ~now c)) all;
      let fresh = Crypto.Keystore.create ~bits:320 ~seed () in
      List.iter
        (fun (revoked, c) ->
          if revoked then
            List.iter
              (fun ks -> Crypto.Keystore.revoke ks ~serial:c.serial)
              [ warm; fresh ])
        [ (revoke1, c1); (revoke2, c2) ];
      List.for_all (fun c -> verify warm ~now c = verify fresh ~now c) all)

(* ------------------------------------------------------------------ *)
(* Crypto kernels against the reference arithmetic in Kernel_ref *)

(* A modulus of one limb or of fifteen, odd or even (1 included), a base
   of up to twice the modulus's bits (so often >= m), and an exponent of
   0, 1, a short one (binary ladder) or a long one (4-bit window). *)
let arb_modpow =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (b, e, m) ->
      Printf.sprintf "b=%s e=%s m=%s" (Crypto.Bignum.to_hex b)
        (Crypto.Bignum.to_hex e) (Crypto.Bignum.to_hex m))
    (let* seed = int in
     let* mbits = oneof [ int_range 1 26; int_range 365 390 ] in
     let* odd = bool in
     let* bbits = int_range 0 ((2 * mbits) + 8) in
     let* ebits = oneof [ return 0; return 1; int_range 2 64; int_range 65 400 ] in
     let prng = Crypto.Prng.create (Int64.of_int seed) in
     let nat bits =
       if bits = 0 then Crypto.Bignum.zero else Crypto.Bignum.random_bits prng bits
     in
     let m = nat mbits in
     let m = if Crypto.Bignum.is_even m = odd then Crypto.Bignum.add m Crypto.Bignum.one else m in
     return (nat bbits, nat ebits, m))

let prop_modpow_reference =
  QCheck.Test.make ~name:"bignum: modpow matches square-and-multiply"
    ~count:(scale 200) arb_modpow (fun (b, e, m) ->
      Crypto.Bignum.equal (Kernel_ref.modpow b e m)
        (Crypto.Bignum.modpow b e (Crypto.Bignum.modulus m)))

let prop_crt_sign_reference =
  QCheck.Test.make ~name:"rsa: CRT signature is pad(msg)^d mod n"
    ~count:(scale 15)
    QCheck.(triple int (int_range 288 416) small_printable_string)
    (fun (seed, bits, msg) ->
      let kp = Crypto.Rsa.generate ~bits (Crypto.Prng.create (Int64.of_int seed)) in
      let pub = kp.Crypto.Rsa.public in
      Crypto.Bignum.equal
        (Kernel_ref.modpow (Kernel_ref.pad pub msg) kp.Crypto.Rsa.d pub.Crypto.Rsa.n)
        (Crypto.Rsa.sign kp msg))

let prop_bytes_codec =
  QCheck.Test.make ~name:"bignum: byte codecs round-trip with leading zeros"
    ~count:(scale 300)
    QCheck.(pair (int_range 0 4) (string_of_size Gen.(int_range 0 64)))
    (fun (zeros, s) ->
      let s = String.make zeros '\000' ^ s in
      let v = Crypto.Bignum.of_bytes_be (Bytes.of_string s) in
      Crypto.Bignum.equal v (Kernel_ref.of_bytes s)
      && (s = ""
         || Bytes.to_string (Crypto.Bignum.to_bytes_be ~size:(String.length s) v) = s))

(* The one hex codec: decoding inverts encoding, and a text decodes
   only if it is exactly what the encoder writes for the decoded bytes
   (no upper case, no '_' or "0x"/'+' spellings of a digit pair). *)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex: decode inverts encode" ~count:(scale 300)
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s -> Crypto.Hex.decode (Crypto.Hex.encode s) = Some s)

let prop_hex_canonical =
  QCheck.Test.make ~name:"hex: only the encoder's text decodes"
    ~count:(scale 1000)
    QCheck.(
      string_gen_of_size
        Gen.(int_range 0 12)
        (Gen.oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF_x+"))))
    (fun h ->
      match Crypto.Hex.decode h with
      | Some s -> Crypto.Hex.encode s = h
      | None -> true)

(* ------------------------------------------------------------------ *)
(* Robustness: parsers fail only with their documented exceptions *)

let arb_junk =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      let any_char = map Char.chr (int_range 1 255) in
      (* Digit runs up to 25 long, so past int range, alone or signed. *)
      let digits =
        map2
          (fun sign ds -> sign ^ ds)
          (oneofl [ ""; "-"; "- " ])
          (string_size ~gen:numeral (int_range 1 25))
      in
      let mixed =
        oneof
          [
            map (String.concat "")
              (list_size (int_range 0 8)
                 (oneof
                    [
                      oneofl
                        [ "p("; ")"; "\"str\""; "<-"; "@"; "$"; "signedBy";
                          "["; "]"; "X"; "42"; ","; "."; "not "; "+"; "{";
                          "}"; "true"; "%c\n"; "<"; "="; "-";
                          "-4611686018427387904"; "4611686018427387904" ];
                      digits;
                    ]));
            string_size ~gen:any_char (int_range 0 40);
            string_size ~gen:printable (int_range 0 60);
          ]
      in
      mixed)

let total_with ~name f exns =
  QCheck.Test.make ~name ~count:(scale 500) arb_junk (fun s ->
      match f s with
      | _ -> true
      | exception e -> List.exists (fun p -> p e) exns)

let prop_parser_total =
  total_with ~name:"fuzz: program parser is total"
    Parser.parse_program
    [ (function Parser.Error _ -> true | _ -> false) ]

let prop_query_parser_total =
  total_with ~name:"fuzz: query parser is total" Parser.parse_query
    [ (function Parser.Error _ -> true | _ -> false) ]

let prop_turtle_total =
  total_with ~name:"fuzz: turtle parser is total" Peertrust_rdf.Turtle.parse
    [ (function Peertrust_rdf.Turtle.Error _ -> true | _ -> false) ]

let prop_wire_total =
  total_with ~name:"fuzz: wire decoder is total (never raises)"
    Crypto.Wire.decode_many []

let prop_qel_total =
  total_with ~name:"fuzz: QEL parser is total" Qel.parse
    [
      (function Parser.Error _ -> true | _ -> false);
      (function Invalid_argument _ -> true | _ -> false);
    ]

(* The wire codec under hostile input: decoding inverts encoding for
   generated certificates, and no amount of byte-level damage to a valid
   wallet makes the decoder raise — it is what the inbound guard runs on
   every raw blob an adversary sends. *)

let cert_of_rule ?(serial = 7) rule =
  {
    Crypto.Cert.serial;
    rule;
    not_before = 0;
    not_after = 1000 + serial;
    signatures =
      [ ("Issuer: odd/name", Crypto.Bignum.of_int (424242 + serial)) ];
  }

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: decode inverts encode" ~count:(scale 60)
    arb_rule (fun r ->
      let cert = cert_of_rule r in
      match Crypto.Wire.decode (Crypto.Wire.encode cert) with
      | Ok c -> Crypto.Wire.encode c = Crypto.Wire.encode cert
      | Error _ -> false)

let arb_wallet_damage =
  QCheck.make
    ~print:(fun (muts, trunc) ->
      Printf.sprintf "muts=[%s] trunc=%s"
        (String.concat ";"
           (List.map (fun (p, c) -> Printf.sprintf "%d:%d" p c) muts))
        (match trunc with Some n -> string_of_int n | None -> "-"))
    QCheck.Gen.(
      pair
        (list_size (int_range 0 12) (pair small_nat (int_range 0 255)))
        (option small_nat))

let prop_wire_mutated_total =
  QCheck.Test.make
    ~name:"fuzz: wire decoder is total on mutated wallets"
    ~count:(scale 300) arb_wallet_damage (fun (muts, trunc) ->
      let wallet =
        Crypto.Wire.encode_many
          [
            cert_of_rule ~serial:1
              (Parser.parse_rule {|cred("alice") @ "CA" signedBy ["CA"].|});
            cert_of_rule ~serial:2
              (Parser.parse_rule {|member("bob") signedBy ["Org"].|});
          ]
      in
      let b = Bytes.of_string wallet in
      List.iter
        (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) (Char.chr c))
        muts;
      let s = Bytes.to_string b in
      let s =
        match trunc with
        | Some n -> String.sub s 0 (min n (String.length s))
        | None -> s
      in
      match Crypto.Wire.decode_many s with
      | Ok _ | Error (Crypto.Wire.Malformed _) -> true
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Observability: percentile monotonicity. *)

module Pobs = Peertrust_obs

let prop_percentile_monotone =
  (* percentile hs is monotone in q — including samples that land in the
     unbounded overflow bucket, where the observed max is reported. *)
  let arb =
    QCheck.make
      ~print:
        QCheck.Print.(pair (list int) (pair float float))
      QCheck.Gen.(
        triple
          (list_size (int_range 0 60) (int_range 0 200_000))
          (float_bound_inclusive 1.)
          (float_bound_inclusive 1.)
        |> map (fun (samples, q1, q2) -> (samples, (q1, q2))))
  in
  QCheck.Test.make ~name:"metric: percentile is monotone in q"
    ~count:(scale 300) arb (fun (samples, (q1, q2)) ->
      let h = Pobs.Metric.histogram ~buckets:[| 4.; 64.; 1024. |] "q" in
      List.iter (Pobs.Metric.observe_int h) samples;
      let hs = Pobs.Metric.snapshot_histogram h in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Pobs.Metric.percentile hs lo <= Pobs.Metric.percentile hs hi)

(* ------------------------------------------------------------------ *)
(* Distributed tabling: random programs partitioned across 2-5 peers,
   one owning peer per predicate, with the reactor's distributed-tabled
   answer set diffed against one [Tabled.solve] run on the merged KB
   (the same rules with the authority annotations dropped).  Cyclic
   worlds overlay a predicate ring spanning the peers — an inter-peer
   SCC the completion protocol must detect, quiesce and freeze — while
   acyclic worlds only chain downward.  NAF worlds pin the documented
   divergence instead: the merged engine raises [Tabled.Unsupported]
   and the distributed run must deny the root goal with a reason
   {!Negotiation.classify_denial} maps to [Unsupported].  Skips and
   cyclic coverage are counted and reported like the single-engine
   paradigms section. *)

type dworld = {
  dw_programs : (string * string) list;  (* peer name -> its KB slice *)
  dw_merged : string;  (* same rules, authorities dropped *)
  dw_top : string;  (* top predicate, the root goal's *)
  dw_target : string;  (* owner of the top predicate *)
  dw_naf : bool;
  dw_cyclic : bool;
}

let gen_dworld =
  QCheck.Gen.(
    let* npeers = int_range 2 5 in
    let* extra = int_range 1 2 in
    (* npreds > npeers keeps the cyclic ring spanning >= 2 peers *)
    let npreds = npeers + extra in
    let* nconst = int_range 2 3 in
    let* cyclic = bool in
    let* naf = frequency [ (3, return false); (1, return true) ] in
    let pred i = Printf.sprintf "q%d" i in
    let owner i = Printf.sprintf "n%d" (i mod npeers) in
    let lit ~dist i args =
      (* Distributed rules qualify every body literal with its owning
         peer; the merged reference drops the qualification. *)
      if dist then Printf.sprintf {|%s(%s) @ "%s"|} (pred i) args (owner i)
      else Printf.sprintf "%s(%s)" (pred i) args
    in
    let* facts =
      list_size (int_range 2 5)
        (pair (int_range 1 nconst) (int_range 1 nconst))
    in
    let gen_feed i =
      let* j = int_range 0 (i - 1) in
      let* k = int_range 0 (i - 1) in
      let* shape = int_range 0 1 in
      return
        ( i,
          fun ~dist ->
            if shape = 0 then
              Printf.sprintf "%s(X, Y) <- %s.\n" (pred i) (lit ~dist j "X, Y")
            else
              Printf.sprintf "%s(X, Z) <- %s, %s.\n" (pred i)
                (lit ~dist j "X, Y") (lit ~dist k "Y, Z") )
    in
    let rec feeds i acc =
      if i >= npreds then return (List.rev acc)
      else
        let* f = gen_feed i in
        feeds (i + 1) (f :: acc)
    in
    let* feed_rules = feeds 1 [] in
    (* The ring makes q1..q<top> mutually recursive; owners alternate
       round-robin, so the SCC always crosses peer boundaries. *)
    let ring_rules =
      if not cyclic then []
      else
        List.init (npreds - 1) (fun x ->
            let i = x + 1 in
            let next = 1 + (i mod (npreds - 1)) in
            ( i,
              fun ~dist ->
                Printf.sprintf "%s(X, Y) <- %s.\n" (pred i)
                  (lit ~dist next "X, Y") ))
    in
    let top = npreds - 1 in
    let naf_rules =
      if not naf then []
      else
        (* NAF at the top predicate only: the target evaluates it, so the
           distributed denial mirrors the merged engine's up-front
           whole-KB rejection. *)
        [
          ( top,
            fun ~dist ->
              Printf.sprintf "%s(X, Y) <- %s, not %s(X, Y).\n" (pred top)
                (lit ~dist 0 "X, Y") (pred 1) );
        ]
    in
    let fact_rules =
      List.map
        (fun (a, b) ->
          (0, fun ~dist:_ -> Printf.sprintf "%s(c%d, c%d).\n" (pred 0) a b))
        facts
    in
    let rules = fact_rules @ feed_rules @ ring_rules @ naf_rules in
    let program_of name =
      List.filter_map
        (fun (i, render) ->
          if String.equal (owner i) name then Some (render ~dist:true)
          else None)
        rules
      |> String.concat ""
    in
    let peers = List.init npeers (fun p -> Printf.sprintf "n%d" p) in
    return
      {
        dw_programs = List.map (fun p -> (p, program_of p)) peers;
        dw_merged =
          String.concat "" (List.map (fun (_, r) -> r ~dist:false) rules);
        dw_top = pred top;
        dw_target = owner top;
        dw_naf = naf;
        dw_cyclic = cyclic;
      })

let arb_dworld =
  QCheck.make
    ~print:(fun dw ->
      Printf.sprintf "cyclic=%b naf=%b top=%s@%s\n%s" dw.dw_cyclic dw.dw_naf
        dw.dw_top dw.dw_target
        (String.concat ""
           (List.map
              (fun (p, prog) -> Printf.sprintf "-- %s --\n%s" p prog)
              dw.dw_programs)))
    gen_dworld

let tabling_naf_skips = ref 0
let tabling_cyclic_runs = ref 0

let prop_distributed_tabling_agrees =
  QCheck.Test.make
    ~name:"tabling: distributed answer sets equal the merged single engine"
    ~count:(scale 30) arb_dworld (fun dw ->
      let session = Session.create () in
      List.iter
        (fun (name, program) ->
          ignore (Session.add_peer session ~program name))
        dw.dw_programs;
      ignore (Session.add_peer session "client");
      let goal = Parser.parse_literal (dw.dw_top ^ "(A, B)") in
      let reactor =
        Reactor.create
          ~config:{ Reactor.default_config with Reactor.tabling = true }
          session
      in
      let id =
        Reactor.submit reactor ~requester:"client" ~target:dw.dw_target goal
      in
      ignore (Reactor.run reactor);
      if dw.dw_cyclic then incr tabling_cyclic_runs;
      let kb = Kb.of_string dw.dw_merged in
      match Reactor.outcome reactor id with
      | Negotiation.Denied reason when dw.dw_naf ->
          incr tabling_naf_skips;
          let merged_rejects =
            match Tabled.solve ~self:dw.dw_target kb [ goal ] with
            | _ -> false
            | exception Tabled.Unsupported _ -> true
          in
          merged_rejects
          && Negotiation.classify_denial reason = Negotiation.Unsupported
      | Negotiation.Denied _ | Negotiation.Granted _ when dw.dw_naf -> false
      | Negotiation.Denied _ -> false
      | Negotiation.Granted instances ->
          let dist =
            List.map (fun (l, _) -> Literal.to_string l) instances
            |> List.sort_uniq String.compare
          in
          let merged =
            Tabled.solve ~self:dw.dw_target kb [ goal ]
            |> List.map (fun s -> Literal.to_string (Literal.apply s goal))
            |> List.sort_uniq String.compare
          in
          dist = merged)

let report_tabling_coverage () =
  Printf.printf
    "  tabling: %d cyclic world(s) exercised the completion protocol; %d NAF \
     world(s) denied as unsupported (parity with the merged engine's \
     rejection)\n"
    !tabling_cyclic_runs !tabling_naf_skips

(* ------------------------------------------------------------------ *)
(* Journal durability: the write-ahead journal behind crash-stop
   recovery.  A crash tears at most the line being appended, so parsing
   any byte prefix of a valid journal must recover exactly the entries
   of its complete lines; arbitrary damage must come back as a
   line-numbered [Bad_world], never an exception; and replaying a
   journal twice must leave a peer exactly where one replay did. *)

let gen_journal_entry =
  QCheck.Gen.(
    let name = oneofl [ "alice"; "E-Learn"; "odd name/\xc2\xb7"; "" ] in
    frequency
      [
        ( 2,
          map2
            (fun serial r -> Persist.Journal.Cert (cert_of_rule ~serial r))
            small_nat gen_rule );
        (2, map (fun r -> Persist.Journal.Fact r) gen_rule);
        ( 1,
          let* owner = name in
          let* goal = gen_literal in
          let* instances = list_size (int_range 0 3) gen_literal in
          return (Persist.Journal.Answer { owner; goal; instances }) );
        ( 1,
          let* id = small_nat in
          let* target = name in
          let* goal = gen_literal in
          return (Persist.Journal.Goal { id; target; goal }) );
        (1, map (fun id -> Persist.Journal.Done { id }) small_nat);
      ])

let render_journal entries =
  let j = Persist.Journal.in_memory () in
  List.iter (Persist.Journal.append j) entries;
  Persist.Journal.contents j

let arb_journal_cut =
  QCheck.make
    ~print:(fun (entries, cut) ->
      Printf.sprintf "entries=%d cut=%d\n%s" (List.length entries) cut
        (String.escaped (render_journal entries)))
    QCheck.Gen.(
      pair (list_size (int_range 0 12) gen_journal_entry) small_nat)

let prop_journal_truncation_prefix =
  QCheck.Test.make
    ~name:
      "persist: journal parse of any byte prefix recovers the complete lines"
    ~count:(scale 200) arb_journal_cut (fun (entries, cut) ->
      let text = render_journal entries in
      let cut = cut mod (String.length text + 1) in
      (* Everything up to the last newline in the prefix is intact; the
         rest is the torn tail a crash left behind. *)
      let keep =
        match String.rindex_opt (String.sub text 0 cut) '\n' with
        | None -> 0
        | Some i -> i + 1
      in
      match Persist.Journal.parse (String.sub text 0 cut) with
      | Ok es -> render_journal es = String.sub text 0 keep
      | Error _ -> false
      | exception _ -> false)

let prop_journal_mutated_total =
  QCheck.Test.make
    ~name:"fuzz: journal parser is total on mutated journals"
    ~count:(scale 200)
    (QCheck.pair arb_journal_cut arb_wallet_damage)
    (fun ((entries, _), (muts, trunc)) ->
      let text = render_journal entries in
      QCheck.assume (String.length text > 0);
      let b = Bytes.of_string text in
      List.iter
        (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) (Char.chr c))
        muts;
      let s = Bytes.to_string b in
      let s =
        match trunc with
        | Some n -> String.sub s 0 (min n (String.length s))
        | None -> s
      in
      match Persist.Journal.parse s with
      | Ok _ -> true
      | Error (Persist.Bad_world m) ->
          (* Mid-stream damage must name the offending line. *)
          String.length m >= 12 && String.sub m 0 12 = "journal line"
      | exception _ -> false)

let peer_signature p =
  let serials =
    Hashtbl.fold
      (fun _ (c : Crypto.Cert.t) acc -> c.Crypto.Cert.serial :: acc)
      p.Peer.certs []
    |> List.sort compare
  in
  let rules =
    Kb.rules p.Peer.kb |> List.map Rule.canonical |> List.sort compare
  in
  (serials, rules)

let prop_journal_replay_idempotent =
  QCheck.Test.make
    ~name:"persist: replaying a journal twice equals replaying it once"
    ~count:(scale 150) arb_journal_cut (fun (entries, _) ->
      match Persist.Journal.parse (render_journal entries) with
      | Error _ -> false
      | Ok es ->
          let once = Peer.create "p" in
          Persist.Journal.replay_peer once es;
          let twice = Peer.create "p" in
          Persist.Journal.replay_peer twice es;
          Persist.Journal.replay_peer twice es;
          peer_signature once = peer_signature twice)

(* Whatever constant a fact or a certificate names — any bytes in a
   string, any int — its journal line parses back to the same entry,
   and the certificate still verifies. *)
let journal_keystore = lazy (Crypto.Keystore.create ~bits:320 ~seed:21L ())

let prop_journal_any_constant =
  let gen =
    QCheck.Gen.(
      pair
        (oneof
           [
             string_size ~gen:char (int_range 0 8);
             oneofl [ "Z\xc3\xbcrich"; "a\rb"; "\b\000\255" ];
           ])
        (oneof [ int; oneofl [ min_int; max_int; -1; 0 ] ]))
  in
  QCheck.Test.make
    ~name:"persist: facts and certificates of any constant survive the journal"
    ~count:(scale 40)
    (QCheck.make ~print:QCheck.Print.(pair String.escaped int) gen)
    (fun (s, i) ->
      let ks = Lazy.force journal_keystore in
      let head = Literal.make "member" [ Term.str s; Term.Int i ] in
      match Crypto.Cert.issue ks (Rule.fact ~signer:[ "CA" ] head) with
      | Error _ -> false
      | Ok cert -> (
          let entries =
            Persist.Journal.
              [ Cert cert; Fact (Rule.fact head); Done { id = 1 } ]
          in
          match Persist.Journal.parse (render_journal entries) with
          | Ok ([ Persist.Journal.Cert c; _; _ ] as parsed) ->
              render_journal parsed = render_journal entries
              && Crypto.Cert.verify ks c = Ok ()
          | Ok _ | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* The text codecs against their references (Kernel_ref): the printer
   against [Format], hex against the recursive codec, the journal
   parser against the split-based one, and decode then encode on every
   journal a disk-journalled crash run writes. *)

let gen_text =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            "";
            "plain";
            {|with "quotes"|};
            {|back\slash|};
            "tab\tand\nnewline";
            "caf\xc3\xa9";
            "\xff\x00\x7f";
            "@ $ <-{} signedBy";
          ];
        string_size ~gen:char (int_range 0 6);
      ])

let gen_int =
  QCheck.Gen.(
    oneof [ int_range (-1000) 1000; oneofl [ min_int; max_int; 0; -1 ] ])

let rec gen_print_term depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (2, map (fun i -> Term.var (Printf.sprintf "V%d" i)) (int_bound 3));
        (1, map (fun () -> Term.fresh ()) unit);
        (2, map Term.str gen_text);
        (2, map (fun i -> Term.Int i) gen_int);
        (1, map (fun i -> Term.atom (Printf.sprintf "a%d" i)) (int_bound 3));
      ]
  in
  if depth = 0 then leaf
  else
    let sub = gen_print_term (depth - 1) in
    frequency
      [
        (3, leaf);
        ( 1,
          map3
            (fun op a b -> Term.compound op [ a; b ])
            (oneofl [ "+"; "-"; "*"; "/" ])
            sub sub );
        ( 1,
          map2 Term.compound
            (oneofl [ "f"; "g"; "+" ])
            (list_size (int_range 1 3) sub) );
      ]

let gen_print_literal =
  let open QCheck.Gen in
  let plain =
    let* p = oneofl [ "p"; "q"; "not"; "=" ] in
    let* args = list_size (int_range 0 3) (gen_print_term 2) in
    let* auth = list_size (int_range 0 2) (gen_print_term 1) in
    return (Literal.make ~auth p args)
  in
  let infix =
    map3
      (fun op a b -> Literal.make op [ a; b ])
      (oneofl [ "="; "!="; "<"; "<="; ">"; ">=" ])
      (gen_print_term 2) (gen_print_term 2)
  in
  frequency
    [
      (3, plain);
      (2, infix);
      (1, map Literal.negate plain);
      (1, map Literal.negate infix);
      (1, map (fun l -> Literal.negate (Literal.negate l)) plain);
    ]

let gen_print_rule =
  let open QCheck.Gen in
  let ctx =
    frequency
      [
        (2, return None);
        (1, return (Some []));
        (2, map Option.some (list_size (int_range 1 2) gen_print_literal));
      ]
  in
  let* head = gen_print_literal in
  let* body = list_size (int_range 0 3) gen_print_literal in
  let* head_ctx = ctx in
  let* rule_ctx = ctx in
  let* signer =
    frequency [ (2, return []); (1, list_size (int_range 1 3) gen_text) ]
  in
  return (Rule.make ?head_ctx ?rule_ctx ~signer head body)

let prop_printer_reference =
  QCheck.Test.make ~name:"printer: equals the Format reference"
    ~count:(scale 500)
    (QCheck.make ~print:Kernel_ref.rule_to_string gen_print_rule)
    (fun r ->
      let lits =
        (r.Rule.head :: r.Rule.body)
        @ Option.value ~default:[] r.Rule.head_ctx
      in
      let terms =
        List.concat_map (fun (l : Literal.t) -> l.args @ l.auth) lits
      in
      let text = Kernel_ref.rule_to_string r in
      String.equal (Rule.to_string r) text
      && String.equal (Format.asprintf "%a" Rule.pp r) text
      && List.for_all
           (fun l ->
             String.equal (Literal.to_string l)
               (Kernel_ref.literal_to_string l))
           lits
      && List.for_all
           (fun t ->
             String.equal (Term.to_string t) (Kernel_ref.term_to_string t))
           terms)

(* Lexer input: fragments of every token, with the edge cases of the
   format (escapes, newlines inside strings, comments, an out-of-range
   integer, bad characters), or arbitrary bytes. *)
let gen_lexer_input =
  QCheck.Gen.(
    let fragment =
      oneofl
        [
          "p"; "X"; "_y"; "a'b"; "signedBy"; "signedByX"; "123"; "0";
          "99999999999999999999"; {|"str"|}; {|"a\nb\t\"\\"|}; {|"bad\q"|};
          {|"open|}; "\"multi\nline\""; "\"\\"; "%comment\n"; "#c"; " ";
          "\t"; "\r"; "\n"; "("; ")"; "{"; "}"; "["; "]"; ","; "."; "@";
          "$"; "<-"; "<="; "<"; ">="; ">"; "="; "!="; "!"; "+"; "-"; "*";
          "/"; "'"; "caf\xc3\xa9"; "&"; "\\"; "\012";
        ]
    in
    oneof
      [
        map (String.concat "") (list_size (int_range 0 20) fragment);
        string_size (int_range 0 20);
      ])

let prop_lexer_reference =
  let lex tokenize src =
    match tokenize src with
    | toks ->
        Ok
          (List.map
             (fun (t : Lexer.located) -> (t.token, t.line, t.col))
             toks)
    | exception Lexer.Error (m, l, c) -> Error (m, l, c)
    | exception Failure m -> Error (m, 0, 0)
  in
  QCheck.Test.make ~name:"lexer: equals the one-character-at-a-time reference"
    ~count:(scale 1000)
    (QCheck.make ~print:String.escaped gen_lexer_input)
    (fun src -> lex Lexer.tokenize src = lex Kernel_ref.tokenize src)

let prop_hex_reference =
  QCheck.Test.make ~name:"hex: equals the recursive reference, every slice"
    ~count:(scale 500)
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         oneof
           [
             string_size
               ~gen:(oneofl (List.of_seq (String.to_seq "09afAFg_ \n\xff")))
               (int_range 0 12);
             string_size (int_range 0 12);
             map Kernel_ref.hex_encode (string_size (int_range 0 6));
           ]))
    (fun h ->
      let n = String.length h in
      Crypto.Hex.encode h = Kernel_ref.hex_encode h
      && Crypto.Hex.decode h = Kernel_ref.hex_decode h
      && List.for_all
           (fun pos ->
             List.for_all
               (fun len ->
                 Crypto.Hex.decode_sub h ~pos ~len
                 = Kernel_ref.hex_decode (String.sub h pos len))
               (List.init (n - pos + 1) Fun.id))
           (List.init (n + 1) Fun.id))

(* Damage of the shapes a journal meets: a torn tail, blank and
   whitespace lines, CRLF line ends, doubled spaces and a changed byte
   anywhere. *)
type damage =
  | Cut of int
  | Blank of int * string
  | Crlf of int
  | Double_space of int
  | Byte of int * char

let print_damage = function
  | Cut n -> Printf.sprintf "cut %d" n
  | Blank (n, b) -> Printf.sprintf "blank %d %S" n b
  | Crlf n -> Printf.sprintf "crlf %d" n
  | Double_space n -> Printf.sprintf "double space %d" n
  | Byte (n, c) -> Printf.sprintf "byte %d %C" n c

let gen_damage =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun n -> Cut n) small_nat);
        ( 2,
          map2
            (fun n b -> Blank (n, b))
            small_nat
            (oneofl [ ""; "  "; "\t\r" ]) );
        (2, map (fun n -> Crlf n) small_nat);
        (2, map (fun n -> Double_space n) small_nat);
        ( 2,
          map2
            (fun n c -> Byte (n, c))
            small_nat
            (oneofl [ ' '; ','; '-'; 'x'; '\n'; '0' ]) );
      ])

(* The [k]-th occurrence (mod the count) of [c] in [s]. *)
let nth_index s c k =
  let at =
    List.filter (fun i -> s.[i] = c) (List.init (String.length s) Fun.id)
  in
  match at with [] -> None | _ -> Some (List.nth at (k mod List.length at))

let splice s i drop ins =
  String.sub s 0 i ^ ins ^ String.sub s (i + drop) (String.length s - i - drop)

let damage s = function
  | Cut n -> String.sub s 0 (n mod (String.length s + 1))
  | Blank (n, b) -> (
      match nth_index s '\n' n with
      | Some i -> splice s (i + 1) 0 (b ^ "\n")
      | None -> s)
  | Crlf n -> (
      match nth_index s '\n' n with
      | Some i -> splice s i 0 "\r"
      | None -> s)
  | Double_space n -> (
      match nth_index s ' ' n with Some i -> splice s i 0 " " | None -> s)
  | Byte (n, c) ->
      if s = "" then s else splice s (n mod String.length s) 1 (String.make 1 c)

let prop_journal_parse_reference =
  QCheck.Test.make
    ~name:"persist: journal parse equals the split-based reference"
    ~count:(scale 400)
    (QCheck.make
       ~print:(fun (entries, ds) ->
         Printf.sprintf "%s\n%s"
           (String.concat "; " (List.map print_damage ds))
           (String.escaped (render_journal entries)))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 8) gen_journal_entry)
           (list_size (int_range 0 4) gen_damage)))
    (fun (entries, ds) ->
      let text = List.fold_left damage (render_journal entries) ds in
      match (Persist.Journal.parse text, Kernel_ref.journal_parse text) with
      | Ok a, Ok b -> render_journal a = render_journal b
      | Error (Persist.Bad_world m), Error (Persist.Bad_world m') ->
          String.equal m m'
      | _, _ -> false)

(* The lines a read decodes when every certificate and fact line that
   decodes is already in the table: the complete non-blank lines up to
   the first one the reference refuses, less those. *)
let warm_decodes text =
  let complete =
    match List.rev (String.split_on_char '\n' text) with
    | _torn_tail :: rev -> List.rev rev
    | [] -> []
  in
  let rec go n = function
    | [] -> n
    | line :: rest when String.trim line = "" -> go n rest
    | line :: rest -> (
        match Kernel_ref.journal_line line with
        | Ok (Persist.Journal.Cert _ | Persist.Journal.Fact _) -> go n rest
        | Ok _ -> go (n + 1) rest
        | Error _ -> n + 1)
  in
  go 0 complete

(* The byte offsets inside the payloads of [text]'s certificate and fact
   lines. *)
let tabled_payload_bytes text =
  let lines = String.split_on_char '\n' text in
  let rec go acc start = function
    | [] -> List.rev acc
    | line :: rest ->
        let acc =
          if
            String.starts_with ~prefix:"cert " line
            || String.starts_with ~prefix:"fact " line
          then
            List.rev_append
              (List.init (String.length line - 5) (fun k -> start + 5 + k))
              acc
          else acc
        in
        go acc (start + String.length line + 1) rest
  in
  go [] 0 lines

let prop_journal_warm_read =
  let same text =
    match (Persist.Journal.parse text, Kernel_ref.journal_parse text) with
    | Ok a, Ok b -> render_journal a = render_journal b
    | Error (Persist.Bad_world m), Error (Persist.Bad_world m') ->
        String.equal m m'
    | _, _ -> false
  in
  let decoded = Peertrust_obs.Obs.counter "persist.lines_decoded" in
  let hex = "0123456789abcdef" in
  QCheck.Test.make
    ~name:"persist: a warm journal read equals a cold one"
    ~count:(scale 300)
    (QCheck.make
       ~print:(fun ((entries, ds), (at, step)) ->
         Printf.sprintf "%s\nbyte %d + %d\n%s"
           (String.concat "; " (List.map print_damage ds))
           at step
           (String.escaped (render_journal entries)))
       QCheck.Gen.(
         pair
           (pair
              (list_size (int_range 0 8) gen_journal_entry)
              (list_size (int_range 0 2) gen_damage))
           (pair nat (int_range 1 15))))
    (fun ((entries, ds), (at, step)) ->
      let text = List.fold_left damage (render_journal entries) ds in
      let cold = same text in
      let before = Peertrust_obs.Metric.value decoded in
      let warm = same text in
      let warm_cost = Peertrust_obs.Metric.value decoded - before in
      (* One byte changed inside a certificate or fact line, which the
         reads above decoded unless it follows a refused line: a hex
         digit to another one, anything else to a digit. *)
      let changed =
        match tabled_payload_bytes text with
        | [] -> text
        | spots ->
            let i = List.nth spots (at mod List.length spots) in
            let c =
              match String.index_opt hex text.[i] with
              | Some d -> hex.[(d + step) mod 16]
              | None -> '0'
            in
            splice text i 1 (String.make 1 c)
      in
      cold && warm && warm_cost = warm_decodes text && same changed)

let with_temp_dir f =
  let dir = Filename.temp_file "ptjournal" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let prop_journal_dir_reencodes =
  QCheck.Test.make
    ~name:
      "persist: a crash run's disk journals decode and re-encode to \
       themselves"
    ~count:(scale 12)
    (QCheck.make
       ~print:(fun (v, at, roots) ->
         Printf.sprintf "victim %d at %d, %d root(s)" v at roots)
       QCheck.Gen.(triple (int_bound 2) (int_range 2 12) (int_range 1 12)))
    (fun (v, at_tick, roots) ->
      with_temp_dir @@ fun dir ->
      let s = Scenario.scenario1 ~key_bits:288 () in
      let session = s.Scenario.s1_session in
      let faults = Peertrust_net.Faults.none () in
      Peertrust_net.Faults.add_crash faults
        ~peer:(List.nth [ "Alice"; "E-Learn"; "UIUC" ] v)
        ~at_tick ~restart_tick:(at_tick + 10);
      Peertrust_net.Network.set_faults session.Session.network faults;
      let reactor =
        Reactor.create
          ~config:
            { Reactor.default_config with journal = Reactor.Journal_dir dir }
          session
      in
      for _ = 1 to roots do
        ignore
          (Reactor.submit reactor ~requester:"Alice" ~target:"E-Learn"
             (Scenario.scenario1_goal ()))
      done;
      ignore (Reactor.run reactor : int);
      let journals =
        List.filter
          (fun f -> Filename.check_suffix f ".journal")
          (Array.to_list (Sys.readdir dir))
      in
      journals <> []
      && List.for_all
           (fun file ->
             let text =
               In_channel.with_open_bin
                 (Filename.concat dir file)
                 In_channel.input_all
             in
             match Persist.Journal.parse text with
             | Ok es -> render_journal es = text
             | Error _ -> false)
           journals)

let () =
  Alcotest.run "properties"
    [
      ( "engine",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_no_unsafe_disclosure;
            prop_strategies_agree;
            prop_multi_eager_matches_two_party;
            prop_analysis_agrees;
          ] );
      ( "paradigms",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_forward_backward_agree;
            prop_tabled_forward_agree;
            prop_three_paradigms_agree;
          ]
        @ [ Alcotest.test_case "NAF skip report" `Quick report_naf_skips ] );
      ( "kb",
        List.map QCheck_alcotest.to_alcotest [ prop_indexing_transparent ] );
      ( "unify",
        List.map QCheck_alcotest.to_alcotest
          [ prop_unify_differential; prop_flat_boxed_differential ] );
      ( "syntax",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rule_roundtrip;
            prop_printer_reference;
            prop_lexer_reference;
            prop_canonical_alpha_invariant;
            prop_subsumes_reflexive_on_instances;
          ] );
      ( "crypto",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cert_roundtrip;
            prop_wire_roundtrip;
            prop_modpow_reference;
            prop_crt_sign_reference;
            prop_bytes_codec;
            prop_hex_roundtrip;
            prop_hex_canonical;
            prop_hex_reference;
            prop_verified_set_no_verdict;
          ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parser_total;
            prop_query_parser_total;
            prop_turtle_total;
            prop_wire_total;
            prop_wire_mutated_total;
            prop_qel_total;
          ] );
      ( "obs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_percentile_monotone;
          ] );
      ( "persist",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_journal_truncation_prefix;
            prop_journal_mutated_total;
            prop_journal_replay_idempotent;
            prop_journal_any_constant;
            prop_journal_parse_reference;
            prop_journal_warm_read;
            prop_journal_dir_reencodes;
          ] );
      ( "tabling",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_distributed_tabling_agrees;
          ]
        @ [
            Alcotest.test_case "coverage report" `Quick
              report_tabling_coverage;
          ] );
    ]
