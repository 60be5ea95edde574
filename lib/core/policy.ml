open Peertrust_dlp

type decision = Granted | Denied of string

type prover = requester:string -> Literal.t list -> Sld.answer option

let releasable ~prover ~requester ~self ctx =
  match ctx with
  | None ->
      (* Default context: Requester = Self. *)
      if String.equal requester self then Granted
      else Denied "default context (Requester = Self)"
  | Some [] -> Granted
  | Some lits -> (
      match prover ~requester lits with
      | Some _ -> Granted
      | None -> Denied "release context not satisfied")

let rule_releasable ~prover ~requester ~self (r : Rule.t) =
  releasable ~prover ~requester ~self r.Rule.rule_ctx

let is_release_rule (r : Rule.t) = Option.is_some r.Rule.head_ctx

(* Heads a credential can stand for: itself, plus [h @ signer] through the
   signed-rule axiom. *)
let credential_heads (c : Rule.t) =
  c.Rule.head
  :: List.map
       (fun s -> Literal.push_authority c.Rule.head (Term.str s))
       c.Rule.signer

let credential_releasable ~prover ~kb ~requester ~self (c : Rule.t) =
  match rule_releasable ~prover ~requester ~self c with
  | Granted -> Granted
  | Denied _ -> (
      (* Look for a release rule whose head covers the credential. *)
      let covers rr =
        let rr = Rule.rename_apart rr in
        match rr.Rule.head_ctx with
        | None -> None
        | Some ctx ->
            let applies head =
              match Literal.unify head rr.Rule.head Subst.empty with
              | None -> None
              | Some s -> Some (List.map (Literal.apply s) ctx)
            in
            List.find_map applies (credential_heads c)
      in
      let candidates =
        List.concat_map
          (fun head -> Kb.matching head kb)
          (credential_heads c)
        |> List.filter_map covers
      in
      let granted =
        List.exists
          (fun ctx -> Option.is_some (prover ~requester ctx))
          candidates
      in
      if granted then Granted
      else if candidates = [] then Denied "no release rule covers credential"
      else Denied "release context not satisfied")

let pp_decision fmt = function
  | Granted -> Format.pp_print_string fmt "granted"
  | Denied reason -> Format.fprintf fmt "denied (%s)" reason
