open Peertrust_dlp

let answers ~max_depth ~self kb goals =
  let initial = Subst.bind "Self" (Term.str self) Subst.empty in
  let results = ref [] in
  let rec prove goal subst depth ancestors k =
    if depth <= 0 then ()
    else
      let goal = Literal.apply subst goal in
      match Builtin.eval goal subst with
      | Some substs -> List.iter k substs
      | None ->
          let gt = Literal.to_term goal in
          if
            not
              (List.exists
                 (fun anc ->
                   Unify.variant (Literal.to_term (Literal.apply subst anc)) gt)
                 ancestors)
          then begin
            let ancestors' = goal :: ancestors in
            let use rule =
              let r = Rule.rename_apart rule in
              match Literal.unify goal r.Rule.head subst with
              | None -> ()
              | Some s' -> prove_all r.Rule.body s' (depth - 1) ancestors' k
            in
            let facts, proper =
              List.partition Rule.is_fact (Kb.matching goal kb)
            in
            List.iter use facts;
            List.iter use proper
          end
  and prove_all goals subst depth ancestors k =
    match goals with
    | [] -> k subst
    | g :: rest ->
        prove g subst depth ancestors (fun s' ->
            prove_all rest s' depth ancestors k)
  in
  let qvars =
    List.concat_map Literal.vars goals
    |> List.filter (fun v -> not (Term.is_pseudo v))
  in
  prove_all goals initial max_depth [] (fun s ->
      results := Subst.restrict qvars s :: !results);
  let seen = Hashtbl.create 64 in
  List.rev !results
  |> List.filter (fun s ->
         let key = Subst.to_string s in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
