open Peertrust_dlp
module Rdf = Peertrust_rdf

type t = { projection : string list; body : Literal.t list }
type row = Term.t list

let parse src =
  let arrow =
    let n = String.length src in
    let rec find i =
      if i + 1 >= n then None
      else if src.[i] = '<' && src.[i + 1] = '-' then Some i
      else find (i + 1)
    in
    find 0
  in
  match arrow with
  | None -> invalid_arg "Qel.parse: expected 'vars <- body'"
  | Some i ->
      let head = String.trim (String.sub src 0 i) in
      let body_src = String.sub src (i + 2) (String.length src - i - 2) in
      let projection =
        if head = "" then []
        else
          String.split_on_char ',' head
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
      in
      List.iter
        (fun v ->
          match Parser.parse_term v with
          | Term.Var _ -> ()
          | _ -> invalid_arg ("Qel.parse: projection is not a variable: " ^ v))
        projection;
      let body = Parser.parse_query body_src in
      let body_vars = List.concat_map Literal.vars body in
      List.iter
        (fun v ->
          if not (List.mem (Term.var_id v) body_vars) then
            invalid_arg ("Qel.parse: unbound projection variable " ^ v))
        projection;
      { projection; body }

let to_string q =
  Format.asprintf "%s <- %a"
    (String.concat ", " q.projection)
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Literal.pp)
    q.body

let dedup_rows rows =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun row ->
      let key = String.concat "|" (List.map Term.to_string row) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    rows

let project q substs =
  dedup_rows
    (List.map
       (fun s -> List.map (fun v -> Subst.apply s (Term.var v)) q.projection)
       substs)

let eval_kb ~self kb q = project q (Sld.answers ~self kb q.body)

let eval_store store q = eval_kb ~self:"local" (Rdf.Mapping.kb_of_store store) q

let searchable_program registry =
  let kb = Rdf.Registry.to_kb registry in
  let preds =
    Kb.rules kb
    |> List.map (fun (r : Rule.t) -> Literal.key r.Rule.head)
    |> List.sort_uniq compare
  in
  let buf = Buffer.create 512 in
  (* The metadata facts themselves... *)
  List.iter
    (fun r ->
      Buffer.add_string buf (Rule.to_string r);
      Buffer.add_char buf '\n')
    (Kb.rules kb);
  (* ...and a public release rule per metadata predicate. *)
  List.iter
    (fun (name, arity) ->
      let vars =
        String.concat ", " (List.init arity (fun i -> Printf.sprintf "X%d" i))
      in
      let head = if arity = 0 then name else Printf.sprintf "%s(%s)" name vars in
      Buffer.add_string buf
        (Printf.sprintf "%s $ true <-{true} %s.\n" head head))
    preds;
  Buffer.contents buf

(* Each round evaluates the query at the requester; the first remote
   literal, in evaluation order, that has no local answer and has not
   been asked yet is negotiated with its peer — whose answers land in
   the requester's KB as [lit @ peer] facts — until no such literal is
   left. *)
let search session ~requester ~provider q =
  let peer = Session.peer session requester in
  let decorated =
    List.map (fun l -> Literal.push_authority l (Term.str provider)) q.body
  in
  let asked = Hashtbl.create 8 in
  let rec loop () =
    let next = ref None in
    let remote ~target lit =
      let key = (target, Peer.goal_key lit) in
      if Option.is_none !next && not (Hashtbl.mem asked key) then
        next := Some (target, lit, key);
      []
    in
    let answers = Engine.evaluate ~remote peer decorated in
    match !next with
    | None -> project q (List.map (fun (a : Sld.answer) -> a.Sld.subst) answers)
    | Some (target, lit, key) ->
        Hashtbl.add asked key ();
        ignore
          (Reactor.negotiate session ~requester ~target lit
            : Negotiation.report);
        loop ()
  in
  loop ()

let search_all session ~requester ~providers q =
  List.map
    (fun provider -> (provider, search session ~requester ~provider q))
    providers
