type t = { pred : string; args : Term.t list; auth : Term.t list }

let make ?(auth = []) pred args = { pred; args; auth }
let arity l = List.length l.args
let key l = (l.pred, arity l)

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c
  else
    let c = Term.compare_lists a.args b.args in
    if c <> 0 then c else Term.compare_lists a.auth b.auth

let equal a b = compare a b = 0

let outer_authority l =
  match List.rev l.auth with [] -> None | a :: _ -> Some a

let pop_authority l =
  match List.rev l.auth with
  | [] -> None
  | a :: rest -> Some ({ l with auth = List.rev rest }, a)

let push_authority l a = { l with auth = l.auth @ [ a ] }

let apply s l =
  {
    l with
    args = List.map (Subst.apply s) l.args;
    auth = List.map (Subst.apply s) l.auth;
  }

let resolve st l =
  {
    l with
    args = List.map (Store.resolve st) l.args;
    auth = List.map (Store.resolve st) l.auth;
  }

let display st l =
  {
    l with
    args = List.map (Store.display st) l.args;
    auth = List.map (Store.display st) l.auth;
  }

let rename_with mapping l =
  {
    l with
    args = List.map (Term.rename_with mapping) l.args;
    auth = List.map (Term.rename_with mapping) l.auth;
  }

let rename_apart l = rename_with (Hashtbl.create 8) l

let shift_fresh k0 l =
  let args = Term.map_sharing (Term.shift_fresh k0) l.args in
  let auth = Term.map_sharing (Term.shift_fresh k0) l.auth in
  if args == l.args && auth == l.auth then l else { l with args; auth }

let map_vars f l =
  let args = Term.map_sharing (Term.map_vars f) l.args in
  let auth = Term.map_sharing (Term.map_vars f) l.auth in
  if args == l.args && auth == l.auth then l else { l with args; auth }

let add_vars seen acc l =
  List.iter (Term.add_vars seen acc) l.args;
  List.iter (Term.add_vars seen acc) l.auth

let vars l =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  add_vars seen acc l;
  List.rev !acc

let is_ground l =
  List.for_all Term.is_ground l.args && List.for_all Term.is_ground l.auth

let at_sym = Sym.intern "@"

let to_term l =
  let base =
    match l.args with
    | [] -> Term.atom l.pred
    | args -> Term.compound l.pred args
  in
  List.fold_left (fun t a -> Term.Compound (at_sym, [ t; a ])) base l.auth

let of_term t =
  let rec strip acc = function
    | Term.Compound (f, [ inner; a ]) when Sym.equal f at_sym ->
        strip (a :: acc) inner
    | base -> (base, acc)
  in
  match strip [] t with
  | Term.Atom p, auth -> Some { pred = Sym.name p; args = []; auth }
  | Term.Compound (p, args), auth when not (Sym.equal p at_sym) ->
      Some { pred = Sym.name p; args; auth }
  | (Term.Var _ | Term.Str _ | Term.Int _ | Term.Compound _), _ -> None

let unify a b s =
  if String.equal a.pred b.pred && arity a = arity b then
    match Unify.term_lists a.args b.args s with
    | Some s' -> Unify.term_lists a.auth b.auth s'
    | None -> None
  else None

(* Trailed variant: caller brackets with Store.mark/undo. *)
let unify_store st a b =
  String.equal a.pred b.pred
  && Unify.store_term_lists st a.args b.args
  && Unify.store_term_lists st a.auth b.auth

let negate l = { pred = "not"; args = [ to_term l ]; auth = [] }

let naf_inner l =
  match (l.pred, l.args, l.auth) with
  | "not", [ t ], [] -> of_term t
  | _, _, _ -> None

(* Built-in comparisons print infix so they re-parse. *)
let is_infix = function
  | "=" | "!=" | "<" | "<=" | ">" | ">=" -> true
  | _ -> false

let rec to_buffer buf l =
  match naf_inner l with
  | Some inner ->
      Buffer.add_string buf "not ";
      to_buffer buf inner
  | None -> (
      match (l.args, l.auth) with
      | [ a; b ], [] when is_infix l.pred ->
          Term.to_buffer buf a;
          Buffer.add_char buf ' ';
          Buffer.add_string buf l.pred;
          Buffer.add_char buf ' ';
          Term.to_buffer buf b
      | args, auth ->
          Buffer.add_string buf l.pred;
          if args <> [] then begin
            Buffer.add_char buf '(';
            Term.add_list buf Term.to_buffer args;
            Buffer.add_char buf ')'
          end;
          List.iter
            (fun a ->
              Buffer.add_string buf " @ ";
              Term.to_buffer buf a)
            auth)

let to_string l =
  let buf = Buffer.create 64 in
  to_buffer buf l;
  Buffer.contents buf

let pp fmt l = Format.pp_print_string fmt (to_string l)
