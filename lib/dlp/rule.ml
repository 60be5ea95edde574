type ctx = Literal.t list

type t = {
  head : Literal.t;
  head_ctx : ctx option;
  rule_ctx : ctx option;
  body : Literal.t list;
  signer : string list;
}

let make ?head_ctx ?rule_ctx ?(signer = []) head body =
  { head; head_ctx; rule_ctx; body; signer }

let fact ?signer head = make ?signer head []
let is_fact r = r.body = []
let is_signed r = r.signer <> []

let compare_ctx a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some xs, Some ys -> List.compare Literal.compare xs ys

let compare a b =
  let c = Literal.compare a.head b.head in
  if c <> 0 then c
  else
    let c = List.compare Literal.compare a.body b.body in
    if c <> 0 then c
    else
      let c = compare_ctx a.head_ctx b.head_ctx in
      if c <> 0 then c
      else
        let c = compare_ctx a.rule_ctx b.rule_ctx in
        if c <> 0 then c else List.compare String.compare a.signer b.signer

let equal a b = compare a b = 0

let map_literals f r =
  let ctx = Option.map (List.map f) in
  {
    r with
    head = f r.head;
    head_ctx = ctx r.head_ctx;
    rule_ctx = ctx r.rule_ctx;
    body = List.map f r.body;
  }

let apply s r = map_literals (Literal.apply s) r
let display st r = map_literals (Literal.display st) r
let rename_apart r = map_literals (Literal.rename_with (Hashtbl.create 8)) r

let vars r =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let of_lits = List.iter (Literal.add_vars seen acc) in
  of_lits [ r.head ];
  of_lits (Option.value ~default:[] r.head_ctx);
  of_lits (Option.value ~default:[] r.rule_ctx);
  of_lits r.body;
  List.rev !acc

let strip_contexts r = { r with head_ctx = None; rule_ctx = None }

let subsumes ~general ~specific =
  List.compare_lengths general.body specific.body = 0
  && List.equal String.equal general.signer specific.signer
  &&
  let g = rename_apart general in
  let terms r = Literal.to_term r.head :: List.map Literal.to_term r.body in
  let rec go pairs s =
    match pairs with
    | [] -> true
    | (p, t) :: rest -> (
        match Unify.one_way p t s with
        | Some s' -> go rest s'
        | None -> false)
  in
  go (List.combine (terms g) (terms specific)) Subst.empty

(* Canonical form: variables numbered by first occurrence, fixed printing.
   Contexts are excluded: signatures cover what is sent over the wire, and
   contexts are stripped before sending (paper, section 3.1). *)
let canonical r =
  let counter = ref 0 in
  let tbl = Hashtbl.create 8 in
  let var v =
    match Hashtbl.find_opt tbl v with
    | Some n -> n
    | None ->
        let n = "_V" ^ string_of_int !counter in
        incr counter;
        Hashtbl.add tbl v n;
        n
  in
  let buf = Buffer.create 128 in
  let rec term = function
    | Term.Var v -> Buffer.add_string buf (var v)
    | Term.Str s -> Term.add_quoted buf (Sym.name s)
    | Term.Int i -> Buffer.add_string buf (string_of_int i)
    | Term.Atom a -> Buffer.add_string buf (Sym.name a)
    | Term.Compound (f, args) ->
        Buffer.add_string buf (Sym.name f);
        Buffer.add_char buf '(';
        List.iteri
          (fun i t ->
            if i > 0 then Buffer.add_char buf ',';
            term t)
          args;
        Buffer.add_char buf ')'
  in
  let literal (l : Literal.t) =
    Buffer.add_string buf l.Literal.pred;
    Buffer.add_char buf '(';
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char buf ',';
        term t)
      l.Literal.args;
    Buffer.add_char buf ')';
    List.iter
      (fun a ->
        Buffer.add_char buf '@';
        term a)
      l.Literal.auth
  in
  literal r.head;
  Buffer.add_string buf ":-";
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char buf ',';
      literal l)
    r.body;
  Buffer.contents buf

(* Compiled form: the rule with its distinct non-pseudo variables renumbered
   into the compiled-local id space [Term.local_id 0 .. local_id (n-1)], the
   signed head variants precomputed, and the variable count recorded.
   Renaming apart at resolution time is then a single fresh-block bump plus
   one structure-sharing shift — no hash tables, no string building.  The
   source rule is kept alongside: traces, signatures and equality all refer
   to it. *)
type compiled = {
  c_source : t;
  c_rule : t;
  c_nvars : int;
  c_names : string array;
  c_heads : Literal.t list;
  c_flat_heads : Flat.head array;
  c_is_fact : bool;
}

let compile r =
  let mapping = Hashtbl.create 8 in
  let n = ref 0 in
  let names = ref [] in
  let f v =
    if Term.is_pseudo v then v
    else
      match Hashtbl.find_opt mapping v with
      | Some j -> j
      | None ->
          let j = Term.local_id !n in
          incr n;
          names := Term.var_name v :: !names;
          Hashtbl.add mapping v j;
          j
  in
  let c_rule = map_literals (Literal.map_vars f) r in
  (* A rule without compilable variables maps to itself; share the source
     record so million-fact KBs don't carry a second copy of every fact. *)
  let c_rule = if !n = 0 then r else c_rule in
  let c_heads =
    c_rule.head
    ::
    (if is_signed c_rule then
       List.map
         (fun a -> Literal.push_authority c_rule.head (Term.str a))
         c_rule.signer
     else [])
  in
  {
    c_source = r;
    c_rule;
    c_nvars = !n;
    c_names = Array.of_list (List.rev !names);
    c_heads;
    c_flat_heads = Array.of_list (List.map Flat.compile_head c_heads);
    c_is_fact = is_fact r;
  }

let source c = c.c_source
let compiled_is_fact c = c.c_is_fact
let nvars c = c.c_nvars
let slot_names c = c.c_names
let flat_heads c = c.c_flat_heads

let instantiate c =
  if c.c_nvars = 0 then (c.c_rule, c.c_heads, 0)
  else begin
    let k0 = Term.fresh_block c.c_nvars in
    ( map_literals (Literal.shift_fresh k0) c.c_rule,
      List.map (Literal.shift_fresh k0) c.c_heads,
      k0 )
  end

(* The boxed rule at an already reserved fresh-block offset; paired with
   {!flat_heads}, which lets the solver unify heads before paying for the
   boxed instantiation (only successful candidates need the boxed body and
   trace snapshot). *)
let instantiate_at c k0 =
  if c.c_nvars = 0 then c.c_rule
  else map_literals (Literal.shift_fresh k0) c.c_rule

let ctx_to_buffer buf = function
  | [] -> Buffer.add_string buf "true"
  | lits -> Term.add_list buf Literal.to_buffer lits

let to_buffer buf r =
  Literal.to_buffer buf r.head;
  Option.iter
    (fun c ->
      Buffer.add_string buf " $ ";
      ctx_to_buffer buf c)
    r.head_ctx;
  (match (r.rule_ctx, r.body) with
  | None, [] -> ()
  | rc, body ->
      Buffer.add_string buf " <-";
      Option.iter
        (fun c ->
          Buffer.add_char buf '{';
          ctx_to_buffer buf c;
          Buffer.add_char buf '}')
        rc;
      if body <> [] then begin
        Buffer.add_char buf ' ';
        Term.add_list buf Literal.to_buffer body
      end);
  if r.signer <> [] then begin
    Buffer.add_string buf " signedBy [";
    Term.add_list buf Term.add_quoted r.signer;
    Buffer.add_char buf ']'
  end;
  Buffer.add_char buf '.'

let to_string r =
  let buf = Buffer.create 128 in
  to_buffer buf r;
  Buffer.contents buf

let pp fmt r = Format.pp_print_string fmt (to_string r)
