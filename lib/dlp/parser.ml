exception Error of string * int * int

type state = { mutable toks : Lexer.located list }

let peek st =
  match st.toks with [] -> assert false | t :: _ -> t

let next st =
  match st.toks with
  | [] -> assert false
  | t :: rest ->
      st.toks <- rest;
      t

let fail_at (t : Lexer.located) msg = raise (Error (msg, t.line, t.col))

let expect st token msg =
  let t = next st in
  if t.Lexer.token <> token then
    fail_at t
      (Format.asprintf "expected %s, found %a" msg Lexer.pp_token t.Lexer.token)

(* An integer literal's value, [text] being its digits with the sign of
   a negative literal; one out of int range is a syntax error. *)
let int_literal (t : Lexer.located) text =
  match int_of_string_opt text with
  | Some i -> Term.Int i
  | None -> fail_at t ("integer literal out of range: " ^ text)

let rec parse_term_st st =
  let t = next st in
  let not_a_term () =
    fail_at t
      (Format.asprintf "expected term, found %a" Lexer.pp_token t.Lexer.token)
  in
  match t.Lexer.token with
  | Lexer.VAR v -> Term.var v
  | Lexer.STRING s -> Term.str s
  | Lexer.INT digits -> int_literal t digits
  | Lexer.OP "-" -> (
      (* A negative literal, as the printer writes a negative [Int]: the
         sign is read with the digits, so [min_int] is in range. *)
      match (peek st).Lexer.token with
      | Lexer.INT digits ->
          ignore (next st);
          int_literal t ("-" ^ digits)
      | _ -> not_a_term ())
  | Lexer.IDENT name -> (
      match (peek st).Lexer.token with
      | Lexer.LPAREN ->
          ignore (next st);
          let args = parse_term_list st in
          expect st Lexer.RPAREN ")";
          Term.compound name args
      | _ -> Term.atom name)
  | _ -> not_a_term ()

and parse_term_list st =
  let first = parse_term_st st in
  match (peek st).Lexer.token with
  | Lexer.COMMA ->
      ignore (next st);
      first :: parse_term_list st
  | _ -> [ first ]

(* Authority chain: zero or more '@ term'. *)
let parse_auth_chain st =
  let rec go acc =
    match (peek st).Lexer.token with
    | Lexer.AT ->
        ignore (next st);
        go (parse_term_st st :: acc)
    | _ -> List.rev acc
  in
  go []

let literal_of_term t auth =
  match t with
  | Term.Atom p -> Literal.make ~auth (Sym.name p) []
  | Term.Compound (p, args) -> Literal.make ~auth (Sym.name p) args
  | Term.Var _ | Term.Str _ | Term.Int _ -> invalid_arg "literal_of_term"

let is_comparison op = List.mem op [ "="; "!="; "<"; "<="; ">"; ">=" ]
let is_arith op = List.mem op [ "+"; "-"; "*"; "/" ]

(* Arithmetic expressions are allowed as comparison operands:
   [Price < Limit * 2 + 100].  Standard precedence, left associative;
   parenthesised sub-expressions are accepted. *)
let rec parse_arith st =
  let lhs = parse_factor st in
  let rec go lhs =
    match (peek st).Lexer.token with
    | Lexer.OP (("+" | "-") as op) ->
        ignore (next st);
        go (Term.compound op [ lhs; parse_factor st ])
    | _ -> lhs
  in
  go lhs

and parse_factor st =
  let lhs = parse_operand st in
  let rec go lhs =
    match (peek st).Lexer.token with
    | Lexer.OP (("*" | "/") as op) ->
        ignore (next st);
        go (Term.compound op [ lhs; parse_operand st ])
    | _ -> lhs
  in
  go lhs

and parse_operand st =
  match (peek st).Lexer.token with
  | Lexer.LPAREN ->
      ignore (next st);
      let e = parse_arith st in
      expect st Lexer.RPAREN ")";
      e
  | _ -> parse_term_st st

(* A body/context element: a literal, a comparison
   [arith op arith], or a negation-as-failure literal [not lit] (the
   keyword [not] followed by a literal; [not(...)] with an immediate
   parenthesis is the ordinary predicate named "not"). *)
let rec parse_bodylit st =
  match st.toks with
  | { Lexer.token = Lexer.IDENT "not"; _ }
    :: { Lexer.token = Lexer.IDENT _ | Lexer.STRING _ | Lexer.VAR _ | Lexer.INT _; _ }
    :: _ ->
      ignore (next st);
      let inner = parse_bodylit st in
      Literal.make "not" [ Literal.to_term inner ]
  | _ -> (
      let t0 = peek st in
      let lhs = parse_arith st in
      match (peek st).Lexer.token with
      | Lexer.OP op when is_comparison op ->
          ignore (next st);
          let rhs = parse_arith st in
          Literal.make op [ lhs; rhs ]
      | _ -> (
          match lhs with
          | Term.Compound (op, [ _; _ ]) when is_arith (Sym.name op) ->
              fail_at t0 "an arithmetic expression is not a literal"
          | Term.Atom _ | Term.Compound _ ->
              let auth = parse_auth_chain st in
              literal_of_term lhs auth
          | Term.Var _ | Term.Str _ | Term.Int _ ->
              fail_at t0 "expected a literal or a comparison"))

let parse_conj st =
  let rec go acc =
    let l = parse_bodylit st in
    match (peek st).Lexer.token with
    | Lexer.COMMA ->
        ignore (next st);
        go (l :: acc)
    | _ -> List.rev (l :: acc)
  in
  go []

(* 'true' denotes the empty (public) context. *)
let parse_ctx st =
  match (peek st).Lexer.token with
  | Lexer.IDENT "true" -> (
      (* [true] alone, or the first of several context literals if followed
         by an argument list -- 'true' is not a legal predicate name here. *)
      ignore (next st);
      match (peek st).Lexer.token with
      | Lexer.LPAREN -> fail_at (peek st) "'true' cannot take arguments"
      | _ -> [])
  | _ -> parse_conj st

let parse_signers st =
  expect st Lexer.LBRACKET "[";
  let rec go acc =
    let t = next st in
    match t.Lexer.token with
    | Lexer.STRING s -> (
        match (peek st).Lexer.token with
        | Lexer.COMMA ->
            ignore (next st);
            go (s :: acc)
        | _ -> List.rev (s :: acc))
    | tok ->
        fail_at t
          (Format.asprintf "expected signer string, found %a" Lexer.pp_token tok)
  in
  let signers = go [] in
  expect st Lexer.RBRACKET "]";
  signers

let parse_clause_st st =
  let t0 = peek st in
  let head_term = parse_term_st st in
  let head =
    match head_term with
    | Term.Atom _ | Term.Compound _ ->
        literal_of_term head_term (parse_auth_chain st)
    | Term.Var _ | Term.Str _ | Term.Int _ ->
        fail_at t0 "rule head must be a literal"
  in
  let head_ctx =
    match (peek st).Lexer.token with
    | Lexer.DOLLAR ->
        ignore (next st);
        Some (parse_ctx st)
    | _ -> None
  in
  let rule_ctx = ref None and signer = ref [] and body = ref [] in
  (match (peek st).Lexer.token with
  | Lexer.ARROW ->
      ignore (next st);
      (match (peek st).Lexer.token with
      | Lexer.LBRACE ->
          ignore (next st);
          rule_ctx := Some (parse_ctx st);
          expect st Lexer.RBRACE "}"
      | _ -> ());
      (match (peek st).Lexer.token with
      | Lexer.SIGNEDBY ->
          ignore (next st);
          signer := parse_signers st
      | _ -> ());
      (match (peek st).Lexer.token with
      | Lexer.DOT -> ()
      | _ -> body := parse_conj st)
  | _ -> ());
  (match (peek st).Lexer.token with
  | Lexer.SIGNEDBY ->
      ignore (next st);
      if !signer <> [] then fail_at (peek st) "duplicate signedBy"
      else signer := parse_signers st
  | _ -> ());
  expect st Lexer.DOT ".";
  Rule.make ?head_ctx ?rule_ctx:!rule_ctx ~signer:!signer head !body

let with_state src f =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (msg, l, c) -> raise (Error (msg, l, c))
  in
  f { toks }

let parse_program src =
  with_state src (fun st ->
      let rec go acc =
        match (peek st).Lexer.token with
        | Lexer.EOF -> List.rev acc
        | _ -> go (parse_clause_st st :: acc)
      in
      go [])

let parse_rule src =
  with_state src (fun st ->
      let r = parse_clause_st st in
      expect st Lexer.EOF "end of input";
      r)

let parse_literal src =
  with_state src (fun st ->
      let l = parse_bodylit st in
      expect st Lexer.EOF "end of input";
      l)

let parse_query src =
  with_state src (fun st ->
      let ls = parse_conj st in
      expect st Lexer.EOF "end of input";
      ls)

let parse_term src =
  with_state src (fun st ->
      let t = parse_term_st st in
      expect st Lexer.EOF "end of input";
      t)
