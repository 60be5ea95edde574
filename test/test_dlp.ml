(* Tests for the DLP substrate: terms, substitutions, unification, lexer,
   parser, knowledge base, built-ins, SLD resolution, forward chaining. *)

open Peertrust_dlp

let term = Alcotest.testable Term.pp Term.equal
let literal = Alcotest.testable Literal.pp Literal.equal
let rule = Alcotest.testable Rule.pp Rule.equal

(* ------------------------------------------------------------------ *)
(* Terms *)

let test_term_ground () =
  Alcotest.(check bool) "string is ground" true (Term.is_ground (Term.str "a"));
  Alcotest.(check bool) "var not ground" false (Term.is_ground (Term.var "X"));
  Alcotest.(check bool)
    "compound with var not ground" false
    (Term.is_ground (Term.compound "f" ([ Term.var "X"; Term.Int 1 ])));
  Alcotest.(check bool)
    "compound ground" true
    (Term.is_ground (Term.compound "f" ([ Term.atom "a"; Term.Int 1 ])))

let test_term_vars () =
  let t = Term.compound "f" ([ Term.var "X"; Term.compound "g" ([ Term.var "Y"; Term.var "X" ]) ]) in
  Alcotest.(check (list string)) "vars in order" [ "X"; "Y" ]
    (List.map Term.var_name (Term.vars t))

let test_term_rename () =
  let t = Term.compound "f" [ Term.var "X"; Term.var "Requester" ] in
  match Term.rename_with (Hashtbl.create 4) t with
  | Term.Compound (_, [ Term.Var x'; req ]) ->
      Alcotest.(check bool) "X renamed to a fresh var" true (Term.is_fresh x');
      Alcotest.(check term) "pseudo-var kept" (Term.var "Requester") req
  | _ -> Alcotest.fail "unexpected shape after renaming"

let test_term_compare_total () =
  let ts =
    [ Term.var "A"; Term.str "a"; Term.Int 0; Term.atom "a";
      Term.compound "f" ([ Term.Int 1 ]) ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Term.compare a b and c2 = Term.compare b a in
          Alcotest.(check bool) "antisymmetric" true (compare c1 0 = compare 0 c2))
        ts)
    ts

(* ------------------------------------------------------------------ *)
(* Substitutions *)

let test_subst_walk_apply () =
  let s =
    Subst.empty
    |> Subst.bind "X" (Term.var "Y")
    |> Subst.bind "Y" (Term.compound "f" ([ Term.var "Z" ]))
    |> Subst.bind "Z" (Term.Int 3)
  in
  Alcotest.(check term) "walk stops at non-var"
    (Term.compound "f" ([ Term.var "Z" ]))
    (Subst.walk s (Term.var "X"));
  Alcotest.(check term) "apply resolves deeply"
    (Term.compound "f" ([ Term.Int 3 ]))
    (Subst.apply s (Term.var "X"))

let test_subst_rebind_rejected () =
  let s = Subst.bind "X" (Term.Int 1) Subst.empty in
  Alcotest.check_raises "double bind rejected"
    (Invalid_argument "Subst.bind: already bound: X") (fun () ->
      ignore (Subst.bind "X" (Term.Int 2) s))

let test_subst_restrict () =
  let s =
    Subst.empty
    |> Subst.bind "X" (Term.var "Y")
    |> Subst.bind "Y" (Term.Int 7)
  in
  let r = Subst.restrict [ Term.var_id "X" ] s in
  Alcotest.(check (list string)) "domain" [ "X" ] (Subst.domain r);
  Alcotest.(check term) "restricted binding is applied" (Term.Int 7)
    (Subst.apply r (Term.var "X"))

(* ------------------------------------------------------------------ *)
(* Unification *)

let unify_ok a b =
  match Unify.terms a b Subst.empty with
  | Some s -> s
  | None -> Alcotest.fail "expected unification to succeed"

let test_unify_basic () =
  let s = unify_ok (Term.var "X") (Term.str "alice") in
  Alcotest.(check term) "X bound" (Term.str "alice") (Subst.apply s (Term.var "X"))

let test_unify_compound () =
  let a = Term.compound "f" ([ Term.var "X"; Term.Int 2 ]) in
  let b = Term.compound "f" ([ Term.Int 1; Term.var "Y" ]) in
  let s = unify_ok a b in
  Alcotest.(check term) "X=1" (Term.Int 1) (Subst.apply s (Term.var "X"));
  Alcotest.(check term) "Y=2" (Term.Int 2) (Subst.apply s (Term.var "Y"))

let test_unify_occurs_check () =
  let a = Term.var "X" in
  let b = Term.compound "f" ([ Term.var "X" ]) in
  Alcotest.(check bool) "occurs check fails" true
    (Unify.terms a b Subst.empty = None)

let test_unify_clash () =
  Alcotest.(check bool) "functor clash" true
    (Unify.terms
       (Term.compound "f" ([ Term.Int 1 ]))
       (Term.compound "g" ([ Term.Int 1 ]))
       Subst.empty
    = None);
  Alcotest.(check bool) "arity clash" true
    (Unify.terms
       (Term.compound "f" ([ Term.Int 1 ]))
       (Term.compound "f" ([ Term.Int 1; Term.Int 2 ]))
       Subst.empty
    = None);
  Alcotest.(check bool) "string/atom distinct" true
    (Unify.terms (Term.str "a") (Term.atom "a") Subst.empty = None)

let test_unify_through_subst () =
  let s = Subst.bind "X" (Term.var "Y") Subst.empty in
  match Unify.terms (Term.var "X") (Term.Int 5) s with
  | None -> Alcotest.fail "should unify"
  | Some s' ->
      Alcotest.(check term) "Y gets the binding" (Term.Int 5)
        (Subst.apply s' (Term.var "Y"))

let test_variant () =
  let p x y = Term.compound "p" ([ x; y ]) in
  Alcotest.(check bool) "renamed is variant" true
    (Unify.variant (p (Term.var "X") (Term.var "Y")) (p (Term.var "A") (Term.var "B")));
  Alcotest.(check bool) "non-linear not variant of linear" false
    (Unify.variant (p (Term.var "X") (Term.var "X")) (p (Term.var "A") (Term.var "B")));
  Alcotest.(check bool) "linear not variant of non-linear" false
    (Unify.variant (p (Term.var "A") (Term.var "B")) (p (Term.var "X") (Term.var "X")));
  Alcotest.(check bool) "instance not variant" false
    (Unify.variant (p (Term.var "X") (Term.Int 1)) (p (Term.var "A") (Term.var "B")))

(* ------------------------------------------------------------------ *)
(* Lexer *)

let tokens src = List.map (fun t -> t.Lexer.token) (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check int) "token count"
    11
    (List.length (tokens "p(X) <- q(X)."));
  match tokens "p(\"a b\") @ X $ {} [] , . <- <= < > >= = !=" with
  | Lexer.[
      IDENT "p"; LPAREN; STRING "a b"; RPAREN; AT; VAR "X"; DOLLAR; LBRACE;
      RBRACE; LBRACKET; RBRACKET; COMMA; DOT; ARROW; OP "<="; OP "<";
      OP ">"; OP ">="; OP "="; OP "!="; EOF;
    ] ->
      ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_comments () =
  Alcotest.(check int) "comments skipped"
    2
    (List.length (tokens "% a comment\nfoo # another\n"))

let test_lexer_escapes () =
  (match tokens {|"a\nb\t\"\\"|} with
  | [ Lexer.STRING s; Lexer.EOF ] ->
      Alcotest.(check string) "escapes" "a\nb\t\"\\" s
  | _ -> Alcotest.fail "bad string token");
  (* Every escape [String.escaped] writes: [\r], [\b] and [\ddd]. *)
  let every_byte = String.init 256 Char.chr in
  (match tokens ("\"" ^ String.escaped every_byte ^ "\"") with
  | [ Lexer.STRING s; Lexer.EOF ] ->
      Alcotest.(check string) "every byte" every_byte s
  | _ -> Alcotest.fail "bad string token");
  List.iter
    (fun (src, col) ->
      match Lexer.tokenize src with
      | _ -> Alcotest.failf "%s lexed" src
      | exception Lexer.Error (_, line, c) ->
          Alcotest.(check (pair int int)) src (1, col) (line, c))
    [ ({|"\256"|}, 3); ({|"\12"|}, 3); ({|"\1x9"|}, 3); ({|"\q"|}, 3) ]

let test_lexer_error_position () =
  try
    ignore (Lexer.tokenize "p(X) &");
    Alcotest.fail "expected lexer error"
  with Lexer.Error (_, line, col) ->
    Alcotest.(check (pair int int)) "position" (1, 6) (line, col)

let test_lexer_signedby_keyword () =
  match tokens "signedBy signedByX" with
  | [ Lexer.SIGNEDBY; Lexer.IDENT "signedByX"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "signedBy keyword lexing"

(* ------------------------------------------------------------------ *)
(* Parser *)

(* Whatever constant the printer writes parses back to itself:
   non-ASCII and control bytes in strings, and ints over the whole
   range, negatives included.  A literal out of range is a syntax
   error, not an exception from [int_of_string]. *)
let test_parse_printed_constants () =
  let ints = List.map (fun i -> Term.Int i) [ -5; min_int; max_int ] in
  let minus a b = Term.compound "-" [ Term.Int a; Term.Int b ] in
  List.iter
    (fun r ->
      Alcotest.(check rule) (Rule.to_string r) r
        (Parser.parse_rule (Rule.to_string r)))
    [
      Rule.fact ~signer:[ "CA" ] (Literal.make "member" [ Term.str "Zürich" ]);
      Rule.fact (Literal.make "p" [ Term.str "a\rb" ]);
      Rule.fact (Literal.make "p" ints);
      Rule.make
        (Literal.make "b" [ Term.var "X" ])
        [ Literal.make "=" [ Term.var "X"; minus 2 (-5) ] ];
    ];
  Alcotest.(check string) "arithmetic stays infix" "b(X) <- X = (2 - 5)."
    (Rule.to_string (Parser.parse_rule "b(X) <- X = 2 - 5."));
  Alcotest.(check string) "binary minus before a literal"
    "b(X) <- X = (2 - -5)."
    (Rule.to_string (Parser.parse_rule "b(X) <- X = 2 - -5."));
  List.iter
    (fun (src, col) ->
      match Parser.parse_rule src with
      | _ -> Alcotest.failf "%s parsed" src
      | exception Parser.Error (_, line, c) ->
          Alcotest.(check (pair int int)) src (1, col) (line, c))
    [
      ("p(99999999999999999999).", 3);
      ("p(4611686018427387904).", 3);
      ("p(-4611686018427387905).", 3);
      ("p(-X).", 3);
      ("p(- ).", 3);
    ]

let test_parse_fact () =
  let r = Parser.parse_rule {|freeCourse(cs101).|} in
  Alcotest.(check rule) "plain fact"
    (Rule.fact (Literal.make "freeCourse" [ Term.atom "cs101" ]))
    r

let test_parse_signed_fact () =
  let r = Parser.parse_rule {|member("E-Learn") @ "BBB" signedBy ["BBB"].|} in
  Alcotest.(check rule) "signed fact"
    (Rule.fact ~signer:[ "BBB" ]
       (Literal.make ~auth:[ Term.str "BBB" ] "member" [ Term.str "E-Learn" ]))
    r

let test_parse_rule_with_body () =
  let r = Parser.parse_rule {|preferred(X) <- student(X) @ "UIUC".|} in
  Alcotest.(check literal) "head" (Literal.make "preferred" [ Term.var "X" ]) r.Rule.head;
  Alcotest.(check (list literal)) "body"
    [ Literal.make ~auth:[ Term.str "UIUC" ] "student" [ Term.var "X" ] ]
    r.Rule.body

let test_parse_nested_authorities () =
  let r =
    Parser.parse_rule {|student(X) @ "UIUC" <- student(X) @ "UIUC" @ X.|}
  in
  (match r.Rule.body with
  | [ l ] ->
      Alcotest.(check int) "two authorities" 2 (List.length l.Literal.auth);
      Alcotest.(check bool) "outermost is X" true
        (Literal.outer_authority l = Some (Term.var "X"))
  | _ -> Alcotest.fail "one body literal expected");
  Alcotest.(check bool) "head has one authority" true
    (Literal.outer_authority r.Rule.head = Some (Term.str "UIUC"))

let test_parse_head_context () =
  let r =
    Parser.parse_rule
      {|student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-{true} student(X) @ Y.|}
  in
  (match r.Rule.head_ctx with
  | Some [ l ] ->
      Alcotest.(check string) "ctx pred" "member" l.Literal.pred;
      Alcotest.(check int) "ctx auth chain" 2 (List.length l.Literal.auth)
  | _ -> Alcotest.fail "expected one-literal head context");
  Alcotest.(check bool) "rule context is public (true)" true
    (r.Rule.rule_ctx = Some [])

let test_parse_requester_equals () =
  let r =
    Parser.parse_rule
      {|discountEnroll(Course, Party) $ Requester = Party <- discountEnroll(Course, Party).|}
  in
  match r.Rule.head_ctx with
  | Some [ l ] ->
      Alcotest.(check string) "equality context" "=" l.Literal.pred;
      Alcotest.(check (list term)) "args"
        [ Term.var "Requester"; Term.var "Party" ]
        l.Literal.args
  | _ -> Alcotest.fail "expected equality context"

let test_parse_signed_rule_after_arrow () =
  let r =
    Parser.parse_rule
      {|student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar".|}
  in
  Alcotest.(check (list string)) "signer" [ "UIUC" ] r.Rule.signer;
  Alcotest.(check int) "body size" 1 (List.length r.Rule.body)

let test_parse_comparison_in_body () =
  let r =
    Parser.parse_rule
      {|authorized("Bob", Price) @ "IBM" <- signedBy ["IBM"] Price < 2000.|}
  in
  match r.Rule.body with
  | [ l ] ->
      Alcotest.(check string) "comparison pred" "<" l.Literal.pred;
      Alcotest.(check (list term)) "args" [ Term.var "Price"; Term.Int 2000 ] l.Literal.args
  | _ -> Alcotest.fail "expected comparison body"

let test_parse_program_scenario () =
  let rules =
    Program.parse
      {|
        % E-Learn's discount policy
        discountEnroll(Course, Party) $ Requester = Party <-
          discountEnroll(Course, Party).
        discountEnroll(Course, Party) <- eligibleForDiscount(Party, Course).
        eligibleForDiscount(X, Course) <- preferred(X) @ "ELENA".
        preferred(X) @ "ELENA" <- signedBy ["ELENA"] student(X) @ "UIUC".
        student(X) @ University <- student(X) @ University @ X.
        member("E-Learn") @ "BBB" signedBy ["BBB"].
      |}
  in
  Alcotest.(check int) "six rules" 6 (List.length rules)

let test_parse_roundtrip () =
  let src =
    {|enroll(Course, Requester, Company, Email, Price) <-{true} policy49(Course, Requester, Company, Price).
policy49(Course, Requester, Company, Price) <-{true} price(Course, Price), authorized(Requester, Price) @ Company @ Requester, visaCard(Company) @ "VISA" @ Requester.
visaCard("IBM") signedBy ["VISA"].|}
  in
  let rules = Program.parse src in
  let printed = Program.to_string rules in
  let reparsed = Program.parse printed in
  Alcotest.(check (list rule)) "print/parse roundtrip" rules reparsed

let test_parse_errors () =
  let expect_error src =
    try
      ignore (Parser.parse_rule src);
      Alcotest.failf "expected syntax error for %s" src
    with Parser.Error _ -> ()
  in
  expect_error "p(X";
  expect_error "p(X) <- ";
  expect_error {|p(X) signedBy ["A"] signedBy ["B"].|};
  expect_error "p(X) <- 3.";
  expect_error "<- p(X).";
  expect_error "p(X) $ true(1) <- q(X)."

(* ------------------------------------------------------------------ *)
(* Knowledge base *)

let test_kb_dedup_and_order () =
  let r1 = Parser.parse_rule "a(1)." in
  let r2 = Parser.parse_rule "b(2)." in
  let kb = Kb.empty |> Kb.add r1 |> Kb.add r2 |> Kb.add r1 in
  Alcotest.(check int) "no duplicates" 2 (Kb.size kb);
  Alcotest.(check (list rule)) "insertion order" [ r1; r2 ] (Kb.rules kb)

let test_kb_find () =
  let kb = Kb.of_string "p(1). p(2). p(1, 2). q(3)." in
  Alcotest.(check int) "p/1 bucket" 2 (List.length (Kb.find ("p", 1) kb));
  Alcotest.(check int) "p/2 bucket" 1 (List.length (Kb.find ("p", 2) kb));
  Alcotest.(check int) "missing bucket" 0 (List.length (Kb.find ("r", 1) kb))

let test_kb_remove () =
  let r = Parser.parse_rule "p(1)." in
  let kb = Kb.of_string "p(1). p(2)." in
  let kb' = Kb.remove r kb in
  Alcotest.(check int) "one left" 1 (Kb.size kb');
  Alcotest.(check bool) "removed gone" false (Kb.mem r kb')

let test_kb_signed_rules () =
  let kb = Kb.of_string {|p(1). c("x") signedBy ["CA"]. q(2).|} in
  Alcotest.(check int) "one credential" 1 (List.length (Kb.signed_rules kb))

let test_kb_union () =
  let a = Kb.of_string "p(1). q(2)." in
  let b = Kb.of_string "p(1). r(3)." in
  Alcotest.(check int) "union dedups" 3 (Kb.size (Kb.union a b))

let test_kb_first_arg_indexing () =
  let src = "p(a, 1). p(b, 2). p(X, 0). p(a, 3). p(f(1), 4). p(f(1, 2), 5)." in
  let kb = Kb.of_string src in
  (* Ground first argument: only same-constant heads plus var heads. *)
  Alcotest.(check int) "p(a, V) narrowed" 3
    (List.length (Kb.matching (Parser.parse_literal "p(a, V)") kb));
  Alcotest.(check int) "p(b, V) narrowed" 2
    (List.length (Kb.matching (Parser.parse_literal "p(b, V)") kb));
  (* Functor keys include the arity. *)
  Alcotest.(check int) "p(f(9), V)" 2
    (List.length (Kb.matching (Parser.parse_literal "p(f(9), V)") kb));
  (* Variable first argument: the full bucket. *)
  Alcotest.(check int) "p(X, V) full" 6
    (List.length (Kb.matching (Parser.parse_literal "p(Y, V)") kb));
  (* Unknown constant: only var heads. *)
  Alcotest.(check int) "p(zz, V)" 1
    (List.length (Kb.matching (Parser.parse_literal "p(zz, V)") kb))

let test_kb_indexing_preserves_semantics () =
  let src = "q(X) <- p(a, X). p(a, 1). p(b, 2). p(a, 3)." in
  let indexed = Kb.of_string src in
  let linear = Kb.of_string ~indexing:false src in
  let answers kb = Sld.answers ~self:"p" kb (Parser.parse_query "q(X)") in
  Alcotest.(check int) "same answer count" (List.length (answers linear))
    (List.length (answers indexed));
  Alcotest.(check int) "two answers" 2 (List.length (answers indexed))

let test_kb_indexing_order_stable () =
  (* Matching preserves global insertion order within the narrowed set. *)
  let kb = Kb.of_string "p(a, 1). p(X, 0). p(a, 2)." in
  let heads =
    Kb.matching (Parser.parse_literal "p(a, V)") kb
    |> List.map (fun (r : Rule.t) -> Literal.to_string r.Rule.head)
  in
  Alcotest.(check (list string)) "insertion order"
    [ "p(a, 1)"; "p(X, 0)"; "p(a, 2)" ]
    heads

let test_kb_remove_indexed () =
  let r = Parser.parse_rule "p(a, 1)." in
  let kb = Kb.of_string "p(a, 1). p(a, 2)." in
  let kb' = Kb.remove r kb in
  Alcotest.(check int) "narrowed after removal" 1
    (List.length (Kb.matching (Parser.parse_literal "p(a, V)") kb'))

(* The hash-consed ground-term table assigns one id per distinct ground
   term for the process lifetime: re-interning a structurally equal term —
   directly, or indirectly through [Kb.add]/[Kb.of_string] compiling rules
   that mention it — must return the same id (the first-argument index and
   flat unification both key on it). *)
let test_gterm_id_stability () =
  let mk () =
    Term.compound "f"
      [ Term.atom "a"; Term.compound "g" [ Term.Int 7; Term.str "s" ] ]
  in
  let id t =
    match Gterm.of_term t with
    | Some g -> g
    | None -> Alcotest.fail "expected a ground term"
  in
  let g0 = id (mk ()) in
  let kb =
    Kb.of_string
      {|p(f(a, g(7, "s"))). r(f(a, g(7, "s"))) <- p(f(a, g(7, "s"))).|}
  in
  Alcotest.(check int) "id stable across of_string" g0 (id (mk ()));
  let kb = Kb.add (Parser.parse_rule {|z(f(a, g(7, "s"))).|}) kb in
  Alcotest.(check int) "id stable across add" g0 (id (mk ()));
  Alcotest.(check int) "kb holds the three rules" 3 (Kb.size kb);
  Alcotest.(check bool) "canonical boxed term is shared" true
    (Gterm.term g0 == Gterm.term g0);
  Alcotest.(check bool) "canonical term is the interned one" true
    (Term.equal (Gterm.term g0) (mk ()));
  Alcotest.(check bool) "distinct term, distinct id" true
    (id (Term.compound "f" [ Term.atom "a"; Term.atom "b" ]) <> g0);
  (* Non-ground terms do not intern. *)
  Alcotest.(check bool) "non-ground is rejected" true
    (Gterm.of_term (Term.compound "f" [ Term.var "X" ]) = None)

(* ------------------------------------------------------------------ *)
(* Builtins *)

let eval_builtin src s =
  match Builtin.eval (Parser.parse_literal src) s with
  | Some answers -> answers
  | None -> Alcotest.fail "expected a builtin"

let test_builtin_comparisons () =
  Alcotest.(check int) "1 < 2 holds" 1 (List.length (eval_builtin "1 < 2" Subst.empty));
  Alcotest.(check int) "2 < 1 fails" 0 (List.length (eval_builtin "2 < 1" Subst.empty));
  Alcotest.(check int) "strings compare" 1
    (List.length (eval_builtin {|"abc" < "abd"|} Subst.empty));
  Alcotest.(check int) "le reflexive" 1 (List.length (eval_builtin "3 <= 3" Subst.empty));
  Alcotest.(check int) "ge" 1 (List.length (eval_builtin "4 >= 3" Subst.empty));
  Alcotest.(check int) "gt fails on equal" 0 (List.length (eval_builtin "3 > 3" Subst.empty))

let test_builtin_equality_unifies () =
  match eval_builtin "X = 5" Subst.empty with
  | [ s ] -> Alcotest.(check term) "X bound" (Term.Int 5) (Subst.apply s (Term.var "X"))
  | _ -> Alcotest.fail "expected one answer"

let test_builtin_disequality () =
  Alcotest.(check int) "1 != 2" 1 (List.length (eval_builtin "1 != 2" Subst.empty));
  Alcotest.(check int) "1 != 1 fails" 0 (List.length (eval_builtin "1 != 1" Subst.empty));
  Alcotest.(check int) "nonground != fails (no answer)" 0
    (List.length (eval_builtin "X != 1" Subst.empty))

let test_builtin_nonground_comparison () =
  Alcotest.(check int) "unbound comparison has no answers" 0
    (List.length (eval_builtin "X < 2" Subst.empty))

let test_builtin_detection () =
  Alcotest.(check bool) "not a builtin" true
    (Builtin.eval (Parser.parse_literal "p(1, 2)") Subst.empty = None);
  Alcotest.(check bool) "arity matters" true
    (Builtin.eval (Literal.make "<" [ Term.Int 1 ]) Subst.empty = None)

(* ------------------------------------------------------------------ *)
(* SLD resolution *)

let solve ?options ?externals ?remote ?bindings ~self kb_src query =
  let kb = Kb.of_string kb_src in
  Sld.answers ?options ?externals ?remote ?bindings ~self kb
    (Parser.parse_query query)

let test_sld_fact () =
  let answers = solve ~self:"peer" "p(1). p(2)." "p(X)" in
  Alcotest.(check int) "two answers" 2 (List.length answers)

let test_sld_conjunction () =
  let answers = solve ~self:"peer" "p(1). p(2). q(2). q(3)." "p(X), q(X)" in
  (match answers with
  | [ s ] -> Alcotest.(check term) "X=2" (Term.Int 2) (Subst.apply s (Term.var "X"))
  | _ -> Alcotest.fail "expected exactly one answer")

let test_sld_chain () =
  let answers =
    solve ~self:"peer"
      "grandparent(X, Z) <- parent(X, Y), parent(Y, Z).\n\
       parent(\"a\", \"b\"). parent(\"b\", \"c\"). parent(\"b\", \"d\")."
      "grandparent(\"a\", W)"
  in
  Alcotest.(check int) "two grandchildren" 2 (List.length answers)

let test_sld_recursion_transitive_closure () =
  let answers =
    solve ~self:"peer"
      "path(X, Y) <- edge(X, Y).\n\
       path(X, Z) <- edge(X, Y), path(Y, Z).\n\
       edge(1, 2). edge(2, 3). edge(3, 4)."
      "path(1, X)"
  in
  Alcotest.(check int) "reaches 2,3,4" 3 (List.length answers)

let test_sld_cycle_terminates () =
  let answers =
    solve ~self:"peer"
      "path(X, Z) <- edge(X, Y), path(Y, Z).\n\
       path(X, Y) <- edge(X, Y).\n\
       edge(1, 2). edge(2, 1)."
      "path(1, X)"
  in
  (* Must terminate despite the cyclic edge relation. *)
  Alcotest.(check bool) "some answers" true (List.length answers >= 2)

let test_sld_self_loop_fails_finitely () =
  let answers = solve ~self:"peer" "p(X) <- p(X)." "p(1)" in
  Alcotest.(check int) "no answers" 0 (List.length answers)

let test_sld_builtin_in_body () =
  let answers =
    solve ~self:"peer" "cheap(C) <- price(C, P), P < 100.\nprice(a, 50). price(b, 150)."
      "cheap(X)"
  in
  match answers with
  | [ s ] -> Alcotest.(check term) "only a" (Term.atom "a") (Subst.apply s (Term.var "X"))
  | _ -> Alcotest.fail "expected one answer"

let test_sld_authority_matching () =
  (* A cached statement about another authority is locally provable. *)
  let answers =
    solve ~self:"alice" {|student("Alice") @ "UIUC".|} {|student(X) @ "UIUC"|}
  in
  Alcotest.(check int) "provable from cached literal" 1 (List.length answers)

let test_sld_signed_rule_axiom () =
  (* visaCard("IBM") signedBy ["VISA"] proves visaCard(C) @ "VISA". *)
  let answers =
    solve ~self:"bob" {|visaCard("IBM") signedBy ["VISA"].|}
      {|visaCard(Company) @ "VISA"|}
  in
  match answers with
  | [ s ] ->
      Alcotest.(check term) "company bound" (Term.str "IBM")
        (Subst.apply s (Term.var "Company"))
  | _ -> Alcotest.fail "expected one answer"

let test_sld_self_authority_stripped () =
  let answers = solve ~self:"elearn" {|price(cs411, 1000).|} {|price(cs411, P) @ "elearn"|} in
  Alcotest.(check int) "self authority is local" 1 (List.length answers)

let test_sld_self_pseudovar () =
  let answers = solve ~self:"elearn" {|price(cs411, 1000).|} "price(cs411, P) @ Self" in
  Alcotest.(check int) "@ Self is local" 1 (List.length answers)

let test_sld_requester_binding () =
  let answers =
    solve ~self:"elearn" ~bindings:[ ("Requester", Term.str "alice") ]
      {|greet(R) <- R = Requester.|} "greet(X)"
  in
  match answers with
  | [ s ] ->
      Alcotest.(check term) "requester flows" (Term.str "alice")
        (Subst.apply s (Term.var "X"))
  | _ -> Alcotest.fail "expected one answer"

let test_sld_remote_dispatch () =
  (* Goal student(X) @ "uiuc": local KB empty, remote supplies instances. *)
  let remote ~target lit =
    Alcotest.(check string) "dispatched to uiuc" "uiuc" target;
    Alcotest.(check string) "shipped literal" "student" lit.Literal.pred;
    [ (Literal.make "student" [ Term.str "Alice" ], None) ]
  in
  let answers = solve ~self:"elearn" ~remote "" {|student(X) @ "uiuc"|} in
  match answers with
  | [ s ] ->
      Alcotest.(check term) "instance unified" (Term.str "Alice")
        (Subst.apply s (Term.var "X"))
  | _ -> Alcotest.fail "expected one remote answer"

let test_sld_remote_not_called_for_unbound_authority () =
  let called = ref false in
  let remote ~target:_ _ =
    called := true;
    []
  in
  let answers = solve ~self:"elearn" ~remote "" "student(X) @ Y" in
  Alcotest.(check int) "flounders quietly" 0 (List.length answers);
  Alcotest.(check bool) "remote never called" false !called

let test_sld_nested_authority_dispatch () =
  (* student(X) @ "UIUC" @ "alice": outermost (alice) is asked for
     student(X) @ "UIUC". *)
  let remote ~target lit =
    Alcotest.(check string) "asks alice" "alice" target;
    Alcotest.(check int) "inner chain kept" 1 (List.length lit.Literal.auth);
    [ (Literal.make ~auth:[ Term.str "UIUC" ] "student" [ Term.str "Alice" ], None) ]
  in
  let answers = solve ~self:"elearn" ~remote "" {|student(X) @ "UIUC" @ "alice"|} in
  Alcotest.(check int) "answered" 1 (List.length answers)

let test_sld_externals () =
  let externals = function
    | ("purchaseApproved", 2) ->
        Some
          (fun (lit : Literal.t) s ->
            match List.map (Subst.apply s) lit.Literal.args with
            | [ Term.Str _; Term.Int p ] when p <= 5000 -> [ s ]
            | _ -> [])
    | _ -> None
  in
  let ok = solve ~self:"visa" ~externals "" {|purchaseApproved("IBM", 1000)|} in
  let no = solve ~self:"visa" ~externals "" {|purchaseApproved("IBM", 9000)|} in
  Alcotest.(check int) "approved" 1 (List.length ok);
  Alcotest.(check int) "denied" 0 (List.length no)

let test_sld_max_solutions () =
  let kb = Kb.of_string "p(1). p(2). p(3). p(4)." in
  let answers =
    Sld.solve
      ~options:{ Sld.default_options with max_depth = 10; max_solutions = 2 }
      ~self:"peer" kb
      (Parser.parse_query "p(X)")
  in
  Alcotest.(check int) "capped" 2 (List.length answers)

let test_sld_max_depth () =
  let kb = Kb.of_string "n(z). n(s(X)) <- n(X)." in
  let answers =
    Sld.solve
      ~options:{ Sld.default_options with max_depth = 5; max_solutions = 100 }
      ~self:"peer" kb
      (Parser.parse_query "n(X)")
  in
  (* Depth 5 admits z, s(z), s(s(z)), s(s(s(z))), s^4(z) at most. *)
  Alcotest.(check bool) "bounded" true (List.length answers <= 5);
  Alcotest.(check bool) "nonempty" true (answers <> [])

let test_sld_ground_conjunction_linear () =
  (* Twenty ground goals with two proofs each, then one that fails: the
     search gives up after trying each goal once instead of retrying
     the 2^20 proof combinations — and still finds every answer when
     nothing fails. *)
  let w = 20 in
  let src =
    String.concat ""
      (List.init w (fun i ->
           Printf.sprintf "c%d(a). c%d(X) <- d%d(X). d%d(a).\n" i i i i))
  in
  let kb = Kb.of_string src in
  let conj = String.concat ", " (List.init w (Printf.sprintf "c%d(a)")) in
  let steps () =
    Peertrust_obs.Registry.counter_value (Peertrust_obs.Obs.snapshot ())
      "sld.steps"
  in
  let before = steps () in
  Alcotest.(check int) "no answer" 0
    (List.length
       (Sld.solve ~self:"p" kb (Parser.parse_query (conj ^ ", missing(a)"))));
  let spent = steps () - before in
  Alcotest.(check bool)
    (Printf.sprintf "linear search (%d steps)" spent)
    true
    (spent <= 4 * w);
  Alcotest.(check int) "every proof while nothing fails" 4
    (List.length
       (Sld.solve
          ~options:{ Sld.default_options with max_solutions = 4 }
          ~self:"p" kb (Parser.parse_query conj)))

let test_sld_proof_trace () =
  let kb =
    Kb.of_string
      {|eligible(X) <- student(X) @ "UIUC".
        student("Alice") @ "UIUC" signedBy ["UIUC"].|}
  in
  match Sld.solve ~self:"elearn" kb (Parser.parse_query {|eligible("Alice")|}) with
  | { proofs = [ proof ]; _ } :: _ ->
      let creds = Trace.credentials proof in
      Alcotest.(check int) "one credential used" 1 (List.length creds);
      Alcotest.(check (list string)) "signed by UIUC" [ "UIUC" ]
        (List.hd creds).Rule.signer;
      Alcotest.(check bool) "trace depth >= 2" true (Trace.depth proof >= 2)
  | _ -> Alcotest.fail "expected one traced answer"

let test_sld_trace_fully_instantiated () =
  let kb = Kb.of_string "p(X) <- q(X). q(7)." in
  match Sld.solve ~self:"peer" kb (Parser.parse_query "p(Y)") with
  | { proofs = [ Trace.Apply (r, _) ]; _ } :: _ ->
      Alcotest.(check bool) "head instantiated" true
        (Literal.is_ground r.Rule.head)
  | _ -> Alcotest.fail "expected an Apply trace"

(* ------------------------------------------------------------------ *)
(* Arithmetic *)

let test_arith_in_comparison () =
  let answers =
    solve ~self:"peer" "p(5). q(X) <- p(Y), X = Y * 2 + 1." "q(X)"
  in
  match answers with
  | [ s ] -> Alcotest.(check term) "computed" (Term.Int 11) (Subst.apply s (Term.var "X"))
  | _ -> Alcotest.fail "expected one answer"

let test_arith_precedence () =
  Alcotest.(check int) "2 + 3 * 4 = 14" 1
    (List.length (eval_builtin "2 + 3 * 4 = 14" Subst.empty));
  Alcotest.(check int) "(2 + 3) * 4 = 20" 1
    (List.length (eval_builtin "(2 + 3) * 4 = 20" Subst.empty));
  Alcotest.(check int) "10 - 4 - 3 = 3 (left assoc)" 1
    (List.length (eval_builtin "10 - 4 - 3 = 3" Subst.empty));
  Alcotest.(check int) "7 / 2 = 3 (integer division)" 1
    (List.length (eval_builtin "7 / 2 = 3" Subst.empty))

let test_arith_comparison_guard () =
  let answers =
    solve ~self:"peer"
      "cheap(C) <- price(C, P), P < 100 * 2.\nprice(a, 150). price(b, 300)."
      "cheap(X)"
  in
  Alcotest.(check int) "one under the computed bound" 1 (List.length answers)

let test_arith_division_by_zero_fails () =
  Alcotest.(check int) "no answers" 0
    (List.length (eval_builtin "10 / 0 = X" Subst.empty))

let test_arith_nonground_no_eval () =
  (* X + 1 with unbound X cannot be evaluated: the equality fails to unify
     the expression with an integer. *)
  let answers = solve ~self:"peer" "p(Y) <- Y = X + 1." "p(Z)" in
  Alcotest.(check int) "nonground arithmetic does not bind" 0
    (List.length answers)

let test_arith_printing_roundtrip () =
  let r = Parser.parse_rule "total(T) <- price(C, P), T = P * 2 + 50." in
  Alcotest.(check rule) "roundtrips" r (Parser.parse_rule (Rule.to_string r))

let test_arith_not_a_literal () =
  try
    ignore (Parser.parse_rule "p(X) <- X + 1.");
    Alcotest.fail "expected syntax error"
  with Parser.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Negation as failure *)

let test_naf_parse_and_print () =
  let r = Parser.parse_rule "ok(X) <- item(X), not banned(X)." in
  (match r.Rule.body with
  | [ _; naf ] -> (
      match Literal.naf_inner naf with
      | Some inner -> Alcotest.(check string) "inner pred" "banned" inner.Literal.pred
      | None -> Alcotest.fail "expected NAF literal")
  | _ -> Alcotest.fail "two body literals expected");
  let printed = Rule.to_string r in
  Alcotest.(check rule) "NAF roundtrips" r (Parser.parse_rule printed)

let test_naf_not_with_paren_is_ordinary () =
  let r = Parser.parse_rule "p(X) <- not(X)." in
  match r.Rule.body with
  | [ l ] ->
      Alcotest.(check bool) "ordinary not/1 predicate" true
        (Literal.naf_inner l = None || l.Literal.pred = "not");
      Alcotest.(check (pair string int)) "key" ("not", 1) (Literal.key l)
  | _ -> Alcotest.fail "one body literal"

let test_naf_semantics () =
  let answers =
    solve ~self:"peer"
      "ok(X) <- item(X), not banned(X).\nitem(a). item(b). banned(b)."
      "ok(X)"
  in
  match answers with
  | [ s ] -> Alcotest.(check term) "only a survives" (Term.atom "a") (Subst.apply s (Term.var "X"))
  | _ -> Alcotest.fail "expected exactly one answer"

let test_naf_double_negation () =
  let answers =
    solve ~self:"peer" "p(X) <- item(X), not not good(X).\nitem(a). good(a). item(b)."
      "p(X)"
  in
  Alcotest.(check int) "double negation keeps a" 1 (List.length answers)

let test_naf_nonground_flounders () =
  let answers = solve ~self:"peer" "q(1). p(X) <- not q(X)." "p(X)" in
  Alcotest.(check int) "floundering NAF fails" 0 (List.length answers)

let test_naf_no_remote_dispatch () =
  let called = ref false in
  let remote ~target:_ _ =
    called := true;
    []
  in
  let answers =
    solve ~self:"peer" ~remote {|ok("x") <- not bad("x") @ "other".|} {|ok("x")|}
  in
  (* The inner goal has no local proof, so NAF succeeds — without asking
     the remote peer. *)
  Alcotest.(check int) "succeeds" 1 (List.length answers);
  Alcotest.(check bool) "remote never consulted" false !called

let test_naf_lint () =
  match Program.check (Program.parse "p(X) <- not q(Y).") with
  | [ Program.Unsafe_head_var _; Program.Unbound_naf (_, "Y") ]
  | [ Program.Unbound_naf (_, "Y"); Program.Unsafe_head_var _ ] ->
      ()
  | ws -> Alcotest.failf "unexpected warnings (%d)" (List.length ws)

(* ------------------------------------------------------------------ *)
(* Forward chaining *)

let test_forward_basic () =
  let kb = Kb.of_string "p(X) <- e(X). e(1). e(2)." in
  let r = Forward.saturate ~self:"peer" kb in
  Alcotest.(check int) "derived two" 2 r.Forward.derived;
  Alcotest.(check bool) "p(1) derived" true
    (Forward.derives ~self:"peer" kb (Parser.parse_literal "p(1)"))

let test_forward_transitive_closure () =
  let kb =
    Kb.of_string
      "path(X, Y) <- edge(X, Y). path(X, Z) <- path(X, Y), edge(Y, Z).\n\
       edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 1)."
  in
  let r = Forward.saturate ~self:"peer" kb in
  (* Cyclic graph on 4 nodes: 16 path facts + 4 edges. *)
  Alcotest.(check int) "all paths" 20 (List.length r.Forward.facts)

let test_forward_signed_axiom () =
  let kb = Kb.of_string {|visaCard("IBM") signedBy ["VISA"].|} in
  Alcotest.(check bool) "lit @ signer derivable" true
    (Forward.derives ~self:"bob" kb (Parser.parse_literal {|visaCard("IBM") @ "VISA"|}))

let test_forward_builtin_guard () =
  let kb =
    Kb.of_string "ok(X) <- v(X), X < 10. v(5). v(15)."
  in
  let r = Forward.saturate ~self:"peer" kb in
  Alcotest.(check bool) "ok(5)" true
    (List.exists (Literal.equal (Parser.parse_literal "ok(5)")) r.Forward.facts);
  Alcotest.(check bool) "no ok(15)" false
    (List.exists (Literal.equal (Parser.parse_literal "ok(15)")) r.Forward.facts)

let test_forward_unsafe_rule_ignored () =
  let kb = Kb.of_string "p(X, Y) <- q(X). q(1)." in
  let r = Forward.saturate ~self:"peer" kb in
  (* p(1, Y) is non-ground; it must not be derived. *)
  Alcotest.(check int) "only q(1)" 1 (List.length r.Forward.facts)

let test_forward_agrees_with_sld () =
  let src =
    "a(X) <- b(X), c(X). b(X) <- d(X). c(1). c(2). d(1). d(3)."
  in
  let kb = Kb.of_string src in
  let fwd = Forward.derives ~self:"peer" kb (Parser.parse_literal "a(1)") in
  let bwd = Sld.provable ~self:"peer" kb (Parser.parse_query "a(1)") in
  Alcotest.(check bool) "both derive a(1)" true (fwd && bwd);
  let fwd2 = Forward.derives ~self:"peer" kb (Parser.parse_literal "a(2)") in
  let bwd2 = Sld.provable ~self:"peer" kb (Parser.parse_query "a(2)") in
  Alcotest.(check bool) "neither derives a(2)" false (fwd2 || bwd2)

let test_forward_max_rounds () =
  let kb = Kb.of_string "n(s(X)) <- n(X). n(z)." in
  (* Would diverge: heads stay ground forever; the rounds cap stops it. *)
  let r = Forward.saturate ~self:"peer" ~max_rounds:5 kb in
  Alcotest.(check int) "stopped at cap" 5 r.Forward.rounds

(* ------------------------------------------------------------------ *)
(* Tabled evaluation *)

let left_recursive_tc =
  "path(X, Z) <- path(X, Y), edge(Y, Z).\n\
   path(X, Y) <- edge(X, Y).\n\
   edge(1, 2). edge(2, 3). edge(3, 4)."

let test_tabled_left_recursion_complete () =
  let kb = Kb.of_string left_recursive_tc in
  let tabled = Tabled.solve ~self:"p" kb (Parser.parse_query "path(1, X)") in
  Alcotest.(check int) "tabling reaches 2, 3, 4" 3 (List.length tabled);
  (* Depth-first SLD with the ancestor check prunes the left-recursive
     branch and finds only the one-step path: the motivation for tabling. *)
  let sld = Sld.answers ~self:"p" kb (Parser.parse_query "path(1, X)") in
  Alcotest.(check int) "SLD is incomplete here" 1 (List.length sld)

let test_tabled_agrees_with_forward () =
  let kb = Kb.of_string left_recursive_tc in
  let fwd = Forward.saturate ~self:"p" kb in
  let paths =
    List.filter
      (fun (l : Literal.t) -> String.equal l.Literal.pred "path")
      fwd.Forward.facts
  in
  let tabled = Tabled.solve ~self:"p" kb (Parser.parse_query "path(A, B)") in
  Alcotest.(check int) "same path count as forward" (List.length paths)
    (List.length tabled)

let test_tabled_cyclic_graph_terminates () =
  let kb =
    Kb.of_string
      "path(X, Z) <- path(X, Y), edge(Y, Z). path(X, Y) <- edge(X, Y).\n\
       edge(1, 2). edge(2, 1)."
  in
  let answers = Tabled.solve ~self:"p" kb (Parser.parse_query "path(1, X)") in
  (* 1 reaches 1 and 2. *)
  Alcotest.(check int) "two reachable nodes" 2 (List.length answers)

let test_tabled_conjunction () =
  let kb = Kb.of_string "p(1). p(2). q(2). q(3)." in
  let answers = Tabled.solve ~self:"p" kb (Parser.parse_query "p(X), q(X)") in
  Alcotest.(check int) "one joint answer" 1 (List.length answers)

let test_tabled_ground_query () =
  let kb = Kb.of_string left_recursive_tc in
  Alcotest.(check bool) "path(1,4) provable" true
    (Tabled.provable ~self:"p" kb (Parser.parse_query "path(1, 4)"));
  Alcotest.(check bool) "path(4,1) not provable" false
    (Tabled.provable ~self:"p" kb (Parser.parse_query "path(4, 1)"))

let test_tabled_builtins_and_signed () =
  let kb =
    Kb.of_string
      {|ok(X) <- v(X), X < 10. v(5). v(15).
        card("IBM") signedBy ["VISA"].|}
  in
  let answers = Tabled.solve ~self:"p" kb (Parser.parse_query "ok(X)") in
  Alcotest.(check int) "builtin guard" 1 (List.length answers);
  Alcotest.(check bool) "signed axiom" true
    (Tabled.provable ~self:"p" kb (Parser.parse_query {|card(C) @ "VISA"|}))

let test_tabled_rejects_naf () =
  let kb = Kb.of_string "p(X) <- q(X), not r(X). q(1)." in
  Alcotest.check_raises "NAF rejected"
    (Tabled.Unsupported "negation as failure under tabling") (fun () ->
      ignore (Tabled.solve ~self:"p" kb (Parser.parse_query "p(X)")))

let test_tabled_max_answers_cap () =
  let kb = Kb.of_string "n(z). n(s(X)) <- n(X)." in
  let answers =
    Tabled.solve ~max_answers:20 ~self:"p" kb (Parser.parse_query "n(X)")
  in
  Alcotest.(check bool) "bounded" true (List.length answers <= 21);
  Alcotest.(check bool) "nonempty" true (answers <> [])

let test_tabled_table_sharing () =
  (* The same sub-goal appearing in many bodies allocates one table. *)
  let kb =
    Kb.of_string
      "a(X) <- base(X). b(X) <- base(X). c(X) <- a(X), b(X). base(1). base(2)."
  in
  let answers, stats =
    Tabled.solve_stats ~self:"p" kb (Parser.parse_query "c(X)")
  in
  Alcotest.(check int) "answers" 2 (List.length answers);
  (* Call-variant tabling: open calls share (query, c(V), a(V), base(V)),
     while calls instantiated by earlier body answers get their own tables
     (b(1), b(2), base(1), base(2)) — eight in total. *)
  Alcotest.(check int) "eight tables" 8 stats.Tabled.tables;
  (* The counts are per call, not "most recent solve" globals: an
     interleaved unrelated solve must not disturb them. *)
  let tiny = Kb.of_string "t(1)." in
  let _, tiny_stats = Tabled.solve_stats ~self:"p" tiny (Parser.parse_query "t(X)") in
  Alcotest.(check int) "interleaved call sees its own count" 2
    tiny_stats.Tabled.tables;
  let _, again = Tabled.solve_stats ~self:"p" kb (Parser.parse_query "c(X)") in
  Alcotest.(check int) "repeat call count is stable" 8 again.Tabled.tables

(* ------------------------------------------------------------------ *)
(* Program lint *)

let test_program_check_unsafe_head () =
  let rules = Program.parse "p(X, Y) <- q(X)." in
  match Program.check rules with
  | [ Program.Unsafe_head_var (_, "Y") ] -> ()
  | ws -> Alcotest.failf "unexpected warnings (%d)" (List.length ws)

let test_program_check_floundering_authority () =
  let rules = Program.parse "p(X) <- q(X) @ A." in
  match Program.check rules with
  | [ Program.Unbound_authority (_, "A") ] -> ()
  | ws -> Alcotest.failf "unexpected warnings (%d)" (List.length ws)

let test_program_check_clean () =
  let rules =
    Program.parse
      {|p(X) <- q(X) @ "peer". r(X, A) <- auth(A), q(X) @ A. q(1).|}
  in
  Alcotest.(check int) "no warnings" 0 (List.length (Program.check rules))

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let gen_term =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun go n ->
          if n = 0 then
            oneof
              [
                map (fun i -> Term.var (Printf.sprintf "V%d" i)) (int_bound 5);
                map (fun i -> Term.Int i) (int_bound 100);
                map (fun i -> Term.str (Printf.sprintf "s%d" i)) (int_bound 5);
                map (fun i -> Term.atom (Printf.sprintf "a%d" i)) (int_bound 5);
              ]
          else
            frequency
              [
                (2, go 0);
                ( 1,
                  map2
                    (fun f args -> Term.compound (Printf.sprintf "f%d" f) args)
                    (int_bound 2)
                    (list_size (int_range 1 3) (go (n / 4))) );
              ])
        (min n 8))

let arb_term = QCheck.make ~print:Term.to_string gen_term

let prop_unify_reflexive =
  QCheck.Test.make ~name:"unify: t unifies with itself" ~count:200 arb_term
    (fun t -> Option.is_some (Unify.terms t t Subst.empty))

let prop_unify_symmetric =
  QCheck.Test.make ~name:"unify: symmetric success" ~count:200
    (QCheck.pair arb_term arb_term) (fun (a, b) ->
      Option.is_some (Unify.terms a b Subst.empty)
      = Option.is_some (Unify.terms b a Subst.empty))

let prop_unifier_unifies =
  QCheck.Test.make ~name:"unify: mgu equalises both sides" ~count:200
    (QCheck.pair arb_term arb_term) (fun (a, b) ->
      match Unify.terms a b Subst.empty with
      | None -> QCheck.assume_fail ()
      | Some s -> Term.equal (Subst.apply s a) (Subst.apply s b))

let prop_rename_preserves_ground =
  QCheck.Test.make ~name:"rename: ground terms unchanged" ~count:200 arb_term
    (fun t ->
      QCheck.assume (Term.is_ground t);
      Term.equal t (Term.rename_with (Hashtbl.create 4) t))

let prop_variant_reflexive =
  QCheck.Test.make ~name:"variant: reflexive" ~count:200 arb_term (fun t ->
      Unify.variant t t)

let prop_rename_variant =
  QCheck.Test.make ~name:"variant: renamed term is a variant" ~count:200
    arb_term (fun t -> Unify.variant t (Term.rename_with (Hashtbl.create 4) t))

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare: antisymmetric" ~count:200
    (QCheck.pair arb_term arb_term) (fun (a, b) ->
      compare (Term.compare a b) 0 = compare 0 (Term.compare b a))

let gen_literal =
  QCheck.Gen.(
    let* p = int_bound 4 in
    let* args = list_size (int_range 0 3) gen_term in
    let* auth = list_size (int_range 0 2) gen_term in
    return (Literal.make ~auth (Printf.sprintf "p%d" p) args))

let arb_literal = QCheck.make ~print:Literal.to_string gen_literal

let prop_literal_term_roundtrip =
  QCheck.Test.make ~name:"literal: to_term/of_term roundtrip" ~count:300
    arb_literal (fun l ->
      match Literal.of_term (Literal.to_term l) with
      | Some l' -> Literal.equal l l'
      | None -> false)

let prop_literal_pop_push =
  QCheck.Test.make ~name:"literal: pop inverts push" ~count:200
    (QCheck.pair arb_literal arb_term) (fun (l, a) ->
      match Literal.pop_authority (Literal.push_authority l a) with
      | Some (l', a') -> Literal.equal l l' && Term.equal a a'
      | None -> false)

let prop_one_way_matches_instance =
  QCheck.Test.make ~name:"unify: one_way accepts ground instances" ~count:200
    arb_term (fun t ->
      let s =
        List.fold_left
          (fun s v -> Subst.bind_id v (Term.atom "k") s)
          Subst.empty (Term.vars t)
      in
      Option.is_some (Unify.one_way t (Subst.apply s t) Subst.empty))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_literal_term_roundtrip;
      prop_literal_pop_push;
      prop_one_way_matches_instance;
      prop_unify_reflexive;
      prop_unify_symmetric;
      prop_unifier_unifies;
      prop_rename_preserves_ground;
      prop_variant_reflexive;
      prop_rename_variant;
      prop_compare_antisym;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dlp"
    [
      ( "term",
        [
          tc "groundness" test_term_ground;
          tc "vars order" test_term_vars;
          tc "rename keeps pseudo-vars" test_term_rename;
          tc "compare total order" test_term_compare_total;
        ] );
      ( "subst",
        [
          tc "walk vs apply" test_subst_walk_apply;
          tc "rebind rejected" test_subst_rebind_rejected;
          tc "restrict applies bindings" test_subst_restrict;
        ] );
      ( "unify",
        [
          tc "var binding" test_unify_basic;
          tc "compound" test_unify_compound;
          tc "occurs check" test_unify_occurs_check;
          tc "clashes" test_unify_clash;
          tc "through substitution" test_unify_through_subst;
          tc "variants" test_variant;
        ] );
      ( "lexer",
        [
          tc "tokens" test_lexer_basic;
          tc "comments" test_lexer_comments;
          tc "escapes" test_lexer_escapes;
          tc "error positions" test_lexer_error_position;
          tc "signedBy keyword" test_lexer_signedby_keyword;
        ] );
      ( "parser",
        [
          tc "fact" test_parse_fact;
          tc "signed fact" test_parse_signed_fact;
          tc "rule with body" test_parse_rule_with_body;
          tc "nested authorities" test_parse_nested_authorities;
          tc "head context" test_parse_head_context;
          tc "Requester = Party context" test_parse_requester_equals;
          tc "signedBy after arrow" test_parse_signed_rule_after_arrow;
          tc "comparison body" test_parse_comparison_in_body;
          tc "scenario program" test_parse_program_scenario;
          tc "print/parse roundtrip" test_parse_roundtrip;
          tc "printed constants parse back" test_parse_printed_constants;
          tc "syntax errors" test_parse_errors;
        ] );
      ( "kb",
        [
          tc "dedup and order" test_kb_dedup_and_order;
          tc "find by key" test_kb_find;
          tc "remove" test_kb_remove;
          tc "signed rules" test_kb_signed_rules;
          tc "union" test_kb_union;
          tc "first-argument indexing" test_kb_first_arg_indexing;
          tc "indexing preserves semantics" test_kb_indexing_preserves_semantics;
          tc "indexing keeps order" test_kb_indexing_order_stable;
          tc "gterm id stability" test_gterm_id_stability;
          tc "remove updates index" test_kb_remove_indexed;
        ] );
      ( "builtin",
        [
          tc "comparisons" test_builtin_comparisons;
          tc "equality unifies" test_builtin_equality_unifies;
          tc "disequality" test_builtin_disequality;
          tc "nonground comparison" test_builtin_nonground_comparison;
          tc "detection" test_builtin_detection;
        ] );
      ( "sld",
        [
          tc "facts" test_sld_fact;
          tc "conjunction" test_sld_conjunction;
          tc "chain rule" test_sld_chain;
          tc "transitive closure" test_sld_recursion_transitive_closure;
          tc "cyclic data terminates" test_sld_cycle_terminates;
          tc "self-loop fails finitely" test_sld_self_loop_fails_finitely;
          tc "builtin in body" test_sld_builtin_in_body;
          tc "authority matching" test_sld_authority_matching;
          tc "signed-rule axiom" test_sld_signed_rule_axiom;
          tc "self authority stripped" test_sld_self_authority_stripped;
          tc "@ Self is local" test_sld_self_pseudovar;
          tc "Requester binding" test_sld_requester_binding;
          tc "remote dispatch" test_sld_remote_dispatch;
          tc "unbound authority flounders" test_sld_remote_not_called_for_unbound_authority;
          tc "nested authority dispatch" test_sld_nested_authority_dispatch;
          tc "external predicates" test_sld_externals;
          tc "max solutions" test_sld_max_solutions;
          tc "max depth" test_sld_max_depth;
          tc "ground conjunction fails in linear time"
            test_sld_ground_conjunction_linear;
          tc "proof trace credentials" test_sld_proof_trace;
          tc "trace instantiation" test_sld_trace_fully_instantiated;
        ] );
      ( "arith",
        [
          tc "computation in equality" test_arith_in_comparison;
          tc "precedence" test_arith_precedence;
          tc "guard with expression" test_arith_comparison_guard;
          tc "division by zero" test_arith_division_by_zero_fails;
          tc "nonground expression" test_arith_nonground_no_eval;
          tc "printing roundtrip" test_arith_printing_roundtrip;
          tc "bare expression rejected" test_arith_not_a_literal;
        ] );
      ( "naf",
        [
          tc "parse and print" test_naf_parse_and_print;
          tc "not(X) stays ordinary" test_naf_not_with_paren_is_ordinary;
          tc "semantics" test_naf_semantics;
          tc "double negation" test_naf_double_negation;
          tc "non-ground flounders" test_naf_nonground_flounders;
          tc "no remote dispatch" test_naf_no_remote_dispatch;
          tc "lint" test_naf_lint;
        ] );
      ( "forward",
        [
          tc "basic" test_forward_basic;
          tc "transitive closure" test_forward_transitive_closure;
          tc "signed axiom" test_forward_signed_axiom;
          tc "builtin guard" test_forward_builtin_guard;
          tc "unsafe rule ignored" test_forward_unsafe_rule_ignored;
          tc "agrees with sld" test_forward_agrees_with_sld;
          tc "max rounds cap" test_forward_max_rounds;
        ] );
      ( "tabled",
        [
          tc "left recursion complete" test_tabled_left_recursion_complete;
          tc "agrees with forward" test_tabled_agrees_with_forward;
          tc "cyclic graph terminates" test_tabled_cyclic_graph_terminates;
          tc "conjunction" test_tabled_conjunction;
          tc "ground queries" test_tabled_ground_query;
          tc "builtins and signed axiom" test_tabled_builtins_and_signed;
          tc "NAF rejected" test_tabled_rejects_naf;
          tc "answer cap" test_tabled_max_answers_cap;
          tc "table sharing" test_tabled_table_sharing;
        ] );
      ( "program",
        [
          tc "unsafe head var" test_program_check_unsafe_head;
          tc "floundering authority" test_program_check_floundering_authority;
          tc "clean program" test_program_check_clean;
        ] );
      ("properties", qcheck_cases);
    ]
