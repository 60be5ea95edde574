(* Flat literal encoding (see flat.mli): one int array per literal, ground
   arguments as hash-consed ids, everything else as negative escapes into a
   small side array.  The fast path of unification is then an int-compare
   loop; the boxed unifier is entered only for escape elements and binds
   through the same trailed store, so the trail (and everything derived
   from it: answers, display ordinals, transcripts) is identical to what
   the boxed path produces. *)

type head = { h_flat : int array; h_extras : Term.t array }
type goal = { g_flat : int array; g_vals : Term.t array }

(* Head elements: e >= 0 is a ground id; otherwise let u = -e-1: u even is
   the variable code u/2 (0/1 = pseudo-variable id, c >= 2 = compiled-local
   slot c-2), u odd indexes h_extras (a non-ground compound). *)

let enc_var_code c = -(2 * c) - 1
let enc_extra j = -((2 * j) + 1) - 1

let compile_head (l : Literal.t) =
  let extras = ref [] in
  let nx = ref 0 in
  let enc t =
    match Gterm.of_term t with
    | Some g -> g
    | None -> (
        match t with
        | Term.Var v ->
            enc_var_code (if Term.is_pseudo v then v else 2 + Term.local_slot v)
        | _ ->
            let j = !nx in
            incr nx;
            extras := t :: !extras;
            enc_extra j)
  in
  let n = List.length l.Literal.args in
  let na = List.length l.Literal.auth in
  let flat = Array.make (2 + n + na) 0 in
  flat.(0) <- Sym.intern l.Literal.pred;
  flat.(1) <- n;
  let i = ref 2 in
  let put t =
    flat.(!i) <- enc t;
    incr i
  in
  List.iter put l.Literal.args;
  List.iter put l.Literal.auth;
  { h_flat = flat; h_extras = Array.of_list (List.rev !extras) }

(* ------------------------------------------------------------------ *)
(* Arena: per-solve scratch *)

type cbuf = { mutable cb : int array; mutable cn : int }

type arena = {
  mutable fvals : Term.t array;  (* flatten: boxed escape slots *)
  mutable nfv : int;
  cb1 : cbuf;  (* canonical encoding, primary *)
  cb2 : cbuf;  (* canonical encoding, secondary *)
  mutable vseen : int array;  (* canonical var renumbering: ids seen *)
  mutable nseen : int;
}

let arena () =
  {
    fvals = Array.make 16 (Term.Int 0);
    nfv = 0;
    cb1 = { cb = Array.make 64 0; cn = 0 };
    cb2 = { cb = Array.make 64 0; cn = 0 };
    vseen = Array.make 16 (-1);
    nseen = 0;
  }

(* ------------------------------------------------------------------ *)
(* Goal flattening *)

let flatten arena st (l : Literal.t) =
  let n = List.length l.Literal.args in
  let na = List.length l.Literal.auth in
  let flat = Array.make (2 + n + na) 0 in
  flat.(0) <- Sym.intern l.Literal.pred;
  flat.(1) <- n;
  if n + na > Array.length arena.fvals then
    arena.fvals <- Array.make (max (2 * Array.length arena.fvals) (n + na)) (Term.Int 0);
  arena.nfv <- 0;
  let slot t =
    let u = arena.nfv in
    arena.fvals.(u) <- t;
    arena.nfv <- u + 1;
    -u - 1
  in
  let i = ref 2 in
  let put t =
    let t = Store.walk st t in
    let e =
      match t with
      | Term.Var _ -> slot t
      | Term.Atom a -> Gterm.of_atom a
      | Term.Str s -> Gterm.of_str s
      | Term.Int k -> Gterm.of_int k
      | Term.Compound _ -> (
          match Gterm.resolve_id st t with Some g -> g | None -> slot t)
    in
    flat.(!i) <- e;
    incr i
  in
  List.iter put l.Literal.args;
  List.iter put l.Literal.auth;
  { g_flat = flat; g_vals = Array.sub arena.fvals 0 arena.nfv }

let pred g = g.g_flat.(0)
let nargs g = g.g_flat.(1)
let nauth g = Array.length g.g_flat - 2 - g.g_flat.(1)

(* ------------------------------------------------------------------ *)
(* Unification *)

let rec occurs st v t =
  match Store.walk st t with
  | Term.Var w -> v = w
  | Term.Str _ | Term.Int _ | Term.Atom _ -> false
  | Term.Compound (_, args) -> List.exists (occurs st v) args

(* Unify an (already walked) goal-side term against the head variable [v],
   replicating the case order of [Unify.store_terms]: a goal-side variable
   binds first (to a boxed [Var v]), exactly as it would against the boxed
   instantiated head. *)
let unify_term_var st t v =
  if Store.is_bound st v then Unify.store_terms st t (Store.lookup st v)
  else
    match t with
    | Term.Var x when x = v -> true
    | Term.Var x ->
        Store.bind st x (Term.Var v);
        true
    | t ->
        if occurs st v t then false
        else begin
          Store.bind st v t;
          true
        end

let unify_elem st k0 gvals hextras ge he =
  let gt = if ge >= 0 then Gterm.term ge else Store.walk st gvals.(-ge - 1) in
  if he >= 0 then begin
    let ht = Gterm.term he in
    gt == ht || Unify.store_terms st gt ht
  end
  else begin
    let u = -he - 1 in
    if u land 1 = 0 then begin
      let c = u lsr 1 in
      let v = if c < 2 then c else Term.local_id (k0 + (c - 2)) in
      unify_term_var st gt v
    end
    else Unify.store_terms st gt (Term.shift_fresh k0 hextras.(u lsr 1))
  end

let unify st ~k0 g h =
  let gf = g.g_flat and hf = h.h_flat in
  let n = Array.length gf in
  n = Array.length hf
  && gf.(0) = hf.(0)
  &&
  let ok = ref true in
  (* From index 1: the arity element (>= 0 on both sides) compares like a
     ground id, so same-length literals with a different arity/authority
     split cannot unify. *)
  let i = ref 1 in
  while !ok && !i < n do
    let ge = gf.(!i) and he = hf.(!i) in
    (* Equal non-negative elements are identical ground terms (hash-cons
       injectivity); distinct non-negative elements can never unify. *)
    if ge <> he || ge < 0 then
      if ge >= 0 && he >= 0 then ok := false
      else ok := unify_elem st k0 g.g_vals h.h_extras ge he;
    incr i
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* First-argument index keys *)

type fkey = Kany | Kground of int | Kfunctor of Sym.t * int

let is_ground g =
  let f = g.g_flat in
  let rec from i = i >= Array.length f || (f.(i) >= 0 && from (i + 1)) in
  from 2

let goal_first_key g =
  if g.g_flat.(1) = 0 then Kany
  else
    let e = g.g_flat.(2) in
    if e >= 0 then
      match Gterm.term e with
      | Term.Compound (f, args) -> Kfunctor (f, List.length args)
      | _ -> Kground e
    else
      match g.g_vals.(-e - 1) with
      | Term.Var _ -> Kany
      | Term.Compound (f, args) -> Kfunctor (f, List.length args)
      | Term.Str _ | Term.Int _ | Term.Atom _ ->
          (* ground non-compounds always flatten to a ground id *)
          assert false

(* ------------------------------------------------------------------ *)
(* Canonical encodings *)

(* Tags are large negative values disjoint from both ground ids (>= 0) and
   the values that follow a tag positionally (slot numbers, symbol ids,
   arities, raw variable ids — all >= 0), so the encoding is a prefix code
   and therefore injective. *)
let tag_var = min_int
let tag_comp = min_int + 1

let emit cb x =
  if cb.cn = Array.length cb.cb then begin
    let bigger = Array.make (2 * cb.cn) 0 in
    Array.blit cb.cb 0 bigger 0 cb.cn;
    cb.cb <- bigger
  end;
  cb.cb.(cb.cn) <- x;
  cb.cn <- cb.cn + 1

let seen_slot arena v =
  let n = arena.nseen in
  let rec find i = if i >= n then -1 else if arena.vseen.(i) = v then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then i
  else begin
    if n = Array.length arena.vseen then begin
      let bigger = Array.make (2 * n) (-1) in
      Array.blit arena.vseen 0 bigger 0 n;
      arena.vseen <- bigger
    end;
    arena.vseen.(n) <- v;
    arena.nseen <- n + 1;
    n
  end

let rec canon_term arena cb st t =
  match Store.walk st t with
  | Term.Var v ->
      emit cb tag_var;
      emit cb (seen_slot arena v)
  | Term.Atom a -> emit cb (Gterm.of_atom a)
  | Term.Str s -> emit cb (Gterm.of_str s)
  | Term.Int i -> emit cb (Gterm.of_int i)
  | Term.Compound (f, args) as t' -> (
      match Gterm.resolve_id st t' with
      | Some g -> emit cb g
      | None ->
          emit cb tag_comp;
          emit cb f;
          emit cb (List.length args);
          List.iter (canon_term arena cb st) args)

let canon_lit arena cb st (l : Literal.t) =
  cb.cn <- 0;
  arena.nseen <- 0;
  emit cb (Sym.intern l.Literal.pred);
  emit cb (List.length l.Literal.args);
  List.iter (canon_term arena cb st) l.Literal.args;
  List.iter (canon_term arena cb st) l.Literal.auth

let canon_set arena st l = canon_lit arena arena.cb1 st l

let canon_eq arena st l =
  canon_lit arena arena.cb2 st l;
  let a = arena.cb1 and b = arena.cb2 in
  a.cn = b.cn
  &&
  let rec eq i = i >= a.cn || (a.cb.(i) = b.cb.(i) && eq (i + 1)) in
  eq 0

let subst_key s =
  let b = ref (Array.make 32 0) in
  let n = ref 0 in
  let emit x =
    if !n = Array.length !b then begin
      let bigger = Array.make (2 * !n) 0 in
      Array.blit !b 0 bigger 0 !n;
      b := bigger
    end;
    !b.(!n) <- x;
    incr n
  in
  let rec enc t =
    match Gterm.of_term t with
    | Some g -> emit g
    | None -> (
        match t with
        | Term.Var v ->
            emit tag_var;
            emit v
        | Term.Compound (f, args) ->
            emit tag_comp;
            emit f;
            emit (List.length args);
            List.iter enc args
        | Term.Str _ | Term.Int _ | Term.Atom _ ->
            (* ground: always interned above *)
            assert false)
  in
  Subst.fold_ids
    (fun v t () ->
      emit v;
      enc t)
    s ();
  Array.sub !b 0 !n
