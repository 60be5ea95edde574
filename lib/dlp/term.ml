(* Compact terms: symbols are interned ({!Sym}), variables are integers.

   Named (source) variables are interned into a dedicated table; the two
   pseudo-variables get the first two ids so that the pseudo test is two
   integer comparisons.  Machine-generated fresh variables are allocated
   from a single process-global counter and live at the *top* of the id
   space ([max_int - 1 - k]), so the two populations can never collide and
   a single comparison ([is_fresh]) tells them apart. *)

type t =
  | Var of int
  | Str of Sym.t
  | Int of int
  | Atom of Sym.t
  | Compound of Sym.t * t list

(* Named variables. *)

let vnames = Sym.Interner.create ()
let requester_id = Sym.Interner.intern vnames "Requester" (* = 0 *)
let self_id = Sym.Interner.intern vnames "Self" (* = 1 *)
let is_pseudo v = v = requester_id || v = self_id
let named_var_count () = Sym.Interner.size vnames

(* Fresh variables: id_of_k k = max_int - 1 - k, k counting up from 0. *)

let fresh_floor = max_int / 2
let is_fresh v = v > fresh_floor
let fresh_counter = ref 0
let id_of_k k = max_int - 1 - k
let k_of_id v = max_int - 1 - v

let fresh_id () =
  let k = !fresh_counter in
  incr fresh_counter;
  id_of_k k

let fresh_block n =
  let k0 = !fresh_counter in
  fresh_counter := k0 + n;
  k0

let fresh_mark () = !fresh_counter
let local_id j = id_of_k j
let local_slot v = k_of_id v

let var_name v =
  if is_fresh v then "_G" ^ string_of_int (k_of_id v)
  else Sym.Interner.name vnames v

let var_id name = Sym.Interner.intern vnames name

(* Smart constructors; the stable construction API, independent of the
   constructor payload representation. *)
let var v = Var (var_id v)
let str s = Str (Sym.intern s)
let atom a = Atom (Sym.intern a)
let compound f args = Compound (Sym.intern f, args)
let requester = Var requester_id
let self = Var self_id
let fresh () = Var (fresh_id ())

let rec compare a b =
  match (a, b) with
  | Var x, Var y -> Int.compare x y
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Str x, Str y -> Sym.compare_names x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Int x, Int y -> Int.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Atom x, Atom y -> Sym.compare_names x y
  | Atom _, _ -> -1
  | _, Atom _ -> 1
  | Compound (f, xs), Compound (g, ys) ->
      let c = Sym.compare_names f g in
      if c <> 0 then c
      else
        let c = List.compare_lengths xs ys in
        if c <> 0 then c else compare_lists xs ys

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

(* Structural equality on interned ids: no string comparison.  Agrees with
   [compare] because interning is injective. *)
let rec equal a b =
  match (a, b) with
  | Var x, Var y -> x = y
  | Str x, Str y -> Sym.equal x y
  | Int x, Int y -> x = y
  | Atom x, Atom y -> Sym.equal x y
  | Compound (f, xs), Compound (g, ys) -> Sym.equal f g && equal_lists xs ys
  | _ -> false

and equal_lists xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs', y :: ys' -> equal x y && equal_lists xs' ys'
  | _ -> false

let rec is_ground = function
  | Var _ -> false
  | Str _ | Int _ | Atom _ -> true
  | Compound (_, args) -> List.for_all is_ground args

let rec iter_vars f = function
  | Var v -> f v
  | Str _ | Int _ | Atom _ -> ()
  | Compound (_, args) -> List.iter (iter_vars f) args

let add_vars seen acc t =
  iter_vars
    (fun v ->
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        acc := v :: !acc
      end)
    t

let vars t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  add_vars seen acc t;
  List.rev !acc

let const_name = function Str s | Atom s -> Some (Sym.name s) | _ -> None

(* List.map preserving physical identity when no element changes. *)
let rec map_sharing f = function
  | [] -> []
  | x :: xs as l ->
      let x' = f x in
      let xs' = map_sharing f xs in
      if x' == x && xs' == xs then l else x' :: xs'

let rec map_vars f t =
  match t with
  | Var v ->
      let v' = f v in
      if v' = v then t else Var v'
  | Str _ | Int _ | Atom _ -> t
  | Compound (g, args) ->
      let args' = map_sharing (map_vars f) args in
      if args' == args then t else Compound (g, args')

let rec rename_with mapping = function
  | Var v as t ->
      if is_pseudo v then t
      else
        Var
          (match Hashtbl.find_opt mapping v with
          | Some f -> f
          | None ->
              let f = fresh_id () in
              Hashtbl.add mapping v f;
              f)
  | (Str _ | Int _ | Atom _) as t -> t
  | Compound (f, args) -> Compound (f, List.map (rename_with mapping) args)

(* Shift the compiled-local fresh variables of a term into a freshly
   allocated block: local id [id_of_k j] becomes [id_of_k (k0 + j)], i.e.
   the id decreases by [k0].  Only ever applied to compiled rules, whose
   variables are exactly pseudo-variables plus locals. *)
let rec shift_fresh k0 t =
  match t with
  | Var v -> if is_fresh v then Var (v - k0) else t
  | Str _ | Int _ | Atom _ -> t
  | Compound (f, args) ->
      let args' = map_sharing (shift_fresh k0) args in
      if args' == args then t else Compound (f, args')

let plus_op = Sym.intern "+"
let minus_op = Sym.intern "-"
let times_op = Sym.intern "*"
let div_op = Sym.intern "/"

let is_arith_op op =
  op = plus_op || op = minus_op || op = times_op || op = div_op

(* The one printer: [pp] prints what [to_string] writes.  A string
   constant is OCaml's [%S] spelling, [String.escaped] in quotes. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

let add_list buf add = function
  | [] -> ()
  | x :: rest ->
      add buf x;
      List.iter
        (fun x ->
          Buffer.add_string buf ", ";
          add buf x)
        rest

let rec to_buffer buf = function
  | Var v -> Buffer.add_string buf (var_name v)
  | Str s -> add_quoted buf (Sym.name s)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Atom a -> Buffer.add_string buf (Sym.name a)
  | Compound (op, [ a; b ]) when is_arith_op op ->
      (* Arithmetic prints infix (parenthesised) so it re-parses. *)
      Buffer.add_char buf '(';
      to_buffer buf a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Sym.name op);
      Buffer.add_char buf ' ';
      to_buffer buf b;
      Buffer.add_char buf ')'
  | Compound (f, args) ->
      Buffer.add_string buf (Sym.name f);
      Buffer.add_char buf '(';
      add_list buf to_buffer args;
      Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 32 in
  to_buffer buf t;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
