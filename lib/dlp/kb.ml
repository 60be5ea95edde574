module Key = struct
  type t = Sym.t * int

  let compare (p1, a1) (p2, a2) =
    let c = Int.compare p1 p2 in
    if c <> 0 then c else Int.compare a1 a2
end

module M = Map.Make (Key)
module IM = Map.Make (Int)
module FM = Map.Make (Key)

(* Entries carry a sequence number so that [rules]/[matching] can restore
   global insertion order; buckets keep entries in reverse order.  Rules are
   compiled once at insertion: the hot path resolves against the compiled
   form and never re-processes the source rule.

   Facts and proper rules live in separate lists (the solver tries facts
   first, so [matching_parts] never partitions), and two first-argument
   indexes serve point lookups: non-compound ground first arguments key on
   their hash-consed ground id ({!Gterm} — one int map lookup for the
   million-fact workloads), compound first arguments on their
   functor/arity (a compound goal must meet every same-functor head, ground
   or not, exactly as an unindexed scan would pair them). *)
type entry = int * Rule.compiled

type bucket = {
  facts : entry list;  (* reverse insertion order *)
  proper : entry list;
  by_first : entry list IM.t;  (* ground (non-compound) first arg, by gid *)
  by_functor : entry list FM.t;  (* compound first arg, by functor/arity *)
  var_first : entry list;  (* heads whose first argument is a variable *)
}

type t = { buckets : bucket M.t; next : int; indexing : bool }

let empty = { buckets = M.empty; next = 0; indexing = true }
let empty_linear = { buckets = M.empty; next = 0; indexing = false }

let empty_bucket =
  {
    facts = [];
    proper = [];
    by_first = IM.empty;
    by_functor = FM.empty;
    var_first = [];
  }

(* Index class of a head's first argument. *)
type hkey = Hvar | Hground of int | Hfunctor of Sym.t * int

let head_key (l : Literal.t) =
  match l.Literal.args with
  | [] -> Hvar
  | a :: _ -> (
      match a with
      | Term.Var _ -> Hvar
      | Term.Atom a -> Hground (Gterm.of_atom a)
      | Term.Str s -> Hground (Gterm.of_str s)
      | Term.Int i -> Hground (Gterm.of_int i)
      | Term.Compound (f, args) -> Hfunctor (f, List.length args))

let lit_key (l : Literal.t) = (Sym.intern l.Literal.pred, Literal.arity l)

(* Index key of a goal's first argument (as given — resolved by the
   caller); {!Flat.goal_first_key} computes the same key from a flat
   goal. *)
let goal_key (l : Literal.t) =
  match l.Literal.args with
  | [] -> Flat.Kany
  | a :: _ -> (
      match a with
      | Term.Var _ -> Flat.Kany
      | Term.Atom a -> Flat.Kground (Gterm.of_atom a)
      | Term.Str s -> Flat.Kground (Gterm.of_str s)
      | Term.Int i -> Flat.Kground (Gterm.of_int i)
      | Term.Compound (f, args) -> Flat.Kfunctor (f, List.length args))

(* ------------------------------------------------------------------ *)
(* Read sets *)

type lookup = (Sym.t * int) * Flat.fkey
type reads = { lookups : lookup list; volatile : bool }
type recorder = { mutable r_lookups : lookup list; mutable r_volatile : bool }

(* The read set being recorded, if any.  Off (one dereference per
   lookup) unless a caller asked what an evaluation reads. *)
let recorder : recorder option ref = ref None

let same_fkey a b =
  match (a, b) with
  | Flat.Kany, Flat.Kany -> true
  | Flat.Kground g, Flat.Kground h -> g = h
  | Flat.Kfunctor (f, n), Flat.Kfunctor (g, m) -> Sym.equal f g && n = m
  | (Flat.Kany | Flat.Kground _ | Flat.Kfunctor _), _ -> false

(* An unindexed KB hands every lookup the whole bucket: record it as a
   scan.  Consecutive repeats (the solver looking the same bucket up
   step after step) are dropped here, the rest when the set is sealed. *)
let note kb ((p, n) as key) fkey =
  match !recorder with
  | None -> ()
  | Some r -> (
      let fkey = if kb.indexing then fkey else Flat.Kany in
      match r.r_lookups with
      | ((q, m), f) :: _ when Sym.equal p q && n = m && same_fkey f fkey -> ()
      | l -> r.r_lookups <- (key, fkey) :: l)

let mark_volatile () =
  match !recorder with None -> () | Some r -> r.r_volatile <- true

let recording f =
  let r = { r_lookups = []; r_volatile = false } in
  let outer = !recorder in
  recorder := Some r;
  let seal () =
    recorder := outer;
    (* a nested recording's reads are its caller's reads too *)
    Option.iter
      (fun o ->
        o.r_lookups <- List.rev_append r.r_lookups o.r_lookups;
        o.r_volatile <- o.r_volatile || r.r_volatile)
      outer
  in
  match f () with
  | v ->
      seal ();
      (v, { lookups = List.sort_uniq compare r.r_lookups; volatile = r.r_volatile })
  | exception e ->
      seal ();
      raise e

let head_lookup (r : Rule.t) =
  ( lit_key r.Rule.head,
    match head_key r.Rule.head with
    | Hvar -> Flat.Kany
    | Hground g -> Flat.Kground g
    | Hfunctor (f, n) -> Flat.Kfunctor (f, n) )

let first_sublist bucket (l : Literal.t) =
  match head_key l with
  | Hvar -> bucket.var_first
  | Hground g -> Option.value ~default:[] (IM.find_opt g bucket.by_first)
  | Hfunctor (f, n) ->
      Option.value ~default:[] (FM.find_opt (f, n) bucket.by_functor)

(* Membership via the first-argument index: a structurally equal rule has
   the same head, hence the same index class — never a full bucket scan,
   so bulk insertion of n facts is O(n log n), not O(n^2). *)
let mem r kb =
  match M.find_opt (lit_key r.Rule.head) kb.buckets with
  | None -> false
  | Some bucket ->
      List.exists
        (fun (_, c) -> Rule.equal r (Rule.source c))
        (first_sublist bucket r.Rule.head)

let add r kb =
  if mem r kb then kb
  else begin
    let key = lit_key r.Rule.head in
    let bucket = Option.value ~default:empty_bucket (M.find_opt key kb.buckets) in
    let entry = (kb.next, Rule.compile r) in
    let bucket =
      if Rule.is_fact r then { bucket with facts = entry :: bucket.facts }
      else { bucket with proper = entry :: bucket.proper }
    in
    let bucket =
      match head_key r.Rule.head with
      | Hvar -> { bucket with var_first = entry :: bucket.var_first }
      | Hground g ->
          let prev = Option.value ~default:[] (IM.find_opt g bucket.by_first) in
          { bucket with by_first = IM.add g (entry :: prev) bucket.by_first }
      | Hfunctor (f, n) ->
          let prev =
            Option.value ~default:[] (FM.find_opt (f, n) bucket.by_functor)
          in
          {
            bucket with
            by_functor = FM.add (f, n) (entry :: prev) bucket.by_functor;
          }
    in
    { kb with buckets = M.add key bucket kb.buckets; next = kb.next + 1 }
  end

let add_list rs kb = List.fold_left (fun kb r -> add r kb) kb rs

let remove r kb =
  let key = lit_key r.Rule.head in
  match M.find_opt key kb.buckets with
  | None -> kb
  | Some bucket ->
      let drop =
        List.filter (fun (_, c) -> not (Rule.equal r (Rule.source c)))
      in
      let bucket =
        {
          facts = drop bucket.facts;
          proper = drop bucket.proper;
          by_first = IM.map drop bucket.by_first;
          by_functor = FM.map drop bucket.by_functor;
          var_first = drop bucket.var_first;
        }
      in
      {
        kb with
        buckets =
          (if bucket.facts = [] && bucket.proper = [] then
             M.remove key kb.buckets
           else M.add key bucket kb.buckets);
      }

(* Merge two reverse-(descending-seq-)ordered entry lists, still
   descending; [matching] then reverses once into insertion order —
   no per-call sort. *)
let rec merge_desc a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((i, _) as x) :: a', ((j, _) as y) :: b' ->
      if i > j then x :: merge_desc a' b else y :: merge_desc a b'

let bucket_all bucket = merge_desc bucket.facts bucket.proper

let entries_in_order entries =
  List.sort (fun (i, _) (j, _) -> Int.compare i j) entries
  |> List.map (fun (_, c) -> Rule.source c)

let find key kb =
  let pred, arity = key in
  let key = (Sym.intern pred, arity) in
  note kb key Flat.Kany;
  match M.find_opt key kb.buckets with
  | None -> []
  | Some bucket -> entries_in_order (bucket_all bucket)

(* Candidate entries for a goal, in descending-seq order. *)
let entries_for bucket fkey indexing =
  if not indexing then bucket_all bucket
  else
    match fkey with
    | Flat.Kany -> bucket_all bucket
    | Flat.Kground g ->
        merge_desc
          (Option.value ~default:[] (IM.find_opt g bucket.by_first))
          bucket.var_first
    | Flat.Kfunctor (f, n) ->
        merge_desc
          (Option.value ~default:[] (FM.find_opt (f, n) bucket.by_functor))
          bucket.var_first

let matching_entries lit kb =
  let key = lit_key lit and fkey = goal_key lit in
  note kb key fkey;
  match M.find_opt key kb.buckets with
  | None -> []
  | Some bucket -> entries_for bucket fkey kb.indexing

let matching lit kb =
  List.rev_map (fun (_, c) -> Rule.source c) (matching_entries lit kb)

let matching_compiled lit kb = List.rev_map snd (matching_entries lit kb)

let rev_compiled entries = List.rev_map snd entries

let matching_parts key fkey kb =
  note kb key fkey;
  match M.find_opt key kb.buckets with
  | None -> ([], [])
  | Some bucket ->
      if (not kb.indexing) || fkey = Flat.Kany then
        (rev_compiled bucket.facts, rev_compiled bucket.proper)
      else begin
        (* Split the (small) indexed candidate list; descending input,
           prepending output: ascending insertion order restored. *)
        let rec split fs ps = function
          | [] -> (fs, ps)
          | (_, c) :: rest ->
              if Rule.compiled_is_fact c then split (c :: fs) ps rest
              else split fs (c :: ps) rest
        in
        split [] [] (entries_for bucket fkey true)
      end

(* A whole-KB read meets every rule a later addition could bring. *)
let rules kb =
  mark_volatile ();
  M.fold (fun _ bucket acc -> List.rev_append (bucket_all bucket) acc)
    kb.buckets []
  |> entries_in_order

let size kb =
  M.fold
    (fun _ bucket n -> n + List.length bucket.facts + List.length bucket.proper)
    kb.buckets 0

let fold f kb init = List.fold_left (fun acc r -> f r acc) init (rules kb)
let signed_rules kb = List.filter Rule.is_signed (rules kb)

let of_string ?(indexing = true) src =
  add_list (Parser.parse_program src) (if indexing then empty else empty_linear)

let union a b = fold add b a

let pp fmt kb =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
    Rule.pp fmt (rules kb)
