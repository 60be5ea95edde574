exception Error of string * int

type token =
  | Iri of string
  | Qname of string * string  (* prefix, local *)
  | A
  | Str of string
  | Int of int
  | Prefix  (* @prefix *)
  | Dot
  | Semi
  | Comma
  | Colon_name of string  (* name: in a prefix declaration *)
  | Eof

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let pos = ref 0 in
  let toks = ref [] in
  let emit t = toks := (t, !line) :: !toks in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.'
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '#' then
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    else if c = '.' then (emit Dot; incr pos)
    else if c = ';' then (emit Semi; incr pos)
    else if c = ',' then (emit Comma; incr pos)
    else if c = '<' then begin
      let close = try String.index_from src !pos '>' with Not_found -> -1 in
      if close < 0 then raise (Error ("unterminated IRI", !line));
      emit (Iri (String.sub src (!pos + 1) (close - !pos - 1)));
      pos := close + 1
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      incr pos;
      let closed = ref false in
      while (not !closed) && !pos < n do
        let d = src.[!pos] in
        if d = '"' then begin
          closed := true;
          incr pos
        end
        else if d = '\\' && !pos + 1 < n then begin
          Buffer.add_char buf src.[!pos + 1];
          pos := !pos + 2
        end
        else begin
          if d = '\n' then incr line;
          Buffer.add_char buf d;
          incr pos
        end
      done;
      if not !closed then raise (Error ("unterminated string", !line));
      emit (Str (Buffer.contents buf))
    end
    else if c = '@' then begin
      (* only @prefix is supported *)
      if !pos + 7 <= n && String.sub src !pos 7 = "@prefix" then begin
        emit Prefix;
        pos := !pos + 7
      end
      else raise (Error ("unsupported @-directive", !line))
    end
    else if (c >= '0' && c <= '9') || (c = '-' && (match peek 1 with Some d -> d >= '0' && d <= '9' | None -> false)) then begin
      let start = !pos in
      if c = '-' then incr pos;
      while !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' do
        incr pos
      done;
      let text = String.sub src start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> emit (Int i)
      | None -> raise (Error ("integer out of range: " ^ text, !line))
    end
    else if is_name_char c then begin
      let start = !pos in
      while !pos < n && is_name_char src.[!pos] do
        incr pos
      done;
      let word = String.sub src start (!pos - start) in
      (* Names ending in '.' are a name followed by the end-of-statement
         dot. *)
      let word, had_dot =
        if String.length word > 0 && word.[String.length word - 1] = '.' then
          (String.sub word 0 (String.length word - 1), true)
        else (word, false)
      in
      (if !pos < n && src.[!pos] = ':' then begin
         incr pos;
         if !pos < n && is_name_char src.[!pos] then begin
           let s2 = !pos in
           while !pos < n && is_name_char src.[!pos] do
             incr pos
           done;
           let local = String.sub src s2 (!pos - s2) in
           let local, had_dot2 =
             if String.length local > 0 && local.[String.length local - 1] = '.'
             then (String.sub local 0 (String.length local - 1), true)
             else (local, false)
           in
           emit (Qname (word, local));
           if had_dot2 then emit Dot
         end
         else emit (Colon_name word)
       end
       else if String.equal word "a" then emit A
       else raise (Error (Printf.sprintf "bare name %S (expected qname or IRI)" word, !line)));
      if had_dot then emit Dot
    end
    else raise (Error (Printf.sprintf "unexpected character %C" c, !line))
  done;
  emit Eof;
  List.rev !toks

let parse src =
  let toks = ref (tokenize src) in
  let peek () = match !toks with [] -> (Eof, 0) | t :: _ -> t in
  let next () =
    match !toks with
    | [] -> (Eof, 0)
    | t :: rest ->
        toks := rest;
        t
  in
  let prefixes = Hashtbl.create 8 in
  let expand prefix local line =
    match Hashtbl.find_opt prefixes prefix with
    | Some iri -> iri ^ local
    | None -> raise (Error (Printf.sprintf "unknown prefix %S" prefix, line))
  in
  let triples = ref [] in
  let parse_node_iri () =
    match next () with
    | Iri i, _ -> i
    | Qname (p, l), line -> expand p l line
    | _, line -> raise (Error ("expected IRI or qname", line))
  in
  let parse_predicate () =
    match peek () with
    | A, _ ->
        ignore (next ());
        "a"
    | _ -> parse_node_iri ()
  in
  let parse_object () =
    match peek () with
    | Str s, _ ->
        ignore (next ());
        Triple.Str s
    | Int i, _ ->
        ignore (next ());
        Triple.Int i
    | _ -> Triple.Iri (parse_node_iri ())
  in
  let rec statements () =
    match peek () with
    | Eof, _ -> ()
    | Prefix, line ->
        ignore (next ());
        let name =
          match next () with
          | Colon_name n, _ -> n
          | Qname (p, ""), _ -> p
          | _, l -> raise (Error ("expected prefix name", l))
        in
        let iri =
          match next () with
          | Iri i, _ -> i
          | _, l -> raise (Error ("expected IRI in @prefix", l))
        in
        (match next () with
        | Dot, _ -> ()
        | _, l -> raise (Error ("expected '.' after @prefix", l)));
        Hashtbl.replace prefixes name iri;
        ignore line;
        statements ()
    | _ ->
        let subject = parse_node_iri () in
        let rec predicate_list () =
          let predicate = parse_predicate () in
          let rec object_list () =
            let obj = parse_object () in
            triples := { Triple.subject; predicate; obj } :: !triples;
            match peek () with
            | Comma, _ ->
                ignore (next ());
                object_list ()
            | _ -> ()
          in
          object_list ();
          match peek () with
          | Semi, _ ->
              ignore (next ());
              (* allow trailing ';' before '.' *)
              (match peek () with Dot, _ -> () | _ -> predicate_list ())
          | _ -> ()
        in
        predicate_list ();
        (match next () with
        | Dot, _ -> ()
        | _, l -> raise (Error ("expected '.' at end of statement", l)));
        statements ()
  in
  statements ();
  List.rev !triples

let load src =
  let store = Triple.Store.create () in
  List.iter (Triple.Store.add store) (parse src);
  store
