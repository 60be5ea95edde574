open Peertrust_dlp

type table_ref = string * string

type tstat_entry = {
  ts_key : string;
  ts_size : int;
  ts_deps : (string * string * int * bool) list;
}

type payload =
  | Query of { goal : Literal.t }
  | Answer of {
      goal : Literal.t;
      instances : (Literal.t * Trace.t option) list;
      certs : Peertrust_crypto.Cert.t list;
    }
  | Deny of { goal : Literal.t; reason : string }
  | Disclosure of {
      certs : Peertrust_crypto.Cert.t list;
      rules : Rule.t list;
    }
  | Raw of string
  | Tquery of { goal : Literal.t; path : table_ref list }
  | Tanswer of { goal : Literal.t; instances : Literal.t list; final : bool }
  | Tprobe of { leader : table_ref; epoch : int; members : table_ref list }
  | Tstat of { leader : table_ref; epoch : int; entries : tstat_entry list }
  | Tcomplete of { leader : table_ref; epoch : int; members : table_ref list }
  | Cancel of { goal : Literal.t }

let kind = function
  | Query _ -> Stats.Query
  | Answer _ -> Stats.Answer
  | Deny _ -> Stats.Deny
  | Disclosure _ -> Stats.Disclosure
  | Tquery _ | Tanswer _ | Tprobe _ | Tstat _ | Tcomplete _ -> Stats.Tabling
  | Raw _ | Cancel _ -> Stats.Other

let cert_size (c : Peertrust_crypto.Cert.t) =
  String.length (Peertrust_crypto.Cert.payload c)
  + List.fold_left
      (fun acc (_, s) -> acc + ((Peertrust_crypto.Bignum.bits s + 7) / 8))
      0 c.Peertrust_crypto.Cert.signatures
  + 16

let literal_size l = String.length (Literal.to_string l)
let rule_size r = String.length (Rule.to_string r)

let size = function
  | Query { goal } -> 8 + literal_size goal
  | Answer { goal; instances; certs } ->
      8 + literal_size goal
      + List.fold_left
          (fun acc (l, proof) ->
            acc + literal_size l
            + match proof with Some p -> 32 * Trace.size p | None -> 0)
          0 instances
      + List.fold_left (fun acc c -> acc + cert_size c) 0 certs
  | Deny { goal; reason } -> 8 + literal_size goal + String.length reason
  | Disclosure { certs; rules } ->
      8
      + List.fold_left (fun acc c -> acc + cert_size c) 0 certs
      + List.fold_left (fun acc r -> acc + rule_size r) 0 rules
  | Raw s -> 8 + String.length s
  | Tquery { goal; path } -> 8 + literal_size goal + (List.length path * 12)
  | Tanswer { goal; instances; final = _ } ->
      8 + literal_size goal
      + List.fold_left (fun acc l -> acc + literal_size l) 0 instances
  | Tprobe { members; _ } | Tcomplete { members; _ } ->
      16 + (List.length members * 12)
  | Tstat { entries; _ } ->
      16
      + List.fold_left
          (fun acc e -> acc + 12 + (List.length e.ts_deps * 16))
          0 entries
  | Cancel { goal } -> 8 + literal_size goal

let cert_count = function
  | Query _ | Deny _ | Raw _ | Cancel _ -> 0
  | Tquery _ | Tanswer _ | Tprobe _ | Tstat _ | Tcomplete _ -> 0
  | Answer { certs; _ } | Disclosure { certs; _ } -> List.length certs

let summary = function
  | Query { goal } -> Printf.sprintf "query %s" (Literal.to_string goal)
  | Answer { goal; instances; certs } ->
      Printf.sprintf "answer %s: %d instance(s), %d cert(s)"
        (Literal.to_string goal) (List.length instances) (List.length certs)
  | Deny { goal; reason } ->
      Printf.sprintf "deny %s (%s)" (Literal.to_string goal) reason
  | Disclosure { certs; rules } ->
      Printf.sprintf "disclose %d cert(s), %d rule(s)" (List.length certs)
        (List.length rules)
  | Raw s -> Printf.sprintf "raw %d byte(s)" (String.length s)
  | Tquery { goal; path } ->
      Printf.sprintf "tquery %s (depth %d)" (Literal.to_string goal)
        (List.length path)
  | Tanswer { goal; instances; final } ->
      Printf.sprintf "tanswer %s: %d instance(s)%s" (Literal.to_string goal)
        (List.length instances)
        (if final then ", final" else "")
  | Tprobe { leader = lp, lk; epoch; members } ->
      Printf.sprintf "tprobe %s/%s epoch %d, %d member(s)" lp lk epoch
        (List.length members)
  | Tstat { leader = lp, lk; epoch; entries } ->
      Printf.sprintf "tstat %s/%s epoch %d, %d table(s)" lp lk epoch
        (List.length entries)
  | Tcomplete { leader = lp, lk; epoch; members } ->
      Printf.sprintf "tcomplete %s/%s epoch %d, %d member(s)" lp lk epoch
        (List.length members)
  | Cancel { goal } -> Printf.sprintf "cancel %s" (Literal.to_string goal)
