(* The benchmark's own span recorder: one span around each call the
   benchmark makes into a layer, kept in memory and written out as JSONL
   when the round ends.  Untraced rounds record nothing. *)

module Json = Peertrust_obs.Json

let now () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  t0 : int64;
  t1 : int64;
  nego : int;  (** negotiation index, or -1 when the call serves many *)
  label : string;  (** the peer or principal a set-up span is about *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let current = ref 0

(* Seconds and count per span name, kept as spans close. *)
let totals : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16

let add_total name secs =
  match Hashtbl.find_opt totals name with
  | Some (s, n) ->
      s := !s +. secs;
      incr n
  | None -> Hashtbl.add totals name (ref secs, ref 1)

(* [with_ name f] times [f] as a child of the innermost open span. *)
let with_ ?(nego = -1) ?(label = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    let t1 = now () in
    recorded := { id; parent; name; t0; t1; nego; label } :: !recorded;
    add_total name (seconds_between t0 t1);
    r
  end

(* [time name f] adds [f]'s duration to [name]'s total without keeping
   a span: for the harness's own calls, too frequent to keep one by one. *)
let time name f =
  if not !enabled then f ()
  else begin
    let t0 = now () in
    let r = f () in
    add_total name (seconds_between t0 (now ()));
    r
  end

(* Total seconds and count of the spans called [name]. *)
let total name =
  match Hashtbl.find_opt totals name with
  | Some (s, n) -> (!s, !n)
  | None -> (0., 0)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          let fields =
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("name", Json.Str s.name);
              ("start_ns", Json.Int (Int64.to_int s.t0));
              ("end_ns", Json.Int (Int64.to_int s.t1));
            ]
            @ (if s.nego >= 0 then [ ("nego", Json.Int s.nego) ] else [])
            @ if s.label <> "" then [ ("label", Json.Str s.label) ] else []
          in
          output_string oc (Json.to_string (Json.Obj fields));
          output_char oc '\n')
        (List.rev !recorded))
