type t = {
  id : int;
  seq : int;
  from_ : string;
  target : string;
  sent_at : int;
  deliver_at : int;
  attempt : int;
  incarnation : int;
  trace : Peertrust_obs.Trace_context.t option;
  payload : Message.payload;
}

let summary e =
  Printf.sprintf "#%d/%d %s -> %s @%d%s%s: %s" e.id e.seq e.from_ e.target
    e.deliver_at
    (if e.attempt > 0 then Printf.sprintf " (retry %d)" e.attempt else "")
    (if e.incarnation > 0 then Printf.sprintf " (inc %d)" e.incarnation else "")
    (Message.summary e.payload)
