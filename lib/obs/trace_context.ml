type t = { trace_id : int; parent_span : int; sampled : bool }

let make ?(sampled = true) ~trace_id ~parent_span () =
  if trace_id < 1 then invalid_arg "Trace_context.make: trace_id must be >= 1";
  if parent_span < 0 then
    invalid_arg "Trace_context.make: parent_span must be >= 0";
  { trace_id; parent_span; sampled }

let child ctx ~parent_span = { ctx with parent_span }

(* The traceparent shape — version - trace id - parent span - flags —
   with fixed-width lowercase hex fields, for printing. *)
let pp fmt ctx =
  Format.fprintf fmt "pt1-%016x-%016x-%s" ctx.trace_id ctx.parent_span
    (if ctx.sampled then "01" else "00")

let equal a b = a = b
