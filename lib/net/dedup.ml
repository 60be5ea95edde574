type t = {
  cap : int;
  tbl : (int, unit) Hashtbl.t;
  order : int Queue.t;  (* insertion order; front = oldest *)
  mutable evicted : int;
}

let create ~cap =
  if cap < 1 then invalid_arg "Dedup.create: cap must be >= 1";
  (* Sized by use: the table starts small and doubles as ids arrive. *)
  { cap; tbl = Hashtbl.create 16; order = Queue.create (); evicted = 0 }

let mem t id = Hashtbl.mem t.tbl id

let add t id =
  if Hashtbl.mem t.tbl id then false
  else begin
    Hashtbl.add t.tbl id ();
    Queue.add id t.order;
    if Hashtbl.length t.tbl > t.cap then begin
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.tbl oldest;
      t.evicted <- t.evicted + 1;
      true
    end
    else false
  end

let length t = Hashtbl.length t.tbl
let evictions t = t.evicted
