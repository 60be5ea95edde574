type t = { mutable ticks : int }

let create () = { ticks = 0 }
let now t = t.ticks
let advance_to t tick = if tick > t.ticks then t.ticks <- tick
