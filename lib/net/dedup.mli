(** Capacity-capped set of delivered envelope ids.

    The reactor remembers every delivered envelope id to suppress
    duplicate deliveries (transport-level duplication, retransmitted
    copies).  Unbounded, that memory grows for the life of a session —
    the same leak the transcript ring fixed for the network log.  This
    structure keeps the most recent [cap] ids in FIFO order: once full,
    remembering a new id forgets the oldest one.

    Forgetting an id re-opens a window for a very late duplicate of a
    very old message; dispatch is idempotent enough that this degrades to
    a counted re-delivery, not corruption.  Evictions are counted
    ([reactor.dedup_evictions]) so a sweep can verify the window was
    never re-entered. *)

type t

val create : cap:int -> t
(** An empty set: its table is small and grows with the ids it holds, so
    an idle ring costs a few dozen words whatever [cap] is.
    @raise Invalid_argument when [cap < 1]. *)

val mem : t -> int -> bool

val add : t -> int -> bool
(** Remember an id (no-op if already present); [true] when an old id was
    evicted to make room. *)

val length : t -> int
val evictions : t -> int
