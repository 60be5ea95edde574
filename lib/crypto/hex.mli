(** The library's one hex codec for byte strings.

    Encoding writes two lowercase digits per byte.  Decoding is its
    exact inverse and nothing more: it accepts only pairs of [0-9a-f],
    so every byte string has exactly one hex text, and a text that
    decodes re-encodes to itself. *)

val encode : string -> string

val encode_to : Buffer.t -> string -> unit
(** [encode] appended to a buffer. *)

val decode : string -> string option
(** [None] on an odd length or on any character outside [0-9a-f]. *)

val decode_sub : string -> pos:int -> len:int -> string option
(** [decode] of the [len] characters of [h] from [pos], without copying
    them out first.  @raise Invalid_argument if they are not inside
    [h]. *)
