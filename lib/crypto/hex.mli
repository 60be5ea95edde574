(** The library's one hex codec for byte strings.

    Encoding writes two lowercase digits per byte.  Decoding is its
    exact inverse and nothing more: it accepts only pairs of [0-9a-f],
    so every byte string has exactly one hex text, and a text that
    decodes re-encodes to itself. *)

val encode : string -> string

val decode : string -> string option
(** [None] on an odd length or on any character outside [0-9a-f]. *)
