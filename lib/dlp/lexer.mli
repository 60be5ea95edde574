(** Hand-written lexer for the PeerTrust policy language.

    Line comments start with [%] or [#] and run to end of line. *)

type token =
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | DOT
  | ARROW  (** [<-] *)
  | AT  (** [@] *)
  | DOLLAR  (** [$] *)
  | SIGNEDBY  (** the keyword [signedBy] *)
  | IDENT of string  (** lower-case identifier *)
  | VAR of string  (** upper-case or [_]-initial identifier *)
  | STRING of string
  | INT of string
      (** a run of decimal digits, unsigned; the parser reads its value
          (and the sign of a negative literal) and checks its range *)
  | OP of string
      (** comparison: [=], [!=], [<], [<=], [>], [>=]; or arithmetic:
          [+], [-], [*], [/] *)
  | EOF

type located = { token : token; line : int; col : int }

exception Error of string * int * int
(** [Error (message, line, col)] *)

val tokenize : string -> located list
(** Tokenize a full program text.  The result always ends with [EOF].
    @raise Error on an illegal character or unterminated string. *)

val pp_token : Format.formatter -> token -> unit
