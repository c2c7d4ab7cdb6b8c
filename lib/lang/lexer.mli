(** Hand-written lexer for MiniC. *)

type token =
  | INT of int
  | STRING of string          (** with escapes already decoded *)
  | IDENT of string
  | KW of string              (** fn let if else while for break continue return true false *)
  | PUNCT of string           (** ( ) {| |} [ ] , ; @ *)
  | OP of string              (** arithmetic / comparison / logic / assignment *)
  | EOF

(** A token with its source position (1-based line and column). *)
type t = { tok : token; line : int; col : int }

(** Raised on malformed input: [(message, line, col)]. *)
exception Error of string * int * int

val token_to_string : token -> string

(** Tokenize a whole source string; the result always ends with [EOF].
    Comments are [//] to end of line and [/* ... */] (non-nested).
    @raise Error on malformed input. *)
val tokenize : string -> t list
