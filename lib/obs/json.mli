(** Minimal JSON construction — enough for the trace and metrics
    exporters without an external dependency.  Values are built as a
    tree and serialized compactly (no trailing spaces, stable field
    order = construction order). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Serialize compactly.  Strings are escaped per RFC 8259; floats are
    printed with [%.6g] ([Float nan] and infinities become [null]). *)
val to_string : t -> string

(** [to_buffer b v] appends the serialization of [v] to [b]. *)
val to_buffer : Buffer.t -> t -> unit

(** Escape and quote a string literal. *)
val quote : string -> string

(** Parse a JSON document (RFC 8259 subset: everything [to_string]
    emits, plus exponents and [\u] escapes decoded as UTF-8).  Numbers
    without fraction/exponent parse as [Int], others as [Float]. *)
val parse : string -> (t, string) result

(** {2 Accessors for parsed trees} *)

(** Field of an [Obj], [None] otherwise. *)
val member : string -> t -> t option

(** [Int], or an integral [Float]. *)
val to_int : t -> int option

val to_str : t -> string option
