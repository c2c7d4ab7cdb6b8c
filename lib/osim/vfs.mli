(** An in-memory virtual filesystem.

    Paths are '/'-separated strings; directories must exist before files
    are created under them (the root always exists).  The LDX engine
    builds the slave its own filesystem from the world, so a resource a
    misaligned operation touches is already private to it (Sec. 7). *)

type entry =
  | File of { mutable data : string; mutable mtime : int }
  | Dir

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable clock : int;   (** advances on mutations; source of mtimes *)
}

val create : unit -> t

(** Prefix a leading '/' when missing; the empty path is the root. *)
val normalize : string -> string

(** Parent directory of a normalized path ("/" for top-level entries). *)
val parent : string -> string

val exists : t -> string -> bool
val is_dir : t -> string -> bool
val lookup : t -> string -> entry option

(** Create or truncate a file; the parent directory must exist. *)
val create_file : t -> string -> (unit, string) result

val read_file : t -> string -> (string, string) result

(** Create-or-replace semantics; the parent directory must exist. *)
val write_file : t -> string -> string -> (unit, string) result

(** Appends; creates the file when absent. *)
val append_file : t -> string -> string -> (unit, string) result

val size : t -> string -> (int, string) result
val mkdir : t -> string -> (unit, string) result
val unlink : t -> string -> (unit, string) result
val rename : t -> string -> string -> (unit, string) result

(** Immediate children, sorted (deterministic). *)
val readdir : t -> string -> (string list, string) result
