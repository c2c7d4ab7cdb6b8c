(** The initial environment of an execution: files, directories, network
    scripts, clock origin and rng seed.  A world is a pure description,
    instantiated into live {!Vfs}/{!Net} state per process — master and
    slave each get their own instantiation of the same world. *)

type t = {
  dirs : string list;
  files : (string * string) list;
  net_scripts : (string * string list) list;
  clock_origin : int;
  rng_seed : int;
}

val empty : t

val with_file : string -> string -> t -> t
val with_dir : string -> t -> t
val with_endpoint : string -> string list -> t -> t
val with_seed : int -> t -> t

(** Builds the filesystem, creating parent directories implicitly.
    @raise Failure on inconsistent descriptions. *)
val instantiate_vfs : t -> Vfs.t

val instantiate_net : t -> Net.t
