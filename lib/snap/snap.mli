(** Decouple-point snapshots: versioned, self-contained captures of a
    complete execution's machine and OS — VM machine state
    ([Machine.snapshot]: frames, register slots, per-thread stacks,
    spawn indices, fuel, the scheduler cursor) and the osim world (fds,
    filesystem, network, clock, rng, fault counters) — with restore,
    equality, fingerprinting, and an opt-in one-line serialized form.

    Everything inside a snapshot is {e canonical pure data}: Hashtbls
    are projected to sorted assoc lists at capture, there are no
    closures and no aliases into the live execution.  Equal execution
    states therefore project to structurally equal snapshots, and the
    [Marshal] image of a snapshot is stable — which is what {!equal},
    {!fingerprint} and {!to_string} rest on.

    Capture is a pull operation: an execution that is never snapshotted
    pays nothing (the machine has no snapshot hooks to check).  The
    captured execution may keep running, and one snapshot supports any
    number of {!restore}s — both capture and restore deep-copy values
    through an identity memo, preserving aliasing (including cyclic
    arrays) inside each copy while severing it from the others. *)

module Machine = Ldx_vm.Machine
module Ir = Ldx_cfg.Ir

(** {1 The osim world, canonically} *)

type sfd =
  | S_fd_file of { sfd_path : string; sfd_pos : int }
  | S_fd_sock of string

type sentry =
  | S_file of { sdata : string; smtime : int }
  | S_dir

type sos = {
  so_pid : int;
  so_fds : (int * sfd) list;          (** fd-sorted *)
  so_next_fd : int;
  so_clock : int;
  so_rng : int;
  so_stdout : string;
  so_next_addr : int;
  so_malloc_log : int list;
  so_retaddr_log : int list;
  so_exit_code : int option;
  so_vfs_clock : int;
  so_vfs : (string * sentry) list;    (** path-sorted *)
  so_net : (string * string list * string list) list;
      (** name-sorted: (endpoint, remaining inbox, raw outbox) *)
  so_faults : Ldx_osim.Fault.state option;
      (** occurrence counters preserved (pure data) *)
}

(** {1 Snapshots} *)

(** A machine and its OS world, nothing else: no profile, no obs hooks,
    no lock gate. *)
type t = {
  sp_version : int;                   (** format version; see {!version} *)
  sp_machine : Machine.snapshot;
  sp_os : sos;
}

(** The current snapshot format version (4: the profile counters are
    gone; 3 dropped the stepper mode and a pending syscall's destination
    name; 2 dropped the barrier status and gave the scheduler state its
    last decision). *)
val version : int

(** Capture the machine and its OS world.  Safe at any driver-visible
    point; the machine keeps running unperturbed. *)
val capture : Machine.t -> t

(** Canonical projection of an OS world (the osim half of {!capture}). *)
val sos_of_os : Ldx_osim.Os.t -> sos

(** Rebuild a private OS world from its projection: hooks unset,
    fault counters where they stood. *)
val os_of_sos : sos -> Ldx_osim.Os.t

(** Rebuild a runnable machine over a freshly rebuilt OS world.
    [prog] must be the program the snapshot was captured from (cheap
    shape validation raises [Invalid_argument] on mismatch — callers
    wanting a proper verdict should check {!fingerprint} first).
    [fprog] is [prog]'s compilation: the capturing machine's, or one
    {!Machine.compile} shared by every restore.  The scheduler resumes
    from its recorded state.  The machine is unprofiled, and its obs
    hooks and lock gate start unset. *)
val restore : fprog:Machine.compiled -> Ir.program -> t -> Machine.t

(** {1 Identity} *)

(** Structural equality over the canonical [Marshal] image — robust to
    cyclic values, insensitive to Hashtbl history by construction. *)
val equal : t -> t -> bool

(** Digest of the canonical [Marshal] image ([Store.fingerprint]
    discipline).  Two captures of identical execution states agree;
    any state difference (and the format version) changes it. *)
val fingerprint : t -> string

(** {1 Wire form}

    A single line — ["ldx-snap/4 <digest> <hex payload>"] — so a
    snapshot can ride anywhere a newline-free string can.  A string of
    another format version is refused at its header, before anything is
    unmarshalled. *)

val header : string

val to_string : t -> string

(** Parse and verify: header, version, digest (torn or corrupt payloads
    are rejected, never half-decoded). *)
val of_string : string -> (t, string) result
