(** Per-process view of the simulated OS: fd table + syscall dispatch.

    Each execution (master, slave, taint baseline) owns one [t].  The LDX
    engine decides which *result value* an execution observes (its own,
    or one copied from the master when aligned); this module only
    provides honest syscall semantics over the process's private state. *)

type fd_entry =
  | Fd_file of { path : string; mutable pos : int }
  | Fd_sock of string        (** endpoint name *)

type t = {
  vfs : Vfs.t;
  net : Net.t;
  pid : int;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable clock : int;
  mutable rng : int;
  stdout : Buffer.t;
  mutable next_addr : int;        (** bump allocator for [malloc] *)
  mutable malloc_log : int list;  (** requested sizes, most recent first *)
  mutable retaddr_log : int list; (** observed "return addresses" *)
  mutable exit_code : int option;
  mutable faults : Fault.state option;
      (** fault-injection state (per-execution occurrence counters);
          [None], the default, costs one pointer comparison at dispatch.
          Snapshots copy it with the counters where they stood
          ([Fault.copy_state]). *)
  mutable on_exec : (t -> string -> Sval.t list -> Sval.t -> unit) option;
      (** observability hook: fires after every successfully serviced
          syscall with its result ([None], the default, costs one
          pointer comparison); installed per-process by the engine and
          never copied *)
  mutable on_fault : (t -> string -> int -> Fault.action -> unit) option;
      (** fires when a fault is injected (process, syscall, site,
          action); installed by the engine, never copied *)
}

(** Instantiate a world.  [pid] defaults to 1000 (the engine uses 1001
    for the slave, 2000 for taint baselines). *)
val create : ?pid:int -> World.t -> t

(** Raised on malformed syscall invocations (wrong arity/types). *)
exception Os_error of string

(** Execute a syscall against this process's state.  [site] is the
    static call-site id used by fault rules with a [#SITE] key
    (default [-1]: no site information).  If a fault plan is installed
    ({!set_faults}) it is consulted first; a firing rule replaces or
    perturbs the honest result.
    @raise Os_error on malformed invocations. *)
val exec : ?site:int -> t -> string -> Sval.t list -> Sval.t

(** Install (or clear) a fault plan; instantiates fresh per-execution
    occurrence counters.  An empty plan clears.  Both the master's and a
    from-scratch slave's OS instantiate the SAME immutable plan, so
    their fault schedules agree — the decoupled-replay half of the
    soundness argument (DESIGN.md, "Fault model"). *)
val set_faults : t -> Fault.t option -> unit

(** Number of faults injected so far in this process. *)
val faults_injected : t -> int

val stdout_contents : t -> string
val exited : t -> bool

(** The taint-tracking resource of an open fd: ["path:<p>"] or
    ["ep:<name>"]. *)
val resource_of_fd : t -> int -> string option

(** Resources a syscall touches, resolving fd arguments through this
    process's fd table — the keys of Sec. 7's resource tainting. *)
val resource_of_syscall : t -> string -> Sval.t list -> string list
