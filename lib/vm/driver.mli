(** Single-execution driver ("native run").

    Services syscalls against the process's own OS and handles thread
    operations with the VM primitives.  The baseline the overhead
    experiments compare against, and the loop the LDX engine's
    master/slave passes extend. *)

module Os = Ldx_osim.Os
module Sval = Ldx_osim.Sval

type trace_entry = {
  sys : string;
  args : Sval.t list;
  result : Sval.t;
  counter : int;    (** alignment counter at the syscall *)
  site : int;
  tid : int;
}

type outcome = {
  machine : Machine.t;
  trap : string option;
  cycles : int;
  steps : int;
  syscalls : int;
  stdout : string;
  exit_code : int option;
  trace : trace_entry list;   (** only when [~record_trace] *)
}

(** Thread operations serviced by the VM, not the OS. *)
val is_thread_op : string -> bool

(** Service a thread-operation syscall; [`Block] leaves it pending for
    retry (lock contention, unfinished join).
    @raise Value.Trap on malformed requests. *)
val service_thread_op :
  Machine.t -> Machine.thread -> Machine.pending ->
  [ `Done of Value.t | `Block ]

(** Run a program against a fresh instantiation of the world.
    [?sched] installs an instantiated scheduler state
    ({!Machine.create}); the default is the legacy round-robin seeded
    with [?seed].  [?fprog] is {!Machine.create}'s.

    [?on_os_call] wraps every OS call (a syscall that is not a thread
    op): [on_os_call os p sargs call] gets the process's OS, the
    pending call with its {!Value} arguments, the arguments as the OS
    takes them, and [call], which services the call once and returns
    its result.  What it returns is what the thread receives (and the
    trace records).  The taint tracker counts sinks before [call] and
    wraps source results after it.  Without it the result reaches the
    thread as the OS gave it. *)
val run :
  ?seed:int -> ?sched:Machine.Sched.state -> ?max_steps:int ->
  ?record_trace:bool -> ?fprog:Machine.compiled ->
  ?on_os_call:
    (Os.t -> Machine.pending -> Sval.t list -> (unit -> Sval.t) -> Value.t) ->
  Ldx_cfg.Ir.program -> Ldx_osim.World.t -> outcome

(** Parse, check, lower, optionally instrument, then {!run}. *)
val run_source :
  ?instrument:bool -> ?seed:int -> ?sched:Machine.Sched.state ->
  ?max_steps:int -> ?record_trace:bool -> string -> Ldx_osim.World.t ->
  outcome
