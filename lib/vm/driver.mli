(** Single-execution driver ("native run") and the one event loop.

    {!drive} is the one event loop, the only caller of the machine's
    [run_until_event]: it services thread operations with the VM
    primitives and hands every other syscall to a callback.  {!run}
    services those against the process's own OS: the baseline the
    overhead experiments compare against.  The LDX engine's master,
    slave, prefix and resume passes and TightLip are {!drive} with
    their own callbacks. *)

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

(** [os_exec os p sargs] services [p] against [os].
    @raise Value.Trap ["os-error: ..."] when the OS refuses the call. *)
val os_exec : Os.t -> Machine.pending -> Sval.t list -> Sval.t

(** [drive ~blocked ~on_os_call m] runs [m] until it finishes or
    pauses.  Thread ops are serviced with the VM primitives; one that
    blocks (lock contention, unfinished join) joins [blocked] and is
    retried after every event.  Every other syscall goes to
    [on_os_call th p sargs] (the arguments as the OS takes them), whose
    result the thread receives.

    A {!Value.Trap} raised while a call is serviced finishes the machine
    with that trap, and the thread receives nothing: no result, no
    [Cost.syscall], no trace entry.  Other exceptions leave [drive].

    - [?pause th p] is asked at every syscall event, thread ops
      included, before the call is serviced; [true] returns
      [`Paused th] with [th] still awaiting.  It must answer [false] for
      a call it cannot judge.
    - [?first] services that awaiting thread (the one a pause returned)
      before the loop resumes, without asking [pause].
    - [?on_stuck] is asked when every thread is blocked; [true] after it
      unblocked something (the slave taints a gated lock) retries once
      more before the [deadlock] trap.
    - [?trace] collects, newest first, each OS call and each thread op
      whose first service completes it (a retry's completion is not
      recorded). *)
val drive :
  ?pause:(Machine.thread -> Machine.pending -> bool) ->
  ?first:Machine.thread ->
  ?on_stuck:(Machine.thread list -> bool) ->
  ?trace:trace_entry list ref ->
  blocked:Machine.thread list ref ->
  on_os_call:(Machine.thread -> Machine.pending -> Sval.t list -> Value.t) ->
  Machine.t ->
  [ `Done | `Paused of Machine.thread ]

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
