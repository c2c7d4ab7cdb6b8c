(** The MiniC virtual machine.

    Event-driven: {!run_until_event} executes instructions (scheduling
    threads through the pluggable scheduler, {!Sched}) until the driver
    must intervene — a syscall ({!provide_result} resumes), all threads
    waiting, or process end.  The VM never services syscalls itself,
    which is what lets the LDX engine interpose its master/slave
    wrappers.  Scheduling decisions and loop backedge barriers need no
    driver and are made in place: a barrier ends the quantum, and a
    thread that was the only runnable one at its pick refills its own
    quantum without leaving the flat stepper.

    Counter state (Sec. 4-6 of the paper): each thread carries a stack of
    counter segments; a segment holds the counter value and the stack of
    (loop id, iteration) pairs maintained by the instrumentation.
    Fresh-frame calls (indirect calls, calls to recursive functions) push
    a segment.

    Execution form: {!create} compiles the program once to flat bytecode
    ({!Ldx_cfg.Flat}) — integer opcodes, register slots, resolved jump
    targets, expressions as closures over the register file — or takes
    one already compiled from the same program, and the stepper
    dispatches over that form. *)

module Ir = Ldx_cfg.Ir
module Flat = Ldx_cfg.Flat
module Sched = Ldx_sched.Scheduler

(** A compiled program: the flat form with each expression closed over
    the register file ({!Eval.compile_flat}).  Immutable after
    {!compile}, so any number of machines — including machines running
    in different domains — may share one. *)
type compiled = Eval.code Flat.program

type seg = {
  mutable cnt : int;
  mutable loops : (int * int) list;  (** (loop id, iteration), innermost first *)
}

type pending = {
  sys : string;
  sysargs : Value.t list;
  dst_slot : int;            (** destination register slot; -1 = none *)
  site : int;
}

(** A loop backedge barrier as {!t.on_obs_barrier} sees it: the loop
    and the counter decrement of its reset. *)
type barrier = { loop : int; dec : int }

type status =
  | Runnable
  | Awaiting of pending      (** at a syscall, waiting for the driver *)
  | Finished of Value.t

type frame = {
  fn : Ir.func;
  fl : Eval.code Flat.func;  (** the function's compiled form *)
  mutable bid : int;         (** current block *)
  mutable idx : int;         (** pc into [fl.code] *)
  regs : Value.t array;      (** register slots; {!Value.undef} = unset *)
  ret_dst : int;             (** caller slot for the result; -1 = none *)
  fresh : bool;              (** pushed a counter segment *)
  prof_base : int;
      (** the function's base in the profile's flat block numbering
          (0 when profiling is off); a block's flat index is
          [prof_base + bid] *)
}

type thread = {
  tid : int;
  spawn_index : int;         (** pairing key across dual executions *)
  mutable frames : frame list;
  mutable segs : seg list;
  mutable status : status;
  jmp_bufs : (string, jmp_buf) Hashtbl.t;
  mutable alarm : (int * int) option;
      (** (syscalls until delivery, signo) — see {!set_alarm} *)
  mutable pending_signals : int list;
}

(** setjmp buffer: resume point plus a deep copy of the counter-segment
    stack, which longjmp restores (Sec. 6). *)
and jmp_buf = {
  j_frames : frame list;
  j_bid : int;
  j_idx : int;
  j_dst : int;               (** slot the setjmp writes; -1 = none *)
  j_segs : (int * (int * int) list) list;
}

type lock_state = {
  mutable owner : int option;
  mutable acquisitions : int;
}

type t = {
  prog : Ir.program;
  fprog : compiled;          (** compiled at, or handed to, {!create} *)
  os : Ldx_osim.Os.t;
  mutable threads : thread list;  (** creation order *)
  mutable by_spawn : thread array;
      (** spawn_index -> thread (only indexes < [spawn_count] valid) *)
  mutable next_tid : int;
  mutable spawn_count : int;
  mutable scratch : int array array;
      (** exact-size runnable-set buffers, reused across picks *)
  locks : (string, lock_state) Hashtbl.t;
  sig_handlers : (int, string) Hashtbl.t;
      (** signal number -> handler function name *)
  mutable lock_trace : (string * int) list;
      (** (lock key, spawn_index) grants, most recent first *)
  mutable lock_gate : (string -> int -> bool) option;
      (** slave mode: may this thread take this free lock now? *)
  sched : Sched.state;
      (** the pluggable scheduler ({!Ldx_sched}): owns the pick cursor
          and quantum choice; defaults to {!Sched.legacy}, bit-identical
          to the historical hard-wired round-robin *)
  mutable steps : int;
  mutable cycles : int;          (** virtual clock (see {!Cost}) *)
  mutable syscalls : int;
  mutable instr_events : int;    (** instrumentation instrs executed *)
  mutable finished : bool;
  mutable trap : string option;
  max_steps : int;
  mutable cnt_sum : int;
  mutable cnt_max : int;
  mutable cnt_samples : int;
  mutable max_seg_depth : int;
  mutable on_obs_syscall : (t -> thread -> pending -> unit) option;
      (** observability hook: fires at each syscall return, after the
          syscall cost is charged and before signal handlers are pushed
          (the thread's position is still the syscall's); [None] (the
          default) costs one pointer comparison *)
  mutable on_obs_barrier : (t -> thread -> barrier -> unit) option;
      (** fires at each loop-backedge barrier, after the counter reset
          and cost charge *)
  mutable on_obs_cnt_sample : (t -> thread -> int -> unit) option;
      (** fires at each dynamic counter sample (one per syscall) with
          the sampled counter value *)
  mutable on_obs_sched : (t -> Sched.decision -> unit) option;
      (** fires at each scheduling decision, before the chosen thread's
          quantum runs; the decision record is built only for it (or
          for a recording scheduler) *)
  prof : Profile.t option;
      (** cost-attribution counters mirroring every virtual-clock
          charge ({!Profile}); [None] = off, one pointer comparison per
          charge site.  Never consulted by execution semantics. *)
}

type event =
  | Ev_syscall of thread
  | Ev_idle     (** no runnable thread; all pending on the driver *)
  | Ev_done
  | Ev_trap of string

(** Stable key for lock ids and jmp buffers.
    @raise Value.Trap on non-scalar values. *)
val lock_key : Value.t -> string

(** [?sched] installs an instantiated scheduler state (one per machine:
    states are mutable and must not be shared between machines);
    without it the machine runs {!Sched.legacy} seeded with [?seed].
    [?prof] attaches a cost-attribution profile ({!Profile}): the
    machine mirrors every virtual-clock charge into it without
    perturbing execution (one profile per program — do not share
    between machines running different programs).
    [?fprog] skips compilation: it must be {!compile} of this very
    [prog] (physically equal), typically another machine's [fprog]
    over the same program — the engine builds every slave-side machine
    of one master recording from the master's.
    @raise Invalid_argument if [main] is missing or takes parameters,
    or [?fprog] was compiled from another program. *)
val create :
  ?seed:int -> ?sched:Sched.state -> ?max_steps:int -> ?prof:Profile.t ->
  ?fprog:compiled -> Ir.program -> Ldx_osim.Os.t -> t

val cur_seg : thread -> seg
val cur_frame : thread -> frame

(** Raw (counter, loops) stack, outermost segment first — the input of
    {!Ldx_core.Align.of_thread}. *)
val position_of : thread -> (int * (int * int) list) list

(** Current counter of the active segment. *)
val counter_of : thread -> int

(** Spawn a thread running [fname arg]; returns its tid. *)
val spawn : t -> string -> Value.t -> int

val find_thread : t -> int -> thread option

(** Acquire if free and the gate (when installed) permits; grants are
    appended to [lock_trace]. *)
val try_lock : t -> thread -> Value.t -> bool

(** Release; [false] when the thread does not own the lock. *)
val unlock : t -> thread -> Value.t -> bool

(** [Some v] when the target finished ([Int (-1)] for unknown tids). *)
val try_join : t -> int -> Value.t option

(** Snapshot the resume point and counter stack (call while the thread
    is [Awaiting] the setjmp); [dst] is the slot a later longjmp makes
    the setjmp return 1 in — the pending call's [dst_slot]. *)
val do_setjmp : t -> thread -> Value.t -> dst:int -> unit

(** Unwind and restore; [false] when the buffer was never set. *)
val do_longjmp : t -> thread -> Value.t -> bool

(** {2 Signals (Sec. 7)}

    Handlers run like indirect calls — a fresh counter segment is pushed
    for the handler frame, so syscalls inside handlers align
    independently of the interrupted context.  Delivery happens at
    syscall returns; unhandled signals are ignored. *)

val register_signal : t -> int -> string -> unit

(** The signal number [alarm] delivers. *)
val sigalrm : int

(** Deliver [signo] to this thread after [n] further syscall events;
    [n <= 0] cancels. *)
val set_alarm : thread -> int -> int -> unit

(** Queue a signal for delivery at the thread's next syscall return. *)
val raise_signal : thread -> int -> unit

(** Answer a pending syscall: stores the value, charges the syscall
    cost, marks the thread runnable.
    @raise Invalid_argument if the thread is not [Awaiting]. *)
val provide_result : t -> thread -> Value.t -> unit

(** Run until the next event (see module doc).  Traps become [Ev_trap]
    and finish the machine; a scheduler pick naming an unknown or
    non-runnable spawn index traps rather than escaping as a raw
    exception. *)
val run_until_event : t -> event

(** @raise Invalid_argument if the thread is not [Awaiting]. *)
val pending_of : thread -> pending

(** Average dynamic counter value over syscall events (Table 1). *)
val dyn_cnt_avg : t -> float

(** {2 Decouple-point snapshots}

    A {!snapshot} is a canonical, self-contained pure-data projection
    of the machine: no Hashtbls (sorted assoc lists instead), no
    closures, no aliases into the live machine.  Equal machine states
    project to structurally equal snapshots regardless of Hashtbl
    capacity or insertion history, and a snapshot contains nothing
    [Marshal] cannot serialize — the properties [Ldx_snap]'s [equal],
    [fingerprint] and wire form rest on.

    Not captured: the program (immutable, passed back to {!restore}),
    the profile (a restored machine is unprofiled), the obs hooks and
    lock gate (reinstall after restore), the OS world (snapshot it
    alongside with [Ldx_snap]'s canonical projection), and the scratch
    buffers.  Capture is a pull operation: a machine that is never
    snapshotted pays nothing. *)

type sframe = {
  sf_fname : string;
  sf_bid : int;
  sf_idx : int;
  sf_regs : Value.t array;  (** undef slots hold [Unit]; see [sf_undef] *)
  sf_undef : bool array;    (** per-slot: the live slot was {!Value.undef} *)
  sf_ret_dst : int;
  sf_fresh : bool;
}

type sjmp = {
  sj_key : string;
  sj_frames : int list;     (** frame-table indexes, top first *)
  sj_bid : int;
  sj_idx : int;
  sj_dst : int;
  sj_segs : (int * (int * int) list) list;
}

type spending = {
  sp_sys : string;
  sp_args : Value.t list;
  sp_dst_slot : int;
  sp_site : int;
}

type sstatus =
  | S_runnable
  | S_awaiting of spending
  | S_finished of Value.t

type sthread = {
  sth_tid : int;
  sth_spawn : int;
  sth_table : sframe array;
      (** every frame reachable from the stack or a jmp_buf — frames
          form a DAG (jmp_bufs alias live and popped frames), so they
          are deduplicated by identity into a table *)
  sth_stack : int list;     (** [th.frames] as table indexes, top first *)
  sth_segs : (int * (int * int) list) list;
  sth_status : sstatus;
  sth_jmps : sjmp list;     (** key-sorted *)
  sth_alarm : (int * int) option;
  sth_signals : int list;
}

type snapshot = {
  sn_threads : sthread array;  (** creation order *)
  sn_next_tid : int;
  sn_spawn_count : int;
  sn_locks : (string * (int option * int)) list;
      (** key-sorted: lock -> (owner tid, acquisitions) *)
  sn_handlers : (int * string) list;  (** signo-sorted *)
  sn_lock_trace : (string * int) list;
  sn_sched : Sched.state;      (** private copy, decision log preserved *)
  sn_steps : int;
  sn_cycles : int;
  sn_syscalls : int;
  sn_instr_events : int;
  sn_finished : bool;
  sn_trap : string option;
  sn_max_steps : int;
  sn_cnt_sum : int;
  sn_cnt_max : int;
  sn_cnt_samples : int;
  sn_max_seg_depth : int;
}

(** Capture the complete machine state.  Values are deep-copied through
    an identity memo (aliasing — including cyclic arrays — is preserved
    inside the snapshot, severed from the machine), so the machine may
    keep running and one snapshot supports any number of restores.
    Safe at any driver-visible point (between events, or while threads
    await the driver). *)
val snapshot : t -> snapshot

(** Compile [prog] to the VM's execution form: the flat lowering, then
    one closure per expression, with builtin calls going to [builtin]
    (default {!Eval.apply_builtin}; the taint tracker passes its model's
    rule).  {!create} does this unless it is handed a compiled program;
    call it directly to share one compilation among machines over the
    same program, or for restore paths with no machine to borrow a
    compiled program from (e.g. a snapshot arriving from another process
    via [Ldx_snap]). *)
val compile :
  ?builtin:(string -> Value.t list -> Value.t) -> Ir.program -> compiled

(** Rebuild a machine from a snapshot over [os] (which must itself be
    consistent with the capture point, e.g. rebuilt by [Ldx_snap] from
    its projection).  The scheduler resumes from a private copy of the
    snapshot's state.  The machine is unprofiled, and its obs hooks and
    lock gate start unset.
    @raise Invalid_argument when the snapshot does not fit [prog]
    (unknown function, register-file shape mismatch) — the cheap guard
    behind [Ldx_snap]'s fingerprint validation. *)
val restore :
  prog:Ir.program -> fprog:compiled -> Ldx_osim.Os.t -> snapshot -> t
