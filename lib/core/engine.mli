(** The LDX dual-execution engine (Sec. 3-7 of the paper).

    The master executes against the (simulated) OS and publishes every
    syscall outcome tagged with its {!Align.t} position.  The slave
    consumes outcomes by position: an outcome at the slave's exact
    position with the same PC and parameters is coupled (the result is
    copied, mutated when the syscall is a configured source); the paper's
    three divergence cases — syscall missing in one execution, same
    counter but different PC, aligned but different parameters — fall
    out of the position order, are tolerated, and are reported at sinks.

    Master and slave are composed sequentially with virtual two-CPU
    timing (outcomes carry the producing clock; the slave's clock
    fast-forwards on copies) — DESIGN.md argues observation-equivalence
    with the paper's spin-loop coupling. *)

module Machine = Ldx_vm.Machine
module Sched = Ldx_sched.Scheduler
module Schedule = Ldx_sched.Schedule
module Os = Ldx_osim.Os
module Sval = Ldx_osim.Sval
module World = Ldx_osim.World
module Ir = Ldx_cfg.Ir

(** {1 Configuration} *)

(** Which dynamic syscalls are mutated sources.  All present fields must
    match; [src_nth] selects the n-th dynamic match (1-based). *)
type source_spec = {
  src_sys : string option;    (** syscall name, e.g. ["recv"] *)
  src_site : int option;      (** static site id *)
  src_arg : string option;    (** substring of arg0 or touched resource *)
  src_nth : int option;
}

val source :
  ?sys:string -> ?site:int -> ?arg:string -> ?nth:int -> unit -> source_spec

type sink_config =
  | Output_syscalls           (** write/send/print/malloc/retaddr *)
  | Network_outputs           (** send only *)
  | File_outputs              (** write/print *)
  | Attack_sinks              (** retaddr + malloc sizes (Sec. 8 attacks) *)

(** The named sink sets, one row each: the name the command line takes,
    the set, and the tag {!slave_fingerprint} and
    [Campaign.fingerprint] hash.  Journals persist the tag. *)
val sink_sets : (string * sink_config * string) list

(** The fingerprint tag of a sink set. *)
val sinks_tag : sink_config -> string

type config = {
  sources : source_spec list;
  sinks : sink_config;
  strategy : Mutation.strategy;
  master_seed : int;          (** scheduler seed of the master *)
  slave_seed : int;
  max_steps : int;            (** per-execution fuel *)
  record_trace : bool;        (** keep the per-syscall alignment log *)
  check_final_state : bool;
      (** future-work extension: after the run, diff the two
          filesystems (contents and mtimes) and report divergent files
          — leaks through file state/metadata that never cross a
          configured sink syscall *)
  faults : Ldx_osim.Fault.t option;
      (** environment fault plan, shared by both sides (a master-side
          field like [sinks]): each OS instantiates the same immutable
          plan with fresh occurrence counters, so a decoupled slave
          replays faults identically while coupled slaves copy faulted
          results — DESIGN.md "Fault model" *)
  master_sched : Sched.spec option;
      (** scheduler spec of the master pass; [None] = the legacy
          round-robin seeded with [master_seed].  Specs are immutable
          ({!Ldx_sched.Scheduler}): each pass instantiates its own
          state *)
  slave_sched : Sched.spec option;
      (** scheduler spec of slave passes; [None] = legacy from
          [slave_seed].  A slave-side field: campaign tasks may
          override it per task *)
  record_sched : bool;
      (** record both sides' scheduling decision logs; the master's is
          exposed as [master_out.msched] / [result.master_schedule]
          (the input of schedule replay and bounded exploration) *)
}

(** recv sources, output sinks, off-by-one, seeds 0, tracing off,
    no faults, legacy schedulers. *)
val default_config : config

(** The scheduler state one side instantiates: the given spec, or the
    legacy round-robin from [seed] when [None]. *)
val sched_state_of : record:bool -> Sched.spec option -> seed:int -> Sched.state

(** The sink predicate of a configuration (sys, site, args). *)
val sink_pred : sink_config -> string -> int -> Sval.t list -> bool

(** {1 Reports} *)

type divergence_kind =
  | Args_differ          (** aligned sink, different parameters (case 3) *)
  | Different_syscall    (** aligned counter, different PC (case 2) *)
  | Missing_in_slave     (** master-only sink (case 1) *)
  | Missing_in_master    (** slave-only sink *)
  | File_state_differs   (** final-state check: contents diverged *)
  | File_metadata_differs(** final-state check: same data, mtimes off *)

val kind_to_string : divergence_kind -> string

(** The paper's divergence-case number of a report kind: 1 for
    missing-in-either-execution, 2 for different-syscall, 3 for
    args-differ; 0 for the final-state extension kinds.  This is the
    [case] carried by [Ldx_obs.Event.Divergence] events, so a recording
    sink's [divergence.caseN] counters tally the run's reports. *)
val case_of_kind : divergence_kind -> int

type sink_report = {
  kind : divergence_kind;
  sys : string;
  site : int;
  position : string;
  master_args : Sval.t list option;
  slave_args : Sval.t list option;
}

val report_to_string : sink_report -> string

type exec_summary = {
  cycles : int;
  steps : int;
  syscalls : int;
  stdout : string;
  trap : string option;
  exit_code : int option;
  faults_injected : int;   (** environment faults fired in this side *)
}

(** Structured failure taxonomy over [exec_summary.trap] — the variant
    form of {!Ldx_obs.Event.trap_class} (the single string-level source
    of truth shared with the metrics counters). *)
type failure_class = Healthy | Fuel | Deadlock | Os_failure | Vm_trap

val classify_trap : string option -> failure_class
val failure_class_to_string : failure_class -> string

(** One alignment decision of the slave-side wrapper (in slave order);
    recorded only under [config.record_trace]. *)
type trace_action =
  | T_copied
  | T_sink_match
  | T_args_differ
  | T_path_diff
  | T_slave_only
  | T_master_only
  | T_decoupled

val trace_action_to_string : trace_action -> string

type trace_entry = {
  t_pos : string;
  t_action : trace_action;
  t_master : (string * Sval.t list) option;
  t_slave : (string * Sval.t list) option;
}

type result = {
  trace : trace_entry list;
  reports : sink_report list;
  leak : bool;                     (** any sink report at all *)
  tainted_sinks : int;             (** = [List.length reports] *)
  total_sinks : int;               (** sinks seen by either execution *)
  syscall_diffs : int;             (** misaligned/decoupled syscalls *)
  diffs_before_first_report : int; (** Table 2's "before the sink diff" *)
  total_syscalls : int;            (** master's dynamic syscalls *)
  mutated_inputs : int;            (** sources whose mutation changed a value *)
  master : exec_summary;
  slave : exec_summary;
  wall_cycles : int;               (** max of the two clocks (two CPUs) *)
  dyn_cnt_avg : float;             (** Table 1 dynamic counter stats *)
  dyn_cnt_max : int;
  max_seg_depth : int;             (** deepest counter stack observed *)
  master_schedule : Ldx_sched.Schedule.t option;
      (** the master's recorded schedule, under [config.record_sched] *)
}

(** {1 Passes}

    Exposed so baselines ({!Tightlip}), the campaign layer
    ({!Campaign}) and tools can replay the master's outcome log; most
    callers only need {!run}. *)

type record = {
  rpos : Align.t;
  rsite : int;
  rsys : string;
  rargs : Sval.t list;
  rresult : Sval.t;
  rcyc : int;
  rsink : bool;
}

(** The master's own state at a decouple point (see {!master_pass}'s
    [?specs]), the input of {!fork_prefix}. *)
type decouple_capture

(** The master's outcome log, frozen after the pass.  [mlog] holds one
    record array per thread, sorted by spawn index; consumers keep
    their own cursors, so a recording is immutable and replayable from
    any number of slave passes — including concurrently from several
    domains ({!Campaign}). *)
type master_out = {
  mlog : (int * record array) array;  (** per spawn_index, ascending *)
  mlock_trace : (string * int) list;  (** chronological grants *)
  msummary : exec_summary;
  mtotal_sinks : int;
  mmachine : Machine.t;
  msched : Schedule.t option;         (** under [config.record_sched] *)
  mdecouple : decouple_capture option;
      (** under [master_pass ~specs], when the run reached their
          decouple point *)
}

(** The master's compiled program ([mmachine]'s [fprog]) when it was
    compiled from this very [prog] (physical equality), else [None].
    Every slave-side machine of one recording is created from it, so a
    verdict compiles its program once and a campaign once per master
    recording. *)
val compiled_for : master_out -> Ir.program -> Machine.compiled option

(** The master's records for one spawn index ([| |] if it never made a
    syscall). *)
val records_for : master_out -> int -> record array

(** [source_matcher config] is a stateful predicate over one execution's
    dynamic syscall stream: does this event match a configured source?
    [src_nth] occurrence counters are kept per spec {e index} in
    [config.sources], so structurally equal specs count independently
    and distinct specs can never collide. *)
val source_matcher :
  config ->
  sys:string -> site:int -> args:Sval.t list -> resources:string list -> bool

(** Run the master: execute everything for real, record outcomes.
    [?obs] installs the observability hooks on the master machine and
    its OS and emits a run summary (see {!run}); [?prof] attaches a
    cost-attribution profile to the master machine (see {!profiles}).
    With a non-empty [?specs] (a fan-out's source specs, as
    {!slave_prefix} takes them) the pass also captures its own state at
    their decouple point and runs on unperturbed; the capture lands in
    [mdecouple].  Without, no pause predicate is installed. *)
val master_pass :
  ?obs:Ldx_obs.Sink.t -> ?prof:Ldx_vm.Profile.t -> ?specs:source_spec list ->
  config -> Ir.program -> World.t -> master_out

(** {1 Decouple-point snapshots}

    The incremental dual-execution path: capture the complete slave
    state ONCE at the first syscall any fan-out task's source spec
    base-matches — before it is serviced or mutated, and before any
    [src_nth] occurrence counter advances — then replay each task's
    suffix from the capture.  The capture is forked from the master's
    ({!fork_prefix}) when the slave shares the master's schedule, and
    the prefix is executed ({!slave_prefix}) otherwise.  Suffix replays
    are bit-identical to from-scratch slave passes under the same
    config ([test_snapshot.ml] asserts this). *)

(** One slave pass's outcome, before it is folded into a {!result}. *)
type slave_out = {
  sreports : sink_report list;
  sdiffs : int;
  sdiffs_before_first : int;
  smutated : int;
  ssummary : exec_summary;
  strace : trace_entry list;
  sos : Os.t;                 (** the slave's private OS (final state) *)
}

(** Complete slave-side state at a decouple point: the machine/OS
    snapshot ({!Ldx_snap.Snap.t}) plus the engine bookkeeping layered on
    top — unconsumed lock grants, taint sets, master-log cursors,
    divergence accumulators, the paused and blocked threads — and a
    fingerprint pinning the (program, world, shared slave config) it is
    valid against.  Pure data: structurally comparable, marshalable,
    and safely shared read-only across domains (every resume copies). *)
type slave_snapshot = {
  ss_snap : Ldx_snap.Snap.t;
  ss_grants : (string * int list) list;
  ss_tainted_locks : string list;
  ss_tainted_resources : string list;
  ss_cursors : (int * int) list;
  ss_reports : sink_report list;     (** reversed, as accumulated *)
  ss_diffs : int;
  ss_diffs_before_first : int;       (** raw accumulator: -1 if none yet *)
  ss_mutated : int;
  ss_trace : trace_entry list;       (** reversed *)
  ss_blocked : int list;
  ss_paused : int;
  ss_fingerprint : string;
}

(** What a snapshot is valid against — see {!slave_snapshot}.  Per-task
    fields ([sources], [strategy], [check_final_state]) are deliberately
    not pinned. *)
val slave_fingerprint : config -> Ir.program -> World.t -> string

type prefix_out =
  | Prefix_paused of slave_snapshot
      (** the decouple point was reached; resume per task *)
  | Prefix_done of slave_out
      (** no syscall base-matched any spec: the whole run is shared and
          each task finalizes this same outcome *)

(** Run the shared slave prefix under [config] — whose own [sources]
    must be a subset of [specs], the union of every fan-out task's
    sources — and pause at the first base match of any spec.  Emits
    [Snapshot_captured] (not forked) on pause. *)
val slave_prefix :
  ?obs:Ldx_obs.Sink.t -> config -> specs:source_spec list -> Ir.program ->
  World.t -> master_out -> prefix_out

(** What {!slave_prefix} would return under the specs [mo] was
    recorded with ([master_pass ~specs]), built from the master pass
    without executing a slave instruction when [config]'s slave
    resolves to the master's scheduler spec ([None], nothing emitted,
    otherwise); [config] agrees with the
    recording's on the master-side fields, as for {!run_with_master}.
    [Prefix_paused]: the master's machine and OS at the decouple point
    with the slave's pid and the clock the coupled copies add
    ([Cost.share_copy] per record serviced before it, plus
    [Cost.sink_compare] per sink record), a cursor per thread at its
    record count, the lock grants after those made, the copies' trace;
    emits [Snapshot_captured] (forked).  [Prefix_done] (no decouple
    point): the whole slave derived the same way, as {!run} does;
    emits its [Run_summary] (derived). *)
val fork_prefix :
  ?obs:Ldx_obs.Sink.t -> config -> Ir.program -> World.t -> master_out ->
  prefix_out option

(** Resume one task's suffix from a prefix snapshot; emits
    [Snapshot_restored] when the suffix completes (a campaign's task
    names it by the [Task_begin]/[Task_timing] pair around it).  The
    resumed slave is unprofiled, and the suffix continues the
    snapshot's recorded schedule exactly.  [None], with nothing run, if
    the snapshot's fingerprint does not match (program, world, shared
    slave config): [?fingerprint], {!slave_fingerprint} of [config]
    when the caller has it, or computed here. *)
val slave_resume_opt :
  ?obs:Ldx_obs.Sink.t -> ?fingerprint:string -> config -> Ir.program ->
  World.t -> master_out -> slave_snapshot -> slave_out option

(** {!slave_resume_opt}, raising [Invalid_argument] on a fingerprint
    mismatch. *)
val slave_resume :
  ?obs:Ldx_obs.Sink.t -> config -> Ir.program -> World.t -> master_out ->
  slave_snapshot -> slave_out

(** Fold one slave outcome against its master recording into a
    {!result} — the tail of {!run_with_master}, exposed so incremental
    callers can finalize a shared or resumed [slave_out] under each
    per-task config. *)
val finalize_result :
  ?obs:Ldx_obs.Sink.t -> config -> master_out -> slave_out -> result

(** {1 Entry points}

    [?obs] threads an observability sink ({!Ldx_obs.Sink.t}) through
    the run: phase begin/end events, per-syscall events from both VM
    machines, OS dispatches, the slave's per-syscall coupling decisions,
    divergence reports (tagged with the paper's case number), source
    mutations, and per-side run summaries.  With [?obs] omitted the
    engine pays one pointer comparison per emission point and results
    are unchanged — observation never perturbs the experiment
    (asserted by [test_obs.ml]).

    [?prof] attaches deterministic cost-attribution profiles
    ({!Ldx_vm.Profile}): per-opcode / per-CFG-block / per-syscall
    virtual-cycle counters, one profile per side so dual-execution
    overhead is decomposable.  Same zero-perturbation contract as
    [?obs] (asserted by [test_prof.ml]); pass the same pair to several
    runs of one program to aggregate. *)

(** One cost-attribution profile per execution side. *)
type profiles = {
  prof_master : Ldx_vm.Profile.t;
  prof_slave : Ldx_vm.Profile.t;
}

(** A fresh, empty profile pair. *)
val fresh_profiles : unit -> profiles

(** Dual-execute an (instrumented) program.  A slave that no source of
    [config] reaches and that runs the master's schedule is derived from
    the master's log as {!fork_prefix}'s [Prefix_done] is, whether or
    not the master trapped (on an OS error too), unless [?prof] asks for
    an executed slave's profile: the same result, and no per-syscall
    slave events. *)
val run :
  ?config:config -> ?obs:Ldx_obs.Sink.t -> ?prof:profiles -> Ir.program ->
  World.t -> result

(** Run one slave pass (plus the optional final-state check) against an
    already-recorded master and assemble the full {!result}.  Sound
    because [master_pass] never reads the slave-only config fields
    ([sources], [strategy], [slave_seed], [record_trace]) and
    [run_with_master] never mutates [mo]: callers may fan out many
    configs — even from concurrent domains — over one recording.
    [config] must agree with the recording's config on the master-side
    fields ([master_seed], [max_steps], [sinks], [faults]).
    [?prof] attaches a profile to the slave machine. *)
val run_with_master :
  ?obs:Ldx_obs.Sink.t -> ?prof:Ldx_vm.Profile.t -> config -> Ir.program ->
  World.t -> master_out -> result

(** Parse, check, lower, instrument, dual-execute. *)
val run_source :
  ?config:config -> ?obs:Ldx_obs.Sink.t -> ?prof:profiles -> string ->
  World.t -> result

(** Uninstrumented single-execution cycles — the Fig. 6 baseline. *)
val native_cycles : string -> World.t -> int
