(** The typed event vocabulary of the observability layer.

    Events are deliberately flat — strings, ints and small enums only —
    so that this library sits below every other [ldx] component: the VM,
    the OS simulation and the engine all emit through {!Sink.t} without
    [Ldx_obs] depending on any of them.

    Timestamps ([ts], [dur], [clock]) are {e virtual cycles} from the
    engine's two-CPU cycle model (see [Ldx_vm.Cost] and DESIGN.md
    "Cycle model"), not wall time.  Master and slave each carry their
    own clock; the coupling rule fast-forwards the slave's clock past
    the producing master stamp on every copy, so the two clocks live on
    one shared virtual time axis — which is what makes the dual-timeline
    trace export meaningful. *)

type side = Master | Slave

val side_to_string : side -> string

(** Run phases, in the order [Engine.run_source] executes them. *)
type phase =
  | Parse          (** MiniC parsing + checking *)
  | Lower          (** AST to CFG lowering *)
  | Instrument     (** counter instrumentation (Sec. 4-6) *)
  | Master_run
  | Slave_run
  | Final_state    (** optional filesystem diff (future-work extension) *)

val phase_to_string : phase -> string

(** One slave-side alignment decision (mirrors
    [Engine.trace_action], but recorded unconditionally when a sink is
    installed, with both cycle stamps). *)
type decision =
  | D_copied       (** aligned non-sink; master outcome copied *)
  | D_sink_match   (** aligned sink, equal parameters *)
  | D_args_differ  (** paper case 3: aligned, different parameters *)
  | D_path_diff    (** paper case 2: same counter, different PC *)
  | D_slave_only   (** paper case 1: syscall appeared only in the slave *)
  | D_master_only  (** paper case 1: syscall disappeared in the slave *)
  | D_decoupled    (** tainted resource; slave executed privately *)

val decision_to_string : decision -> string

(** [true] when the decision coupled the pair (the slave consumed the
    master's outcome): exactly [D_copied] and [D_sink_match]. *)
val decision_coupled : decision -> bool

(** Structured failure taxonomy over an execution's trap message: one of
    ["ok"] (no trap), ["fuel"] (step budget exhausted), ["deadlock"],
    ["os-error"] (malformed syscall surfaced by the OS layer), or
    ["vm-trap"] (any other VM trap).  The single source of truth for
    classifying the free-form trap string — campaign render, the CLIs
    and the metrics counters all go through here. *)
val trap_class : string option -> string

(** In [Divergence], [case] is the paper's divergence-case number of the
    sink report kind: 1 for missing-in-either-execution, 2 for
    different-syscall, 3 for args-differ, 0 for the final-state
    extension kinds. *)
type t =
  | Phase_begin of phase
  | Phase_end of phase
  | Syscall of {
      side : side;
      tid : int;               (** spawn index (dual-execution pairing key) *)
      sys : string;
      site : int;              (** static site id (PC) *)
      pos : string;            (** rendered {!Align.t} position *)
      ts : int;                (** cycles when servicing completed *)
      dur : int;               (** service cost in cycles *)
    }
  | Os_call of {
      side : side;
      pid : int;
      sys : string;
      clock : int;             (** the OS's private clock after the call *)
    }
  | Couple of {
      tid : int;
      pos : string;
      decision : decision;
      sink : bool;             (** the slave-side syscall is a sink *)
      master_sys : string option;
      slave_sys : string option;
      master_ts : int;         (** producing master cycle stamp; -1 if none *)
      slave_ts : int;          (** slave clock after the decision *)
    }
  | Divergence of {
      case : int;              (** 1, 2, 3, or 0 for final-state kinds *)
      kind : string;           (** [Engine.kind_to_string] *)
      sys : string;
      site : int;
      pos : string;
    }
  | Mutation of {
      sys : string;
      site : int;
      pos : string;
      before : string;
      after : string;
    }
  | Barrier_wait of {
      side : side;
      tid : int;
      loop : int;
      ts : int;
      dur : int;
    }
  | Cnt_sample of {
      side : side;
      value : int;             (** dynamic counter value at a syscall *)
    }
  | Run_summary of {
      side : side;
      cycles : int;
      steps : int;
      syscalls : int;
      cnt_instrs : int;        (** counter-maintenance instructions (Fig. 6) *)
      trap : string option;
      derived : bool;
          (** the side was derived from the master's log, not executed
              (a slave no source reaches: [Engine.run]) *)
    }
  | Fault_injected of {
      side : side;
      sys : string;
      site : int;
      action : string;         (** [Ldx_osim.Fault.action_to_string] *)
    }
  | Task_done of {
      label : string;          (** campaign task label *)
      status : string;
          (** ["ok"], ["crashed"], ["fuel-exhausted"], ["timed-out"] or
              ["quarantined"] *)
      attempts : int;          (** runs performed (1 = no retries) *)
      exn : string option;     (** the exception, for crashed tasks *)
    }
  | Schedule_decision of {
      side : side;
      index : int;             (** 0-based decision number *)
      chosen : int;            (** chosen thread, by spawn index *)
      runnable : int;          (** size of the choice set *)
      quantum : int;           (** steps granted *)
      ts : int;                (** cycles at the pick *)
    }
  | Preemption of {
      side : side;
      index : int;             (** the decision that preempted *)
      chosen : int;            (** the thread switched to *)
      ts : int;
    }
  | Campaign_plan of {
      mode : string;           (** ["sequential"] or ["parallel"] *)
      jobs : int;              (** effective worker domains *)
      tasks : int;
      est_steps : int;         (** per-task cost estimate (master steps) *)
    }
  | Checkpoint of {
      path : string;           (** journal file *)
      tasks : int;             (** tasks in the manifest *)
      journaled : int;         (** outcomes persisted at checkpoint *)
    }
  | Resume of {
      path : string;
      tasks : int;
      replayed : int;          (** outcomes replayed verbatim *)
      rerun : int;             (** tasks re-run (never journaled) *)
      torn : int;              (** torn-tail records dropped on load *)
    }
  | Quarantine of {
      label : string;          (** the parked task *)
      attempts : int;          (** every one of which crashed *)
      exn : string;            (** the final attempt's exception *)
    }
  | Task_begin of {
      label : string;
      index : int;             (** 0-based task index in the campaign *)
    }
  | Task_timing of {
      label : string;
      index : int;
      queue_us : int;
          (** wall-clock µs from fan-out start to the task's first
              attempt (nondeterministic — never rendered into traces
              or goldens) *)
      run_us : int;            (** wall-clock µs spent running attempts *)
      wall_cycles : int;
          (** deterministic virtual wall of the task's result, 0 when
              there is no result (crashed/quarantined) *)
    }
  | Campaign_progress of {
      completed : int;
      total : int;
      cycles_done : int;       (** Σ wall_cycles over completed tasks *)
      eta_cycles : int;
          (** estimated remaining virtual cycles (mean-based; at
              jobs>1 completion order makes this nondeterministic) *)
    }
  | Lease_claim of {
      index : int;             (** task index in the campaign manifest *)
      owner : string;          (** worker identity that won the claim *)
      epoch : int;             (** lease generation (0 = first claim) *)
      reclaimed : bool;        (** taken over from an expired lease *)
    }
  | Lease_expired of {
      index : int;
      owner : string;          (** the dead owner charged with the expiry *)
      epoch : int;             (** the epoch that expired *)
    }
  | Worker_event of {
      owner : string;
      kind : string;
          (** ["start"], ["drain"], ["complete"], ["spawned"],
              ["exited"], ["respawned"] or ["killed"] *)
    }
  | Snapshot_captured of {
      forked : bool;
          (** the snapshot was built from the master pass's own capture
              at the decouple point ([true]), or the slave prefix was
              executed *)
      prefix_cycles : int;     (** slave clock at the decouple point *)
      prefix_steps : int;
      prefix_syscalls : int;   (** syscalls serviced in the shared prefix *)
    }
  | Snapshot_restored of {
      prefix_cycles : int;     (** inherited from the snapshot *)
      suffix_cycles : int;     (** cycles the suffix added after restore *)
    }
  | Snapshot_fallback of { reason : string }
      (** an incremental campaign ran full slave passes instead: for
          every task when it was ineligible or its shared prefix
          raised, for one task when that task's config does not match
          the snapshot's fingerprint *)
