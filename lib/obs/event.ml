(* Typed observability events.  Flat payloads only — see the interface
   for why this module must not depend on the rest of ldx. *)

type side = Master | Slave

let side_to_string = function Master -> "master" | Slave -> "slave"

type phase = Parse | Lower | Instrument | Master_run | Slave_run | Final_state

let phase_to_string = function
  | Parse -> "parse"
  | Lower -> "lower"
  | Instrument -> "instrument"
  | Master_run -> "master-run"
  | Slave_run -> "slave-run"
  | Final_state -> "final-state"

type decision =
  | D_copied
  | D_sink_match
  | D_args_differ
  | D_path_diff
  | D_slave_only
  | D_master_only
  | D_decoupled

let decision_to_string = function
  | D_copied -> "copied"
  | D_sink_match -> "sink-match"
  | D_args_differ -> "args-differ"
  | D_path_diff -> "path-diff"
  | D_slave_only -> "slave-only"
  | D_master_only -> "master-only"
  | D_decoupled -> "decoupled"

let decision_coupled = function
  | D_copied | D_sink_match -> true
  | D_args_differ | D_path_diff | D_slave_only | D_master_only | D_decoupled ->
    false

(* Structured failure taxonomy over an execution's trap message.  The
   trap field is a free-form string owned by the VM/engine; this is the
   single place that maps it onto a closed set of classes, so every
   consumer (campaign render, CLIs, metrics counters) agrees. *)
let trap_class = function
  | None -> "ok"
  | Some msg ->
    let has_prefix p =
      String.length msg >= String.length p
      && String.sub msg 0 (String.length p) = p
    in
    if has_prefix "fuel exhausted" then "fuel"
    else if has_prefix "deadlock" then "deadlock"
    else if has_prefix "os-error" then "os-error"
    else "vm-trap"

type t =
  | Phase_begin of phase
  | Phase_end of phase
  | Syscall of {
      side : side;
      tid : int;
      sys : string;
      site : int;
      pos : string;
      ts : int;
      dur : int;
    }
  | Os_call of { side : side; pid : int; sys : string; clock : int }
  | Couple of {
      tid : int;
      pos : string;
      decision : decision;
      sink : bool;
      master_sys : string option;
      slave_sys : string option;
      master_ts : int;
      slave_ts : int;
    }
  | Divergence of { case : int; kind : string; sys : string; site : int; pos : string }
  | Mutation of { sys : string; site : int; pos : string; before : string; after : string }
  | Barrier_wait of { side : side; tid : int; loop : int; ts : int; dur : int }
  | Cnt_sample of { side : side; value : int }
  | Run_summary of {
      side : side;
      cycles : int;
      steps : int;
      syscalls : int;
      cnt_instrs : int;
      trap : string option;
      derived : bool;
    }
  | Fault_injected of { side : side; sys : string; site : int; action : string }
  | Task_done of {
      label : string;
      status : string;
      attempts : int;
      exn : string option;
    }
  | Schedule_decision of {
      side : side;
      index : int;
      chosen : int;
      runnable : int;
      quantum : int;
      ts : int;
    }
  | Preemption of { side : side; index : int; chosen : int; ts : int }
  | Campaign_plan of { mode : string; jobs : int; tasks : int; est_steps : int }
  | Checkpoint of { path : string; tasks : int; journaled : int }
  | Resume of {
      path : string;
      tasks : int;
      replayed : int;
      rerun : int;
      torn : int;
    }
  | Quarantine of { label : string; attempts : int; exn : string }
  | Task_begin of { label : string; index : int }
  | Task_timing of {
      label : string;
      index : int;
      queue_us : int;
          (* wall-clock microseconds between campaign fan-out start and
             the task's first attempt (nondeterministic — never rendered
             into traces or goldens) *)
      run_us : int;   (* wall-clock microseconds spent running attempts *)
      wall_cycles : int;
          (* deterministic virtual wall of the task's result, 0 for
             tasks without a result (crashed/quarantined) *)
    }
  | Campaign_progress of {
      completed : int;
      total : int;
      cycles_done : int;   (* sum of wall_cycles over completed tasks *)
      eta_cycles : int;
          (* estimated remaining virtual cycles (mean-based; at jobs>1
             the completion order makes this nondeterministic) *)
    }
  | Lease_claim of {
      index : int;
      owner : string;
      epoch : int;
      reclaimed : bool;   (* taken over from an expired lease *)
    }
  | Lease_expired of { index : int; owner : string; epoch : int }
  | Worker_event of { owner : string; kind : string }
  | Snapshot_captured of {
      forked : bool;
          (* built from the master's capture (true) or executed *)
      prefix_cycles : int;     (* slave clock at the decouple point *)
      prefix_steps : int;
      prefix_syscalls : int;   (* syscalls serviced in the shared prefix *)
    }
  | Snapshot_restored of {
      prefix_cycles : int;     (* inherited from the snapshot *)
      suffix_cycles : int;     (* cycles the suffix added after restore *)
    }
  | Snapshot_fallback of { reason : string }
