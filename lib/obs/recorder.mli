(** The standard recording sink: keeps every event in emission order
    (for {!Chrome_trace}) and folds the stream into a {!Metrics.t} with
    a stable counter schema:

    - [syscalls.master] / [syscalls.slave] — dynamic syscalls serviced;
    - [os_calls.*] — OS-simulation dispatches (excludes thread ops);
    - [align.<decision>] — slave alignment decisions
      ({!Event.decision_to_string});
    - [engine.copies] — coupled outcomes the slave consumed;
    - [engine.sink_compares] — coupled sink-argument comparisons;
    - [engine.mutations] — source mutations that changed a value;
    - [engine.slave_derived] — slaves derived from the master's log
      instead of executed (no per-syscall slave events);
    - [divergence.case1/case2/case3] — sink reports by the paper's case
      number (these equal the run's [sink_report] tally);
    - [divergence.final-state] — final-state extension reports;
    - [barriers.*] — loop backedge barriers;
    - [faults.master] / [faults.slave] — injected environment faults per
      side, and [faults.<action>] per action kind (drop, short,
      transient, error, skew);
    - [failures.<side>.<class>] — trap taxonomy per side
      ({!Event.trap_class}: fuel, deadlock, os-error, vm-trap);
    - [campaign.<status>] — campaign task outcomes (ok, crashed,
      fuel-exhausted, timed-out, quarantined);
    - [retry.tasks] / [retry.attempts] — tasks that needed any retry,
      and total retries performed; [retry.quarantines] — tasks parked
      after crashing on every attempt;
    - [store.checkpoints] / [store.resumes] — journal checkpoints
      written and resumes performed, with [store.journaled] (outcomes
      persisted at the last checkpoint), [store.replayed] /
      [store.rerun] (resume work split) and [store.torn] (torn-tail
      records dropped on load);
    - [campaign.mode.<mode>] — execution mode the campaign chose
      (sequential, parallel), with [campaign.jobs] / [campaign.tasks]
      gauges;
    - [campaign.begun] — tasks started; [campaign.progress_events] —
      heartbeat events, with [campaign.completed] /
      [campaign.cycles_done] / [campaign.eta_cycles] gauges from the
      latest heartbeat (ETA in virtual cycles, mean-based);
    - [snap.captured] / [snap.restored] — decouple-point snapshots
      taken and suffixes resumed from them (the incremental-campaign
      path), [snap.forked] — captures built from the master pass
      instead of an executed slave prefix, and [snap.fallback] —
      incremental campaigns or tasks that ran full slave passes
      instead;
    - [sched.decisions.*] — scheduling decisions per side, and
      [sched.preemptions.*] — decisions that switched away from a
      still-runnable thread;
    - [master.cycles/steps/syscalls/cnt_instrs] and [slave.*] gauges
      from the run summaries, plus [run.wall_cycles] (max of the two
      clocks: the virtual two-CPU wall time).

    Histograms: [dyn_cnt.*] (dynamic counter value at each syscall,
    Table 1), [couple_lag] (slave clock minus producing master stamp
    at each copy — how far the slave trails the master),
    [sched.runnable.*] / [sched.quantum.*] (choice-set sizes and
    granted quanta per side), and per-task campaign telemetry:
    [campaign.queue_us] / [campaign.run_us] (wall-clock queue-wait vs
    run-time split — nondeterministic, never golden-pinned) and
    [campaign.wall_cycles] (deterministic virtual wall per task), and
    [snap.prefix_cycles] / [snap.suffix_cycles] (shared-prefix cost at
    capture, per-task suffix cost after restore). *)

type t

val create : unit -> t

val sink : t -> Sink.t

(** Events in emission order. *)
val events : t -> Event.t list

val snapshot : t -> Metrics.snapshot
