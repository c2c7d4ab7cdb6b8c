(* Recording sink: event log + metrics fold.  See the interface for the
   counter schema. *)

type t = {
  mutable rev_events : Event.t list;
  m : Metrics.t;
}

let create () = { rev_events = []; m = Metrics.create () }

let side_key prefix side = prefix ^ "." ^ Event.side_to_string side

let absorb t (ev : Event.t) =
  let m = t.m in
  match ev with
  | Event.Phase_begin _ | Event.Phase_end _ -> ()
  | Event.Syscall { side; _ } -> Metrics.incr m (side_key "syscalls" side)
  | Event.Os_call { side; _ } -> Metrics.incr m (side_key "os_calls" side)
  | Event.Couple { decision; master_ts; slave_ts; _ } ->
    Metrics.incr m ("align." ^ Event.decision_to_string decision);
    if Event.decision_coupled decision then begin
      Metrics.incr m "engine.copies";
      if decision = Event.D_sink_match then Metrics.incr m "engine.sink_compares";
      if master_ts >= 0 then
        Metrics.observe m "couple_lag" (slave_ts - master_ts)
    end
  | Event.Divergence { case; _ } ->
    Metrics.incr m
      (if case >= 1 && case <= 3 then Printf.sprintf "divergence.case%d" case
       else "divergence.final-state")
  | Event.Mutation _ -> Metrics.incr m "engine.mutations"
  | Event.Barrier_wait { side; _ } -> Metrics.incr m (side_key "barriers" side)
  | Event.Cnt_sample { side; value } ->
    Metrics.observe m (side_key "dyn_cnt" side) value
  | Event.Run_summary
      { side; cycles; steps; syscalls; cnt_instrs; trap; derived } ->
    let p = Event.side_to_string side in
    if derived then Metrics.incr m ("engine." ^ p ^ "_derived");
    Metrics.set m (p ^ ".cycles") cycles;
    Metrics.set m (p ^ ".steps") steps;
    Metrics.set m (p ^ ".syscalls") syscalls;
    Metrics.set m (p ^ ".cnt_instrs") cnt_instrs;
    (let cls = Event.trap_class trap in
     if cls <> "ok" then Metrics.incr m ("failures." ^ p ^ "." ^ cls));
    let snap = Metrics.snapshot m in
    Metrics.set m "run.wall_cycles"
      (max (Metrics.counter snap "master.cycles")
         (Metrics.counter snap "slave.cycles"))
  | Event.Fault_injected { side; action; _ } ->
    Metrics.incr m (side_key "faults" side);
    (* counter per action kind: "faults.drop", "faults.short=2", ... keep
       just the action name before any '=' argument *)
    let kind =
      match String.index_opt action '=' with
      | Some i -> String.sub action 0 i
      | None -> action
    in
    Metrics.incr m ("faults." ^ kind)
  | Event.Task_done { status; attempts; _ } ->
    Metrics.incr m ("campaign." ^ status);
    (* retries = attempts beyond the first; tasks that needed any *)
    if attempts > 1 then begin
      Metrics.incr m "retry.tasks";
      Metrics.add m "retry.attempts" (attempts - 1)
    end
  | Event.Schedule_decision { side; runnable; quantum; _ } ->
    Metrics.incr m (side_key "sched.decisions" side);
    Metrics.observe m (side_key "sched.runnable" side) runnable;
    Metrics.observe m (side_key "sched.quantum" side) quantum
  | Event.Preemption { side; _ } ->
    Metrics.incr m (side_key "sched.preemptions" side)
  | Event.Campaign_plan { mode; jobs; tasks; _ } ->
    Metrics.incr m ("campaign.mode." ^ mode);
    Metrics.set m "campaign.jobs" jobs;
    Metrics.set m "campaign.tasks" tasks
  | Event.Checkpoint { journaled; _ } ->
    Metrics.incr m "store.checkpoints";
    Metrics.set m "store.journaled" journaled
  | Event.Resume { replayed; rerun; torn; _ } ->
    Metrics.incr m "store.resumes";
    Metrics.add m "store.replayed" replayed;
    Metrics.add m "store.rerun" rerun;
    if torn > 0 then Metrics.add m "store.torn" torn
  | Event.Quarantine { attempts; _ } ->
    Metrics.incr m "retry.quarantines";
    Metrics.observe m "retry.attempts_at_quarantine" attempts
  | Event.Task_begin _ -> Metrics.incr m "campaign.begun"
  | Event.Task_timing { queue_us; run_us; wall_cycles; _ } ->
    Metrics.observe m "campaign.queue_us" queue_us;
    Metrics.observe m "campaign.run_us" run_us;
    if wall_cycles > 0 then
      Metrics.observe m "campaign.wall_cycles" wall_cycles
  | Event.Campaign_progress { completed; cycles_done; eta_cycles; _ } ->
    Metrics.incr m "campaign.progress_events";
    Metrics.set m "campaign.completed" completed;
    Metrics.set m "campaign.cycles_done" cycles_done;
    Metrics.set m "campaign.eta_cycles" eta_cycles
  | Event.Lease_claim { reclaimed; _ } ->
    Metrics.incr m "queue.claims";
    if reclaimed then Metrics.incr m "queue.reclaims"
  | Event.Lease_expired _ -> Metrics.incr m "queue.expiries"
  | Event.Worker_event { kind; _ } -> Metrics.incr m ("service.worker." ^ kind)
  | Event.Snapshot_captured { forked; prefix_cycles; _ } ->
    Metrics.incr m "snap.captured";
    if forked then Metrics.incr m "snap.forked";
    Metrics.observe m "snap.prefix_cycles" prefix_cycles
  | Event.Snapshot_restored { suffix_cycles; _ } ->
    Metrics.incr m "snap.restored";
    Metrics.observe m "snap.suffix_cycles" suffix_cycles
  | Event.Snapshot_fallback _ -> Metrics.incr m "snap.fallback"

let sink t =
  Sink.of_fn
    (fun ev ->
       t.rev_events <- ev :: t.rev_events;
       absorb t ev)

let events t = List.rev t.rev_events
let snapshot t = Metrics.snapshot t.m
