(** Campaign layer: one recorded master pass, N independent slave
    passes — durable, deadline-bounded, retried and quarantined.

    [Engine.master_pass] never reads the slave-only configuration
    fields ([sources], [strategy], [slave_seed], [record_trace]), and a
    recorded {!Engine.master_out} is immutable — slave passes read it
    through private cursors.  A campaign exploits both facts: it pays
    {e one} master pass and fans K slave passes out over the calling
    domain and, when they pay for themselves, helper domains
    ({!fan_out}).

    Every slave pass builds its own machine and simulated OS from
    immutable inputs and the VM scheduler is deterministically seeded,
    so a parallel campaign is byte-identical to a sequential one (a
    property-suite invariant).

    On top of the fan-out sit the durability controls of long-running
    campaigns ({!run}'s [?journal], {!resume}, [?deadline], the
    generalized {!retry_policy}): a campaign interrupted at {e any}
    point — even mid-[write(2)] — resumes from its journal re-running
    only the tasks whose outcomes were never durably recorded, and
    renders byte-identically to an uninterrupted run.

    This is the substrate for per-source attribution
    ({!Attribute.per_source}), mutation-strategy sweeps
    ([ldx_run --sweep-strategies]), slave-seed sweeps, and the
    ROADMAP's archive-backed campaign service. *)

(** Slave-side parameters only, by construction: anything expressible
    as a [slave_params] is sound to run against a shared master
    recording. *)
type slave_params = {
  label : string;                        (** for rendering/reporting *)
  sources : Engine.source_spec list;
  strategy : Mutation.strategy;
  slave_seed : int;
  record_trace : bool;
  check_final_state : bool;
  sched : Engine.Sched.spec option;
      (** slave scheduler spec; [None] = legacy from [slave_seed] *)
}

(** The slave-side projection of a config. *)
val params_of_config : ?label:string -> Engine.config -> slave_params

(** Overlay a task's slave-side parameters on a base config. *)
val apply : Engine.config -> slave_params -> Engine.config

(** One task per entry of [config.sources], each isolating that source
    (the attribution loop of Sec. 3). *)
val of_sources : Engine.config -> slave_params list

(** One task per named mutation strategy (the Sec. 8.3 study);
    [Mutation.all_strategies] is a ready-made argument. *)
val of_strategies :
  Engine.config -> (string * Mutation.strategy) list -> slave_params list

(** One task per slave scheduler seed (concurrency sweeps, Table 4). *)
val of_seeds : Engine.config -> int list -> slave_params list

(** One task per labelled scheduler spec (schedule sweeps: how does the
    verdict vary with the slave's interleaving?). *)
val of_scheds :
  Engine.config -> (string * Engine.Sched.spec) list -> slave_params list

(** A task's fate.  A raising slave pass is recorded as [Crashed] — one
    bad task never takes down the fleet or loses sibling results.
    [Fuel_exhausted] carries the (partial) result of a run whose master
    or slave trapped on the step budget: the numbers are real, the leak
    verdict is not trustworthy.  [Timed_out] is the same fuel trap
    fired by a {e task deadline} ([?deadline] below) tighter than the
    configured budget — a runaway task was cut off, deterministically,
    with no wall-clock involved.  [Quarantined] parks a task that
    crashed on its first run {e and} on every retry: the failure is
    deterministic, re-running it is waste, and the fleet moves on. *)
type status =
  | Ok of Engine.result
  | Crashed of { exn : string; backtrace : string }
  | Fuel_exhausted of Engine.result
  | Timed_out of Engine.result
  | Quarantined of { exn : string; backtrace : string }

type outcome = {
  params : slave_params;
  status : status;
  attempts : int;  (** runs performed: 1 = first try, n > 1 = retried *)
}

(** ["ok"], ["crashed"], ["fuel-exhausted"], ["timed-out"] or
    ["quarantined"] — the [Task_done] event vocabulary. *)
val status_class : status -> string

(** The result, if the task produced one ([Ok], [Fuel_exhausted] or
    [Timed_out]). *)
val result_of : status -> Engine.result option

(** The result of a completed task.
    @raise Invalid_argument on [Crashed]/[Quarantined] outcomes. *)
val result_exn : outcome -> Engine.result

(** Bounded retries for crashed, fuel-exhausted and timed-out tasks.
    Attempt [k] (1-based) re-runs with
    [slave_seed + seed_jitter * stride k], where [stride k] is [k]
    when [backoff <= 1] (the legacy linear jitter) and
    [backoff^(k-1)] otherwise — exponential backoff in {e seed space},
    the derandomized analogue of backoff in time: transient
    (schedule-dependent) failures clear under an increasingly perturbed
    schedule while deterministic ones reproduce.

    [fuel_budget] caps the {e cumulative} VM steps a task may spend
    across all its attempts (slave steps for completed runs; the
    per-attempt step cap, conservatively, for crashed ones).  Once
    spent, no further retries are attempted — a pathological task
    cannot multiply its cost unbounded through the retry loop.

    [quarantine] parks a task whose every attempt crashed (at least
    one retry was performed, so the crash reproduced under a perturbed
    seed) as [Quarantined] instead of [Crashed] — surfaced in
    {!render}, the [campaign.quarantined] metrics counter and a
    [Quarantine] event. *)
type retry_policy = {
  max_retries : int;   (** 0 = fail fast (the default) *)
  seed_jitter : int;
  backoff : int;       (** jitter growth base; [<= 1] = linear (legacy) *)
  fuel_budget : int option;
      (** cumulative per-task step cap across attempts; [None] = off *)
  quarantine : bool;   (** park deterministic crashers *)
}

val no_retries : retry_policy

(** How a task turns a config into a result; defaults to
    {!Engine.run_with_master}.  Overridable for fault-tolerance tests
    (inject a raising runner) and custom replay pipelines.  [?obs] is
    the task-private sink the parallel path threads through
    (see {!run}); custom runners may ignore it. *)
type runner =
  ?obs:Ldx_obs.Sink.t ->
  Engine.config -> Ldx_cfg.Ir.program -> Ldx_osim.World.t ->
  Engine.master_out -> Engine.result

(** [fan_out ~jobs ~stop ~run ~record idxs] calls [run i] once for
    every [i] of [idxs] on the calling domain and [jobs - 1] helper
    domains (none at [jobs = 1]; never more domains than indexes).
    Domains claim chunks of about [k / (4 * jobs)] indexes off one
    atomic cursor.  [record i r] then runs, with [r = run i], under one
    mutex on the domain that finished the task: calls of [record] never
    overlap, at [jobs = 1] they arrive in [idxs] order, and each
    happens before [fan_out] returns.

    [stop] is polled before every claim and every task and must be
    domain-safe; once it returns [true] no further task starts, and
    tasks in flight finish and are recorded.  A raise from [run] or
    [record] stops further claims on every domain and is re-raised
    (with its backtrace) after every helper is joined.  Helpers record
    backtraces exactly when the calling domain does. *)
val fan_out :
  jobs:int -> stop:(unit -> bool) -> run:(int -> 'a) ->
  record:(int -> 'a -> unit) -> int array -> unit

(** [run ~jobs ?mode ?obs ?retry ?deadline ?runner ?journal ~config
    prog world params] records one master pass under [config]'s
    master-side fields, then runs one slave pass per task under
    per-task exception containment, through {!fan_out}.  Outcomes are
    returned in task order at any [jobs], with identical statuses (a
    property-suite invariant).

    [?mode] selects how many domains run the tasks.  The default
    [`Auto] uses [jobs] domains only when [jobs > 1], more than one
    task is missing, the host reports more than one recommended
    domain, {e and} the master pass ran at least ~20k steps; otherwise
    the calling domain runs every task alone, since shorter slave
    passes gain little from helper domains or lose (DESIGN.md, "Mode
    selection", has the measurements).  [`Sequential] and [`Parallel]
    force their choice (subject to [jobs]/task count).  The decision is
    emitted as a [Campaign_plan] event and lands in the
    [campaign.mode.<mode>] metrics counter.

    [?deadline] bounds each {e task} (not the campaign) to that many
    VM steps per slave pass, re-using the engine's in-quantum fuel
    check — no wall clocks, so a deadline is bit-deterministic.  A
    task cut off by a deadline tighter than [config.max_steps] is
    [Timed_out].

    [?journal] opens a durable journal at that path: the campaign
    manifest (configuration fingerprint, program/world hashes, task
    list) is checkpointed via atomic rename before any task runs, and
    each task's outcome is appended — checksummed and flushed — by the
    domain that ran the task, as soon as it finishes.  A campaign
    killed at any point resumes via {!resume}.

    [?obs] observes the master pass (bracketed in [Master_run] phase
    events) and every slave pass.  The sink is never called
    concurrently, so it needs no domain safety of its own.  On one
    domain, tasks emit to it directly.  With helper domains, each task
    gets a {e private buffered sink}, and the calling domain drains the
    buffers into the sink in task order after the fan-out.
    [Campaign_progress] heartbeats come, in completion order, from
    whichever domain finished the task.  Task fates are emitted as
    [Task_done] (and [Quarantine]) events from the calling domain, per
    task, in task order.

    [?stop] is the graceful-drain hook: it is polled between tasks
    (it must be domain-safe, e.g. read a flag a signal handler sets)
    and once it returns [true] no further task is
    {e started}; in-flight tasks finish and are journaled.  Outcomes of
    tasks a drain never ran come back as [Crashed] with exn
    ["drained (not run)"] and [attempts = 0], and emit no [Task_done] —
    with [?journal] the drained campaign is exactly a killed campaign
    with a healthy tail, so {!resume} picks it up.

    [?sync] (default off) makes the journal [fsync] on checkpoint and
    every append — power-loss durability at one disk round-trip per
    task.

    [?incremental] (default off) executes the shared slave prefix ONCE
    — pausing at the first syscall any task's source spec base-matches
    and capturing a decouple-point snapshot ({!Engine.slave_prefix}) —
    then replays only each task's suffix from the snapshot
    ({!Engine.slave_resume}).  Outcomes, and therefore {!render}ed
    tables, are byte-identical to the full path at any [jobs] (pinned
    by the test suite); only wall-clock time and the event stream
    (which gains [Snapshot_captured]/[Snapshot_restored] and loses
    per-task prefix events) change.  The mode silently falls back to
    full passes when it cannot be sound or cannot win: a custom
    [?runner], a [?deadline], tasks that disagree on a prefix-relevant
    slave field ([slave_seed], [sched], [record_trace]), retry attempts
    (jittered seeds change the snapshot fingerprint), or a prefix that
    fails to reach a decouple point. *)
val run :
  ?jobs:int -> ?mode:[ `Auto | `Sequential | `Parallel ] ->
  ?obs:Ldx_obs.Sink.t -> ?retry:retry_policy -> ?deadline:int ->
  ?runner:runner -> ?journal:string ->
  ?stop:(unit -> bool) -> ?sync:bool -> ?incremental:bool ->
  config:Engine.config ->
  Ldx_cfg.Ir.program -> Ldx_osim.World.t -> slave_params list ->
  outcome list

(** [resume ~journal ...] continues a campaign from a {!run}-written
    journal: it validates that the journal's configuration fingerprint
    matches the given config/program/world/tasks (and retry/deadline
    controls), drops any torn tail, replays the journaled outcomes
    {e verbatim}, and runs only the missing tasks (skipping even the
    master pass when nothing is missing).  The journal is re-
    checkpointed (atomic rename) so the torn tail is healed on disk,
    then newly-run outcomes are appended write-through as in {!run}.

    Killed-at-any-point + resume renders byte-identically to an
    uninterrupted run (pinned by the property suite at [jobs] 1
    and 4).

    [Error] when the journal is unreadable, corrupt in its manifest
    section, or fingerprint-mismatched (the journaled outcomes were
    recorded under a different configuration and replaying them would
    be unsound).

    [?incremental] behaves as in {!run} and applies only to the
    missing tasks; it is deliberately NOT part of the campaign
    fingerprint — a journal written by a full campaign resumes
    incrementally (and vice versa) to a byte-identical table. *)
val resume :
  ?jobs:int -> ?mode:[ `Auto | `Sequential | `Parallel ] ->
  ?obs:Ldx_obs.Sink.t -> ?retry:retry_policy -> ?deadline:int ->
  ?runner:runner -> journal:string ->
  ?stop:(unit -> bool) -> ?sync:bool -> ?incremental:bool ->
  config:Engine.config ->
  Ldx_cfg.Ir.program -> Ldx_osim.World.t -> slave_params list ->
  (outcome list, string) result

(** The configuration fingerprint {!run} stores and {!resume} checks:
    a digest over the program, the world, the master-side config
    fields, every task's slave parameters, and the retry/deadline
    controls.  Exposed for tools that want to check resumability
    without loading the engine. *)
val fingerprint :
  ?retry:retry_policy -> ?deadline:int ->
  config:Engine.config ->
  Ldx_cfg.Ir.program -> Ldx_osim.World.t -> slave_params list -> string

(** Encode a task's fate as the single-line journal payload {!run}'s
    [?journal] writes and the service workers exchange — the inverse of
    {!decode_outcome}.  Payloads are [Marshal]ed [Engine.result]s in
    hex, so they are only meaningful under the {!fingerprint} that
    guarded them. *)
val encode_outcome : status -> int -> string

(** Accepts exactly what {!encode_outcome} writes: every hex field
    through {!Ldx_store.Store.hex_decode}, and a canonical decimal
    attempt count.  [None] for anything else. *)
val decode_outcome : string -> (status * int) option

(** {1 The cross-process campaign service}

    The same campaign run by N {e processes} instead of N domains: the
    journal (a v2 store file) doubles as a lease-based work queue
    ([Ldx_queue.Queue]), each worker process claims tasks, heartbeats,
    executes through the exact {!run} task runner (containment, retry,
    deadline and quarantine all apply per attempt), and appends
    outcomes.  Every worker records its own master pass — the recording
    is deterministic, so all copies are byte-identical and any worker
    can run any task.  Outcome payloads and first-wins dedup make the
    collected table byte-identical to a single-process [--jobs 1] run,
    which the test suite pins under SIGKILL at arbitrary points.

    [ldx_worker] wraps {!Service.worker} in a binary; [ldx_campaignd]
    supervises a fleet of them (spawn, missed-heartbeat detection,
    respawn with backoff, {!Service.escalate}, then
    {!Service.collect} + {!render}). *)
module Service : sig
  (** [init ~path ~config prog world params] checkpoints a fresh v2
      journal (manifest only, no outcomes).  Idempotent restart: if
      [path] already holds a journal with the {e same} fingerprint, its
      entries are kept (outcomes and leases) and its torn records are
      healed on disk — restarting the supervisor resumes the campaign;
      a fingerprint mismatch re-initializes from scratch.  The heal
      keeps one heartbeat per owner
      ({!Ldx_queue.Queue.compact_heartbeats}). *)
  val init :
    ?sync:bool -> ?retry:retry_policy -> ?deadline:int -> path:string ->
    config:Engine.config ->
    Ldx_cfg.Ir.program -> Ldx_osim.World.t -> slave_params list -> unit

  (** One worker process's whole life: validate the journal fingerprint
      against the spec this worker was launched with, then claim /
      heartbeat / execute / journal until the queue drains
      ([`Complete]) or [stop] turns true ([`Drained] — the in-flight
      task finishes first; see [Ldx_queue.Queue.Worker.run] for
      [ttl_us]/[heartbeat_us]/[poll_us]).  [?master] shares a
      pre-recorded master pass (the in-process caller: perfbench);
      without it the worker records its own, lazily, so joining a
      drained queue costs nothing. *)
  val worker :
    ?obs:Ldx_obs.Sink.t -> ?stop:(unit -> bool) -> ?sync:bool ->
    ?retry:retry_policy -> ?deadline:int -> ?runner:runner ->
    ?master:Engine.master_out ->
    path:string -> owner:string -> ttl_us:int -> heartbeat_us:int ->
    poll_us:int ->
    config:Engine.config ->
    Ldx_cfg.Ir.program -> Ldx_osim.World.t -> slave_params list ->
    ([ `Complete | `Drained ], string) result

  (** [escalate ~path ~kills ()] parks every unfinished task whose
      lease has expired under [kills] or more {e distinct} owners as a
      cross-process [Quarantined] outcome ("this task keeps killing
      workers") and returns how many were parked.  Run by the
      supervisor after it buries a worker. *)
  val escalate : ?sync:bool -> path:string -> kills:int -> unit ->
    (int, string) result

  (** Decode a {e complete} service campaign back into outcomes, in
      task order — feed to {!render}.  [Error] if any task is
      unfinished or fails to decode. *)
  val collect :
    path:string -> slave_params list -> (outcome list, string) result
end

(** Fixed-width summary table of a campaign's outcomes, including each
    task's final status, attempt count and per-side failure classes
    ({!Engine.failure_class}). *)
val render : outcome list -> string
