(** Pluggable deterministic thread scheduling for the MiniC VM.

    A {!spec} is an immutable policy + seed; {!instantiate} turns it
    into a per-execution {!state} holding the mutable pick cursor (and,
    when recording, the decision log) — the same plan/state split as
    [Ldx_osim.Fault], and for the same reason: the SAME spec
    instantiated twice drives the SAME interleaving, so a master and a
    slave (or any number of campaign slaves) reproduce one schedule
    independently.  No policy ever consults a live RNG: randomness is a
    hash of (seed, decision index), bit-reproducible across executions,
    domains and processes. *)

type policy =
  | Round_robin
      (** Bit-identical to the VM's historical hard-wired scheduler
          (pick [runnable.(cursor mod n)], seeded quantum) — the
          default, and the baseline the pinned per-workload syscall
          counts are asserted against. *)
  | Random
      (** Pick and quantum drawn from a hash of (seed, decision
          index). *)
  | Priority of (int * int) list
      (** [(spawn index, priority)]; highest priority runs, round-robin
          among equals, unlisted threads have priority 0. *)
  | Replay of Schedule.t
      (** Follow a recorded schedule through a cursor; falls back to
          round-robin when the recorded thread is not runnable or the
          log is exhausted. *)
  | Forced of (int * int) list
      (** [(decision index, thread)] overrides on top of round-robin —
          the bounded-exploration hook ({!Explore}): runs sharing a
          forced prefix execute identically up to the first differing
          override. *)
  | Pinned of int
      (** Hostile testing policy: always names this spawn index, with
          no runnability check — exercises the VM's pick validation
          (a bad pick must trap cleanly, not crash).  Not reachable
          from the CLI. *)

type spec = {
  policy : policy;
  seed : int;
  quantum_override : int option;
      (** fixed quantum instead of the seeded perturbation *)
}

val spec : ?seed:int -> ?quantum:int -> policy -> spec

(** The spec of the VM's historical scheduler (round-robin, seeded
    quantum): [Machine.create]'s default. *)
val legacy : seed:int -> spec

(** One scheduling decision, as the log and the VM's observability
    hook see it.  [d_runnable] is the choice set (spawn indexes in
    thread-creation order) — captured only when the state records,
    [[||]] otherwise. *)
type decision = {
  d_index : int;
  d_chosen : int;
  d_quantum : int;
  d_preempted : bool;   (** the previously-running thread was still runnable *)
  d_nrunnable : int;    (** size of the choice set (always populated) *)
  d_runnable : int array;
}

type state

(** [~record] keeps the full decision log (see {!trace},
    {!to_schedule}); off by default.  A recording state allocates a
    {!decision} per {!pick} (see "Decisions" below). *)
val instantiate : ?record:bool -> spec -> state

val spec_of : state -> spec

(** Mid-execution copy for snapshots ([Machine.snapshot]/[restore]):
    same spec, same cursors, so the copy continues the schedule exactly
    where the original was ([Fault.copy_state] discipline), and the
    recorded decision log survives, so a restored execution's trace
    covers the pre-snapshot prefix. *)
val copy_full : state -> state

(** Decisions made so far. *)
val decisions : state -> int

(** Decisions that switched away from a still-runnable thread. *)
val preemptions : state -> int

(** Recorded decisions, oldest first; empty unless [~record]. *)
val trace : state -> decision array

(** The recorded log as a replayable {!Schedule.t}. *)
val to_schedule : state -> Schedule.t

(** The historical quantum perturbation, kept bit-for-bit:
    [8 + ((seed lxor (steps * 2654435761)) land 31)]. *)
val legacy_quantum : seed:int -> steps:int -> int

(** {2 Decisions}

    A decision is three calls: {!pick} chooses, {!quantum} says how
    many steps the choice runs, and {!last_decision} materialises the
    record for whoever looks (the VM calls it only when its
    observability hook is installed).  An unrecorded decision under
    [Round_robin] or [Random] allocates nothing; [Priority], [Replay]
    and [Forced] may allocate while choosing. *)

(** [pick st ~runnable ~steps] makes one scheduling decision over the
    current runnable set (spawn indexes in creation order) and returns
    the chosen spawn index; the quantum and the preemption flag stay in
    [st].  [steps] is the VM step count at the pick (consumed by the
    legacy quantum formula).  [runnable] is not retained (the log keeps
    a copy).
    @raise Invalid_argument on an empty runnable set. *)
val pick : state -> runnable:int array -> steps:int -> int

(** The quantum of the last {!pick}. *)
val quantum : state -> int

(** The last {!pick} as a record: the logged one when [st] records,
    otherwise built on this call (with [d_runnable = [||]]).
    Meaningless before the first pick. *)
val last_decision : state -> decision

(** {2 CLI surface} *)

val policy_name : policy -> string

(** Debug/reporting rendering, e.g. ["random/seed=7"]. *)
val spec_to_string : spec -> string

(** Parse ["rr" | "round-robin" | "random" | "prio:T=P,..."]; [Replay]
    and [Forced] are built programmatically. *)
val policy_of_string : string -> (policy, string) result
