(** Bounded schedule exploration over dual executions.

    LDX's verdict depends on the interleaving as well as the inputs: a
    leak through shared state may only reach a sink under some thread
    orders.  [explore] enumerates interleavings with
    {!Ldx_sched.Explore} (iterative context bounding over the base
    round-robin: all schedules with 0 forced preemptions, then 1, … up
    to the bound) and dual-executes the program under each — the SAME
    [Forced] scheduler spec on master and slave, so both sides follow
    one interleaving and the zero-source soundness invariant holds
    schedule-by-schedule.

    The aggregate classifies the workload: {e schedule-stable} when
    every explored interleaving agrees on the leak verdict,
    {e schedule-sensitive} otherwise — the signal that a single-seed
    verdict must not be trusted alone.  EXPERIMENTS.md "Table 4 across
    schedules" reports the Table 4 workloads stable-leaking under every
    explored schedule. *)

(** One explored interleaving's dual-execution outcome. *)
type verdict = {
  v_forced : (int * int) list;
      (** forced [(decision index, thread)] overrides; [[]] = base *)
  v_signature : string;   (** chosen-thread sequence identifying it *)
  v_decisions : int;      (** scheduling decisions in the master pass *)
  v_preemptions : int;    (** decisions that switched off a runnable thread *)
  v_result : Engine.result;
}

type t = {
  verdicts : verdict list;  (** in deterministic exploration order *)
  schedules : int;          (** distinct interleavings explored *)
  leaks : int;              (** how many of them leaked *)
  stable : bool;            (** all verdicts agree ([leaks] = 0 or all) *)
}

(** [explore ?bound ?max_schedules ?config prog world] explores up to
    [max_schedules] (default 32) distinct interleavings with at most
    [bound] (default 2) forced preemptions each.  [config]'s
    [master_sched]/[slave_sched]/[record_sched] fields are overridden
    by the sweep; everything else (sources, sinks, strategy, faults…)
    applies to every run.  Fully deterministic: same inputs, same
    verdict list. *)
val explore :
  ?bound:int -> ?max_schedules:int -> ?config:Engine.config ->
  Ldx_cfg.Ir.program -> Ldx_osim.World.t -> t

(** ["schedule-stable clean" | "schedule-stable leak" |
    "schedule-sensitive" | "empty"]. *)
val classification : t -> string

(** Fixed-width per-schedule table plus the classification line. *)
val render : t -> string
