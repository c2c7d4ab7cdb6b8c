(** Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).

    Renders a recorded dual run as a visual Fig. 3 / Fig. 5: the master
    and slave executions appear as two process tracks (pid 1 and pid 2)
    on the shared virtual-cycle time axis, with one thread lane per
    spawn index; each serviced syscall is a complete ("X") slice, loop
    barrier waits are "barrier" slices, and every coupled syscall pair
    (copied or sink-match) is linked master-to-slave by a flow arrow
    ("s"/"f" pair) — the arrows make the slave's clock fast-forwarding
    past the producing master stamp directly visible.

    Engine-level happenings with no thread of their own — run phases
    (as "B"/"E" spans), divergence reports and source mutations (as
    instant events) — live on pid 0 ("engine"); their timestamps are
    the running maximum of all cycle stamps seen so far in the stream,
    which keeps the track monotone and properly nested.

    Each side additionally carries a "sched" lane (tid 999): one "X"
    slice per scheduling decision named after the chosen thread (with
    the granted quantum as its duration) and an instant per preemption
    — the schedule timeline the exploration mode perturbs.

    Incremental campaigns add a "snapshot" lane (tid 997): a capture
    instant at the decouple point (its [forked] argument says whether
    it was built from the master pass), one ["resume"] slice per
    restored suffix whose duration is the suffix's cycle cost — the
    prefix/suffix split, visually — and a ["fallback"] instant, with
    its reason, wherever full passes ran instead.

    Campaign runs add a "journal" lane (tid 998) with
    checkpoint/resume/quarantine instants, and one lane per task
    (tid 1000+index, named after the task label): a begin instant plus
    a slice whose duration is the task's deterministic virtual wall,
    tasks laid end-to-end in task order.  Wall-clock telemetry
    ([Task_timing]'s queue/run split, [Campaign_progress]) is excluded,
    so campaign traces stay byte-identical at any [jobs].

    Timestamps are virtual cycles reported in the format's microsecond
    field; absolute values are the engine's cycle model, only ratios
    are meaningful. *)

(** Build the trace object from events in emission order. *)
val of_events : Event.t list -> Json.t

(** [to_string events = Json.to_string (of_events events)]. *)
val to_string : Event.t list -> string
