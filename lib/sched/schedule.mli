(** A recorded thread schedule: the compact log of one execution's
    scheduling decisions.

    Each entry carries exactly what the VM's pick point consumes — the
    chosen thread (by spawn index, the dual-execution pairing key) and
    the quantum granted in VM steps.  The log is immutable once built;
    replaying executions read it through a mutable {!cursor} which can
    be copied mid-run ({!copy_cursor}), so a cloned execution continues
    the schedule exactly where the original was — the same
    plan/state discipline as [Ldx_osim.Fault]. *)

type entry = {
  s_thread : int;    (** chosen thread, by spawn index *)
  s_quantum : int;   (** steps granted before the next pick *)
}

type t = entry array

val length : t -> int
val of_list : entry list -> t

(** [entry s i] is the [i]-th decision.
    @raise Invalid_argument when out of bounds. *)
val entry : t -> int -> entry

(** {2 Cursors} *)

type cursor

(** A fresh cursor at decision 0. *)
val start : t -> cursor

(** Mid-execution copy, fault-counter style: same immutable log, same
    position; clone and original advance independently from here. *)
val copy_cursor : cursor -> cursor

val pos : cursor -> int
val exhausted : cursor -> bool

(** The next recorded decision, advancing the cursor; [None] when the
    log is exhausted. *)
val next : cursor -> entry option

(** {2 Serialization}

    Line-oriented text: a ["# ldx-sched/1"] header, then one
    ["THREAD QUANTUM"] pair per decision.  ['#'] comments and blank
    lines are ignored on input. *)

val header : string
val to_string : t -> string
val of_string : string -> (t, string) result
