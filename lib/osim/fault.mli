(** Deterministic environment fault injection.

    An immutable, seeded fault {!t} describes how the simulated OS
    misbehaves: rules keyed by syscall name / static site / nth dynamic
    occurrence, each carrying an {!action}.  Instantiating the plan
    yields a per-execution {!state} holding the dynamic occurrence
    counters, so replaying the same plan over the same syscall stream
    fires the same faults — the property the LDX false-positive argument
    rests on (see DESIGN.md, "Fault model").  Probabilistic rules use a
    hash of (seed, rule index, occurrence), never a live RNG, so plans
    are bit-reproducible across executions, domains and processes. *)

type action =
  | Error_return of Sval.t
      (** replace the result with this value; the syscall is not executed *)
  | Short_read of int
      (** cap read/recv payloads at this many bytes *)
  | Transient
      (** EINTR-style failure: canonical error value ([S ""] for
          string-returning syscalls, [I (-1)] otherwise), not executed *)
  | Drop_message
      (** recv: the message is consumed but lost (empty result);
          send: claimed successful but never delivered *)
  | Clock_skew of int
      (** advance the OS clock by this delta, then execute honestly *)

type rule = {
  f_sys : string option;   (** syscall name; [None] matches any *)
  f_site : int option;     (** static call-site id; [None] matches any *)
  f_nth : int option;      (** fire only on the nth dynamic match (1-based) *)
  f_prob : int option;     (** fire on ~p% of matches (seeded coin) *)
  f_action : action;
}

val rule : ?sys:string -> ?site:int -> ?nth:int -> ?prob:int -> action -> rule

(** An immutable fault plan: ordered rules + coin seed.  Safe to share
    across executions and domains. *)
type t = {
  rules : rule list;
  seed : int;
}

val plan : ?seed:int -> rule list -> t
val is_empty : t -> bool

(** Per-execution dynamic state: the plan plus its occurrence counters. *)
type state

(** Fresh state with zeroed counters — what both the master's OS and a
    from-scratch slave replay get, so their fault schedules agree. *)
val instantiate : t -> state

(** Mid-execution copy (counters preserved): an OS rebuilt from a
    snapshot ([Ldx_snap]) continues the fault schedule exactly where the
    original was. *)
val copy_state : state -> state

(** Number of faults injected so far in this execution. *)
val injected : state -> int

(** The action to inject for this dynamic syscall, or [None] to service
    it honestly.  Advances every matching rule's occurrence counter; the
    first firing rule in plan order wins. *)
val decide : state -> sys:string -> site:int -> action option

val action_to_string : action -> string
val rule_to_string : rule -> string
val to_string : t -> string

(** Parse a plan spec: comma-separated rules of the form
    [ACTION:SYS[@NTH][#SITE][%PROB]] where ACTION is
    [error[=INT]] | [eof] | [short=K] | [transient] | [drop] | [skew=D]
    and SYS may be [*] for any syscall.  Example:
    ["short=2:read@1,drop:recv%50,skew=100:time"]. *)
val parse : ?seed:int -> string -> (t, string) result

(** A small random plan drawn from type-plausible (syscall, action)
    templates — the chaos-mode generator. *)
val random : rand:Random.State.t -> unit -> t
