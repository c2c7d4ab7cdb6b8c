(** Deterministic in-VM cost attribution.

    Flat per-opcode, per-CFG-block, per-syscall and engine-category
    counters, bumped at exactly the sites where the machine charges its
    virtual clock.  Zero allocation on the hot path; a machine without
    a profile pays one pointer comparison per charge site, and the
    no-perturbation invariant (verdicts and engine counters
    bit-identical with profiling on/off) is pinned by tests.

    Profiles are derived from the deterministic virtual clock, so they
    are bit-reproducible across runs and across [jobs] settings. *)

type t

(** {1 Opcode ids} — dense indices used at dispatch.  [op_names.(op)]
    is the display name. *)

val op_assign : int
val op_store : int
val op_call : int
val op_call_indirect : int
val op_syscall : int
val op_cnt_add : int
val op_loop_enter : int
val op_loop_back : int
val op_loop_exit : int
val op_jump : int
val op_branch : int
val op_ret : int
val n_ops : int
val op_names : string array

(** {1 Engine coupling categories} — cycles the slave clock gains on
    the engine's record-copy path rather than at ordinary dispatch:
    [eng_share_copy] (fixed copy charge), [eng_couple_stall]
    (fast-forward to the producing master stamp), [eng_sink_compare]
    (sink comparison charge). *)

val eng_share_copy : int
val eng_couple_stall : int
val eng_sink_compare : int
val n_eng : int
val eng_names : string array

(** {1 Construction} *)

(** A fresh, unattached profile.  All counters zero. *)
val create : unit -> t

(** [attach p prog] computes the flat block numbering for [prog]
    (functions in program order, blocks in index order) and sizes the
    per-block arrays.  Idempotent; the first attached program wins, so
    do not share one profile between machines running different
    programs.  Called by [Machine.create] when a profile is passed. *)
val attach : t -> Ldx_cfg.Ir.program -> unit

(** Flat block base of a function, or 0 if unknown/unattached.  A
    block's flat index is [base_of p fname + bid]. *)
val base_of : t -> string -> int

(** {1 Charging} — called from the machine/engine hot paths. *)

(** One dispatch: a step and [cost] cycles against opcode [op] and flat
    block [blk]. *)
val charge : t -> op:int -> blk:int -> cost:int -> unit

(** Cycles whose step was already counted at dispatch (syscall
    service): cycles only. *)
val charge_cycles : t -> op:int -> blk:int -> cost:int -> unit

(** Per-syscall breakdown (cold path, keyed by syscall name). *)
val charge_syscall : t -> sys:string -> cost:int -> unit

(** Engine coupling category charge. *)
val charge_engine : t -> cat:int -> cycles:int -> unit

(** {1 Snapshots} — the counters as pure data, for rendering
    ([Ldx_prof]) and comparison.  Nothing rebuilds a profile from one:
    an [Ldx_snap] snapshot carries no profile, and a machine restored
    from it is unprofiled. *)

type row = { r_name : string; r_steps : int; r_cycles : int }

type block_row = {
  b_func : string;
  b_bid : int;
  b_steps : int;
  b_cycles : int;
}

type snapshot = {
  s_ops : row list;           (** opcode order, zero rows dropped *)
  s_blocks : block_row list;  (** program order, zero rows dropped *)
  s_syscalls : row list;      (** name-sorted *)
  s_engine : row list;        (** category order, zero rows dropped *)
  s_total_steps : int;
  s_total_cycles : int;
      (** op cycles + engine cycles: equals the side's machine clock *)
}

val snapshot : t -> snapshot
