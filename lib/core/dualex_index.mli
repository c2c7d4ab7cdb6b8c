(** DualEx-style cost baseline (Kim et al. 2015).

    DualEx aligns executions with Execution Indexing: every executed
    instruction is reported to a monitor that maintains a tree index and
    enforces lockstep.  Its alignment decisions match LDX's; the cost
    does not — three orders of magnitude (Sec. 8.1).  This module turns
    an LDX {!Engine.result} into the modelled DualEx wall clock. *)

type estimate = {
  ldx_overhead : float;       (** fraction over native *)
  dualex_overhead : float;
}

val of_result : native_cycles:int -> Engine.result -> estimate
