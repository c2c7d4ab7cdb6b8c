(* DualEx-style cost baseline (Kim et al. 2015).

   DualEx aligns the two executions with Execution Indexing: every
   executed instruction is reported to a monitor process that maintains a
   tree-structured index and decides blocking, in lockstep.  The
   alignment *decisions* are equivalent to LDX's (both realize precise
   control-flow alignment); what differs is cost — three orders of
   magnitude (Sec. 8.1, Related Work).

   We therefore model DualEx as: the same dual-execution verdicts as
   {!Engine}, with a wall clock charged Cost.index_monitor per executed
   instruction of either execution (index construction + IPC + lockstep
   wait), serialized through the monitor. *)

module Cost = Ldx_vm.Cost

type estimate = {
  ldx_overhead : float;          (* fraction over native *)
  dualex_overhead : float;
}

let of_result ~(native_cycles : int) (r : Engine.result) : estimate =
  let steps = r.Engine.master.Engine.steps + r.Engine.slave.Engine.steps in
  let dualex_wall =
    max r.Engine.master.Engine.cycles r.Engine.slave.Engine.cycles
    + (steps * Cost.index_monitor)
  in
  let pct base v = float_of_int (v - base) /. float_of_int (max 1 base) in
  { ldx_overhead = pct native_cycles r.Engine.wall_cycles;
    dualex_overhead = pct native_cycles dualex_wall }
