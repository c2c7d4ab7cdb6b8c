(* Schedule sweep: bounded interleaving exploration over dual executions.

   LDX's verdict is a function of BOTH inputs and interleaving: a leak
   through a shared buffer may only reach a sink under some thread
   orders.  This driver enumerates schedules with Explore (iterative
   context bounding over the base round-robin) and dual-executes the
   program under each — the SAME Forced spec on master and slave, so
   both sides follow one interleaving and the zero-source soundness
   invariant carries over schedule-by-schedule (with no sources the two
   executions are identical under ANY common schedule, hence report
   nothing; asserted by the property suite).

   The aggregate classifies the workload: schedule-STABLE when every
   explored interleaving agrees on the leak verdict, schedule-SENSITIVE
   otherwise — the latter is the signal that one seed's verdict must
   not be trusted alone (Table 4 workloads are expected stable: their
   leaks flow through syscall outcomes, not races). *)

module Sched = Ldx_sched.Scheduler
module Explore = Ldx_sched.Explore
module Machine = Ldx_vm.Machine
module World = Ldx_osim.World
module Ir = Ldx_cfg.Ir

type verdict = {
  v_forced : (int * int) list;
  v_signature : string;
  v_decisions : int;
  v_preemptions : int;
  v_result : Engine.result;
}

type t = {
  verdicts : verdict list;
  schedules : int;
  leaks : int;
  stable : bool;
}

let explore ?bound ?max_schedules ?(config = Engine.default_config)
    (prog : Ir.program) (world : World.t) : t =
  let run forced =
    (* one spec drives both sides; recording on so the master's trace
       feeds the enumerator's branch points *)
    let spec = Sched.spec ~seed:config.Engine.master_seed (Sched.Forced forced) in
    let cfg =
      { config with
        Engine.master_sched = Some spec;
        slave_sched = Some spec;
        record_sched = true }
    in
    let mo = Engine.master_pass cfg prog world in
    let trace = Sched.trace mo.Engine.mmachine.Machine.sched in
    let preempts = Sched.preemptions mo.Engine.mmachine.Machine.sched in
    let r = Engine.run_with_master cfg prog world mo in
    (trace, (r, preempts))
  in
  let outs = Explore.enumerate ?bound ?max_schedules ~run () in
  let verdicts =
    List.map
      (fun (o : _ Explore.outcome) ->
         let r, preempts = o.Explore.x_value in
         { v_forced = o.Explore.x_forced;
           v_signature = o.Explore.x_signature;
           v_decisions = Array.length o.Explore.x_trace;
           v_preemptions = preempts;
           v_result = r })
      outs
  in
  let leaks =
    List.length (List.filter (fun v -> v.v_result.Engine.leak) verdicts)
  in
  { verdicts;
    schedules = List.length verdicts;
    leaks;
    stable = leaks = 0 || leaks = List.length verdicts }

let classification t =
  if t.schedules = 0 then "empty"
  else if not t.stable then "schedule-sensitive"
  else if t.leaks > 0 then "schedule-stable leak"
  else "schedule-stable clean"

let render (t : t) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %-24s %6s %9s %8s %6s\n" "schedule" "forced"
       "decs" "preempts" "reports" "leak");
  List.iteri
    (fun i v ->
       let forced =
         if v.v_forced = [] then "(base)"
         else
           String.concat ","
             (List.map (fun (d, th) -> Printf.sprintf "%d:t%d" d th) v.v_forced)
       in
       Buffer.add_string buf
         (Printf.sprintf "%-10s %-24s %6d %9d %8d %6b\n"
            (Printf.sprintf "#%d" i) forced v.v_decisions v.v_preemptions
            (List.length v.v_result.Engine.reports)
            v.v_result.Engine.leak))
    t.verdicts;
  Buffer.add_string buf
    (Printf.sprintf "%d schedules, %d leaking: %s\n" t.schedules t.leaks
       (classification t));
  Buffer.contents buf
