(* Text rendering of Ldx_obs metrics snapshots. *)

module Metrics = Ldx_obs.Metrics

let describe name =
  match name with
  | "divergence.case1" -> "syscall missing in one execution (paper case 1)"
  | "divergence.case2" -> "same counter, different PC (paper case 2)"
  | "divergence.case3" -> "aligned sink, different parameters (paper case 3)"
  | "divergence.final-state" -> "final-state extension reports"
  | "engine.copies" -> "coupled outcomes the slave consumed"
  | "engine.sink_compares" -> "coupled sink-argument comparisons"
  | "engine.mutations" -> "source mutations that changed a value"
  | "engine.slave_derived" -> "slaves derived from the master's log, not run"
  | "run.wall_cycles" -> "max of the two clocks (virtual two-CPU wall time)"
  | "master.cnt_instrs" | "slave.cnt_instrs" ->
    "counter-maintenance instructions (Fig. 6 numerator)"
  | "faults.master" -> "environment faults injected in the master"
  | "faults.slave" -> "environment faults injected in the slave"
  | "faults.drop" -> "dropped network messages"
  | "faults.short" -> "short reads/recvs"
  | "faults.transient" -> "transient (EINTR-style) failures"
  | "faults.error" -> "injected error returns"
  | "faults.skew" -> "clock-skew injections"
  | "campaign.ok" -> "campaign tasks that completed"
  | "campaign.crashed" -> "campaign tasks whose slave pass raised"
  | "campaign.fuel-exhausted" -> "campaign tasks that ran out of fuel"
  | "campaign.begun" -> "campaign tasks started"
  | "campaign.progress_events" -> "campaign heartbeat events"
  | "campaign.completed" -> "tasks done at the last heartbeat"
  | "campaign.cycles_done" -> "virtual cycles done at the last heartbeat"
  | "campaign.eta_cycles" ->
    "mean-based remaining-cycles estimate at the last heartbeat"
  | _ ->
    let prefixed p =
      String.length name > String.length p
      && String.sub name 0 (String.length p) = p
    in
    if prefixed "failures." then
      "executions trapped with this failure class"
    else ""

let counters_table (snap : Metrics.snapshot) : Table.t =
  Table.make ~title:"Metrics: counters and gauges"
    ~headers:[ "counter"; "value"; "meaning" ]
    ~aligns:[ Table.Left; Table.Right; Table.Left ]
    (List.map
       (fun (name, v) -> [ name; string_of_int v; describe name ])
       snap.Metrics.counters)

let histograms_table (snap : Metrics.snapshot) : Table.t =
  Table.make ~title:"Metrics: histograms"
    ~headers:[ "histogram"; "count"; "mean"; "min"; "max" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~notes:
      [ "dyn_cnt.*: dynamic counter value at each syscall (Table 1); \
         couple_lag: slave clock minus producing master stamp at each copy." ]
    (List.map
       (fun (name, h) ->
          [ name;
            string_of_int h.Metrics.h_count;
            Table.f2 (Metrics.hist_mean h);
            string_of_int h.Metrics.h_min;
            string_of_int h.Metrics.h_max ])
       snap.Metrics.hists)

let overhead_table (snap : Metrics.snapshot) : Table.t =
  let c name = Metrics.counter snap name in
  let share side =
    let steps = c (side ^ ".steps") in
    if steps = 0 then 0.0
    else float_of_int (c (side ^ ".cnt_instrs")) /. float_of_int steps
  in
  let row side =
    [ side;
      string_of_int (c (side ^ ".cycles"));
      string_of_int (c (side ^ ".steps"));
      string_of_int (c (side ^ ".syscalls"));
      string_of_int (c (side ^ ".cnt_instrs"));
      Table.pct (share side) ]
  in
  Table.make ~title:"Overhead accounting (Fig. 6 inputs)"
    ~headers:[ "side"; "cycles"; "steps"; "syscalls"; "cnt instrs"; "cnt share" ]
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right ]
    ~notes:
      [ Printf.sprintf "wall cycles (two-CPU max): %d"
          (Metrics.counter snap "run.wall_cycles");
        "cnt share = counter-maintenance instructions / executed steps; \
         the Fig. 6 overhead ratio is dual wall cycles / native cycles \
         (see `ldx_run --metrics` docs in README.md)." ]
    [ row "master"; row "slave" ]

let render snap =
  String.concat "\n"
    [ Table.render (overhead_table snap);
      Table.render (counters_table snap);
      Table.render (histograms_table snap) ]
