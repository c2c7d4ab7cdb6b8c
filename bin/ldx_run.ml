(* ldx_run: dual-execute a MiniC program file under LDX.

     dune exec bin/ldx_run.exe -- prog.minic \
       --file /data/in=secret --endpoint srv=hello,world \
       --source recv --sink network

   Runs the master against the described world, spawns the mutated slave,
   and prints the causality report. *)

open Cmdliner
module Engine = Ldx_core.Engine
module Sched = Ldx_sched.Scheduler
module Schedule = Ldx_sched.Schedule
module Service_common = Ldx_service_cli.Service_common

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-sink reports.")

let trace =
  Arg.(value & flag
       & info [ "trace" ]
         ~doc:"Print the side-by-side aligned syscall trace (Fig. 3 style).")

let dot =
  Arg.(value & flag
       & info [ "dot" ]
         ~doc:"Print the instrumented program's CFGs as Graphviz and exit.")

let attribute =
  Arg.(value & flag
       & info [ "attribute" ]
         ~doc:"Record one master pass, then run one isolated-source slave \
               pass per source and print which source each flagged sink \
               depends on.")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Fan campaign slave passes (attribution, strategy sweeps) \
               out over $(docv) domains.  Results are identical to a \
               sequential run.")

let final_state =
  Arg.(value & flag
       & info [ "final-state" ]
         ~doc:"Also diff the two filesystems (contents and mtimes) after \
               the run.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record the run and write a Chrome trace-event JSON dual \
               timeline (master and slave tracks, flow arrows on coupled \
               syscalls) to $(docv) — load it in Perfetto or \
               chrome://tracing.")

let profile_flag =
  Arg.(value & flag
       & info [ "profile" ]
         ~doc:"Attach deterministic cost-attribution profiles to both \
               executions and print the ranked report (per-opcode, \
               per-CFG-block, per-syscall and engine coupling \
               categories in virtual cycles).  Profiling never perturbs \
               the run: verdicts and engine counters are bit-identical \
               with it on or off.")

let profile_json =
  Arg.(value & opt (some string) None
       & info [ "profile-json" ] ~docv:"FILE"
         ~doc:"Write the profile as JSON (schema ldx-prof/1) to $(docv) \
               — renderable and diffable later with ldx_prof.")

let profile_folded =
  Arg.(value & opt (some string) None
       & info [ "profile-folded" ] ~docv:"FILE"
         ~doc:"Write the profile as folded stacks \
               (side;function;block cycles) to $(docv), ready for \
               flamegraph.pl.")

let progress =
  Arg.(value & flag
       & info [ "progress" ]
         ~doc:"Campaign modes: print a live status line to stderr from \
               the campaign's heartbeat events (completed/total tasks, \
               virtual cycles done, cycle-based ETA).")

let metrics =
  Arg.(value & flag
       & info [ "metrics" ]
         ~doc:"Record the run and print the metrics tables (overhead \
               accounting, counters, histograms).")

let metrics_json =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:"Record the run and write the metrics snapshot (plus the \
               cycle-cost model) as JSON to $(docv).")

let faults =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Inject deterministic environment faults in BOTH executions: \
               comma-separated rules ACTION:SYSCALL[@NTH][#SITE][%PROB] \
               where ACTION is error[=INT] | eof | short=K | transient | \
               drop | skew=D, e.g. 'short=2:read@1,drop:recv%50'.  The \
               same seeded plan drives master and slave, so coupling is \
               preserved and zero sources still means zero reports.")

let fault_seed =
  Arg.(value & opt int 0
       & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Seed for probabilistic (%-rules) fault coins; the plan is \
               fully deterministic given the seed.")

let sched_policy =
  Arg.(value & opt (some string) None
       & info [ "sched" ] ~docv:"POLICY"
         ~doc:"Thread scheduling policy for BOTH executions: rr \
               (round-robin, the default) | random | prio:T=P,... \
               (spawn-index priorities).  Every policy is \
               bit-reproducible from --sched-seed.")

let sched_seed =
  Arg.(value & opt int 0
       & info [ "sched-seed" ] ~docv:"N"
         ~doc:"Seed for the --sched policy (pick/quantum hashes).")

let sched_replay =
  Arg.(value & opt (some file) None
       & info [ "sched-replay" ] ~docv:"FILE"
         ~doc:"Replay a schedule recorded with --sched-record in BOTH \
               executions (overrides --sched).")

let sched_record =
  Arg.(value & opt (some string) None
       & info [ "sched-record" ] ~docv:"FILE"
         ~doc:"Record the master's scheduling decisions and write the \
               schedule log to $(docv) (replayable via --sched-replay).")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
         ~doc:"With --sweep-strategies: persist the campaign manifest to \
               $(docv) and append each task outcome as it completes \
               (checksummed, flushed).  A campaign killed at any point \
               continues with --resume.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
         ~doc:"With --journal: resume the campaign from the journal — \
               replay recorded outcomes verbatim and run only the \
               missing tasks.  The rendered table is byte-identical to \
               an uninterrupted run.")

let abort_after =
  Arg.(value & opt (some int) None
       & info [ "abort-after" ] ~docv:"N"
         ~doc:"Crash-simulation hook for resume testing: exit(17) when \
               the campaign starts its (N+1)-th slave pass, leaving \
               exactly the completed outcomes in the --journal.")

let incremental_flag =
  Arg.(value & flag
       & info [ "incremental" ]
         ~doc:"Campaign modes: snapshot the shared slave prefix once, \
               at the first divergence-relevant decouple point, and \
               replay only each task's suffix from the snapshot; when \
               the slave shares the master's schedule the snapshot is \
               forked from the master pass.  The rendered table is \
               byte-identical to a full campaign at any --jobs; tasks \
               whose effective config diverges from the shared prefix \
               (retry jitter, deadlines, custom schedules) fall back to \
               full slave passes automatically, each fallback counted \
               as snap.fallback under --metrics.")

let run (spec : Service_common.spec) verbose trace dot attribute jobs
    final_state trace_out metrics metrics_json profile_flag profile_json
    profile_folded progress faults fault_seed sched_policy sched_seed
    sched_replay sched_record journal resume abort_after incremental
  =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> `Error (false, e) in
  let* input = Service_common.read_input spec in
  let world, base_config = Service_common.setup spec input in
  let* fault_plan =
    match faults with
    | None -> Ok None
    | Some spec ->
      (match Ldx_osim.Fault.parse ~seed:fault_seed spec with
       | Ok plan -> Ok (Some plan)
       | Error e -> Error ("bad --faults spec: " ^ e))
  in
  let* sched_spec =
    (* one spec drives both executions, so alignment is preserved under
       any policy (a schedule is input, not a perturbation) *)
    match sched_replay with
    | Some path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      (match Schedule.of_string text with
       | Ok s -> Ok (Some (Sched.spec ~seed:sched_seed (Sched.Replay s)))
       | Error e -> Error (Printf.sprintf "bad --sched-replay %s: %s" path e))
    | None ->
      (match sched_policy with
       | None -> Ok None
       | Some pol ->
         (match Sched.policy_of_string pol with
          | Ok p -> Ok (Some (Sched.spec ~seed:sched_seed p))
          | Error e -> Error ("bad --sched policy: " ^ e)))
  in
  let config =
    { base_config with
      Engine.record_trace = trace;
      check_final_state = final_state;
      faults = fault_plan;
      master_sched = sched_spec;
      slave_sched = sched_spec;
      record_sched = sched_record <> None }
  in
  let lowered () = Service_common.lower input in
  let recorder =
    if trace_out <> None || metrics || metrics_json <> None then
      Some (Ldx_obs.Recorder.create ())
    else None
  in
  let progress_sink =
    if progress then
      Some
        (Ldx_obs.Sink.of_fn (function
           | Ldx_obs.Event.Campaign_progress
               { completed; total; cycles_done; eta_cycles } ->
             Printf.eprintf "\r[%d/%d] cycles=%d eta=%d%s%!" completed total
               cycles_done eta_cycles
               (if completed >= total then "\n" else "")
           | _ -> ()))
    else None
  in
  let obs =
    match (Option.map Ldx_obs.Recorder.sink recorder, progress_sink) with
    | None, None -> None
    | (Some _ as s), None -> s
    | None, (Some _ as p) -> p
    | Some s, Some p -> Some (Ldx_obs.Sink.tee [ s; p ])
  in
  let prof =
    if profile_flag || profile_json <> None || profile_folded <> None then
      Some (Engine.fresh_profiles ())
    else None
  in
  let emit_profile () =
    match prof with
    | None -> `Ok ()
    | Some pp ->
      (try
         let d =
           Ldx_prof.Report.of_profiles ~master:pp.Engine.prof_master
             ~slave:pp.Engine.prof_slave
         in
         (match profile_json with
          | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Ldx_obs.Json.to_string (Ldx_prof.Report.to_json d));
                output_char oc '\n');
            Printf.printf "profile JSON written to %s\n" path
          | None -> ());
         (match profile_folded with
          | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Ldx_prof.Report.folded d));
            Printf.printf "folded stacks written to %s\n" path
          | None -> ());
         if profile_flag then begin
           print_newline ();
           print_string (Ldx_prof.Report.render d)
         end;
         `Ok ()
       with Sys_error msg -> `Error (false, msg))
  in
  (* observability output shared by the campaign modes and plain runs *)
  let emit_observability () =
    match recorder with
    | None -> `Ok ()
    | Some rc ->
      (try
         let write_file path data =
           Out_channel.with_open_text path (fun oc -> output_string oc data)
         in
         (match trace_out with
          | Some path ->
            write_file path
              (Ldx_obs.Chrome_trace.to_string (Ldx_obs.Recorder.events rc));
            Printf.printf "dual-timeline trace written to %s\n" path
          | None -> ());
         let snap = Ldx_obs.Recorder.snapshot rc in
         (match metrics_json with
          | Some path ->
            write_file path
              (Ldx_obs.Json.to_string
                 (Ldx_obs.Json.Obj
                    [ ("metrics", Ldx_obs.Metrics.to_json snap);
                      ( "cost_model",
                        Ldx_obs.Json.Obj
                          (List.map
                             (fun (k, v) -> (k, Ldx_obs.Json.Int v))
                             (Ldx_vm.Cost.to_assoc ())) ) ]));
            Printf.printf "metrics JSON written to %s\n" path
          | None -> ());
         if metrics then begin
           print_newline ();
           print_string (Ldx_report.Obs_report.render snap)
         end;
         `Ok ()
       with Sys_error msg -> `Error (false, msg))
  in
  let retry = Service_common.retry spec
  and task_deadline = spec.Service_common.task_deadline
  and sync = spec.Service_common.sync in
  (* the crash-simulation hook: completes the first N slave passes (and
     their journal appends), then dies as a killed process would *)
  let abort_runner =
    Option.map
      (fun n ->
         let count = Atomic.make 0 in
         fun ?obs cfg prog world mo ->
           if Atomic.fetch_and_add count 1 >= n then begin
             prerr_endline "ldx_run: --abort-after reached, aborting";
             exit 17
           end;
           Engine.run_with_master ?obs cfg prog world mo)
      abort_after
  in
  if dot then begin
    match lowered () with
    | Error msg -> `Error (false, msg)
    | Ok prog ->
      print_string (Ldx_cfg.Dot.program_to_dot prog);
      `Ok ()
  end
  else if attribute then begin
    match lowered () with
    | Error msg -> `Error (false, msg)
    | Ok prog ->
      let attrs =
        Ldx_core.Attribute.per_source ~config ~jobs ?obs ?retry
          ?deadline:task_deadline ~incremental prog world
      in
      print_string (Ldx_core.Attribute.render attrs);
      emit_observability ()
  end
  else if spec.Service_common.sweep <> None then begin
    match lowered () with
    | Error msg -> `Error (false, msg)
    | Ok prog ->
      let params = Service_common.tasks spec config in
      (* graceful drain for journaled campaigns: the handler flips a
         flag, the campaign stops claiming new tasks (in-flight tasks
         finish and are journaled), and we exit 21 — a later --resume
         picks up exactly the missing tasks.  Without a journal the
         default signal behaviour (die, lose the run) is unchanged. *)
      let draining = Atomic.make false in
      if journal <> None then begin
        let h = Sys.Signal_handle (fun _ -> Atomic.set draining true) in
        Sys.set_signal Sys.sigterm h;
        Sys.set_signal Sys.sigint h
      end;
      let stop () = Atomic.get draining in
      let outs =
        match (journal, resume) with
        | None, true -> Error "--resume requires --journal"
        | Some path, true ->
          (match
             Ldx_core.Campaign.resume ~jobs ?obs ?retry
               ?deadline:task_deadline ?runner:abort_runner ~journal:path
               ~stop ~sync ~incremental ~config prog world params
           with
           | Ok outs ->
             Printf.eprintf "resumed campaign from %s\n%!" path;
             Ok outs
           | Error e -> Error e)
        | _, false ->
          Ok
            (Ldx_core.Campaign.run ~jobs ?obs ?retry ?deadline:task_deadline
               ?runner:abort_runner ?journal ~stop ~sync ~incremental ~config
               prog world params)
      in
      (match outs with
       | Error e -> `Error (false, e)
       | Ok outs ->
         if Atomic.get draining then begin
           Printf.eprintf
             "ldx_run: drained on signal, progress journaled to %s\n%!"
             (Option.value journal ~default:"-");
           exit 21
         end;
         print_string (Ldx_core.Campaign.render outs);
         (match journal with
          | Some path -> Printf.eprintf "campaign journal: %s\n%!" path
          | None -> ());
         emit_observability ())
  end
  else
  let ran =
    match input with
    | `Src src ->
      (match Engine.run_source ~config ?obs ?prof src world with
       | exception Failure msg -> Error msg
       | r -> Ok r)
    | `Workload _ ->
      (match lowered () with
       | Error msg -> Error msg
       | Ok prog ->
         (match Engine.run ~config ?obs ?prof prog world with
          | exception Failure msg -> Error msg
          | r -> Ok r))
  in
  match ran with
  | Error msg -> `Error (false, msg)
  | Ok r ->
    let trap_suffix (s : Engine.exec_summary) =
      match s.Engine.trap with
      | None -> ""
      | Some m ->
        Printf.sprintf ", TRAP(%s): %s"
          (Engine.failure_class_to_string (Engine.classify_trap (Some m)))
          m
    in
    Printf.printf "master: %d syscalls, %d cycles%s\n"
      r.Engine.master.Engine.syscalls r.Engine.master.Engine.cycles
      (trap_suffix r.Engine.master);
    Printf.printf "slave:  %d syscalls, %d cycles%s\n"
      r.Engine.slave.Engine.syscalls r.Engine.slave.Engine.cycles
      (trap_suffix r.Engine.slave);
    if fault_plan <> None then
      Printf.printf "faults injected: master %d, slave %d\n"
        r.Engine.master.Engine.faults_injected
        r.Engine.slave.Engine.faults_injected;
    Printf.printf "mutated inputs: %d, syscall differences: %d/%d\n"
      r.Engine.mutated_inputs r.Engine.syscall_diffs r.Engine.total_syscalls;
    if r.Engine.leak then begin
      Printf.printf
        "CAUSALITY DETECTED: %d tainted sink(s) of %d dynamic sinks\n"
        r.Engine.tainted_sinks r.Engine.total_sinks;
      if verbose then
        List.iter
          (fun rep -> print_endline ("  " ^ Engine.report_to_string rep))
          r.Engine.reports
    end
    else
      Printf.printf "no causality: sinks are independent of the sources\n";
    if trace then begin
      Printf.printf "\nAligned trace (master | slave):\n";
      print_string (Ldx_report.Trace_view.render r.Engine.trace)
    end;
    (try
       (match (sched_record, r.Engine.master_schedule) with
        | Some path, Some s ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Schedule.to_string s));
          Printf.printf "schedule written to %s (%d decisions)\n" path
            (Array.length s)
        | _ -> ());
       match emit_profile () with
       | `Ok () -> emit_observability ()
       | e -> e
     with Sys_error msg -> `Error (false, msg))

let cmd =
  let info =
    Cmd.info "ldx_run" ~doc:"Dual-execute a MiniC program under LDX"
  in
  Cmd.v info
    Term.(
      ret
        (const run $ Service_common.term $ verbose $ trace $ dot $ attribute
         $ jobs $ final_state $ trace_out $ metrics $ metrics_json
         $ profile_flag $ profile_json $ profile_folded $ progress $ faults
         $ fault_seed $ sched_policy $ sched_seed $ sched_replay
         $ sched_record $ journal_arg $ resume_arg $ abort_after
         $ incremental_flag))

let () = exit (Cmd.eval cmd)
