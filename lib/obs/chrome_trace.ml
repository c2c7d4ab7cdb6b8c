(* Chrome trace-event export.  See the interface for the track layout. *)

let pid_engine = 0
let pid_master = 1
let pid_slave = 2

(* A dedicated lane per side for the scheduler timeline: one slice per
   decision (which thread ran, for how many steps), instants for
   preemptions.  The tid is far above any spawn index so the lane sorts
   below the per-thread tracks. *)
let tid_sched = 999

(* Journal lane on the engine track: checkpoint/resume/quarantine
   instants of the campaign durability layer. *)
let tid_journal = 998

(* Snapshot lane on the engine track: a capture instant at the decouple
   point, then one slice per restored suffix (duration = suffix
   cycles), so the prefix/suffix split of an incremental campaign is
   directly visible; an instant for each fallback to full passes. *)
let tid_snap = 997

(* Per-task campaign lanes on the engine track: task [i] gets lane
   [tid_task_base + i], carrying a begin instant and one slice whose
   duration is the task's deterministic virtual wall.  Tasks are laid
   end-to-end on their own clock (buffered sinks drain in task order,
   so the layout is byte-stable at any [jobs]). *)
let tid_task_base = 1000

let pid_of_side = function
  | Event.Master -> pid_master
  | Event.Slave -> pid_slave

let obj ~name ~cat ~ph ~ts ~pid ~tid extra =
  Json.Obj
    ([ ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid) ]
     @ extra)

let args fields = [ ("args", Json.Obj fields) ]

let of_events (events : Event.t list) : Json.t =
  let out = ref [] in
  let emit j = out := j :: !out in
  (* engine-track timestamps: running max of every stamp seen so far *)
  let now = ref 0 in
  let tick ts = if ts > !now then now := ts in
  (* lanes seen, for thread_name metadata *)
  let lanes : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let lane pid tid = Hashtbl.replace lanes (pid, tid) () in
  lane pid_engine 0;
  (* task-lane labels for thread_name metadata, and the end-to-end
     task clock *)
  let task_labels : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let task_clock = ref 0 in
  let flow_id = ref 0 in
  let summaries = ref [] in
  List.iter
    (fun (ev : Event.t) ->
       match ev with
       | Event.Phase_begin p ->
         emit
           (obj ~name:(Event.phase_to_string p) ~cat:"phase" ~ph:"B" ~ts:!now
              ~pid:pid_engine ~tid:0 [])
       | Event.Phase_end p ->
         emit
           (obj ~name:(Event.phase_to_string p) ~cat:"phase" ~ph:"E" ~ts:!now
              ~pid:pid_engine ~tid:0 [])
       | Event.Syscall { side; tid; sys; site; pos; ts; dur } ->
         tick ts;
         let pid = pid_of_side side in
         lane pid tid;
         emit
           (obj ~name:sys ~cat:"syscall" ~ph:"X" ~ts:(ts - dur) ~pid ~tid
              (("dur", Json.Int dur)
               :: args [ ("site", Json.Int site); ("pos", Json.Str pos) ]))
       | Event.Barrier_wait { side; tid; loop; ts; dur } ->
         tick ts;
         let pid = pid_of_side side in
         lane pid tid;
         emit
           (obj ~name:(Printf.sprintf "L%d" loop) ~cat:"barrier" ~ph:"X"
              ~ts:(ts - dur) ~pid ~tid
              (("dur", Json.Int dur) :: args [ ("loop", Json.Int loop) ]))
       | Event.Couple
           { tid; pos; decision; sink; master_sys; slave_sys; master_ts;
             slave_ts } ->
         tick slave_ts;
         if Event.decision_coupled decision && master_ts >= 0 then begin
           incr flow_id;
           let name = Option.value master_sys ~default:"couple" in
           lane pid_master tid;
           lane pid_slave tid;
           emit
             (obj ~name ~cat:"couple" ~ph:"s" ~ts:master_ts ~pid:pid_master
                ~tid
                (("id", Json.Int !flow_id)
                 :: args [ ("pos", Json.Str pos) ]));
           emit
             (obj ~name ~cat:"couple" ~ph:"f" ~ts:slave_ts ~pid:pid_slave ~tid
                (("id", Json.Int !flow_id)
                 :: ("bp", Json.Str "e")
                 :: args [ ("pos", Json.Str pos) ]))
         end
         else
           emit
             (obj
                ~name:(Event.decision_to_string decision)
                ~cat:"align" ~ph:"i" ~ts:slave_ts ~pid:pid_slave ~tid
                (("s", Json.Str "t")
                 :: args
                      [ ("pos", Json.Str pos);
                        ("sink", Json.Bool sink);
                        ( "master",
                          match master_sys with
                          | Some s -> Json.Str s
                          | None -> Json.Null );
                        ( "slave",
                          match slave_sys with
                          | Some s -> Json.Str s
                          | None -> Json.Null ) ]))
       | Event.Divergence { case; kind; sys; site; pos } ->
         emit
           (obj ~name:kind ~cat:"divergence" ~ph:"i" ~ts:!now ~pid:pid_engine
              ~tid:0
              (("s", Json.Str "p")
               :: args
                    [ ("case", Json.Int case);
                      ("sys", Json.Str sys);
                      ("site", Json.Int site);
                      ("pos", Json.Str pos) ]))
       | Event.Mutation { sys; site; pos; before; after } ->
         emit
           (obj ~name:("mutate " ^ sys) ~cat:"mutation" ~ph:"i" ~ts:!now
              ~pid:pid_engine ~tid:0
              (("s", Json.Str "p")
               :: args
                    [ ("site", Json.Int site);
                      ("pos", Json.Str pos);
                      ("before", Json.Str before);
                      ("after", Json.Str after) ]))
       | Event.Fault_injected { side; sys; site; action } ->
         emit
           (obj ~name:("fault " ^ sys) ~cat:"fault" ~ph:"i" ~ts:!now
              ~pid:(pid_of_side side) ~tid:0
              (("s", Json.Str "p")
               :: args
                    [ ("site", Json.Int site);
                      ("action", Json.Str action) ]))
       | Event.Task_done { label; status; attempts; exn } ->
         emit
           (obj ~name:("task " ^ label) ~cat:"campaign" ~ph:"i" ~ts:!now
              ~pid:pid_engine ~tid:0
              (("s", Json.Str "p")
               :: args
                    [ ("status", Json.Str status);
                      ("attempts", Json.Int attempts);
                      ( "exn",
                        match exn with
                        | Some e -> Json.Str e
                        | None -> Json.Null ) ]))
       | Event.Schedule_decision { side; index; chosen; runnable; quantum; ts }
         ->
         tick ts;
         let pid = pid_of_side side in
         lane pid tid_sched;
         emit
           (obj
              ~name:(Printf.sprintf "t%d" chosen)
              ~cat:"sched" ~ph:"X" ~ts ~pid ~tid:tid_sched
              (("dur", Json.Int quantum)
               :: args
                    [ ("index", Json.Int index);
                      ("runnable", Json.Int runnable);
                      ("quantum", Json.Int quantum) ]))
       | Event.Preemption { side; index; chosen; ts } ->
         tick ts;
         let pid = pid_of_side side in
         lane pid tid_sched;
         emit
           (obj
              ~name:(Printf.sprintf "preempt -> t%d" chosen)
              ~cat:"sched" ~ph:"i" ~ts ~pid ~tid:tid_sched
              (("s", Json.Str "t") :: args [ ("index", Json.Int index) ]))
       | Event.Campaign_plan { mode; jobs; tasks; est_steps } ->
         emit
           (obj ~name:("campaign " ^ mode) ~cat:"campaign" ~ph:"i" ~ts:!now
              ~pid:pid_engine ~tid:0
              (("s", Json.Str "p")
               :: args
                    [ ("jobs", Json.Int jobs);
                      ("tasks", Json.Int tasks);
                      ("est_steps", Json.Int est_steps) ]))
       | Event.Checkpoint { path; tasks; journaled } ->
         lane pid_engine tid_journal;
         emit
           (obj ~name:"checkpoint" ~cat:"journal" ~ph:"i" ~ts:!now
              ~pid:pid_engine ~tid:tid_journal
              (("s", Json.Str "t")
               :: args
                    [ ("path", Json.Str path);
                      ("tasks", Json.Int tasks);
                      ("journaled", Json.Int journaled) ]))
       | Event.Resume { path; tasks; replayed; rerun; torn } ->
         lane pid_engine tid_journal;
         emit
           (obj ~name:"resume" ~cat:"journal" ~ph:"i" ~ts:!now
              ~pid:pid_engine ~tid:tid_journal
              (("s", Json.Str "t")
               :: args
                    [ ("path", Json.Str path);
                      ("tasks", Json.Int tasks);
                      ("replayed", Json.Int replayed);
                      ("rerun", Json.Int rerun);
                      ("torn", Json.Int torn) ]))
       | Event.Quarantine { label; attempts; exn } ->
         lane pid_engine tid_journal;
         emit
           (obj ~name:("quarantine " ^ label) ~cat:"journal" ~ph:"i" ~ts:!now
              ~pid:pid_engine ~tid:tid_journal
              (("s", Json.Str "t")
               :: args
                    [ ("attempts", Json.Int attempts);
                      ("exn", Json.Str exn) ]))
       | Event.Task_begin { label; index } ->
         let tid = tid_task_base + index in
         lane pid_engine tid;
         Hashtbl.replace task_labels tid ("task " ^ label);
         emit
           (obj ~name:("begin " ^ label) ~cat:"campaign" ~ph:"i"
              ~ts:!task_clock ~pid:pid_engine ~tid
              (("s", Json.Str "t") :: args [ ("index", Json.Int index) ]))
       | Event.Task_timing { label; index; wall_cycles; _ } ->
         (* only the deterministic virtual wall is rendered; the
            wall-clock queue/run split stays out of the (golden-pinned)
            trace *)
         let tid = tid_task_base + index in
         lane pid_engine tid;
         Hashtbl.replace task_labels tid ("task " ^ label);
         emit
           (obj ~name:label ~cat:"campaign" ~ph:"X" ~ts:!task_clock
              ~pid:pid_engine ~tid
              (("dur", Json.Int wall_cycles)
               :: args
                    [ ("index", Json.Int index);
                      ("wall_cycles", Json.Int wall_cycles) ]));
         task_clock := !task_clock + wall_cycles
       (* Campaign_progress payloads are arrival-ordered and mean-based
          (nondeterministic at jobs>1) — excluded from traces *)
       | Event.Campaign_progress _ -> ()
       | Event.Lease_claim { index; owner; epoch; reclaimed } ->
         lane pid_engine tid_journal;
         emit
           (obj
              ~name:(Printf.sprintf "lease #%d e%d" index epoch)
              ~cat:"queue" ~ph:"i" ~ts:!now ~pid:pid_engine ~tid:tid_journal
              (("s", Json.Str "t")
               :: args
                    [ ("owner", Json.Str owner);
                      ("reclaimed", Json.Bool reclaimed) ]))
       | Event.Lease_expired { index; owner; epoch } ->
         lane pid_engine tid_journal;
         emit
           (obj
              ~name:(Printf.sprintf "lease-expired #%d e%d" index epoch)
              ~cat:"queue" ~ph:"i" ~ts:!now ~pid:pid_engine ~tid:tid_journal
              (("s", Json.Str "t") :: args [ ("owner", Json.Str owner) ]))
       | Event.Worker_event { owner; kind } ->
         lane pid_engine tid_journal;
         emit
           (obj ~name:("worker " ^ kind) ~cat:"service" ~ph:"i" ~ts:!now
              ~pid:pid_engine ~tid:tid_journal
              (("s", Json.Str "t") :: args [ ("owner", Json.Str owner) ]))
       | Event.Snapshot_captured
           { forked; prefix_cycles; prefix_steps; prefix_syscalls } ->
         tick prefix_cycles;
         lane pid_engine tid_snap;
         emit
           (obj ~name:"capture" ~cat:"snap" ~ph:"i" ~ts:prefix_cycles
              ~pid:pid_engine ~tid:tid_snap
              (("s", Json.Str "t")
               :: args
                    [ ("forked", Json.Bool forked);
                      ("prefix_cycles", Json.Int prefix_cycles);
                      ("prefix_steps", Json.Int prefix_steps);
                      ("prefix_syscalls", Json.Int prefix_syscalls) ]))
       | Event.Snapshot_restored { prefix_cycles; suffix_cycles } ->
         tick (prefix_cycles + suffix_cycles);
         lane pid_engine tid_snap;
         emit
           (obj ~name:"resume" ~cat:"snap" ~ph:"X" ~ts:prefix_cycles
              ~pid:pid_engine ~tid:tid_snap
              (("dur", Json.Int suffix_cycles)
               :: args
                    [ ("prefix_cycles", Json.Int prefix_cycles);
                      ("suffix_cycles", Json.Int suffix_cycles) ]))
       | Event.Snapshot_fallback { reason } ->
         lane pid_engine tid_snap;
         emit
           (obj ~name:"fallback" ~cat:"snap" ~ph:"i" ~ts:!now ~pid:pid_engine
              ~tid:tid_snap
              (("s", Json.Str "t") :: args [ ("reason", Json.Str reason) ]))
       | Event.Os_call _ | Event.Cnt_sample _ -> ()
       | Event.Run_summary
           { side; cycles; steps; syscalls; cnt_instrs; trap; derived } ->
         tick cycles;
         summaries :=
           ( Event.side_to_string side,
             Json.Obj
               ([ ("cycles", Json.Int cycles);
                  ("steps", Json.Int steps);
                  ("syscalls", Json.Int syscalls);
                  ("cnt_instrs", Json.Int cnt_instrs);
                  ( "trap",
                    match trap with Some m -> Json.Str m | None -> Json.Null )
                ]
                @ if derived then [ ("derived", Json.Bool true) ] else []) )
           :: !summaries)
    events;
  let meta =
    List.concat_map
      (fun (pid, name) ->
         [ Json.Obj
             [ ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int pid);
               ("args", Json.Obj [ ("name", Json.Str name) ]) ] ])
      [ (pid_engine, "engine"); (pid_master, "master"); (pid_slave, "slave") ]
    @ (Hashtbl.fold (fun k () acc -> k :: acc) lanes []
       |> List.sort compare
       |> List.map (fun (pid, tid) ->
         Json.Obj
           [ ("name", Json.Str "thread_name");
             ("ph", Json.Str "M");
             ("pid", Json.Int pid);
             ("tid", Json.Int tid);
             ( "args",
               Json.Obj
                 [ ( "name",
                     Json.Str
                       (if tid = tid_sched then "sched"
                        else if tid = tid_journal then "journal"
                        else if tid = tid_snap then "snapshot"
                        else
                          match Hashtbl.find_opt task_labels tid with
                          | Some l -> l
                          | None -> Printf.sprintf "thread %d" tid) ) ] ) ]))
  in
  Json.Obj
    [ ("displayTimeUnit", Json.Str "ns");
      ("otherData", Json.Obj (List.rev !summaries));
      ("traceEvents", Json.Arr (meta @ List.rev !out)) ]

let to_string events = Json.to_string (of_events events)
