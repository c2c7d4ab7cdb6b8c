(* The LDX dual-execution engine (Sec. 3-7).

   The master executes against the real (simulated) OS and publishes every
   syscall outcome tagged with its position (counter + loop iterations +
   counter stack, {!Align}).  The slave consumes outcomes by position:

   - outcome at the slave's exact position with the same PC and the same
     parameters: coupled — the slave copies the result (mutated if the
     syscall is a configured source) and skips external effects;
   - same position and PC but different parameters (paper case 3): a
     causality witness at sinks; the resource is tainted and the slave
     decouples for this operation;
   - same position, different PC (case 2): the paths diverged — both
     syscalls execute independently;
   - master outcome strictly behind the slave's position (case 1): the
     syscall disappeared in the slave; the slave's own syscall with no
     master counterpart likewise appeared only in the slave.

   Positions strictly increase along a thread, so a FIFO per thread pair
   is a complete alignment index.  The two executions are composed
   sequentially (master first) — virtual two-CPU timing is preserved by
   stamping each outcome with the master's cycle clock and fast-forwarding
   the slave's clock on copies, which is how Fig. 6's "concurrent on two
   CPUs" overhead is modelled.  See DESIGN.md for the argument that this
   is observation-equivalent to the paper's spin-loop coupling.

   Every pass runs its machine through [Driver.drive], the one event loop
   (thread ops, blocked retries, traps), and differs only in the OS-call
   callback and hooks it hands that loop. *)

module Machine = Ldx_vm.Machine
module Profile = Ldx_vm.Profile
module Driver = Ldx_vm.Driver
module Value = Ldx_vm.Value
module Cost = Ldx_vm.Cost
module Os = Ldx_osim.Os
module Sval = Ldx_osim.Sval
module World = Ldx_osim.World
module Ir = Ldx_cfg.Ir
module Obs = Ldx_obs
module Sched = Ldx_sched.Scheduler
module Schedule = Ldx_sched.Schedule

(* ------------------------------------------------------------------ *)
(* Configuration.                                                      *)

type source_spec = {
  src_sys : string option;      (* syscall name, e.g. "recv" *)
  src_site : int option;        (* static site id *)
  src_arg : string option;      (* substring of arg0 / touched resource *)
  src_nth : int option;         (* only the nth dynamic match (1-based) *)
}

let source ?sys ?site ?arg ?nth () =
  { src_sys = sys; src_site = site; src_arg = arg; src_nth = nth }

type sink_config =
  | Output_syscalls             (* write/send/print/malloc/retaddr *)
  | Network_outputs             (* send only *)
  | File_outputs                (* write/print *)
  | Attack_sinks                (* retaddr + malloc sizes *)

(* The named sink sets, one row each: the name the command line takes,
   the set, and the tag fingerprints hash.  Journals persist the tag, so
   a tag never changes. *)
let sink_sets =
  [ ("outputs", Output_syscalls, "output");
    ("network", Network_outputs, "network");
    ("files", File_outputs, "file");
    ("attack", Attack_sinks, "attack") ]

let sinks_tag (sinks : sink_config) =
  let _, _, tag = List.find (fun (_, s, _) -> s = sinks) sink_sets in
  tag

type config = {
  sources : source_spec list;
  sinks : sink_config;
  strategy : Mutation.strategy;
  master_seed : int;
  slave_seed : int;
  max_steps : int;
  record_trace : bool;        (* keep a per-syscall alignment action log *)
  check_final_state : bool;
  (* Extension of the paper's future work (Sec. 1): after the dual run,
     compare the two filesystems — contents AND mtimes — and report
     files that diverged.  Catches leaks routed through file state or
     metadata that never pass a configured sink syscall. *)
  faults : Ldx_osim.Fault.t option;
  (* Environment fault plan, shared by BOTH sides (like sinks and
     max_steps, a master-side field): the master's OS and the slave's
     each instantiate the same immutable plan with fresh occurrence
     counters.  Coupled slaves copy the master's faulted results; a
     decoupled slave replays the identical schedule from its own
     counters — DESIGN.md "Fault model" for the soundness argument. *)
  master_sched : Sched.spec option;
  (* Scheduler spec for the master pass; [None] = the legacy
     round-robin seeded with [master_seed].  Like [faults], a spec is
     immutable: each pass instantiates its own mutable state. *)
  slave_sched : Sched.spec option;
  (* Scheduler spec for slave passes; [None] = legacy from
     [slave_seed].  A slave-side field (campaign tasks may override
     it per task). *)
  record_sched : bool;
  (* Record both sides' scheduling decision logs; the master's is
     exposed as [master_out.msched] / [result.master_schedule] (the
     input of --sched-replay and the exploration enumerator). *)
}

let default_config =
  { sources = [ source ~sys:"recv" () ];
    sinks = Output_syscalls;
    strategy = Mutation.Off_by_one;
    master_seed = 0;
    slave_seed = 0;
    max_steps = 30_000_000;
    record_trace = false;
    check_final_state = false;
    faults = None;
    master_sched = None;
    slave_sched = None;
    record_sched = false }

(* The scheduler spec of one side: the configured one, or the legacy
   round-robin seeded like the historical hard-wired scheduler. *)
let resolve_sched (spec : Sched.spec option) ~(seed : int) : Sched.spec =
  match spec with Some s -> s | None -> Sched.legacy ~seed

let sched_state_of ~(record : bool) (spec : Sched.spec option) ~(seed : int) :
  Sched.state =
  Sched.instantiate ~record (resolve_sched spec ~seed)

let sink_pred = function
  | Output_syscalls ->
    fun sys _ _ -> Ldx_lang.Names.is_output_syscall sys
  | Network_outputs -> fun sys _ _ -> String.equal sys "send"
  | File_outputs -> fun sys _ _ -> sys = "write" || sys = "print"
  | Attack_sinks -> fun sys _ _ -> sys = "retaddr" || sys = "malloc"

let contains hay needle =
  (* allocation-free char-compare scan: this runs per source spec at
     every syscall, where a String.sub per offset was pure garbage *)
  let hn = String.length hay and nn = String.length needle in
  nn = 0
  || (let rec matches_at i j =
        j >= nn || (hay.[i + j] = needle.[j] && matches_at i (j + 1))
      in
      let rec scan i =
        i <= hn - nn && (matches_at i 0 || scan (i + 1))
      in
      scan 0)

(* Stateless base match of one spec against a dynamic syscall event —
   everything except the [src_nth] occurrence filter.  Shared by
   {!source_matcher} and the decouple-point pause predicate
   ({!slave_prefix}), which must fire on the FIRST base match of ANY
   spec precisely so that no occurrence counter has advanced when the
   snapshot is taken — a fresh matcher on resume is then exact. *)
let spec_base_match (spec : source_spec) ~(sys : string) ~(site : int)
    ~(args : Sval.t list) ~(resources : string list) : bool =
  (match spec.src_sys with None -> true | Some s -> String.equal s sys)
  && (match spec.src_site with None -> true | Some s -> s = site)
  && (match spec.src_arg with
      | None -> true
      | Some sub ->
        List.exists (fun r -> contains r sub) resources
        || (match args with
            | Sval.S a :: _ -> contains a sub
            | _ -> false))

(* Stateful source predicate over one execution's dynamic syscall stream.
   The [src_nth] occurrence counters are keyed by each spec's INDEX in
   [config.sources]: every configured spec counts its own matches, even
   when two specs are structurally equal (keying by [Hashtbl.hash spec]
   made equal specs share one counter and let distinct specs collide). *)
let source_matcher (config : config) =
  let specs =
    Array.of_list config.sources in
  let source_hits = Array.make (Array.length specs) 0 in
  fun ~sys ~site ~(args : Sval.t list) ~(resources : string list) ->
    (* evaluate EVERY spec (no short-circuit): the per-spec occurrence
       counters must advance on each matching event even when an earlier
       spec already fired *)
    let hit = ref false in
    Array.iteri
      (fun i (spec : source_spec) ->
         let base = spec_base_match spec ~sys ~site ~args ~resources in
         let this =
           if not base then false
           else
             match spec.src_nth with
             | None -> true
             | Some n ->
               let c = source_hits.(i) + 1 in
               source_hits.(i) <- c;
               c = n
         in
         if this then hit := true)
      specs;
    !hit

(* The decouple point of a fan-out over [specs] (the union of its tasks'
   sources): the first syscall that base-matches any spec, asked before
   it is serviced or mutated.  The master pass and the executed slave
   prefix both pause on it, each reading its own OS; a slave coupled to
   the master under the same schedule therefore pauses at the very
   syscall the master does.  No source is a thread op, and [to_sval]
   traps on a thread op's array argument. *)
let decouple_point (os : Os.t) (specs : source_spec list) _th
    (p : Machine.pending) : bool =
  (not (Driver.is_thread_op p.Machine.sys))
  && begin
    let sargs = List.map Value.to_sval p.Machine.sysargs in
    let resources = Os.resource_of_syscall os p.Machine.sys sargs in
    List.exists
      (fun spec ->
         spec_base_match spec ~sys:p.Machine.sys ~site:p.Machine.site
           ~args:sargs ~resources)
      specs
  end

(* ------------------------------------------------------------------ *)
(* Reports.                                                            *)

type divergence_kind =
  | Args_differ                 (* aligned sink, different parameters *)
  | Different_syscall           (* aligned counter, different PC *)
  | Missing_in_slave            (* master-only sink *)
  | Missing_in_master           (* slave-only sink *)
  | File_state_differs          (* final-state check: contents diverged *)
  | File_metadata_differs       (* final-state check: same data, mtimes off *)

let kind_to_string = function
  | Args_differ -> "args-differ"
  | Different_syscall -> "different-syscall"
  | Missing_in_slave -> "missing-in-slave"
  | Missing_in_master -> "missing-in-master"
  | File_state_differs -> "file-state-differs"
  | File_metadata_differs -> "file-metadata-differs"

type sink_report = {
  kind : divergence_kind;
  sys : string;
  site : int;
  position : string;
  master_args : Sval.t list option;
  slave_args : Sval.t list option;
}

let report_to_string (r : sink_report) =
  Printf.sprintf "[%s] %s@%d pos=%s%s%s" (kind_to_string r.kind) r.sys r.site
    r.position
    (match r.master_args with
     | Some a -> " master=(" ^ Sval.list_to_string a ^ ")"
     | None -> "")
    (match r.slave_args with
     | Some a -> " slave=(" ^ Sval.list_to_string a ^ ")"
     | None -> "")

type exec_summary = {
  cycles : int;
  steps : int;
  syscalls : int;
  stdout : string;
  trap : string option;
  exit_code : int option;
  faults_injected : int;        (* environment faults fired in this side *)
}

(* Structured failure taxonomy over [trap].  The string classification
   lives in [Obs.Event.trap_class] (the single source of truth shared
   with the metrics counters); this wraps it into a variant for
   pattern-matching consumers. *)
type failure_class = Healthy | Fuel | Deadlock | Os_failure | Vm_trap

let classify_trap (trap : string option) : failure_class =
  match Obs.Event.trap_class trap with
  | "ok" -> Healthy
  | "fuel" -> Fuel
  | "deadlock" -> Deadlock
  | "os-error" -> Os_failure
  | _ -> Vm_trap

let failure_class_to_string = function
  | Healthy -> "ok"
  | Fuel -> "fuel"
  | Deadlock -> "deadlock"
  | Os_failure -> "os-error"
  | Vm_trap -> "vm-trap"

(* One alignment decision of the slave-side syscall wrapper, in slave
   order (master-only drops appear where the slave passed them).  Only
   recorded when [config.record_trace] is set. *)
type trace_action =
  | T_copied                       (* aligned; outcome shared *)
  | T_sink_match                   (* aligned sink, equal parameters *)
  | T_args_differ                  (* case 3 *)
  | T_path_diff                    (* case 2: same counter, other PC *)
  | T_slave_only                   (* no master counterpart *)
  | T_master_only                  (* master outcome the slave passed *)
  | T_decoupled                    (* tainted resource; executed privately *)

let trace_action_to_string = function
  | T_copied -> "copied"
  | T_sink_match -> "sink=="
  | T_args_differ -> "args-differ"
  | T_path_diff -> "path-diff"
  | T_slave_only -> "slave-only"
  | T_master_only -> "master-only"
  | T_decoupled -> "decoupled"

type trace_entry = {
  t_pos : string;
  t_action : trace_action;
  t_master : (string * Sval.t list) option;   (* sys, args *)
  t_slave : (string * Sval.t list) option;
}

(* ------------------------------------------------------------------ *)
(* Observability (Ldx_obs).  Everything below is guarded on the ?obs
   sink being present: with obs off the engine pays one pointer
   comparison per emission point and builds no payloads.               *)

(* The paper's divergence-case number of a report kind: 1 = syscall
   missing in one execution, 2 = same counter different PC, 3 = aligned
   sink with different parameters; 0 for the final-state extension. *)
let case_of_kind = function
  | Missing_in_slave | Missing_in_master -> 1
  | Different_syscall -> 2
  | Args_differ -> 3
  | File_state_differs | File_metadata_differs -> 0

let decision_of_action = function
  | T_copied -> Obs.Event.D_copied
  | T_sink_match -> Obs.Event.D_sink_match
  | T_args_differ -> Obs.Event.D_args_differ
  | T_path_diff -> Obs.Event.D_path_diff
  | T_slave_only -> Obs.Event.D_slave_only
  | T_master_only -> Obs.Event.D_master_only
  | T_decoupled -> Obs.Event.D_decoupled

(* Install the VM step hooks and the OS dispatch hook of one side. *)
let install_obs (s : Obs.Sink.t) (side : Obs.Event.side) (m : Machine.t)
    (os : Os.t) : unit =
  let emit = Obs.Sink.emit s in
  m.Machine.on_obs_syscall <-
    Some
      (fun t th (p : Machine.pending) ->
         emit
           (Obs.Event.Syscall
              { side; tid = th.Machine.spawn_index; sys = p.Machine.sys;
                site = p.Machine.site;
                pos = Align.to_string (Align.of_thread th);
                ts = t.Machine.cycles; dur = Cost.syscall }));
  m.Machine.on_obs_barrier <-
    Some
      (fun t th (b : Machine.barrier) ->
         emit
           (Obs.Event.Barrier_wait
              { side; tid = th.Machine.spawn_index; loop = b.Machine.loop;
                ts = t.Machine.cycles; dur = Cost.barrier }));
  m.Machine.on_obs_cnt_sample <-
    Some (fun _ _ c -> emit (Obs.Event.Cnt_sample { side; value = c }));
  os.Os.on_exec <-
    Some
      (fun o sys _args _r ->
         emit
           (Obs.Event.Os_call
              { side; pid = o.Os.pid; sys; clock = o.Os.clock }));
  os.Os.on_fault <-
    Some
      (fun _ sys site a ->
         emit
           (Obs.Event.Fault_injected
              { side; sys; site;
                action = Ldx_osim.Fault.action_to_string a }));
  m.Machine.on_obs_sched <-
    Some
      (fun t (d : Sched.decision) ->
         emit
           (Obs.Event.Schedule_decision
              { side; index = d.Sched.d_index; chosen = d.Sched.d_chosen;
                runnable = d.Sched.d_nrunnable;
                quantum = d.Sched.d_quantum; ts = t.Machine.cycles });
         if d.Sched.d_preempted then
           emit
             (Obs.Event.Preemption
                { side; index = d.Sched.d_index; chosen = d.Sched.d_chosen;
                  ts = t.Machine.cycles }))

let emit_summary ?derived_cycles obs (side : Obs.Event.side) (m : Machine.t)
  : unit =
  match obs with
  | None -> ()
  | Some s ->
    Obs.Sink.emit s
      (Obs.Event.Run_summary
         { side; cycles = Option.value derived_cycles ~default:m.Machine.cycles;
           steps = m.Machine.steps; syscalls = m.Machine.syscalls;
           cnt_instrs = m.Machine.instr_events; trap = m.Machine.trap;
           derived = Option.is_some derived_cycles })

let phase_begin obs p = Obs.Sink.emit_opt obs (Obs.Event.Phase_begin p)
let phase_end obs p = Obs.Sink.emit_opt obs (Obs.Event.Phase_end p)

(* [with_phase obs p f] brackets [f] with begin/end events, ending the
   phase even when [f] raises. *)
let with_phase obs p f =
  phase_begin obs p;
  match f () with
  | v ->
    phase_end obs p;
    v
  | exception e ->
    phase_end obs p;
    raise e

type result = {
  trace : trace_entry list;        (* empty unless config.record_trace *)
  reports : sink_report list;
  leak : bool;
  tainted_sinks : int;
  total_sinks : int;            (* dynamic sink executions in the master *)
  syscall_diffs : int;
  diffs_before_first_report : int;
  total_syscalls : int;         (* dynamic syscalls in the master *)
  mutated_inputs : int;
  master : exec_summary;
  slave : exec_summary;
  wall_cycles : int;            (* max of the two clocks (two CPUs) *)
  dyn_cnt_avg : float;
  dyn_cnt_max : int;
  max_seg_depth : int;
  master_schedule : Ldx_sched.Schedule.t option;
                                (* recorded when config.record_sched *)
}

(* ------------------------------------------------------------------ *)
(* Master pass.                                                        *)

type record = {
  rpos : Align.t;
  rsite : int;
  rsys : string;
  rargs : Sval.t list;
  rresult : Sval.t;
  rcyc : int;                   (* master clock when the outcome was ready *)
  rsink : bool;
}

module Snap = Ldx_snap.Snap

(* The master's own state at the decouple point of the specs
   [master_pass] was given; {!fork_prefix} turns it into the coupled
   slave's snapshot. *)
type decouple_capture = {
  dc_snap : Snap.t;               (* master machine + OS at the pause *)
  dc_records : (int * int) list;
      (* spawn index -> records logged before the pause, ascending;
         threads without one are absent *)
  dc_grants : int;                (* lock grants made before the pause *)
  dc_blocked : int list;   (* blocked threads' spawn indices, list order *)
  dc_paused : int;         (* spawn index of the thread paused at the point *)
}

(* The master's outcome log is frozen after the pass: per-thread record
   arrays sorted by spawn index.  Consumers (slave passes, baselines)
   keep their own integer cursors, so one recorded master can be
   replayed by any number of slaves — sequentially or from concurrent
   domains ({!Campaign}). *)
type master_out = {
  mlog : (int * record array) array;           (* per spawn_index, ascending *)
  mlock_trace : (string * int) list;           (* chronological *)
  msummary : exec_summary;
  mtotal_sinks : int;
  mmachine : Machine.t;
  msched : Schedule.t option;                  (* when config.record_sched *)
  mdecouple : decouple_capture option;
      (* when [master_pass ~specs] reached their decouple point *)
}

(* The master's compiled program, when it was compiled from [prog]
   itself: every slave-side machine of one recording runs on it instead
   of recompiling.  It is immutable after compile, so concurrent
   campaign domains share it as they share the rest of [master_out]. *)
let compiled_for (mo : master_out) (prog : Ir.program) :
  Machine.compiled option =
  if mo.mmachine.Machine.prog == prog then Some mo.mmachine.Machine.fprog
  else None

let records_for (mo : master_out) (tid : int) : record array =
  let n = Array.length mo.mlog in
  let rec go i =
    if i >= n then [||]
    else
      let t, a = mo.mlog.(i) in
      if t = tid then a else go (i + 1)
  in
  go 0

let summary_of (m : Machine.t) =
  { cycles = m.Machine.cycles;
    steps = m.Machine.steps;
    syscalls = m.Machine.syscalls;
    stdout = Os.stdout_contents m.Machine.os;
    trap = m.Machine.trap;
    exit_code = m.Machine.os.Os.exit_code;
    faults_injected = Os.faults_injected m.Machine.os }

let queue_for queues idx =
  match Hashtbl.find_opt queues idx with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace queues idx q;
    q

let master_pid = 1000
let slave_pid = 1001

let master_pass ?obs ?prof ?(specs = []) (config : config)
    (prog : Ir.program) (world : World.t) : master_out =
  let os = Os.create ~pid:master_pid world in
  Os.set_faults os config.faults;
  let sched =
    sched_state_of ~record:config.record_sched config.master_sched
      ~seed:config.master_seed
  in
  let m =
    Machine.create ~seed:config.master_seed ~sched ~max_steps:config.max_steps
      ?prof prog os
  in
  (match obs with
   | Some s -> install_obs s Obs.Event.Master m os
   | None -> ());
  let is_sink = sink_pred config.sinks in
  let queues = Hashtbl.create 4 in
  let total_sinks = ref 0 in
  let on_os_call th (p : Machine.pending) sargs =
    let r = Driver.os_exec os p sargs in
    let sink = is_sink p.Machine.sys p.Machine.site sargs in
    if sink then incr total_sinks;
    Queue.add
      { rpos = Align.of_thread th;
        rsite = p.Machine.site;
        rsys = p.Machine.sys;
        rargs = sargs;
        rresult = r;
        rcyc = m.Machine.cycles;
        rsink = sink }
      (queue_for queues th.Machine.spawn_index);
    Value.of_sval r
  in
  let blocked = ref [] in
  let pause = if specs = [] then None else Some (decouple_point os specs) in
  let decouple =
    match Driver.drive ?pause ~blocked ~on_os_call m with
    | `Done -> None
    | `Paused th ->
      (* capture and run on: the pause leaves the run as it would have
         been ([Driver.drive]'s [first]) *)
      let dc =
        { dc_snap = Snap.capture m;
          dc_records =
            Hashtbl.fold (fun tid q acc -> (tid, Queue.length q) :: acc)
              queues []
            |> List.sort compare;
          dc_grants = List.length m.Machine.lock_trace;
          dc_blocked = List.map (fun th -> th.Machine.spawn_index) !blocked;
          dc_paused = th.Machine.spawn_index }
      in
      ignore (Driver.drive ~first:th ~blocked ~on_os_call m);
      Some dc
  in
  emit_summary obs Obs.Event.Master m;
  (* freeze the per-thread queues into an immutable, sorted log *)
  let mlog =
    Hashtbl.fold
      (fun tid q acc -> (tid, Array.of_seq (Queue.to_seq q)) :: acc)
      queues []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> Array.of_list
  in
  { mlog;
    mlock_trace = List.rev m.Machine.lock_trace;
    msummary = summary_of m;
    mtotal_sinks = !total_sinks;
    mmachine = m;
    msched =
      (if config.record_sched then Some (Sched.to_schedule sched) else None);
    mdecouple = decouple }

(* ------------------------------------------------------------------ *)
(* Slave pass.                                                         *)

type slave_out = {
  sreports : sink_report list;
  sdiffs : int;
  sdiffs_before_first : int;
  smutated : int;
  ssummary : exec_summary;
  strace : trace_entry list;
  sos : Os.t;                  (* the slave's private OS (final state) *)
}

(* All mutable state of one slave pass, externalized so a pass can be
   paused at a decouple point, snapshotted, and resumed any number of
   times — each resume rebuilds a private context, so one recorded
   master plus one prefix snapshot back any number of suffix replays. *)
type slave_ctx = {
  sc_config : config;
  sc_obs : Obs.Sink.t option;
  sc_mo : master_out;
  sc_m : Machine.t;
  sc_os : Os.t;
  sc_grants : (string, int Queue.t) Hashtbl.t;
      (* master lock-grant order, consumed by the replay gate *)
  sc_tainted_locks : (string, unit) Hashtbl.t;
  sc_tainted_resources : (string, unit) Hashtbl.t;
  sc_cursors : (int, int ref) Hashtbl.t;
      (* per-thread read cursors over the master's frozen record arrays:
         the slave never mutates [sc_mo], so one recorded master replays
         under any number of (possibly concurrent) slave passes *)
  sc_is_sink : string -> int -> Sval.t list -> bool;
  sc_is_source :
    sys:string -> site:int -> args:Sval.t list -> resources:string list ->
    bool;
  mutable sc_reports : sink_report list;        (* reversed *)
  mutable sc_diffs : int;
  mutable sc_diffs_before_first : int;          (* -1 until first report *)
  mutable sc_mutated : int;
  mutable sc_trace : trace_entry list;          (* reversed *)
  sc_blocked : Machine.thread list ref;  (* [Driver.drive]'s blocked list *)
}

(* --- schedule replay gate over the master's lock-grant order --- *)
let install_slave_gate (ctx : slave_ctx) : unit =
  ctx.sc_m.Machine.lock_gate <-
    Some
      (fun key idx ->
         if Hashtbl.mem ctx.sc_tainted_locks key then true
         else
           match Hashtbl.find_opt ctx.sc_grants key with
           | None ->
             (* the master never touched this lock: a schedule difference;
                taint it and stop gating (Sec. 7) *)
             Hashtbl.replace ctx.sc_tainted_locks key ();
             true
           | Some q ->
             if Queue.is_empty q then begin
               Hashtbl.replace ctx.sc_tainted_locks key ();
               true
             end
             else if Queue.peek q = idx then begin
               ignore (Queue.pop q);
               true
             end
             else false)

let tbl_of f kvs =
  let t = Hashtbl.create (max 4 (List.length kvs)) in
  List.iter (fun (k, v) -> Hashtbl.replace t k (f v)) kvs;
  t

(* Remaining lock grants, key-sorted; a key whose grants are all
   consumed stays, with none left. *)
let grants_list (grants : (string, int Queue.t) Hashtbl.t) =
  Hashtbl.fold (fun k q acc -> (k, List.of_seq (Queue.to_seq q)) :: acc)
    grants []
  |> List.sort compare

(* The master's lock grants after the first [made]: what a slave gates
   on once it has consumed those. *)
let grants_after (mo : master_out) ~made =
  let grants = Hashtbl.create 4 in
  List.iteri
    (fun i (key, idx) ->
       let q = queue_for grants key in
       if i >= made then Queue.add idx q)
    mo.mlock_trace;
  grants

(* The one constructor of a [slave_ctx]: the slave's machine [m], new
   or restored, with the obs hooks and the replay gate installed, the
   remaining lock [grants], and the rest of the bookkeeping a pass
   starts from as a {!slave_snapshot} holds it (taint keys sorted,
   reports and trace newest first). *)
let make_slave_ctx ?obs (config : config) (mo : master_out) (m : Machine.t)
    ~grants ~tainted_locks ~tainted_resources ~cursors ~reports ~diffs
    ~diffs_before_first ~mutated ~trace ~blocked : slave_ctx =
  (match obs with
   | Some s -> install_obs s Obs.Event.Slave m m.Machine.os
   | None -> ());
  let keys ks = tbl_of Fun.id (List.map (fun k -> (k, ())) ks) in
  let ctx =
    { sc_config = config;
      sc_obs = obs;
      sc_mo = mo;
      sc_m = m;
      sc_os = m.Machine.os;
      sc_grants = grants;
      sc_tainted_locks = keys tainted_locks;
      sc_tainted_resources = keys tainted_resources;
      sc_cursors = tbl_of ref cursors;
      sc_is_sink = sink_pred config.sinks;
      sc_is_source = source_matcher config;
      sc_reports = reports;
      sc_diffs = diffs;
      sc_diffs_before_first = diffs_before_first;
      sc_mutated = mutated;
      sc_trace = trace;
      sc_blocked = ref blocked }
  in
  install_slave_gate ctx;
  ctx

let fresh_slave_ctx ?obs ?prof (config : config) (prog : Ir.program)
    (world : World.t) (mo : master_out) : slave_ctx =
  let os = Os.create ~pid:slave_pid world in
  (* the slave's OS instantiates the SAME immutable plan with fresh
     occurrence counters: replaying from scratch, its fault schedule
     tracks the master's while coupled, and stays deterministic after
     decoupling (DESIGN.md "Fault model") *)
  Os.set_faults os config.faults;
  let sched =
    sched_state_of ~record:config.record_sched config.slave_sched
      ~seed:config.slave_seed
  in
  let m =
    Machine.create ~seed:config.slave_seed ~sched ~max_steps:config.max_steps
      ?prof ?fprog:(compiled_for mo prog) prog os
  in
  make_slave_ctx ?obs config mo m ~grants:(grants_after mo ~made:0)
    ~tainted_locks:[] ~tainted_resources:[] ~cursors:[] ~reports:[] ~diffs:0
    ~diffs_before_first:(-1) ~mutated:0 ~trace:[] ~blocked:[]

(* One alignment decision: feeds the (opt-in) trace log and the (opt-in)
   observability sink.  [master_ts] is the producing master cycle stamp,
   -1 when there is no master counterpart; the slave stamp is read off
   the slave clock at the call, so in the copy path this runs after the
   fast-forward. *)
let slave_note (ctx : slave_ctx) ~tid ~pos ~action ~sinkp ~master_ts ~master
    ~slave =
  if ctx.sc_config.record_trace then
    ctx.sc_trace <-
      { t_pos = Align.to_string pos; t_action = action;
        t_master = master; t_slave = slave }
      :: ctx.sc_trace;
  match ctx.sc_obs with
  | None -> ()
  | Some s ->
    Obs.Sink.emit s
      (Obs.Event.Couple
         { tid; pos = Align.to_string pos;
           decision = decision_of_action action; sink = sinkp;
           master_sys = Option.map fst master;
           slave_sys = Option.map fst slave;
           master_ts; slave_ts = ctx.sc_m.Machine.cycles })

let slave_report (ctx : slave_ctx) kind ~sys ~site ~pos ~master_args
    ~slave_args =
  if ctx.sc_diffs_before_first < 0 then
    ctx.sc_diffs_before_first <- ctx.sc_diffs;
  (match ctx.sc_obs with
   | None -> ()
   | Some s ->
     Obs.Sink.emit s
       (Obs.Event.Divergence
          { case = case_of_kind kind; kind = kind_to_string kind; sys;
            site; pos = Align.to_string pos }));
  ctx.sc_reports <-
    { kind; sys; site; position = Align.to_string pos;
      master_args; slave_args }
    :: ctx.sc_reports

let slave_taint (ctx : slave_ctx) rs =
  List.iter (fun r -> Hashtbl.replace ctx.sc_tainted_resources r ()) rs

let drop_master_only (ctx : slave_ctx) ~tid (r : record) =
  ctx.sc_diffs <- ctx.sc_diffs + 1;
  slave_taint ctx (Os.resource_of_syscall ctx.sc_os r.rsys r.rargs);
  slave_note ctx ~tid ~pos:r.rpos ~action:T_master_only ~sinkp:r.rsink
    ~master_ts:r.rcyc ~master:(Some (r.rsys, r.rargs)) ~slave:None;
  if r.rsink then
    slave_report ctx Missing_in_slave ~sys:r.rsys ~site:r.rsite ~pos:r.rpos
      ~master_args:(Some r.rargs) ~slave_args:None

(* --- source mutation --- *)
let maybe_mutate (ctx : slave_ctx) ~sys ~site ~pos ~args ~resources
    (v : Sval.t) : Sval.t =
  if ctx.sc_is_source ~sys ~site ~args ~resources then begin
    let v' = Mutation.mutate ctx.sc_config.strategy v in
    if not (Sval.equal v' v) then begin
      ctx.sc_mutated <- ctx.sc_mutated + 1;
      match ctx.sc_obs with
      | None -> ()
      | Some s ->
        Obs.Sink.emit s
          (Obs.Event.Mutation
             { sys; site; pos = Align.to_string pos;
               before = Sval.to_string v; after = Sval.to_string v' })
    end;
    v'
  end
  else v

let cursor_for (ctx : slave_ctx) tid =
  match Hashtbl.find_opt ctx.sc_cursors tid with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.replace ctx.sc_cursors tid c;
    c

(* --- the slave syscall wrapper --- *)
let slave_on_os_call (ctx : slave_ctx) th (p : Machine.pending) sargs :
  Value.t =
  let os = ctx.sc_os and m = ctx.sc_m in
  let sys = p.Machine.sys and site = p.Machine.site in
  let pos = Align.of_thread th in
  let resources = Os.resource_of_syscall os sys sargs in
  let sinkp = ctx.sc_is_sink sys site sargs in
  let tid = th.Machine.spawn_index in
  let recs = records_for ctx.sc_mo tid in
  let cur = cursor_for ctx tid in
  (* skip past outcomes the slave has passed: master-only syscalls *)
  while !cur < Array.length recs && Align.compare recs.(!cur).rpos pos < 0 do
    drop_master_only ctx ~tid recs.(!cur);
    incr cur
  done;
  (* a call the OS refuses traps the slave, as it traps the master *)
  let private_exec () =
    slave_taint ctx resources;
    Driver.os_exec os p sargs
  in
  (* serviced before it counts: the master records nothing for a call it
     traps on, so the slave's trap on that call is no difference *)
  let slave_only () =
    let r = private_exec () in
    ctx.sc_diffs <- ctx.sc_diffs + 1;
    slave_note ctx ~tid ~pos ~action:T_slave_only ~sinkp ~master_ts:(-1)
      ~master:None ~slave:(Some (sys, sargs));
    if sinkp then
      slave_report ctx Missing_in_master ~sys ~site ~pos ~master_args:None
        ~slave_args:(Some sargs);
    r
  in
  let res =
    if !cur >= Array.length recs then slave_only ()
    else begin
      let r = recs.(!cur) in
      let c = Align.compare r.rpos pos in
      if c > 0 then slave_only ()
      else if r.rsite = site then begin
        incr cur;
        let res_tainted =
          List.exists (Hashtbl.mem ctx.sc_tainted_resources) resources
        in
        if res_tainted then begin
          (* control-flow aligned but on a diverged resource: decoupled *)
          ctx.sc_diffs <- ctx.sc_diffs + 1;
          slave_note ctx ~tid ~pos ~action:T_decoupled ~sinkp ~master_ts:r.rcyc
            ~master:(Some (r.rsys, r.rargs)) ~slave:(Some (sys, sargs));
          if sinkp && not (Sval.list_equal r.rargs sargs) then
            slave_report ctx Args_differ ~sys ~site ~pos
              ~master_args:(Some r.rargs) ~slave_args:(Some sargs);
          private_exec ()
        end
        else if Sval.list_equal r.rargs sargs then begin
          (* fully aligned: copy the master's outcome.  The private
             execution (discarded) still consults the fault plan, so
             the slave's occurrence counters advance in lockstep with
             the master's while coupled — which is what makes a later
             decoupling replay the remaining schedule identically. *)
          (try ignore (Os.exec ~site os sys sargs) with Os.Os_error _ -> ());
          let before = m.Machine.cycles in
          m.Machine.cycles <- max m.Machine.cycles r.rcyc + Cost.share_copy;
          if sinkp then m.Machine.cycles <- m.Machine.cycles + Cost.sink_compare;
          (match m.Machine.prof with
           | Some p ->
             (* decompose the clock delta so engine categories plus
                per-op cycles sum exactly to the slave's clock *)
             let stall = max before r.rcyc - before in
             if stall > 0 then
               Profile.charge_engine p ~cat:Profile.eng_couple_stall
                 ~cycles:stall;
             Profile.charge_engine p ~cat:Profile.eng_share_copy
               ~cycles:Cost.share_copy;
             if sinkp then
               Profile.charge_engine p ~cat:Profile.eng_sink_compare
                 ~cycles:Cost.sink_compare
           | None -> ());
          slave_note ctx ~tid ~pos
            ~action:(if sinkp then T_sink_match else T_copied)
            ~sinkp ~master_ts:r.rcyc
            ~master:(Some (r.rsys, r.rargs)) ~slave:(Some (sys, sargs));
          r.rresult
        end
        else begin
          (* case 3: aligned, same PC, different parameters *)
          ctx.sc_diffs <- ctx.sc_diffs + 1;
          slave_note ctx ~tid ~pos ~action:T_args_differ ~sinkp
            ~master_ts:r.rcyc ~master:(Some (r.rsys, r.rargs))
            ~slave:(Some (sys, sargs));
          if sinkp then
            slave_report ctx Args_differ ~sys ~site ~pos
              ~master_args:(Some r.rargs) ~slave_args:(Some sargs);
          slave_taint ctx (Os.resource_of_syscall os r.rsys r.rargs);
          private_exec ()
        end
      end
      else begin
        (* case 2: same counter, different PC — both run independently.
           ONE path-diff syscall pair = one difference (the accounting
           previously incremented twice here, inflating syscall_diffs
           and Table 2's diffs_before_first_report). *)
        incr cur;
        ctx.sc_diffs <- ctx.sc_diffs + 1;
        slave_note ctx ~tid ~pos ~action:T_path_diff ~sinkp ~master_ts:r.rcyc
          ~master:(Some (r.rsys, r.rargs)) ~slave:(Some (sys, sargs));
        slave_taint ctx (Os.resource_of_syscall os r.rsys r.rargs);
        if r.rsink || sinkp then
          slave_report ctx Different_syscall
            ~sys:(if sinkp then sys else r.rsys)
            ~site:(if sinkp then site else r.rsite) ~pos
            ~master_args:(Some r.rargs) ~slave_args:(Some sargs);
        private_exec ()
      end
    end
  in
  Value.of_sval (maybe_mutate ctx ~sys ~site ~pos ~args:sargs ~resources res)

let slave_on_stuck (ctx : slave_ctx) blocked =
  (* every blocked lock request whose gate refuses: taint the lock *)
  let tainted_any = ref false in
  List.iter
    (fun th ->
       match th.Machine.status with
       | Machine.Awaiting { Machine.sys = "lock"; sysargs = [ lockv ]; _ } ->
         (match Machine.lock_key lockv with
          | key ->
            if not (Hashtbl.mem ctx.sc_tainted_locks key) then begin
              Hashtbl.replace ctx.sc_tainted_locks key ();
              tainted_any := true
            end)
       | _ -> ())
    blocked;
  !tainted_any

(* Drain leftover master outcomes (syscalls the slave never reached) in
   ascending spawn_index order — [mlog] is sorted — so leftover reports
   and trace entries are deterministic across runs; then freeze the
   accumulated bookkeeping into a [slave_out]. *)
let slave_finalize (ctx : slave_ctx) : slave_out =
  Array.iter
    (fun (tid, recs) ->
       let cur = cursor_for ctx tid in
       while !cur < Array.length recs do
         drop_master_only ctx ~tid recs.(!cur);
         incr cur
       done)
    ctx.sc_mo.mlog;
  emit_summary ctx.sc_obs Obs.Event.Slave ctx.sc_m;
  { sreports = List.rev ctx.sc_reports;
    sdiffs = ctx.sc_diffs;
    sdiffs_before_first =
      (if ctx.sc_diffs_before_first < 0 then ctx.sc_diffs
       else ctx.sc_diffs_before_first);
    smutated = ctx.sc_mutated;
    ssummary = summary_of ctx.sc_m;
    strace = List.rev ctx.sc_trace;
    sos = ctx.sc_os }

(* Every slave pass, whole, prefix or resumed suffix, is this one call:
   [Driver.drive] with the slave's OS-call wrapper and stuck hook. *)
let drive_slave ?pause ?first (ctx : slave_ctx) =
  Driver.drive ?pause ?first ~on_stuck:(slave_on_stuck ctx)
    ~blocked:ctx.sc_blocked ~on_os_call:(slave_on_os_call ctx) ctx.sc_m

let slave_pass ?obs ?prof (config : config) (prog : Ir.program)
    (world : World.t) (mo : master_out) : slave_out =
  let ctx = fresh_slave_ctx ?obs ?prof config prog world mo in
  ignore (drive_slave ctx);
  slave_finalize ctx

(* ------------------------------------------------------------------ *)
(* Decouple-point snapshots: capture the shared slave prefix once at
   the first syscall ANY fan-out task's source spec base-matches —
   BEFORE that syscall is serviced or mutated ([Driver.drive]'s [pause])
   — then replay per-task suffixes from the capture ([first] services
   the paused call).  The pause fires before any [src_nth] occurrence
   counter has advanced, so each resume's fresh [source_matcher] sees
   exactly the dynamic stream a from-scratch run would: suffix replays
   are bit-identical to full slave passes.  The capture is forked from
   the master's own ({!fork_prefix}) when the slave shares its schedule,
   and executed ({!slave_prefix}) otherwise. *)

type slave_snapshot = {
  ss_snap : Snap.t;                (* machine + OS *)
  ss_grants : (string * int list) list;
      (* remaining (unconsumed) master lock grants, key-sorted *)
  ss_tainted_locks : string list;            (* sorted *)
  ss_tainted_resources : string list;        (* sorted *)
  ss_cursors : (int * int) list;     (* spawn index -> master-log cursor *)
  ss_reports : sink_report list;     (* reversed, as accumulated *)
  ss_diffs : int;
  ss_diffs_before_first : int;       (* raw accumulator: -1 if none yet *)
  ss_mutated : int;
  ss_trace : trace_entry list;       (* reversed *)
  ss_blocked : int list;   (* blocked threads' spawn indices, list order *)
  ss_paused : int;         (* spawn index of the thread paused at the point *)
  ss_fingerprint : string; (* pins (program, world, shared slave config) *)
}

(* What a snapshot is valid against: the program, the initial world, and
   every config field the shared prefix depends on.  Per-task fields
   ([sources], [strategy], [check_final_state]) are deliberately NOT
   pinned — varying them per suffix is the point.  [sinks] IS
   prefix-relevant (sink matches cost [Cost.sink_compare] on copies), so
   its tag is pinned. *)
let slave_fingerprint (config : config) (prog : Ir.program)
    (world : World.t) : string =
  Ldx_store.Store.fingerprint
    [ "ldx-slave-snap/1";
      Marshal.to_string prog [];
      Marshal.to_string world [];
      Marshal.to_string config.faults [];
      sinks_tag config.sinks;
      string_of_int config.slave_seed;
      string_of_int config.max_steps;
      string_of_bool config.record_trace;
      string_of_bool config.record_sched;
      (match config.slave_sched with
       | None -> "-"
       | Some s -> Sched.spec_to_string s) ]

let emit_captured obs ~forked (sn : Machine.snapshot) =
  Obs.Sink.emit_opt obs
    (Obs.Event.Snapshot_captured
       { forked; prefix_cycles = sn.Machine.sn_cycles;
         prefix_steps = sn.Machine.sn_steps;
         prefix_syscalls = sn.Machine.sn_syscalls })

let snapshot_of_ctx (ctx : slave_ctx) (prog : Ir.program) (world : World.t)
    (paused : Machine.thread) : slave_snapshot =
  let sorted_keys tbl =
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  { ss_snap = Snap.capture ctx.sc_m;
    ss_grants = grants_list ctx.sc_grants;
    ss_tainted_locks = sorted_keys ctx.sc_tainted_locks;
    ss_tainted_resources = sorted_keys ctx.sc_tainted_resources;
    ss_cursors =
      Hashtbl.fold (fun tid c acc -> (tid, !c) :: acc) ctx.sc_cursors []
      |> List.sort compare;
    ss_reports = ctx.sc_reports;
    ss_diffs = ctx.sc_diffs;
    ss_diffs_before_first = ctx.sc_diffs_before_first;
    ss_mutated = ctx.sc_mutated;
    ss_trace = ctx.sc_trace;
    ss_blocked =
      List.map (fun th -> th.Machine.spawn_index) !(ctx.sc_blocked);
    ss_paused = paused.Machine.spawn_index;
    ss_fingerprint = slave_fingerprint ctx.sc_config prog world }

type prefix_out =
  | Prefix_paused of slave_snapshot
      (** the decouple point was reached; resume per task *)
  | Prefix_done of slave_out
      (** no syscall base-matched any spec: the whole run is shared *)

(* Run the shared slave prefix under [config] (whose own sources must be
   a subset of [specs]) and pause at the first base match of any spec in
   [specs] — the union of every fan-out task's sources. *)
let slave_prefix ?obs (config : config)
    ~(specs : source_spec list) (prog : Ir.program) (world : World.t)
    (mo : master_out) : prefix_out =
  let ctx = fresh_slave_ctx ?obs config prog world mo in
  match drive_slave ~pause:(decouple_point ctx.sc_os specs) ctx with
  | `Done -> Prefix_done (slave_finalize ctx)
  | `Paused th ->
    let ss = snapshot_of_ctx ctx prog world th in
    emit_captured obs ~forked:false ss.ss_snap.Snap.sp_machine;
    Prefix_paused ss

(* What coupled copies of [records] add to a slave's clock and, under
   [record_trace], its trace entries, newest first as accumulated.
   Master stamps order the threads' records: each serviced syscall
   charges [Cost.syscall] before the next record is stamped. *)
let coupled_copies ~record_trace (records : record list) :
  int * trace_entry list =
  let cycles =
    List.fold_left
      (fun acc r ->
         acc + Cost.share_copy + if r.rsink then Cost.sink_compare else 0)
      0 records
  in
  let trace =
    if not record_trace then []
    else
      List.sort (fun a b -> compare b.rcyc a.rcyc) records
      |> List.map (fun r ->
          { t_pos = Align.to_string r.rpos;
            t_action = (if r.rsink then T_sink_match else T_copied);
            t_master = Some (r.rsys, r.rargs);
            t_slave = Some (r.rsys, r.rargs) })
  in
  (cycles, trace)

let same_schedule (config : config) (mo : master_out) =
  Sched.spec_of mo.mmachine.Machine.sched
  = resolve_sched config.slave_sched ~seed:config.slave_seed

(* Whether {!derive_slave} is exact: [mo] never reached the decouple
   point of its specs (which cover [config]'s sources), and the slave
   runs the master's schedule. *)
let derivable (config : config) (mo : master_out) =
  Option.is_none mo.mdecouple && same_schedule config mo

(* The outcome of {!slave_pass} when [derivable], from the master's log:
   {!fork_prefix}'s argument carried to the end of the run.  The slave
   copies every record, so it runs the master's instructions (steps,
   syscalls, stdout, trap, exit code, faults) and ends with the
   master's OS; its clock adds the copies'.  That holds for a master
   that traps on an OS error too: it records nothing for the refused
   call, and the executed slave, finding no record there, services the
   call itself and traps on it before it counts anything. *)
let derive_slave ?obs (config : config) (mo : master_out) : slave_out =
  let records =
    Array.to_list mo.mlog |> List.concat_map (fun (_, rs) -> Array.to_list rs)
  in
  let copy_cycles, trace =
    coupled_copies ~record_trace:config.record_trace records
  in
  let cycles = mo.msummary.cycles + copy_cycles in
  emit_summary ~derived_cycles:cycles obs Obs.Event.Slave mo.mmachine;
  { sreports = []; sdiffs = 0; sdiffs_before_first = 0; smutated = 0;
    ssummary = { mo.msummary with cycles };
    strace = List.rev trace;
    sos =
      Snap.os_of_sos
        { (Snap.sos_of_os mo.mmachine.Machine.os) with
          Snap.so_pid = slave_pid } }

(* The coupled slave's state at the decouple point of the specs [mo]
   was recorded with, built from the master's capture instead of
   executing the prefix: [Prefix_paused] with its snapshot when the
   master reached that point, [Prefix_done] with {!derive_slave}'s
   outcome when it never did, [None] when the slave does not run the
   master's schedule.  [config] agrees with the recording's on the
   master-side fields, as for {!run_with_master}.

   Why the capture is the slave's state: until the decouple point no
   syscall base-matches a spec, so the slave runs with nothing to
   mutate, and under the master's schedule its lock gate grants every
   lock as the master did.  Each of its syscalls meets the master's
   record at the same position with the same site and parameters, with
   no resource tainted, and copies the outcome; its own [Os.exec] of the
   call moves its OS as the master's moved.  Cycles never feed back
   into execution.  So machine and OS are the master's except for:
   - the pid, the slave's OS being created with [slave_pid];
   - the clock: each copy sets it to [max clock rcyc + share_copy], plus
     [sink_compare] at a sink.  Coupled, the slave's clock is the
     master's plus what earlier copies added, never behind [rcyc], so
     the [max] never stalls: the sum over the records serviced before
     the pause is the whole difference.
   The bookkeeping is what those copies leave: a cursor per thread at
   its record count, the lock grants after the ones made so far, one
   [T_copied]/[T_sink_match] trace entry per record, and no report,
   difference, taint or mutation.  Blocked threads and the paused one go
   by spawn index, as in any snapshot. *)
let fork_prefix ?obs (config : config) (prog : Ir.program)
    (world : World.t) (mo : master_out) : prefix_out option =
  match mo.mdecouple with
  | _ when not (same_schedule config mo) -> None
  | None -> Some (Prefix_done (derive_slave ?obs config mo))
  | Some dc ->
    let prefix =
      List.concat_map
        (fun (tid, n) -> Array.to_list (Array.sub (records_for mo tid) 0 n))
        dc.dc_records
    in
    let copy_cycles, trace =
      coupled_copies ~record_trace:config.record_trace prefix
    in
    let snap = dc.dc_snap in
    let sn = snap.Snap.sp_machine in
    let sn =
      { sn with Machine.sn_cycles = sn.Machine.sn_cycles + copy_cycles }
    in
    emit_captured obs ~forked:true sn;
    Some
      (Prefix_paused
         { ss_snap =
             { snap with
               Snap.sp_machine = sn;
               sp_os = { snap.Snap.sp_os with Snap.so_pid = slave_pid } };
           ss_grants = grants_list (grants_after mo ~made:dc.dc_grants);
           ss_tainted_locks = [];
           ss_tainted_resources = [];
           ss_cursors = dc.dc_records;
           ss_reports = [];
           ss_diffs = 0;
           ss_diffs_before_first = -1;
           ss_mutated = 0;
           ss_trace = trace;
           ss_blocked = dc.dc_blocked;
           ss_paused = dc.dc_paused;
           ss_fingerprint = slave_fingerprint config prog world })

let ctx_of_snapshot ?obs (config : config) (prog : Ir.program)
    (mo : master_out) (ss : slave_snapshot) : slave_ctx * Machine.thread =
  let m = Snap.restore ~fprog:mo.mmachine.Machine.fprog prog ss.ss_snap in
  let thread_of idx =
    match
      List.find_opt (fun th -> th.Machine.spawn_index = idx) m.Machine.threads
    with
    | Some th -> th
    | None -> invalid_arg "Engine.slave_resume: unknown thread in snapshot"
  in
  ( make_slave_ctx ?obs config mo m
      ~grants:(tbl_of (fun l -> Queue.of_seq (List.to_seq l)) ss.ss_grants)
      ~tainted_locks:ss.ss_tainted_locks
      ~tainted_resources:ss.ss_tainted_resources ~cursors:ss.ss_cursors
      ~reports:ss.ss_reports ~diffs:ss.ss_diffs
      ~diffs_before_first:ss.ss_diffs_before_first ~mutated:ss.ss_mutated
      ~trace:ss.ss_trace ~blocked:(List.map thread_of ss.ss_blocked),
    thread_of ss.ss_paused )

(* Resume one task's suffix from a prefix snapshot, or [None] when the
   snapshot was taken against a different program, world, or shared
   slave config ([?fingerprint], [config]'s when the caller has it, or
   one computed here).  The snapshot is read-only here (restore copies
   everything), so any number of resumes — including concurrent ones
   from different domains — share one capture. *)
let slave_resume_opt ?obs ?fingerprint (config : config) (prog : Ir.program)
    (world : World.t) (mo : master_out) (ss : slave_snapshot) :
  slave_out option =
  let fp =
    match fingerprint with
    | Some fp -> fp
    | None -> slave_fingerprint config prog world
  in
  if not (String.equal ss.ss_fingerprint fp) then None
  else begin
    let ctx, paused = ctx_of_snapshot ?obs config prog mo ss in
    let prefix_cycles = ctx.sc_m.Machine.cycles in
    ignore (drive_slave ~first:paused ctx);
    let out = slave_finalize ctx in
    (match obs with
     | None -> ()
     | Some s ->
       Obs.Sink.emit s
         (Obs.Event.Snapshot_restored
            { prefix_cycles;
              suffix_cycles = ctx.sc_m.Machine.cycles - prefix_cycles }));
    Some out
  end

let slave_resume ?obs (config : config) (prog : Ir.program)
    (world : World.t) (mo : master_out) (ss : slave_snapshot) : slave_out =
  match slave_resume_opt ?obs config prog world mo ss with
  | Some out -> out
  | None ->
    invalid_arg
      "Engine.slave_resume: snapshot does not match this \
       program/world/config"

(* ------------------------------------------------------------------ *)
(* Final-state comparison (future-work extension: leaks through file    *)
(* contents or metadata that never cross a configured sink syscall).    *)

module Vfs = Ldx_osim.Vfs

let file_map (os : Os.t) : (string * (string * int)) list =
  Hashtbl.fold
    (fun p e acc ->
       match e with
       | Vfs.File { data; mtime } -> (p, (data, mtime)) :: acc
       | Vfs.Dir -> acc)
    os.Os.vfs.Vfs.entries []
  |> List.sort compare

let final_state_reports (mos : Os.t) (sos : Os.t) : sink_report list =
  let mf = file_map mos and sf = file_map sos in
  let report kind path m s =
    { kind; sys = "file"; site = -1; position = path;
      master_args = Option.map (fun v -> [ Sval.S v ]) m;
      slave_args = Option.map (fun v -> [ Sval.S v ]) s }
  in
  let rec walk mf sf acc =
    match (mf, sf) with
    | [], [] -> List.rev acc
    | (p, (d, _)) :: mrest, [] ->
      walk mrest [] (report File_state_differs p (Some d) None :: acc)
    | [], (p, (d, _)) :: srest ->
      walk [] srest (report File_state_differs p None (Some d) :: acc)
    | (pm, (dm, tm)) :: mrest, (ps, (ds, ts)) :: srest ->
      if String.compare pm ps < 0 then
        walk mrest sf (report File_state_differs pm (Some dm) None :: acc)
      else if String.compare pm ps > 0 then
        walk mf srest (report File_state_differs ps None (Some ds) :: acc)
      else if not (String.equal dm ds) then
        walk mrest srest
          (report File_state_differs pm (Some dm) (Some ds) :: acc)
      else if tm <> ts then
        walk mrest srest
          (report File_metadata_differs pm (Some (string_of_int tm))
             (Some (string_of_int ts))
           :: acc)
      else walk mrest srest acc
  in
  walk mf sf []

(* ------------------------------------------------------------------ *)
(* Top level.                                                          *)

(* Dual-execute against an already-recorded master.  [mo] is read-only
   here (the slave keeps private cursors over its frozen log), so the
   same recording can back any number of slave passes — the campaign
   layer's "1 master + K slaves" depends on this, and on [master_pass]
   never reading the slave-only config fields ([sources], [strategy],
   [slave_seed], [record_trace]). *)
(* Fold one slave outcome against its master recording into a [result]
   — the tail of [run_with_master], shared with the incremental path
   (where the same [slave_out] may finalize under several per-task
   configs, each with its own [check_final_state]). *)
let finalize_result ?obs (config : config) (mo : master_out)
    (so : slave_out) : result =
  let state_reports =
    if config.check_final_state then
      with_phase obs Obs.Event.Final_state (fun () ->
          let rs = final_state_reports mo.mmachine.Machine.os so.sos in
          (match obs with
           | None -> ()
           | Some s ->
             List.iter
               (fun r ->
                  Obs.Sink.emit s
                    (Obs.Event.Divergence
                       { case = case_of_kind r.kind;
                         kind = kind_to_string r.kind; sys = r.sys;
                         site = r.site; pos = r.position }))
               rs);
          rs)
    else []
  in
  let mm = mo.mmachine in
  let slave_only_sinks =
    List.length
      (List.filter (fun r -> r.kind = Missing_in_master) so.sreports)
  in
  { trace = so.strace;
    reports = so.sreports @ state_reports;
    leak = so.sreports <> [] || state_reports <> [];
    tainted_sinks = List.length so.sreports;
    (* sinks encountered by either execution (slave-only sinks included) *)
    total_sinks = mo.mtotal_sinks + slave_only_sinks;
    syscall_diffs = so.sdiffs;
    diffs_before_first_report = so.sdiffs_before_first;
    total_syscalls = mo.msummary.syscalls;
    mutated_inputs = so.smutated;
    master = mo.msummary;
    slave = so.ssummary;
    wall_cycles = max mo.msummary.cycles so.ssummary.cycles;
    dyn_cnt_avg = Machine.dyn_cnt_avg mm;
    dyn_cnt_max = mm.Machine.cnt_max;
    max_seg_depth = mm.Machine.max_seg_depth;
    master_schedule = mo.msched }

let run_with_master ?obs ?prof (config : config) (prog : Ir.program)
    (world : World.t) (mo : master_out) : result =
  let so =
    with_phase obs Obs.Event.Slave_run (fun () ->
        slave_pass ?obs ?prof config prog world mo)
  in
  finalize_result ?obs config mo so

(* Dual profile: one per side, so master-vs-slave overhead is
   decomposable.  Cross-run aggregation works too — pass the same pair
   to several runs of the same program and the counters accumulate. *)
type profiles = { prof_master : Profile.t; prof_slave : Profile.t }

let fresh_profiles () =
  { prof_master = Profile.create (); prof_slave = Profile.create () }

let run ?(config = default_config) ?obs ?prof (prog : Ir.program)
    (world : World.t) : result =
  let pm = Option.map (fun p -> p.prof_master) prof in
  let ps = Option.map (fun p -> p.prof_slave) prof in
  let mo =
    with_phase obs Obs.Event.Master_run (fun () ->
        master_pass ?obs ?prof:pm ~specs:config.sources config prog world)
  in
  if Option.is_none prof && derivable config mo then
    finalize_result ?obs config mo
      (with_phase obs Obs.Event.Slave_run (fun () ->
           derive_slave ?obs config mo))
  else run_with_master ?obs ?prof:ps config prog world mo

(* Parse, check, lower, instrument, dual-execute. *)
let run_source ?config ?obs ?prof (src : string)
    (world : World.t) : result =
  let ast =
    with_phase obs Obs.Event.Parse (fun () -> Ldx_lang.Parser.parse_exn src)
  in
  let prog =
    with_phase obs Obs.Event.Lower (fun () ->
        Ldx_cfg.Lower.lower_program ast)
  in
  let prog, _ =
    with_phase obs Obs.Event.Instrument (fun () ->
        Ldx_instrument.Counter.instrument prog)
  in
  run ?config ?obs ?prof prog world

(* Native (uninstrumented, single-execution) cycles for overhead
   computations (Fig. 6 baseline). *)
let native_cycles (src : string) (world : World.t) : int =
  let prog = Ldx_cfg.Lower.lower_source src in
  let o = Driver.run prog world in
  o.Driver.cycles
