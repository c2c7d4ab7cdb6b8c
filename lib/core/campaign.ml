(* Campaign layer: one recorded master, N independent slave passes —
   durable, deadline-bounded, retried and quarantined.

   The per-source attribution follow-up (Sec. 3) and the
   mutation-strategy study (Sec. 8.3) both re-run a dual execution per
   source/strategy, yet the master half is byte-identical across those
   runs: [Engine.master_pass] never reads the slave-only configuration
   fields (sources, strategy, slave_seed, record_trace), and a
   [master_out] is a frozen, replayable outcome log.  A campaign
   therefore pays ONE master pass and fans the K slave passes out over
   the calling domain and, when they pay for themselves, helper domains
   ([fan_out]).

   Determinism: each slave pass builds its own machine, OS and cursors
   from immutable inputs (the program, the world description, the frozen
   master log) and the VM scheduler is deterministically seeded, so a
   parallel campaign is byte-identical to a sequential one (asserted by
   the property suite).

   Durability: [?journal] persists a manifest (configuration
   fingerprint + task list) and appends each outcome as the domain that
   ran the task records it, through [Ldx_store.Store]'s checksummed
   append-only format; [resume] replays journaled outcomes verbatim and
   runs only the tasks that never made it to disk.  Outcome payloads
   are [Marshal]ed [Engine.result]s (plain data, no closures), guarded
   by the manifest fingerprint: a journal only ever replays into the
   exact campaign shape that wrote it. *)

module World = Ldx_osim.World
module Ir = Ldx_cfg.Ir
module Obs = Ldx_obs
module Store = Ldx_store.Store

(* Slave-side parameters only, by construction: anything expressible as
   a [slave_params] is sound to run against a shared master recording. *)
type slave_params = {
  label : string;
  sources : Engine.source_spec list;
  strategy : Mutation.strategy;
  slave_seed : int;
  record_trace : bool;
  check_final_state : bool;
  sched : Engine.Sched.spec option;
}

let params_of_config (c : Engine.config) : slave_params =
  { label = "base";
    sources = c.Engine.sources;
    strategy = c.Engine.strategy;
    slave_seed = c.Engine.slave_seed;
    record_trace = c.Engine.record_trace;
    check_final_state = c.Engine.check_final_state;
    sched = c.Engine.slave_sched }

let apply (base : Engine.config) (p : slave_params) : Engine.config =
  { base with
    Engine.sources = p.sources;
    strategy = p.strategy;
    slave_seed = p.slave_seed;
    record_trace = p.record_trace;
    check_final_state = p.check_final_state;
    slave_sched = p.sched }

let of_sources (c : Engine.config) : slave_params list =
  List.mapi
    (fun i spec ->
       { (params_of_config c) with
         label = Printf.sprintf "source#%d" i;
         sources = [ spec ] })
    c.Engine.sources

let of_strategies (c : Engine.config)
    (strategies : (string * Mutation.strategy) list) : slave_params list =
  List.map
    (fun (label, strategy) -> { (params_of_config c) with label; strategy })
    strategies

(* A task re-seeded: its slave seed and, when it names one, the seed of
   its scheduler spec, which [Engine.resolve_sched] prefers to the slave
   seed. *)
let with_seed (p : slave_params) seed =
  { p with
    slave_seed = seed;
    sched = Option.map (fun s -> { s with Engine.Sched.seed }) p.sched }

let of_seeds (c : Engine.config) (seeds : int list) : slave_params list =
  List.map
    (fun s ->
       { (with_seed (params_of_config c) s) with
         label = Printf.sprintf "seed=%d" s })
    seeds

let of_scheds (c : Engine.config)
    (scheds : (string * Engine.Sched.spec) list) : slave_params list =
  List.map
    (fun (label, spec) -> { (params_of_config c) with label; sched = Some spec })
    scheds

(* A task's fate.  A raising slave pass is RECORDED, never fatal: one
   bad task must not take down the fleet (nor, in the parallel path,
   lose every sibling's result).  Fuel exhaustion gets its own arm —
   the result is still meaningful (both sides' partial summaries are
   there) but its verdict must not be trusted like a completed run's.
   [Timed_out] is the same fuel trap under a [?deadline] tighter than
   the configured budget; [Quarantined] parks a task that crashed on
   every attempt. *)
type status =
  | Ok of Engine.result
  | Crashed of { exn : string; backtrace : string }
  | Fuel_exhausted of Engine.result
  | Timed_out of Engine.result
  | Quarantined of { exn : string; backtrace : string }

type outcome = {
  params : slave_params;
  status : status;
  attempts : int;
}

let status_class = function
  | Ok _ -> "ok"
  | Crashed _ -> "crashed"
  | Fuel_exhausted _ -> "fuel-exhausted"
  | Timed_out _ -> "timed-out"
  | Quarantined _ -> "quarantined"

let result_of = function
  | Ok r | Fuel_exhausted r | Timed_out r -> Some r
  | Crashed _ | Quarantined _ -> None

let result_exn (o : outcome) : Engine.result =
  match o.status with
  | Ok r | Fuel_exhausted r | Timed_out r -> r
  | Crashed { exn; _ } ->
    invalid_arg (Printf.sprintf "campaign task %s crashed: %s" o.params.label exn)
  | Quarantined { exn; _ } ->
    invalid_arg
      (Printf.sprintf "campaign task %s quarantined: %s" o.params.label exn)

(* Bounded retries for crashed/fuel-exhausted/timed-out tasks.  Retry
   [k] (1-based) re-runs with [slave_seed + stride k]: linear when
   [backoff <= 1] (bit-identical to the historical policy), else
   [backoff^(k-1)] — exponential backoff in seed space.  A transient
   failure (schedule-dependent deadlock, fuel blow-up under an unlucky
   interleaving) clears under a perturbed schedule, a deterministic one
   reproduces — which is exactly the signal the attempt count carries,
   and what quarantine acts on. *)
type retry_policy = {
  max_retries : int;
  backoff : int;
  fuel_budget : int option;
}

let no_retries = { max_retries = 0; backoff = 1; fuel_budget = None }

type runner =
  ?obs:Obs.Sink.t ->
  Engine.config -> Ir.program -> World.t -> Engine.master_out -> Engine.result

let default_runner : runner =
  fun ?obs cfg prog world mo -> Engine.run_with_master ?obs cfg prog world mo

(* ---------- durable journal encoding ---------- *)

(* [Engine.result] is plain data (records, variants, strings, ints —
   audited: no closures anywhere under it), so [Marshal] round-trips it
   exactly; replaying a journaled outcome is verbatim, which is what
   makes interrupted-then-resumed renders byte-identical.  Byte strings
   ride as [Store.hex_encode] so they survive the store's line format
   unscathed. *)
let encode_status (s : status) (attempts : int) : string =
  let fields tag hex =
    String.concat " " (tag :: string_of_int attempts :: hex)
  in
  let res tag (r : Engine.result) =
    fields tag [ Store.hex_encode (Marshal.to_string r []) ]
  in
  let dead tag exn backtrace =
    fields tag [ Store.hex_encode exn; Store.hex_encode backtrace ]
  in
  match s with
  | Ok r -> res "ok" r
  | Fuel_exhausted r -> res "fuel" r
  | Timed_out r -> res "timeout" r
  | Crashed { exn; backtrace } -> dead "crash" exn backtrace
  | Quarantined { exn; backtrace } -> dead "quarantine" exn backtrace

(* The exact inverse of [encode_status]: a payload it cannot have
   written ("4_" or "4A" as hex, "0x1" as a count) is refused, so no two
   journal byte strings decode to the same outcome. *)
let decode_status (payload : string) : (status * int) option =
  let count a =
    match int_of_string_opt a with
    | Some n when String.equal (string_of_int n) a -> Some n
    | _ -> None
  in
  let result h k =
    match Store.hex_decode h with
    | Error _ -> None
    | Ok m ->
      (match (Marshal.from_string m 0 : Engine.result) with
       | r -> Some (k r)
       | exception _ -> None)
  in
  match String.split_on_char ' ' payload with
  | [ tag; a; h ] -> (
      match count a with
      | None -> None
      | Some attempts -> (
        match tag with
        | "ok" -> result h (fun r -> (Ok r, attempts))
        | "fuel" -> result h (fun r -> (Fuel_exhausted r, attempts))
        | "timeout" -> result h (fun r -> (Timed_out r, attempts))
        | _ -> None))
  | [ tag; a; e; b ] -> (
      match (count a, Store.hex_decode e, Store.hex_decode b) with
      | Some attempts, Result.Ok exn, Result.Ok backtrace -> (
        match tag with
        | "crash" -> Some (Crashed { exn; backtrace }, attempts)
        | "quarantine" -> Some (Quarantined { exn; backtrace }, attempts)
        | _ -> None)
      | _ -> None)
  | _ -> None

(* the service worker protocol moves these across process boundaries *)
let encode_outcome = encode_status
let decode_outcome = decode_status

(* The configuration fingerprint a journal stores and [resume] checks.
   Slave params, faults and scheduler specs are plain data (audited, as
   for outcomes) and are hashed via [Marshal]; the sink set enters as
   its tag.  The retry text keeps the slots of two retired fields, a
   seed jitter of 1 and quarantine whenever retries are on, so journals
   of earlier builds keep resuming. *)
let fingerprint ?(retry = no_retries) ?deadline ~(config : Engine.config)
    (prog : Ir.program) (world : World.t) (params : slave_params list) : string =
  let m x = Marshal.to_string x [] in
  Store.fingerprint
    ([ "ldx-campaign/1";
       m prog;
       m world;
       string_of_int config.Engine.master_seed;
       string_of_int config.Engine.max_steps;
       Engine.sinks_tag config.Engine.sinks;
       m config.Engine.faults;
       m config.Engine.master_sched;
       string_of_bool config.Engine.record_sched;
       (match deadline with None -> "-" | Some d -> string_of_int d);
       Printf.sprintf "%d,1,%d,%s,%b" retry.max_retries retry.backoff
         (match retry.fuel_budget with None -> "-" | Some b -> string_of_int b)
         (retry.max_retries > 0) ]
     @ List.map m params)

(* ---------- one task ---------- *)

let pow base e =
  let r = ref 1 in
  for _ = 1 to e do r := !r * base done;
  !r

(* Run one task under containment: exceptions become [Crashed], fuel
   traps become [Fuel_exhausted] (or [Timed_out] under a tightened
   deadline), retries (if any) are attempted with jittered slave seeds
   until the policy's count or fuel budget is spent.  This is the only
   place a slave pass is invoked, so sequential and parallel campaigns
   contain failures identically.  Returns the final status and the
   number of runs performed. *)
let run_task ~(retry : retry_policy) ?deadline ?obs ~(runner : runner)
    (config : Engine.config) (prog : Ir.program) (world : World.t)
    (mo : Engine.master_out) (p : slave_params) : status * int =
  (* the deadline only ever LOWERS the slave's fuel; the master summary
     comes from the recording, so master-side config agreement holds *)
  let tightened =
    match deadline with Some d -> d < config.Engine.max_steps | None -> false
  in
  let task_config p' =
    let c = apply config p' in
    if tightened then
      { c with Engine.max_steps = Option.get deadline }
    else c
  in
  (* one attempt's step cap — what a crashed run is charged against the
     fuel budget (conservative: it may have died earlier) *)
  let attempt_cap =
    if tightened then Option.get deadline else config.Engine.max_steps
  in
  let attempt_once p' : status * int =
    match runner ?obs (task_config p') prog world mo with
    | r ->
      let fuel (s : Engine.exec_summary) =
        Engine.classify_trap s.Engine.trap = Engine.Fuel
      in
      let spent = r.Engine.slave.Engine.steps in
      if fuel r.Engine.master then (Fuel_exhausted r, spent)
      else if fuel r.Engine.slave then
        ((if tightened then Timed_out r else Fuel_exhausted r), spent)
      else (Ok r, spent)
    | exception e ->
      let backtrace = Printexc.get_backtrace () in
      (Crashed { exn = Printexc.to_string e; backtrace }, attempt_cap)
  in
  let stride k = if retry.backoff <= 1 then k else pow retry.backoff (k - 1) in
  let budget_left spent =
    match retry.fuel_budget with None -> true | Some b -> spent < b
  in
  (* [attempt] counts retries already performed (0 = first run) *)
  let rec go attempt spent all_crashed =
    let p' =
      if attempt = 0 then p else with_seed p (p.slave_seed + stride attempt)
    in
    let s, cost = attempt_once p' in
    let spent = spent + cost in
    let all_crashed =
      all_crashed && (match s with Crashed _ -> true | _ -> false)
    in
    match s with
    | Ok _ -> (s, attempt + 1)
    | Crashed _ | Fuel_exhausted _ | Timed_out _ | Quarantined _ ->
      if attempt < retry.max_retries && budget_left spent then
        go (attempt + 1) spent all_crashed
      else begin
        let attempts = attempt + 1 in
        let s =
          match s with
          | Crashed { exn; backtrace } when all_crashed && attempts > 1 ->
            (* the crash reproduced under a perturbed seed: it is
               deterministic, park it *)
            Quarantined { exn; backtrace }
          | s -> s
        in
        (s, attempts)
      end
  in
  go 0 0 true

(* ---------- per-task telemetry ---------- *)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Wall cycles of a task's fate (0 when there is no result). *)
let wall_cycles_of (s : status) : int =
  match result_of s with Some r -> r.Engine.wall_cycles | None -> 0

(* [run_task] plus telemetry when a sink is present: a [Task_begin]
   marker before the first attempt and a [Task_timing] after the last,
   carrying the wall-clock queue-wait ([t0] = fan-out start) vs
   run-time split and the deterministic virtual wall.  With no sink
   this is exactly [run_task] — no clock reads on the lean path. *)
let run_task_telemetry ~retry ?deadline ?obs ~runner ~index ~t0
    (config : Engine.config) (prog : Ir.program) (world : World.t)
    (mo : Engine.master_out) (p : slave_params) : status * int =
  match obs with
  | None -> run_task ~retry ?deadline ~runner config prog world mo p
  | Some _ ->
    let t_start = now_us () in
    Obs.Sink.emit_opt obs (Obs.Event.Task_begin { label = p.label; index });
    let s, a = run_task ~retry ?deadline ?obs ~runner config prog world mo p in
    let t_end = now_us () in
    Obs.Sink.emit_opt obs
      (Obs.Event.Task_timing
         { label = p.label;
           index;
           queue_us = max 0 (t_start - t0);
           run_us = max 0 (t_end - t_start);
           wall_cycles = wall_cycles_of s });
    (s, a)

(* Mean-based remaining-cycles estimate for progress heartbeats. *)
let eta_cycles ~completed ~total ~cycles_done =
  if completed <= 0 then 0
  else cycles_done / completed * (total - completed)

(* ---------- the fan-out ---------- *)

(* Below roughly this many master-pass steps, a slave pass is so short
   that spawning and joining domains, the contended work queue and the
   buffered events of a sink dominate: at jobs=2, 15 tasks, a pool with
   a sink and a journal runs 403.gcc (8.3k master steps) at 0.66x the
   speed of one domain, and without them gains only 1.10x, against
   1.40-1.64x on 401.bzip2 and 473.astar (96k and 648k master steps).
   [`Auto] mode runs under this break-even at jobs = 1. *)
let domain_break_even = 20_000

(* The calling domain and [jobs - 1] helpers claim contiguous CHUNKS of
   ~k/(4*jobs) indexes per fetch-and-add rather than single indexes:
   the contended atomic is touched ~4 times per domain instead of once
   per task, while the 4x over-decomposition keeps late-stage load
   balance when task costs are uneven.  [record] runs under one mutex,
   so it needs no domain safety of its own, and every write it makes
   happens before the joins. *)
let fan_out ~jobs ~stop ~run ~record (idxs : int array) : unit =
  let k = Array.length idxs in
  let domains = max 1 (min jobs k) in
  let chunk = max 1 ((k + (4 * domains) - 1) / (4 * domains)) in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let fail e bt = ignore (Atomic.compare_and_set failure None (Some (e, bt))) in
  let halted () = Option.is_some (Atomic.get failure) || stop () in
  let mu = Mutex.create () in
  let rec claim () =
    if not (halted ()) then begin
      let lo = Atomic.fetch_and_add next chunk in
      if lo < k then begin
        let hi = min k (lo + chunk) in
        let j = ref lo in
        while !j < hi && not (halted ()) do
          let i = idxs.(!j) in
          let r = run i in
          Mutex.protect mu (fun () -> record i r);
          incr j
        done;
        claim ()
      end
    end
  in
  let work () = try claim () with e -> fail e (Printexc.get_raw_backtrace ()) in
  (* backtrace recording is per-domain: without the caller's setting, a
     [Crashed] outcome would carry a backtrace or not depending on which
     domain happened to claim the task *)
  let record_bt = Printexc.backtrace_status () in
  let helpers = ref [] in
  (try
     for _ = 2 to domains do
       helpers :=
         Domain.spawn (fun () ->
             Printexc.record_backtrace record_bt;
             work ())
         :: !helpers
     done
   with e -> fail e (Printexc.get_raw_backtrace ()));
  work ();
  (* [work] never raises, so neither does a join *)
  List.iter Domain.join !helpers;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---------- the campaign ---------- *)

(* Why an incremental prefix would be unsound for this fan-out, if it
   would be.  Every task must share the prefix-relevant slave fields
   (seed, scheduler, trace recording); [sources], [strategy] and
   [check_final_state] are free to vary — they only act at or after the
   decouple point.  A caller's custom runner can't be short-circuited,
   and a [?deadline] lowers per-task fuel (changing the prefix machine),
   so both force the full path. *)
let incremental_refusal ~user_runner ~deadline (params : slave_params list) :
  string option =
  let shared p q =
    p.slave_seed = q.slave_seed && p.record_trace = q.record_trace
    && p.sched = q.sched
  in
  if Option.is_some user_runner then Some "a custom runner"
  else if Option.is_some deadline then Some "a deadline"
  else
    match params with
    | p0 :: rest when not (List.for_all (shared p0) rest) ->
      Some "tasks differ in slave seed, trace recording or schedule"
    | _ -> None

let fallback obs reason =
  Obs.Sink.emit_opt obs (Obs.Event.Snapshot_fallback { reason })

(* Build the incremental runner: one shared slave prefix over [specs]
   (the tasks' sources, which [mo] was recorded with), forked from the
   master's capture, derived from its log when no source is ever
   reached, or executed here on the calling domain, before any fan-out;
   then per-task suffix resumes.  Attempt-0 task configs match the
   snapshot's fingerprint by construction; retries jitter the slave
   seed, which changes the fingerprint and runs that attempt in full.
   A prefix that raises runs every task in full.  Each fallback emits
   [Snapshot_fallback]: incremental mode is an optimization, never a
   behavior change, and a broken prefix must still show. *)
let incremental_runner ?obs (config : Engine.config) (prog : Ir.program)
    (world : World.t) (mo : Engine.master_out) ~specs
    (params : slave_params list) : runner =
  let prefix_cfg = apply config { (List.hd params) with sources = [] } in
  let mismatch ?obs cfg prog world mo =
    fallback obs "task config does not match the snapshot's fingerprint";
    default_runner ?obs cfg prog world mo
  in
  (* every attempt's config has the prefix config's fingerprinted fields
     but the slave seed, which a retry jitters: one fingerprint per
     distinct seed serves the campaign *)
  let fingerprints = Hashtbl.create 2 and mu = Mutex.create () in
  let fingerprint (cfg : Engine.config) =
    Mutex.protect mu (fun () ->
        let seed = cfg.Engine.slave_seed in
        match Hashtbl.find_opt fingerprints seed with
        | Some fp -> fp
        | None ->
          let fp = Engine.slave_fingerprint cfg prog world in
          Hashtbl.replace fingerprints seed fp;
          fp)
  in
  match
    match Engine.fork_prefix ?obs prefix_cfg prog world mo with
    | Some prefix -> prefix
    | None -> Engine.slave_prefix ?obs prefix_cfg ~specs prog world mo
  with
  | Engine.Prefix_done so ->
    (* no syscall base-matches any task's sources: the whole slave run
       is shared, and each first attempt finalizes the one outcome under
       its own config (final-state checking may differ per task) *)
    let fp0 = fingerprint prefix_cfg in
    fun ?obs cfg prog world mo ->
      if String.equal fp0 (fingerprint cfg) then
        Engine.finalize_result ?obs cfg mo so
      else mismatch ?obs cfg prog world mo
  | Engine.Prefix_paused ss ->
    fun ?obs cfg prog world mo ->
      (match
         Engine.slave_resume_opt ?obs ~fingerprint:(fingerprint cfg) cfg prog
           world mo ss
       with
       | Some so -> Engine.finalize_result ?obs cfg mo so
       | None -> mismatch ?obs cfg prog world mo)
  | exception e ->
    fallback obs ("the shared prefix raised " ^ Printexc.to_string e);
    default_runner

let run_impl ~jobs ~mode ~obs ~retry ~deadline ~runner ~journal ~stop ~sync
    ~incremental
    ~(pre : (int * (status * int)) list) ~(pre_raw : (int * string) list)
    ~(config : Engine.config) (prog : Ir.program) (world : World.t)
    (params : slave_params list) : outcome list =
  let user_runner = runner in
  let runner = Option.value runner ~default:default_runner in
  let tasks = Array.of_list params in
  let n = Array.length tasks in
  let results : (status * int) option array = Array.make n None in
  let fresh = Array.make n false in
  List.iter
    (fun (i, sa) -> if i >= 0 && i < n then results.(i) <- Some sa)
    pre;
  let missing = List.filter (fun i -> results.(i) = None) (List.init n Fun.id) in
  (* checkpoint the manifest (and any replayed outcomes) via atomic
     rename BEFORE any task runs: a fresh run becomes resumable
     immediately, a resumed run heals its torn tail on disk *)
  let store =
    match journal with
    | None -> None
    | Some path ->
      let manifest =
        { Store.fingerprint =
            fingerprint ~retry ?deadline ~config prog world params;
          meta = [ ("tasks", string_of_int n) ];
          tasks = Array.to_list (Array.map (fun p -> p.label) tasks) }
      in
      let t = Store.checkpoint ~path ~sync manifest pre_raw in
      Obs.Sink.emit_opt obs
        (Obs.Event.Checkpoint
           { path; tasks = n; journaled = List.length pre_raw });
      Some t
  in
  Fun.protect ~finally:(fun () -> Option.iter Store.close store) @@ fun () ->
  (if missing <> [] then begin
     (* an incremental fan-out's decouple specs: the master pass
        captures its own state where they first match *)
     let specs =
       if not incremental then None
       else
         match incremental_refusal ~user_runner ~deadline params with
         | None -> Some (List.concat_map (fun p -> p.sources) params)
         | Some reason ->
           fallback obs ("ineligible: " ^ reason);
           None
     in
     (* ONE master pass, shared by every slave task still to run; when
        everything replays from the journal even this is skipped *)
     let mo =
       Obs.Sink.emit_opt obs (Obs.Event.Phase_begin Obs.Event.Master_run);
       Fun.protect
         ~finally:(fun () ->
           Obs.Sink.emit_opt obs (Obs.Event.Phase_end Obs.Event.Master_run))
         (fun () -> Engine.master_pass ?obs ?specs config prog world)
     in
     (* incremental fan-out: one shared slave prefix now, per-task
        suffix resumes below (threaded through the runner seam, so
        retry containment and telemetry are untouched) *)
     let runner =
       match specs with
       | Some specs ->
         incremental_runner ?obs config prog world mo ~specs params
       | None -> runner
     in
     let nmiss = List.length missing in
     (* mode resolution.  [`Auto] goes parallel only when it can
        plausibly win: more than one job AND missing task, a host with
        more than one recommended domain, and slave passes long enough
        (estimated by the master pass's step count — a slave pass
        replays the same program) to amortise domain spawn/join
        overhead. *)
     let parallel =
       jobs > 1 && nmiss > 1
       && (match mode with
           | `Sequential -> false
           | `Parallel -> true
           | `Auto ->
             Domain.recommended_domain_count () > 1
             && mo.Engine.msummary.Engine.steps >= domain_break_even)
     in
     Obs.Sink.emit_opt obs
       (Obs.Event.Campaign_plan
          { mode = (if parallel then "parallel" else "sequential");
            jobs = (if parallel then jobs else 1);
            tasks = nmiss;
            est_steps = mo.Engine.msummary.Engine.steps });
     let idxs = Array.of_list missing in
     let t0 = now_us () in
     (* a pooled task emits into a private buffer, drained into the sink
        in task order after the fan-out, so slave-pass events never
        interleave; a lone domain emits directly *)
     let buffered = parallel && obs <> None in
     let events = Array.make n [] in
     let completed = ref 0 in
     let cycles_done = ref 0 in
     fan_out ~jobs:(if parallel then jobs else 1) ~stop idxs
       ~run:(fun i ->
           let buf = ref [] in
           let obs =
             if buffered then Some (Obs.Sink.of_fn (fun ev -> buf := ev :: !buf))
             else obs
           in
           let s, a =
             run_task_telemetry ~retry ?deadline ?obs ~runner ~index:i ~t0
               config prog world mo tasks.(i)
           in
           (s, a, List.rev !buf))
       ~record:(fun i (s, a, evs) ->
           results.(i) <- Some (s, a);
           events.(i) <- evs;
           (* write-through: a kill at any point loses at most the
              in-flight tasks *)
           Option.iter (fun t -> Store.append t i (encode_status s a)) store;
           (* liveness, in completion order (progress events are kept
              out of traces and goldens) *)
           incr completed;
           cycles_done := !cycles_done + wall_cycles_of s;
           Obs.Sink.emit_opt obs
             (Obs.Event.Campaign_progress
                { completed = !completed;
                  total = nmiss;
                  cycles_done = !cycles_done;
                  eta_cycles =
                    eta_cycles ~completed:!completed ~total:nmiss
                      ~cycles_done:!cycles_done }));
     Array.iter (List.iter (Obs.Sink.emit_opt obs)) events;
     Array.iter (fun i -> fresh.(i) <- true) idxs
   end);
  let drained = stop () in
  let outs =
    Array.to_list
      (Array.mapi
         (fun i p ->
            match results.(i) with
            | Some (status, attempts) -> { params = p; status; attempts }
            | None when drained ->
              (* a drain stopped the campaign before this task was
                 claimed; the journal (if any) holds every finished
                 outcome, so a later [resume] re-runs exactly these *)
              { params = p;
                status = Crashed { exn = "drained (not run)"; backtrace = "" };
                attempts = 0 }
            | None ->
              (* unreachable when the claims above completed; defensive
                 so a future bug degrades to a recorded failure, not an
                 abort *)
              { params = p;
                status =
                  Crashed { exn = "task slot never claimed"; backtrace = "" };
                attempts = 0 })
         tasks)
  in
  (* task fates are emitted from the calling domain, in task order,
     after the fan-out; [Quarantine] fires only for freshly-parked
     tasks (replayed ones announced it in the run that journaled them).
     Tasks a drain never ran emit nothing — they have no fate yet. *)
  List.iteri
    (fun i o ->
       if not (drained && o.attempts = 0) then begin
         Obs.Sink.emit_opt obs
           (Obs.Event.Task_done
              { label = o.params.label;
                status = status_class o.status;
                attempts = o.attempts;
                exn =
                  (match o.status with
                   | Crashed { exn; _ } | Quarantined { exn; _ } -> Some exn
                   | Ok _ | Fuel_exhausted _ | Timed_out _ -> None) });
         match o.status with
         | Quarantined { exn; _ } when fresh.(i) ->
           Obs.Sink.emit_opt obs
             (Obs.Event.Quarantine
                { label = o.params.label; attempts = o.attempts; exn })
         | _ -> ()
       end)
    outs;
  outs

let never_stop () = false

let run ?(jobs = 1) ?(mode = `Auto) ?obs ?(retry = no_retries) ?deadline
    ?runner ?journal ?(stop = never_stop) ?(sync = false)
    ?(incremental = false) ~(config : Engine.config) (prog : Ir.program)
    (world : World.t) (params : slave_params list) : outcome list =
  run_impl ~jobs ~mode ~obs ~retry ~deadline ~runner ~journal ~stop ~sync
    ~incremental ~pre:[] ~pre_raw:[] ~config prog world params

let resume ?(jobs = 1) ?(mode = `Auto) ?obs ?(retry = no_retries) ?deadline
    ?runner ~journal ?(stop = never_stop) ?(sync = false)
    ?(incremental = false) ~(config : Engine.config) (prog : Ir.program)
    (world : World.t) (params : slave_params list) :
  (outcome list, string) result =
  match Store.load ~path:journal with
  | Error e -> Error e
  | Ok loaded ->
    let fp = fingerprint ~retry ?deadline ~config prog world params in
    if loaded.Store.l_manifest.Store.fingerprint <> fp then
      Error
        (Printf.sprintf
           "%s: fingerprint mismatch (journal %s, campaign %s): the journal \
            was written by a different campaign"
           journal loaded.Store.l_manifest.Store.fingerprint fp)
    else begin
      let n = List.length params in
      (* replay verbatim: keep the journal's own payload strings for the
         re-checkpoint so nothing is re-encoded along the way *)
      let pre_raw, pre =
        List.fold_left
          (fun (raw, dec) (i, payload) ->
             if i < 0 || i >= n then (raw, dec)
             else
               match decode_status payload with
               | Some sa -> ((i, payload) :: raw, (i, sa) :: dec)
               | None -> (raw, dec))
          ([], []) loaded.Store.l_outcomes
      in
      let pre_raw = List.rev pre_raw and pre = List.rev pre in
      Obs.Sink.emit_opt obs
        (Obs.Event.Resume
           { path = journal;
             tasks = n;
             replayed = List.length pre;
             rerun = n - List.length pre;
             torn = loaded.Store.l_torn });
      Ok
        (run_impl ~jobs ~mode ~obs ~retry ~deadline ~runner
           ~journal:(Some journal) ~stop ~sync ~incremental ~pre ~pre_raw
           ~config prog world params)
    end

(* ---------- the cross-process campaign service ---------- *)

(* A service campaign is the same campaign run by N PROCESSES instead
   of N domains: the v2 store file is both the journal and the work
   queue (see [Ldx_queue.Queue] for the lease protocol), and every
   worker independently records its own master pass — the recording is
   deterministic, so all workers hold byte-identical masters and any of
   them can run any task.  Outcomes are the same [encode_outcome]
   payloads [?journal] writes, which is why the collected table is
   byte-identical to a single-process run: same payloads, first-wins
   dedup, task order. *)
module Service = struct
  module Q = Ldx_queue.Queue

  let init ?(sync = false) ?(retry = no_retries) ?deadline ~path
      ~(config : Engine.config) (prog : Ir.program) (world : World.t)
      (params : slave_params list) : unit =
    let fp = fingerprint ~retry ?deadline ~config prog world params in
    let fresh () =
      let manifest =
        { Store.fingerprint = fp;
          meta = [ ("tasks", string_of_int (List.length params)) ];
          tasks = List.map (fun p -> p.label) params }
      in
      Store.close (Store.checkpoint_entries ~path ~sync manifest [])
    in
    match Store.load ~path with
    | Error _ -> fresh ()
    | Ok loaded ->
      if loaded.Store.l_manifest.Store.fingerprint = fp then
        (* same campaign: keep the journal (outcomes and all) and heal
           any torn records on disk — this is what makes restarting the
           supervisor a resume instead of a redo.  Heartbeats shrink to
           one per owner, so restarts do not carry every earlier one. *)
        Store.close
          (Store.checkpoint_entries ~path ~sync loaded.Store.l_manifest
             (Q.compact_heartbeats loaded.Store.l_entries))
      else fresh ()

  let worker ?obs ?stop ?(sync = false) ?(retry = no_retries) ?deadline
      ?runner ?master ~path ~owner ~ttl_us ~heartbeat_us ~poll_us
      ~(config : Engine.config) (prog : Ir.program) (world : World.t)
      (params : slave_params list) :
    ([ `Complete | `Drained ], string) result =
    (* one handle for the worker's life: its first catch-up reads the
       manifest the fingerprint is checked against, and every claim
       after it folds only what was appended since *)
    let journal = Q.follow ~path in
    Fun.protect ~finally:(fun () -> Q.unfollow journal) @@ fun () ->
    match Q.catch_up journal with
    | Error e ->
      (* a damaged manifest is reported as [Store.load] reports it: a
         catch-up leaves an unterminated last line unread, so an empty
         file reads as a missing fingerprint rather than a missing
         header *)
      Error (match Store.load ~path with Error e -> e | Ok _ -> e)
    | Ok v ->
      let fp = fingerprint ~retry ?deadline ~config prog world params in
      if v.Q.manifest.Store.fingerprint <> fp then
        Error
          (Printf.sprintf
             "%s: fingerprint mismatch (journal %s, campaign %s): this \
              worker was launched with a different campaign spec"
             path v.Q.manifest.Store.fingerprint fp)
      else begin
        let runner = Option.value runner ~default:default_runner in
        let tasks = Array.of_list params in
        (* each worker records its own master pass — deterministic, so
           every worker's copy is byte-identical — but lazily: a worker
           joining a drained queue pays nothing.  [?master] lets an
           in-process caller (perfbench) share one recording. *)
        let mo =
          lazy
            (match master with
             | Some m -> m
             | None -> Engine.master_pass ?obs config prog world)
        in
        let t0 = now_us () in
        let task i =
          if i < 0 || i >= Array.length tasks then
            invalid_arg (Printf.sprintf "service task index %d out of range" i);
          let s, a =
            run_task_telemetry ~retry ?deadline ?obs ~runner ~index:i ~t0
              config prog world (Lazy.force mo) tasks.(i)
          in
          encode_outcome s a
        in
        match
          Q.Worker.run ?obs ?stop ~sync ~journal ~owner ~ttl_us ~heartbeat_us
            ~poll_us task
        with
        | Q.Worker.Complete -> Ok `Complete
        | Q.Worker.Drained -> Ok `Drained
      end

  let escalate ?(sync = false) ~path ~kills () : (int, string) result =
    match Q.load ~path with
    | Error e -> Error e
    | Ok v ->
      let n = ref 0 in
      Array.iteri
        (fun i owners ->
           match v.Q.states.(i) with
           | Q.Done _ -> ()
           | Q.Free _ | Q.Leased _ ->
             if List.length owners >= kills then begin
               (* the task has eaten [kills] distinct workers: park it
                  as a cross-process quarantine so the fleet moves on.
                  The outcome record retires the task (Done wins over
                  any lease), exactly-once still holds. *)
               let exn =
                 Printf.sprintf "killed %d workers (%s)" (List.length owners)
                   (String.concat "," owners)
               in
               Q.complete ~path ~index:i
                 ~payload:
                   (encode_outcome
                      (Quarantined { exn; backtrace = "" })
                      (List.length owners))
                 ~sync ();
               incr n
             end)
        v.Q.expired_owners;
      Ok !n

  let collect ~path (params : slave_params list) :
    (outcome list, string) result =
    match Q.load ~path with
    | Error e -> Error e
    | Ok v ->
      let n = List.length params in
      if Array.length v.Q.states <> n then
        Error
          (Printf.sprintf "%s: journal has %d tasks, campaign has %d" path
             (Array.length v.Q.states) n)
      else if not (Q.is_complete v) then
        Error
          (Printf.sprintf "%s: campaign incomplete (%d tasks remaining)" path
             (Q.remaining v))
      else begin
        let arr = Array.of_list params in
        (* [Result.Ok]: the campaign's own [Ok of Engine.result] status
           constructor shadows the stdlib's here *)
        let rec decode_all acc : _ -> (outcome list, string) result = function
          | [] -> Result.Ok (List.rev acc)
          | (i, payload) :: rest ->
            (match decode_outcome payload with
             | Some (status, attempts) ->
               decode_all ({ params = arr.(i); status; attempts } :: acc) rest
             | None ->
               Error
                 (Printf.sprintf "%s: task %d outcome failed to decode" path i))
        in
        decode_all [] (Q.outcomes v)
      end
end

let render (outs : outcome list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %-14s %-18s %4s %8s %8s %8s %6s %10s\n" "task"
       "status" "failure" "att" "mutated" "diffs" "tainted" "leak" "wall_cyc");
  List.iter
    (fun o ->
       match o.status with
       | Crashed { exn; _ } | Quarantined { exn; _ } ->
         Buffer.add_string buf
           (Printf.sprintf "%-24s %-14s %-18s %4d %8s %8s %8s %6s %10s  %s\n"
              o.params.label (status_class o.status) "-" o.attempts "-" "-" "-"
              "-" "-" exn)
       | Ok r | Fuel_exhausted r | Timed_out r ->
         (* per-side failure classes, e.g. "ok/fuel" for a healthy
            master whose slave ran out of budget *)
         let cls s =
           Engine.(failure_class_to_string (classify_trap s.Engine.trap))
         in
         let failure =
           Printf.sprintf "%s/%s" (cls r.Engine.master) (cls r.Engine.slave)
         in
         Buffer.add_string buf
           (Printf.sprintf "%-24s %-14s %-18s %4d %8d %8d %8d %6b %10d\n"
              o.params.label (status_class o.status) failure o.attempts
              r.Engine.mutated_inputs r.Engine.syscall_diffs
              r.Engine.tainted_sinks r.Engine.leak r.Engine.wall_cycles))
    outs;
  Buffer.contents buf
