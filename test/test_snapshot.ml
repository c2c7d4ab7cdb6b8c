(* Decouple-point snapshots (lib/snap) and the incremental campaign.

   The core soundness bar: capturing a snapshot at ANY driver-visible
   point must not perturb the captured execution, and restoring it must
   continue to an outcome bit-identical to never having stopped, for
   sequential, stress and threaded programs.  On top of that,
   the campaign's incremental mode (shared prefix once, per-task
   suffixes) must render byte-identical tables to full slave passes at
   any job count, survive journal resume, and reject snapshots from a
   different program/config.  The snapshot an incremental campaign
   forks from its master pass must be the one an executed prefix
   pauses with.  Finally the flat VM's per-block counter batching is
   pinned against recorded engine counters. *)

module Machine = Ldx_vm.Machine
module Driver = Ldx_vm.Driver
module Value = Ldx_vm.Value
module Snap = Ldx_snap.Snap
module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module Os = Ldx_osim.Os
module World = Ldx_osim.World
module Store = Ldx_store.Store
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Gen_minic = Ldx_genprog.Gen_minic
module Sched = Ldx_sched.Scheduler
module Fault = Ldx_osim.Fault

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let test_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

(* ------------------------------------------------------------------ *)
(* The product loop, [Driver.drive], servicing OS calls natively.
   [pause_at k] stops it at the k-th syscall event, thread ops included,
   with the thread left Awaiting (exactly what a snapshot captures);
   [~first] services that thread when the run goes on. *)

let pause_at k =
  let seen = ref 0 in
  fun _ _ -> !seen >= k || (incr seen; false)

let run_native ?pause ?first ~blocked ~trace (m : Machine.t) =
  Driver.drive ?pause ?first ~trace ~blocked m
    ~on_os_call:(fun _ p sargs ->
        Value.of_sval (Driver.os_exec m.Machine.os p sargs))

type sobs = {
  o_stdout : string;
  o_trap : string option;
  o_steps : int;
  o_cycles : int;
  o_syscalls : int;
  o_trace : Driver.trace_entry list;
}

let obs_of (m : Machine.t) trace =
  { o_stdout = Os.stdout_contents m.Machine.os;
    o_trap = m.Machine.trap;
    o_steps = m.Machine.steps;
    o_cycles = m.Machine.cycles;
    o_syscalls = m.Machine.syscalls;
    o_trace = trace }

let fresh_machine ~seed prog =
  Machine.create ~seed prog (Os.create test_world)

(* Snapshot-at-random-step round trip: pausing at the k-th syscall,
   capturing, restoring and continuing must be bit-identical to never
   pausing — and the CAPTURED machine, continued afterwards, must be
   too (capture is non-perturbing). *)
let prop_snapshot_roundtrip (p, seed, k) =
  let prog =
    fst (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_program p))
  in
  let uninterrupted =
    let m = fresh_machine ~seed prog and trace = ref [] in
    ignore (run_native ~blocked:(ref []) ~trace m);
    obs_of m !trace
  in
  let m1 = fresh_machine ~seed prog in
  let blocked = ref [] and trace = ref [] in
  match run_native ~pause:(pause_at k) ~blocked ~trace m1 with
  | `Done ->
    (* fewer than k syscalls: nothing to pause, the run itself must
       already match *)
    obs_of m1 !trace = uninterrupted
  | `Paused th ->
    let snap = Snap.capture m1 in
    let m2 = Snap.restore ~fprog:m1.Machine.fprog prog snap in
    (* the blocked list crosses the hop by tid, as [Engine]'s snapshots
       carry it by spawn index *)
    let restored_thread th =
      match Machine.find_thread m2 th.Machine.tid with
      | Some t -> t
      | None -> Alcotest.fail "restored machine lost a thread"
    in
    let trace2 = ref !trace in
    ignore
      (run_native ~first:(restored_thread th)
         ~blocked:(ref (List.map restored_thread !blocked))
         ~trace:trace2 m2);
    let restored = obs_of m2 !trace2 in
    ignore (run_native ~first:th ~blocked ~trace m1);
    let continued = obs_of m1 !trace in
    restored = uninterrupted && continued = uninterrupted

let with_pause gen =
  QCheck2.Gen.triple gen (QCheck2.Gen.int_range 0 1000)
    (QCheck2.Gen.int_range 0 40)

let print_triple (p, seed, k) =
  Printf.sprintf "seed %d, pause at %d\n%s" seed k (Gen_minic.print_program p)

let qsnap ?(count = 60) name gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:print_triple (with_pause gen)
       prop_snapshot_roundtrip)

(* ------------------------------------------------------------------ *)
(* Snapshot identity and the wire form. *)

let paused_snapshot () =
  let prog =
    fst
      (Ldx_instrument.Counter.instrument
         (Ldx_cfg.Lower.lower_source
            "fn main() { let c = socket(\"in\"); let a = recv(c); \
             let b = recv(c); send(c, a); send(c, b); }"))
  in
  let m = fresh_machine ~seed:7 prog in
  match run_native ~pause:(pause_at 2) ~blocked:(ref []) ~trace:(ref []) m with
  | `Paused _ -> (prog, m)
  | `Done -> Alcotest.fail "expected a pause"

let test_capture_deterministic () =
  let _, m = paused_snapshot () in
  let s1 = Snap.capture m in
  let s2 = Snap.capture m in
  check bool "captures of one state are equal" true (Snap.equal s1 s2);
  check string "fingerprints agree" (Snap.fingerprint s1)
    (Snap.fingerprint s2);
  check int "format version" 4 s1.Snap.sp_version

let test_wire_roundtrip () =
  let _, m = paused_snapshot () in
  let s = Snap.capture m in
  let line = Snap.to_string s in
  check bool "wire form is newline-free" false (String.contains line '\n');
  (match Snap.of_string line with
   | Ok s' -> check bool "wire round trip" true (Snap.equal s s')
   | Error e -> Alcotest.fail e);
  match Snap.of_string (line ^ "corrupt") with
  | Ok _ -> Alcotest.fail "corrupt payload accepted"
  | Error _ -> ()

(* An intact, correctly digested payload that says it has an earlier
   layout is refused by its version: 1 (with a barrier status) and 2
   (with a stepper mode and a syscall destination name). *)
let test_old_version_refused () =
  let _, m = paused_snapshot () in
  List.iter
    (fun v ->
       let old = { (Snap.capture m) with Snap.sp_version = v } in
       match Snap.of_string (Snap.to_string old) with
       | Ok _ -> Alcotest.failf "version-%d payload accepted" v
       | Error e ->
         check string "version refusal"
           (Printf.sprintf "ldx-snap: unsupported version %d" v) e)
    [ 1; 2 ]

(* A wire snapshot of format 3, whose payload carried a profile, is
   refused at its header, before anything is unmarshalled. *)
let test_old_header_refused () =
  let _, m = paused_snapshot () in
  let line = Snap.to_string (Snap.capture m) in
  let n = String.length Snap.header in
  let old = "ldx-snap/3" ^ String.sub line n (String.length line - n) in
  match Snap.of_string old with
  | Ok _ -> Alcotest.fail "an ldx-snap/3 string was accepted"
  | Error e -> check string "header refusal" "ldx-snap: bad header" e

(* The wire form rides an Ldx_store journal record across the process
   boundary: append it as an outcome payload, load the journal back,
   decode an equal snapshot. *)
let test_snapshot_through_store () =
  let _, m = paused_snapshot () in
  let s = Snap.capture m in
  let path = Filename.temp_file "ldx_test_snap" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let manifest =
    { Store.fingerprint = Store.fingerprint [ "snap-store-test" ];
      meta = [];
      tasks = [ "snapshot" ] }
  in
  let store = Store.checkpoint ~path manifest [] in
  Store.append store 0 (Snap.to_string s);
  Store.close store;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    (match l.Store.l_outcomes with
     | [ (0, payload) ] ->
       (match Snap.of_string payload with
        | Ok s' ->
          check bool "snapshot survives the store" true (Snap.equal s s')
        | Error e -> Alcotest.fail e)
     | _ -> Alcotest.fail "expected exactly one journaled record")

(* ------------------------------------------------------------------ *)
(* The forked prefix.  [Engine.fork_prefix] builds the coupled slave's
   decouple-point snapshot from the master's own capture; it must equal
   the snapshot [Engine.slave_prefix] pauses with after executing the
   prefix, and tasks resumed from either must agree. *)

(* VM values by structure, not by sharing: strings and other immutable
   parts may be shared differently (a copied result string is the
   master's), while arrays must correspond one to one, since aliasing
   is semantics for them (a store through one alias shows through the
   other).  The pairing also ends the walk of a cyclic array. *)
let values_equal (xs : Value.t list) (ys : Value.t list) : bool =
  let pairs = ref [] in
  let rec eq (a : Value.t) (b : Value.t) =
    match (a, b) with
    | Arr x, Arr y -> (
        match List.assq_opt x !pairs with
        | Some y' -> y' == y
        | None ->
          (not (List.exists (fun (_, y') -> y' == y) !pairs))
          && begin
            pairs := (x, y) :: !pairs;
            Array.length x = Array.length y && Array.for_all2 eq x y
          end)
    | Tainted x, Tainted y -> eq x y
    | (Unit | Int _ | Str _ | Fptr _), _ -> a = b
    | (Arr _ | Tainted _), _ -> false
  in
  List.length xs = List.length ys && List.for_all2 eq xs ys

(* A machine snapshot with its VM values taken out, and those values in
   one fixed order. *)
let split_values (sn : Machine.snapshot) : Machine.snapshot * Value.t list =
  let vals = ref [] in
  let take v = vals := v :: !vals in
  let thread (th : Machine.sthread) =
    let table =
      Array.map
        (fun (f : Machine.sframe) ->
           Array.iter take f.Machine.sf_regs;
           { f with Machine.sf_regs = [||] })
        th.Machine.sth_table
    in
    let status =
      match th.Machine.sth_status with
      | Machine.S_awaiting p ->
        List.iter take p.Machine.sp_args;
        Machine.S_awaiting { p with Machine.sp_args = [] }
      | Machine.S_finished v ->
        take v;
        Machine.S_finished Value.Unit
      | Machine.S_runnable -> Machine.S_runnable
    in
    { th with Machine.sth_table = table; sth_status = status }
  in
  let threads = Array.map thread sn.Machine.sn_threads in
  ({ sn with Machine.sn_threads = threads }, List.rev !vals)

(* The first component in which two decouple-point snapshots differ. *)
let snapshot_difference (e : Engine.slave_snapshot)
    (f : Engine.slave_snapshot) : string option =
  let em, evals = split_values e.Engine.ss_snap.Snap.sp_machine in
  let fm, fvals = split_values f.Engine.ss_snap.Snap.sp_machine in
  List.find_map
    (fun (what, same) -> if same then None else Some what)
    [ ("machine", em = fm);
      ("machine values", values_equal evals fvals);
      ("os", e.Engine.ss_snap.Snap.sp_os = f.Engine.ss_snap.Snap.sp_os);
      ("grants", e.Engine.ss_grants = f.Engine.ss_grants);
      ("tainted locks", e.Engine.ss_tainted_locks = f.Engine.ss_tainted_locks);
      ( "tainted resources",
        e.Engine.ss_tainted_resources = f.Engine.ss_tainted_resources );
      ("cursors", e.Engine.ss_cursors = f.Engine.ss_cursors);
      ("reports", e.Engine.ss_reports = f.Engine.ss_reports);
      ( "diffs",
        (e.Engine.ss_diffs, e.Engine.ss_diffs_before_first, e.Engine.ss_mutated)
        = (f.Engine.ss_diffs, f.Engine.ss_diffs_before_first,
           f.Engine.ss_mutated) );
      ("trace", e.Engine.ss_trace = f.Engine.ss_trace);
      ("blocked", e.Engine.ss_blocked = f.Engine.ss_blocked);
      ("paused", e.Engine.ss_paused = f.Engine.ss_paused);
      ("fingerprint", e.Engine.ss_fingerprint = f.Engine.ss_fingerprint) ]

(* The first component in which two whole slave outcomes differ; final
   OS states compare in their canonical form. *)
let slave_out_difference (e : Engine.slave_out) (f : Engine.slave_out) :
  string option =
  List.find_map
    (fun (what, same) -> if same then None else Some what)
    [ ("reports", e.Engine.sreports = f.Engine.sreports);
      ( "diffs",
        (e.Engine.sdiffs, e.Engine.sdiffs_before_first, e.Engine.smutated)
        = (f.Engine.sdiffs, f.Engine.sdiffs_before_first, f.Engine.smutated) );
      ("summary", e.Engine.ssummary = f.Engine.ssummary);
      ("trace", e.Engine.strace = f.Engine.strace);
      ("os", Snap.sos_of_os e.Engine.sos = Snap.sos_of_os f.Engine.sos) ]

(* Record a master with [specs], execute the prefix and fork it under
   [config] (sources off, as a campaign's shared prefix runs), and
   compare; then resume two mutating tasks over [specs] from each
   snapshot.  [Ok false]: no decouple point, on either side, where the
   derived whole slave must be the executed one. *)
let fork_check (config : Engine.config) ~specs prog world :
  (bool, string) result =
  let prefix_cfg = { config with Engine.sources = [] } in
  let mo = Engine.master_pass ~specs config prog world in
  match
    ( Engine.slave_prefix prefix_cfg ~specs prog world mo,
      Engine.fork_prefix prefix_cfg prog world mo )
  with
  | Engine.Prefix_done e, Some (Engine.Prefix_done f) -> (
      match slave_out_difference e f with
      | Some what -> Error ("derived slave: " ^ what ^ " differs")
      | None -> Ok false)
  | Engine.Prefix_done _, Some (Engine.Prefix_paused _) ->
    Error "forked a prefix that never pauses"
  | Engine.Prefix_paused _, Some (Engine.Prefix_done _) ->
    Error "derived a whole slave where the prefix pauses"
  | _, None -> Error "nothing forked under the master's schedule"
  | Engine.Prefix_paused e, Some (Engine.Prefix_paused f) -> (
      match snapshot_difference e f with
      | Some what -> Error (what ^ " differs")
      | None ->
        let differing =
          List.filter
            (fun strategy ->
               let cfg = { config with Engine.sources = specs; strategy } in
               let result ss =
                 Engine.finalize_result cfg mo
                   (Engine.slave_resume cfg prog world mo ss)
               in
               result e <> result f)
            [ Mutation.Off_by_one; Mutation.Bitflip ]
        in
        if differing = [] then Ok true
        else Error "a task resumed from the fork differs")

let test_fork_registry () =
  let paused = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
       let prog, _ = Workload.instrumented w in
       List.iter
         (fun (name, (c : Engine.config)) ->
            let config = { c with Engine.record_trace = true } in
            match
              fork_check config ~specs:c.Engine.sources prog w.Workload.world
            with
            | Ok p -> if p then incr paused
            | Error e -> Alcotest.failf "%s (%s): %s" w.Workload.name name e)
         (("leak", Workload.leak_config w)
          :: Option.to_list
               (Option.map (fun c -> ("benign", c))
                  (Workload.benign_config w))))
    Registry.all;
  (* pinned so the check cannot pass by never reaching a decouple point *)
  check int "registry configs with a decouple point" 44 !paused

(* Generated programs under a shared schedule, the legacy one or a
   random one, with trace and schedule recording on or off, and with or
   without a fault plan (both sides consult it).  The structured and
   stress generators read the ["in"] socket, so [recv] sources pause
   them.  The threaded generator has no [recv]: its extra spec names one
   worker's sends, or prints, or any write, so the pause falls inside
   the workers, past lock grants, often with threads blocked. *)
let gen_fork_case gen ~threaded =
  let open QCheck2.Gen in
  let* p = gen in
  let* seed = int_bound 1000 in
  let* random = bool in
  let* record_trace = bool in
  let* record_sched = bool in
  let* faulty = bool in
  let* w = int_range 0 2 in
  let* extra =
    if not threaded then return []
    else
      oneofl
        [ [ Engine.source ~sys:"send" ~arg:(Printf.sprintf "out%d" w) () ];
          [ Engine.source ~sys:"print" ~arg:(string_of_int w) () ];
          [ Engine.source ~sys:"write" () ] ]
  in
  let sched = if random then Some (Sched.spec ~seed Sched.Random) else None in
  let config =
    { Engine.default_config with
      Engine.master_seed = seed;
      slave_seed = seed;
      master_sched = sched;
      slave_sched = sched;
      record_trace;
      record_sched;
      faults =
        (if not faulty then None
         else
           Some
             (Fault.plan ~seed
                [ Fault.rule ~sys:"recv" ~nth:2 Fault.Drop_message;
                  Fault.rule ~sys:"recv" ~prob:30 (Fault.Short_read 1);
                  Fault.rule ~sys:"send" ~prob:20 Fault.Transient;
                  Fault.rule ~sys:"time" (Fault.Clock_skew 997) ])) }
  in
  return (p, config, Engine.source ~sys:"recv" () :: extra)

let print_fork_case (p, (c : Engine.config), specs) =
  Printf.sprintf
    "seed %d, %s schedule, trace %b, sched log %b, faults %b, %d specs\n%s"
    c.Engine.master_seed
    (if c.Engine.master_sched = None then "legacy" else "random")
    c.Engine.record_trace c.Engine.record_sched (c.Engine.faults <> None)
    (List.length specs) (Gen_minic.print_program p)

let prop_fork_exact (p, config, specs) =
  let prog =
    fst (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_program p))
  in
  match fork_check config ~specs prog test_world with
  | Ok _ -> true
  | Error e -> QCheck2.Test.fail_report e

let qfork ~count name gen ~threaded =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:print_fork_case
       (gen_fork_case gen ~threaded) prop_fork_exact)

(* ------------------------------------------------------------------ *)
(* The derived slave.  [Engine.run] derives the slave of a run that no
   source reaches from the master's log; its result must be the one the
   executed slave gives ([master_pass] + [run_with_master]). *)

let result_difference (d : Engine.result) (e : Engine.result) : string option =
  List.find_map
    (fun (what, same) -> if same then None else Some what)
    [ ("slave summary", d.Engine.slave = e.Engine.slave);
      ("trace", d.Engine.trace = e.Engine.trace);
      ("reports", d.Engine.reports = e.Engine.reports);
      ( "counts",
        ( d.Engine.syscall_diffs, d.Engine.diffs_before_first_report,
          d.Engine.mutated_inputs, d.Engine.total_sinks )
        = ( e.Engine.syscall_diffs, e.Engine.diffs_before_first_report,
            e.Engine.mutated_inputs, e.Engine.total_sinks ) );
      ("result", d = e) ]

(* [Ok (derived, r)]: the two results agree on [r], and whether
   [Engine.run] derived its slave. *)
let derive_check (config : Engine.config) prog world :
  (bool * Engine.result, string) result =
  let rc = Ldx_obs.Recorder.create () in
  let d = Engine.run ~config ~obs:(Ldx_obs.Recorder.sink rc) prog world in
  let e = Executed.run ~config prog world in
  match result_difference d e with
  | Some what -> Error (what ^ " differs from the executed slave's")
  | None ->
    Ok
      ( Ldx_obs.Metrics.counter (Ldx_obs.Recorder.snapshot rc)
          "engine.slave_derived"
        = 1,
        e )

let test_derive_registry () =
  let kinds = ref [] and runs = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
       let prog, _ = Workload.instrumented w in
       List.iter
         (fun (name, (c : Engine.config)) ->
            List.iter
              (fun (record_trace, check_final_state) ->
                 let config =
                   { c with Engine.record_trace; check_final_state }
                 in
                 match derive_check config prog w.Workload.world with
                 | Ok (false, _) -> ()
                 | Ok (true, _) ->
                   incr runs;
                   if not (List.mem (w.Workload.name, name) !kinds) then
                     kinds := (w.Workload.name, name) :: !kinds
                 | Error e ->
                   Alcotest.failf "%s (%s, trace %b, final state %b): %s"
                     w.Workload.name name record_trace check_final_state e)
              [ (false, false); (true, false); (false, true); (true, true) ])
         ([ ("leak", Workload.leak_config w);
            ("no-mutation", Workload.no_mutation_config w) ]
          @ Option.to_list
              (Option.map (fun c -> ("benign", c)) (Workload.benign_config w))))
    Registry.all;
  (* pinned so the check cannot pass by never deriving: every
     no-mutation config and the benign configs whose sources never
     fire, under each of the four flag settings *)
  check (Alcotest.pair int int) "registry kinds and runs derived" (33, 132)
    (List.length !kinds, !runs)

(* A master that traps on an OS error never records the failing call.
   The executed slave finds no record there, services the call itself
   and traps on it too, counting nothing: the derivation is exact, and
   taken, also where the refused call is a sink.  Each program of
   [slave OS-error call traps], with no source or one that never
   matches, [record_trace] and [check_final_state] each on and off. *)
let test_derive_os_error () =
  List.iter
    (fun (src, sinks) ->
       let prog =
         fst
           (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_source src))
       in
       List.iter
         (fun (sources, record_trace, check_final_state) ->
            let config =
              { Engine.default_config with
                Engine.sources; sinks; record_trace; check_final_state }
            in
            let what =
              Printf.sprintf "%s (%d sources, trace %b, final state %b)" src
                (List.length sources) record_trace check_final_state
            in
            match derive_check config prog test_world with
            | Ok (derived, r) ->
              check bool (what ^ ": an OS-error trap") true
                (Engine.classify_trap r.Engine.master.Engine.trap
                 = Engine.Os_failure);
              check bool (what ^ ": derived") true derived
            | Error e -> Alcotest.failf "%s: %s" what e)
         (List.concat_map
            (fun sources ->
               [ (sources, false, false); (sources, true, false);
                 (sources, false, true); (sources, true, true) ])
            [ []; [ Engine.source ~sys:"read" ~arg:"/nowhere" () ] ]))
    Test_engine_edges.os_error_cases

(* Generated programs with no source, a spec that never matches or the
   [recv] sources, under the legacy or a random schedule, the slave's
   seed the master's or not, each flag on or off, with or without a
   fault plan, and at times with so little fuel that both sides trap.
   With no source and the master's schedule the slave must be derived. *)
let gen_derive_case gen =
  let open QCheck2.Gen in
  let* p = gen in
  let* seed = int_bound 1000 in
  let* slave_seed = oneof [ return seed; int_bound 1000 ] in
  let* random = bool in
  let* record_trace = bool in
  let* record_sched = bool in
  let* check_final_state = bool in
  let* faulty = bool in
  let* max_steps = oneof [ return 30_000_000; int_range 10 600 ] in
  let* sources =
    oneofl
      [ []; [ Engine.source ~sys:"recv" ~arg:"nowhere" () ];
        [ Engine.source ~sys:"recv" () ] ]
  in
  let sched s =
    if random then Some (Sched.spec ~seed:s Sched.Random) else None
  in
  return
    ( p,
      { Engine.default_config with
        Engine.sources;
        master_seed = seed;
        slave_seed;
        master_sched = sched seed;
        slave_sched = sched slave_seed;
        max_steps;
        record_trace;
        record_sched;
        check_final_state;
        faults =
          (if not faulty then None
           else
             Some
               (Fault.plan ~seed
                  [ Fault.rule ~sys:"recv" ~nth:2 Fault.Drop_message;
                    Fault.rule ~sys:"recv" ~prob:30 (Fault.Short_read 1);
                    Fault.rule ~sys:"send" ~prob:20 Fault.Transient;
                    Fault.rule ~sys:"time" (Fault.Clock_skew 997) ])) } )

let print_derive_case (p, (c : Engine.config)) =
  Printf.sprintf
    "seeds %d/%d, %s schedule, %d sources, fuel %d, trace %b, sched log %b, \
     final state %b, faults %b\n%s"
    c.Engine.master_seed c.Engine.slave_seed
    (if c.Engine.master_sched = None then "legacy" else "random")
    (List.length c.Engine.sources) c.Engine.max_steps c.Engine.record_trace
    c.Engine.record_sched c.Engine.check_final_state (c.Engine.faults <> None)
    (Gen_minic.print_program p)

let prop_derive_exact (p, (config : Engine.config)) =
  let prog =
    fst (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_program p))
  in
  match derive_check config prog test_world with
  | Error e -> QCheck2.Test.fail_report e
  | Ok (derived, _) ->
    derived
    || config.Engine.sources <> []
    || config.Engine.slave_seed <> config.Engine.master_seed
    || QCheck2.Test.fail_report "no source, the master's schedule: executed"

let qderive ~count name gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:print_derive_case
       (gen_derive_case gen) prop_derive_exact)

(* ------------------------------------------------------------------ *)
(* Incremental campaigns. *)

let camp_src =
  "fn main() { let fd = open(\"/etc/secret\"); let s = read(fd, 16); \
   close(fd); let c = socket(\"cli\"); let m = recv(c); \
   if (m == s) { send(c, \"yes\"); } else { send(c, \"no\"); } }"

let camp_world =
  World.(
    empty
    |> with_file "/etc/secret" "hunter2"
    |> with_endpoint "cli" [ "hunter2" ])

let camp_config =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"read" () ];
    sinks = Engine.Network_outputs }

let camp_prog =
  lazy
    (fst
       (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_source camp_src)))

let camp_params () = Campaign.of_strategies camp_config Mutation.all_strategies

(* A campaign the incremental tests run both ways.  Where the shared
   prefix's cycles are pinned, incremental mode must also execute at
   least 1.5x fewer slave cycles than full mode. *)
type camp = {
  c_label : string;
  c_prog : Ldx_cfg.Ir.program Lazy.t;
  c_world : World.t;
  c_config : Engine.config;
  c_params : Campaign.slave_params list;
  c_prefix_cycles : int option;
}

let short_prefix =
  { c_label = "short prefix"; c_prog = camp_prog; c_world = camp_world;
    c_config = camp_config; c_params = camp_params (); c_prefix_cycles = None }

(* A 60,000-iteration loop runs before the one [recv] source, so the 24
   [Random_replace] variants share nearly all of their slave pass: full
   mode runs that prefix once per task, incremental mode once. *)
let long_prefix_config =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"recv" () ];
    sinks = Engine.Network_outputs }

let long_prefix =
  { c_label = "long prefix";
    c_prog =
      lazy
        (fst
           (Ldx_instrument.Counter.instrument
              (Ldx_cfg.Lower.lower_source
                 "fn main() {\n\
                 \  let acc = 0;\n\
                 \  for (let i = 0; i < 60000; i = i + 1) {\n\
                 \    acc = (acc * 31 + i) % 65521;\n\
                 \  }\n\
                 \  let c = socket(\"input\");\n\
                 \  let m = recv(c);\n\
                 \  if (atoi(m) + (acc % 7) > 40) { send(c, \"hot\"); }\n\
                 \  else { send(c, \"cold\"); }\n\
                 }\n")));
    c_world = World.(empty |> with_endpoint "input" [ "57" ]);
    c_config = long_prefix_config;
    c_params =
      List.init 24 (fun i ->
          { (Campaign.params_of_config long_prefix_config) with
            Campaign.label = Printf.sprintf "rr%02d" i;
            strategy = Mutation.Random_replace i });
    c_prefix_cycles = Some 300_048 }

let run_camp ?obs ?(jobs = 1) ?mode ~incremental c =
  Campaign.run ~jobs ?mode ?obs ~incremental ~config:c.c_config
    (Lazy.force c.c_prog) c.c_world c.c_params

(* Every task resumes from the snapshot exactly once, between its own
   [Task_begin] and [Task_timing]: that bracket names the task a
   [Snapshot_restored] belongs to. *)
let check_restores_bracketed label ntasks events =
  let restored = Array.make ntasks 0 in
  let last =
    List.fold_left
      (fun cur (ev : Ldx_obs.Event.t) ->
         match (ev, cur) with
         | Task_begin { index; _ }, None -> Some index
         | Task_timing { index; _ }, Some i when i = index -> None
         | (Task_begin _ | Task_timing _), _ ->
           Alcotest.failf "%s: task brackets interleave" label
         | Snapshot_restored _, Some i ->
           restored.(i) <- restored.(i) + 1;
           cur
         | Snapshot_restored _, None ->
           Alcotest.failf "%s: a restore outside every task" label
         | _ -> cur)
      None events
  in
  check bool (label ^ ": the last task bracket closes") true (last = None);
  check (Alcotest.array int) (label ^ ": one restore inside each task")
    (Array.make ntasks 1) restored

(* What the snapshot layer did in a recorded campaign: captures forked
   from the master pass, captures of an executed prefix, and fallbacks
   to full passes. *)
let snap_counts rc =
  let c = Ldx_obs.Metrics.counter (Ldx_obs.Recorder.snapshot rc) in
  (c "snap.forked", c "snap.captured" - c "snap.forked", c "snap.fallback")

let check_snap_counts label ~forked ~executed rc =
  check
    Alcotest.(triple int int int)
    (label ^ ": forked captures, executed captures, fallbacks")
    (forked, executed, 0) (snap_counts rc)

let test_incremental_identity () =
  List.iter
    (fun c ->
       let table ?obs ?mode incremental jobs =
         Campaign.render (run_camp ?obs ~jobs ?mode ~incremental c)
       in
       let full = table false 1 in
       let rc1 = Ldx_obs.Recorder.create () in
       check string (c.c_label ^ ": incremental table at jobs=1") full
         (table ~obs:(Ldx_obs.Recorder.sink rc1) true 1);
       check_snap_counts (c.c_label ^ " at jobs=1") ~forked:1 ~executed:0 rc1;
       check_restores_bracketed (c.c_label ^ " at jobs=1")
         (List.length c.c_params) (Ldx_obs.Recorder.events rc1);
       (* [`Parallel]: the short prefix's master pass is far below the
          campaign's break-even, so [`Auto] would run every task on the
          calling domain *)
       let rc = Ldx_obs.Recorder.create () in
       check string (c.c_label ^ ": incremental table at jobs=4") full
         (table ~obs:(Ldx_obs.Recorder.sink rc) ~mode:`Parallel true 4);
       check int (c.c_label ^ ": jobs=4 ran on the domain pool") 1
         (Ldx_obs.Metrics.counter (Ldx_obs.Recorder.snapshot rc)
            "campaign.mode.parallel");
       check_snap_counts (c.c_label ^ " at jobs=4") ~forked:1 ~executed:0 rc;
       check_restores_bracketed (c.c_label ^ " at jobs=4")
         (List.length c.c_params) (Ldx_obs.Recorder.events rc);
       check bool (c.c_label ^ ": the campaign actually leaks") true
         (List.exists
            (fun o -> (Campaign.result_exn o).Engine.leak)
            (run_camp ~incremental:true c)))
    [ short_prefix; long_prefix ]

(* The loop asks the decouple point's predicate about thread ops too,
   and it must answer false: a [spawn] handing its thread an array
   before the first source would otherwise trap the prefix. *)
(* Campaigns the fork cannot serve.  A slave schedule other than the
   master's executes the shared prefix: on a threaded program whose
   workers take a lock around several sends before their one [recv],
   that prefix replays the master's lock grants through its gate.
   Sources that never match leave the whole slave run shared, with no
   decouple point at all: that slave is derived from the master's log,
   and no slave instruction runs.  Each stays byte-identical to full
   mode without a fallback. *)
let locked_prefix_prog =
  lazy
    (fst
       (Ldx_instrument.Counter.instrument
          (Ldx_cfg.Lower.lower_source
             "fn worker(id) {\n\
             \  let c = socket(\"in\");\n\
             \  for (let k = 0; k < 3; k = k + 1) {\n\
             \    lock(1);\n\
             \    send(c, \"w\" + itoa(id) + \"k\" + itoa(k));\n\
             \    unlock(1);\n\
             \  }\n\
             \  lock(1);\n\
             \  let m = recv(c);\n\
             \  send(c, m + \"/\" + itoa(id));\n\
             \  unlock(1);\n\
             \  return id;\n\
             }\n\
             fn main() {\n\
             \  let t0 = spawn(@worker, 0);\n\
             \  let t1 = spawn(@worker, 1);\n\
             \  let t2 = spawn(@worker, 2);\n\
             \  join(t0);\n\
             \  join(t1);\n\
             \  join(t2);\n\
             \  print(\"done\");\n\
             }\n")))

let test_executed_prefix () =
  let locked_world =
    World.(empty |> with_endpoint "in" [ "17"; "23"; "42" ])
  in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let retarget f =
    List.map f (Campaign.of_strategies config Mutation.all_strategies)
  in
  let never =
    { camp_config with
      Engine.sources = [ Engine.source ~sys:"recv" ~arg:"nowhere" () ] }
  in
  List.iter
    (fun (label, prog, world, config, params, executed) ->
       let run ?obs incremental =
         Campaign.render
           (Campaign.run ?obs ~incremental ~config prog world params)
       in
       let rc = Ldx_obs.Recorder.create () in
       check string (label ^ ": incremental table") (run false)
         (run ~obs:(Ldx_obs.Recorder.sink rc) true);
       check_snap_counts label ~forked:0 ~executed rc;
       let c = Ldx_obs.Metrics.counter (Ldx_obs.Recorder.snapshot rc) in
       check int (label ^ ": restores")
         (executed * List.length params)
         (c "snap.restored");
       let derived = 1 - executed in
       check
         Alcotest.(pair int bool)
         (label ^ ": derived slaves, slave syscalls executed")
         (derived, derived = 0)
         (c "engine.slave_derived", c "syscalls.slave" > 0))
    [ ( "slave seed 5 against master seed 0",
        Lazy.force locked_prefix_prog, locked_world, config,
        retarget (fun p -> { p with Campaign.slave_seed = 5 }), 1 );
      ( "random slave schedule",
        Lazy.force locked_prefix_prog, locked_world, config,
        retarget (fun p ->
            { p with Campaign.sched = Some (Sched.spec ~seed:3 Sched.Random) }),
        1 );
      ( "sources that never match", Lazy.force camp_prog, camp_world, never,
        Campaign.of_strategies never Mutation.all_strategies, 0 ) ]

(* An executed prefix can pause with state a fork never has: here the
   worker's racy increments reach main's [write] at another count under
   slave seed 5 than under the master's seed 0, so the prefix taints
   [/log] before the [recv].  The suffix must keep that taint: main's
   reads of [/log] after the [recv] are decoupled, as in a full pass. *)
let test_prefix_taint_resumed () =
  let prog =
    fst
      (Ldx_instrument.Counter.instrument
         (Ldx_cfg.Lower.lower_source
            "fn worker(a) {\n\
            \  for (let k = 0; k < 300; k = k + 1) { a[0] = a[0] + 1; }\n\
            \  return 0;\n\
             }\n\
             fn main() {\n\
            \  let a = mkarray(1, 0);\n\
            \  let t = spawn(@worker, a);\n\
            \  let x = 0;\n\
            \  for (let i = 0; i < 100; i = i + 1) { x = x + i; }\n\
            \  let fd = open(\"/log\");\n\
            \  write(fd, itoa(a[0]));\n\
            \  close(fd);\n\
            \  join(t);\n\
            \  let c = socket(\"in\");\n\
            \  let m = recv(c);\n\
            \  let g = open(\"/log\");\n\
            \  let s = read(g, 16);\n\
            \  send(c, s + \"/\" + m);\n\
             }\n"))
  in
  let world =
    World.(empty |> with_endpoint "in" [ "7" ] |> with_file "/log" "")
  in
  let specs = [ Engine.source ~sys:"recv" () ] in
  let config =
    { Engine.default_config with
      Engine.sources = specs;
      sinks = Engine.Network_outputs;
      slave_seed = 5 }
  in
  let mo = Engine.master_pass ~specs config prog world in
  (match
     Engine.slave_prefix { config with Engine.sources = [] } ~specs prog
       world mo
   with
   | Engine.Prefix_paused ss ->
     check (Alcotest.list string) "the prefix's tainted resources"
       [ "path:/log" ] ss.Engine.ss_tainted_resources
   | Engine.Prefix_done _ -> Alcotest.fail "the prefix never paused");
  let params = Campaign.of_strategies config Mutation.all_strategies in
  let table incremental =
    Campaign.render (Campaign.run ~incremental ~config prog world params)
  in
  check string "incremental table" (table false) (table true)

let test_prefix_passes_thread_ops () =
  let prog =
    fst
      (Ldx_instrument.Counter.instrument
         (Ldx_cfg.Lower.lower_source
            ("fn worker(a) { a[0] = 1; return 0; } fn main() { \
              let a = mkarray(1, 0); let t = spawn(@worker, a); join(t); \
              let fd = open(\"/etc/secret\"); let s = read(fd, 16); \
              close(fd); let c = socket(\"cli\"); let m = recv(c); \
              if (m == s) { send(c, \"yes\"); } else { send(c, \"no\"); } }")))
  in
  let table incremental =
    Campaign.render
      (Campaign.run ~incremental ~config:camp_config prog camp_world
         (camp_params ()))
  in
  check string "incremental table" (table false) (table true)

(* Journal written by a FULL campaign, truncated to two outcomes (a
   kill at a record boundary), resumed with incremental mode on: the
   missing tasks replay as suffixes, and the table is byte-identical —
   incremental is deliberately outside the journal fingerprint. *)
let truncate_journal path keep =
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let kept = ref 0 in
  let keep_line l =
    if String.length l = 0 then false
    else if l.[0] = 'o' then (
      incr kept;
      !kept <= keep)
    else true
  in
  let out = List.filter keep_line lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
           output_string oc l;
           output_char oc '\n')
        out)

let test_resume_incremental () =
  let prog = Lazy.force camp_prog in
  let params = camp_params () in
  let reference =
    Campaign.render
      (Campaign.run ~config:camp_config prog camp_world params)
  in
  let path = Filename.temp_file "ldx_test_incr" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore
    (Campaign.run ~journal:path ~config:camp_config prog camp_world params);
  truncate_journal path 2;
  match
    Campaign.resume ~journal:path ~incremental:true ~config:camp_config prog
      camp_world params
  with
  | Error e -> Alcotest.fail e
  | Ok outs ->
    check string "resumed incremental table" reference (Campaign.render outs)

(* A snapshot carries the fingerprint of (program, world, shared slave
   config); resuming it under anything else must be refused loudly. *)
let test_fingerprint_rejection () =
  let prog = Lazy.force camp_prog in
  let mo = Engine.master_pass camp_config prog camp_world in
  match
    Engine.slave_prefix camp_config ~specs:camp_config.Engine.sources prog
      camp_world mo
  with
  | Engine.Prefix_done _ -> Alcotest.fail "expected a decouple point"
  | Engine.Prefix_paused ss ->
    let other = { camp_config with Engine.slave_seed = 99 } in
    (try
       ignore (Engine.slave_resume other prog camp_world mo ss);
       Alcotest.fail "snapshot from another config was accepted"
     with Invalid_argument _ -> ());
    (* and the same snapshot under the right config still works *)
    let so = Engine.slave_resume camp_config prog camp_world mo ss in
    let r = Engine.finalize_result camp_config mo so in
    check bool "correct-config resume detects the leak" true r.Engine.leak

(* No-perturbation: a campaign without --incremental never touches the
   snapshot layer (snap.* metrics silent), and an incremental campaign
   reports exactly one capture.  A pinned prefix holds its cycles, and
   the prefix once plus every suffix is at most 1/1.5 of what full mode
   executes. *)
let test_no_perturbation () =
  List.iter
    (fun c ->
       let metrics incremental =
         let rc = Ldx_obs.Recorder.create () in
         let outs =
           run_camp ~obs:(Ldx_obs.Recorder.sink rc) ~incremental c
         in
         (outs, Ldx_obs.Recorder.snapshot rc)
       in
       let full, off = metrics false in
       check int (c.c_label ^ ": no captures without --incremental") 0
         (Ldx_obs.Metrics.counter off "snap.captured");
       check int (c.c_label ^ ": no restores without --incremental") 0
         (Ldx_obs.Metrics.counter off "snap.restored");
       check int (c.c_label ^ ": no fallbacks without --incremental") 0
         (Ldx_obs.Metrics.counter off "snap.fallback");
       let _, on = metrics true in
       check int (c.c_label ^ ": one capture with --incremental") 1
         (Ldx_obs.Metrics.counter on "snap.captured");
       check int (c.c_label ^ ": the capture is forked") 1
         (Ldx_obs.Metrics.counter on "snap.forked");
       check int (c.c_label ^ ": no fallback with --incremental") 0
         (Ldx_obs.Metrics.counter on "snap.fallback");
       check int (c.c_label ^ ": one restore per task")
         (List.length c.c_params)
         (Ldx_obs.Metrics.counter on "snap.restored");
       Option.iter
         (fun prefix_cycles ->
            let hist name = List.assoc name on.Ldx_obs.Metrics.hists in
            let prefix = hist "snap.prefix_cycles" in
            check int (c.c_label ^ ": shared prefix cycles") prefix_cycles
              prefix.Ldx_obs.Metrics.h_max;
            let full_cycles =
              List.fold_left
                (fun acc o ->
                   acc + (Campaign.result_exn o).Engine.slave.Engine.cycles)
                0 full
            in
            let executed =
              prefix.Ldx_obs.Metrics.h_sum
              + (hist "snap.suffix_cycles").Ldx_obs.Metrics.h_sum
            in
            if float_of_int full_cycles < 1.5 *. float_of_int executed then
              Alcotest.failf
                "%s: full mode ran %d slave cycles, incremental %d: under \
                 1.5x"
                c.c_label full_cycles executed;
            (* the cycles above are the capture's clock, which a runner
               that re-ran the prefix inside every task (without a
               capture event) would report just the same; the host
               allocation of the two campaigns tells them apart *)
            let words incremental =
              let before = Gc.minor_words () in
              ignore (Sys.opaque_identity (run_camp ~incremental c));
              Gc.minor_words () -. before
            in
            let full_words = words false in
            let incr_words = words true in
            if incr_words > full_words /. 4. then
              Alcotest.failf
                "%s: the incremental campaign allocated %.0f words, the \
                 full one %.0f: more than 1/4"
                c.c_label incr_words full_words)
         c.c_prefix_cycles)
    [ short_prefix; long_prefix ]

(* ------------------------------------------------------------------ *)
(* Engine-counter pin: the flat VM's per-block cnt/loop batching (and
   any later stepper change) must keep the deterministic counters of
   the fig6/table3 workload runs bit-identical.  Values recorded from
   the seed implementation. *)

let test_counters_pinned () =
  List.iter
    (fun (name, mc, sc, wall, tsys, diffs, sinks, dmax) ->
       let w = Registry.find_exn name in
       let prog, _ = Workload.instrumented w in
       let r =
         Engine.run ~config:(Workload.leak_config w) prog w.Workload.world
       in
       check int (name ^ " master cycles") mc r.Engine.master.Engine.cycles;
       check int (name ^ " slave cycles") sc r.Engine.slave.Engine.cycles;
       check int (name ^ " wall cycles") wall r.Engine.wall_cycles;
       check int (name ^ " total syscalls") tsys r.Engine.total_syscalls;
       check int (name ^ " syscall diffs") diffs r.Engine.syscall_diffs;
       check int (name ^ " tainted sinks") sinks r.Engine.tainted_sinks;
       check int (name ^ " dyn cnt max") dmax r.Engine.dyn_cnt_max)
    [ ("Nginx", 13637, 14053, 14053, 281, 76, 2, 21);
      ("Tnftp", 4900, 4997, 4997, 72, 25, 1, 26);
      ("473.astar", 649514, 787915, 787915, 45, 3, 2, 12) ]

let tests =
  [ qsnap "S1 snapshot round trip (structured, flat)" Gen_minic.gen_program;
    qsnap ~count:80 "S3 snapshot round trip (stress, flat)"
      Gen_minic.gen_stress_program;
    qsnap ~count:40 "S5 snapshot round trip (threads, flat)"
      Gen_minic.gen_conc_program;
    Alcotest.test_case "capture is deterministic" `Quick
      test_capture_deterministic;
    Alcotest.test_case "wire form round trips and rejects corruption" `Quick
      test_wire_roundtrip;
    Alcotest.test_case "snapshot rides a store journal" `Quick
      test_snapshot_through_store;
    Alcotest.test_case "incremental campaign tables byte-identical" `Quick
      test_incremental_identity;
    Alcotest.test_case "prefix passes thread ops" `Quick
      test_prefix_passes_thread_ops;
    Alcotest.test_case "unforkable campaigns execute their prefix" `Quick
      test_executed_prefix;
    Alcotest.test_case "prefix taint reaches the suffix" `Quick
      test_prefix_taint_resumed;
    Alcotest.test_case "full journal resumes incrementally" `Quick
      test_resume_incremental;
    Alcotest.test_case "foreign-config snapshot rejected" `Quick
      test_fingerprint_rejection;
    Alcotest.test_case "snapshot layer silent unless asked" `Quick
      test_no_perturbation;
    Alcotest.test_case "engine counters pinned (fig6/table3)" `Quick
      test_counters_pinned;
    Alcotest.test_case "version-1 payload refused" `Quick
      test_old_version_refused;
    Alcotest.test_case "ldx-snap/3 wire form refused" `Quick
      test_old_header_refused;
    Alcotest.test_case "F1 forked prefix exact (registry)" `Quick
      test_fork_registry;
    qfork ~count:60 "F2 forked prefix exact (structured)"
      Gen_minic.gen_program ~threaded:false;
    qfork ~count:60 "F3 forked prefix exact (stress)"
      Gen_minic.gen_stress_program ~threaded:false;
    qfork ~count:80 "F4 forked prefix exact (threads)"
      Gen_minic.gen_conc_program ~threaded:true;
    Alcotest.test_case "D1 derived slave exact (registry)" `Quick
      test_derive_registry;
    qderive ~count:150 "D2 derived slave exact (structured)"
      Gen_minic.gen_program;
    qderive ~count:100 "D3 derived slave exact (stress)"
      Gen_minic.gen_stress_program;
    qderive ~count:150 "D4 derived slave exact (threads)"
      Gen_minic.gen_conc_program;
    Alcotest.test_case "D5 OS-error trap: slave derived" `Quick
      test_derive_os_error ]
