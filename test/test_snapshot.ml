(* Decouple-point snapshots (lib/snap) and the incremental campaign.

   The core soundness bar: capturing a snapshot at ANY driver-visible
   point must not perturb the captured execution, and restoring it must
   continue to an outcome bit-identical to never having stopped, for
   sequential, stress and threaded programs.  On top of that,
   the campaign's incremental mode (shared prefix once, per-task
   suffixes) must render byte-identical tables to full slave passes at
   any job count, survive journal resume, and reject snapshots from a
   different program/config.  Finally the flat VM's per-block counter
   batching is pinned against recorded engine counters. *)

module Machine = Ldx_vm.Machine
module Driver = Ldx_vm.Driver
module Value = Ldx_vm.Value
module Snap = Ldx_snap.Snap
module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module Os = Ldx_osim.Os
module World = Ldx_osim.World
module Sval = Ldx_osim.Sval
module Store = Ldx_store.Store
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Gen_minic = Ldx_genprog.Gen_minic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let test_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

(* ------------------------------------------------------------------ *)
(* A pausable native driver: [Driver.run]'s loop with a stop-at-the-
   k-th-syscall-event hook (the thread left Awaiting, exactly what a
   snapshot captures) and a [?first] re-entry hook that services the
   thread a previous pause skipped.  The blocked list is derived from
   thread statuses on entry, so it survives the capture/restore hop. *)

type tr = (string * Sval.t list * Sval.t * int * int * int) list

let drive ?(pause_at = max_int) ?first (m : Machine.t) :
  [ `Done of tr | `Paused of tr * Machine.thread ] =
  let os = m.Machine.os in
  let trace : tr ref = ref [] in
  let blocked =
    ref
      (List.filter
         (fun th ->
            (match first with Some f -> th != f | None -> true)
            && (match th.Machine.status with
                | Machine.Awaiting p -> Driver.is_thread_op p.Machine.sys
                | _ -> false))
         m.Machine.threads)
  in
  let seen = ref 0 in
  let record sys args result th site =
    trace :=
      (sys, args, result, Machine.counter_of th, site, th.Machine.tid)
      :: !trace
  in
  let service th =
    let p = Machine.pending_of th in
    if Driver.is_thread_op p.Machine.sys then begin
      match
        try Driver.service_thread_op m th p
        with Value.Trap msg ->
          m.Machine.trap <- Some msg;
          m.Machine.finished <- true;
          `Done Value.Unit
      with
      | `Done v ->
        record p.Machine.sys
          (List.map Value.to_sval_safe p.Machine.sysargs)
          (Value.to_sval_safe v) th p.Machine.site;
        Machine.provide_result m th v
      | `Block -> blocked := th :: !blocked
    end
    else begin
      let sargs = List.map Value.to_sval p.Machine.sysargs in
      let r =
        try Os.exec ~site:p.Machine.site os p.Machine.sys sargs
        with Os.Os_error msg -> raise (Value.Trap ("os-error: " ^ msg))
      in
      record p.Machine.sys sargs r th p.Machine.site;
      Machine.provide_result m th (Value.of_sval r)
    end
  in
  (* Retry in tid order: the grant order then depends only on the SET
     of blocked threads, which the post-restore reconstruction above
     recovers exactly (the list order would be lost). *)
  let retry_blocked () =
    let bs =
      List.sort
        (fun a b -> compare a.Machine.tid b.Machine.tid)
        !blocked
    in
    blocked := [];
    let progress = ref false in
    List.iter
      (fun th ->
         match th.Machine.status with
         | Machine.Awaiting p when Driver.is_thread_op p.Machine.sys ->
           (match Driver.service_thread_op m th p with
            | `Done v ->
              progress := true;
              Machine.provide_result m th v
            | `Block -> blocked := th :: !blocked)
         | _ -> ())
      bs;
    !progress
  in
  let paused = ref None in
  let step th =
    (try service th
     with Value.Trap msg ->
       m.Machine.trap <- Some msg;
       m.Machine.finished <- true);
    ignore (retry_blocked ())
  in
  let rec loop () =
    match Machine.run_until_event m with
    | Machine.Ev_syscall th ->
      if !seen >= pause_at then paused := Some th
      else begin
        incr seen;
        step th;
        if not m.Machine.finished then loop ()
      end
    | Machine.Ev_idle ->
      if retry_blocked () then loop ()
      else begin
        m.Machine.trap <- Some "deadlock: all threads blocked";
        m.Machine.finished <- true
      end
    | Machine.Ev_done -> ()
    | Machine.Ev_trap _ -> ()
  in
  (match first with
   | Some th ->
     step th;
     if not m.Machine.finished then loop ()
   | None -> loop ());
  match !paused with
  | Some th -> `Paused (List.rev !trace, th)
  | None -> `Done (List.rev !trace)

type sobs = {
  o_stdout : string;
  o_trap : string option;
  o_steps : int;
  o_cycles : int;
  o_syscalls : int;
  o_trace : tr;
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
    let m = fresh_machine ~seed prog in
    match drive m with
    | `Done t -> obs_of m t
    | `Paused _ -> assert false
  in
  let m1 = fresh_machine ~seed prog in
  match drive ~pause_at:k m1 with
  | `Done t ->
    (* fewer than k syscalls: nothing to pause, the run itself must
       already match *)
    obs_of m1 t = uninterrupted
  | `Paused (prefix, th) ->
    let snap = Snap.capture m1 in
    let m2 = Snap.restore ~fprog:m1.Machine.fprog prog snap in
    let th2 =
      match Machine.find_thread m2 th.Machine.tid with
      | Some t -> t
      | None -> Alcotest.fail "restored machine lost the paused thread"
    in
    let restored =
      match drive ~first:th2 m2 with
      | `Done suffix -> obs_of m2 (prefix @ suffix)
      | `Paused _ -> assert false
    in
    let continued =
      match drive ~first:th m1 with
      | `Done suffix -> obs_of m1 (prefix @ suffix)
      | `Paused _ -> assert false
    in
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
  match drive ~pause_at:2 m with
  | `Paused (_, _) -> (prog, m)
  | `Done _ -> Alcotest.fail "expected a pause"

let test_capture_deterministic () =
  let _, m = paused_snapshot () in
  let s1 = Snap.capture m in
  let s2 = Snap.capture m in
  check bool "captures of one state are equal" true (Snap.equal s1 s2);
  check string "fingerprints agree" (Snap.fingerprint s1)
    (Snap.fingerprint s2);
  check int "format version" 3 s1.Snap.sp_version

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

let test_incremental_identity () =
  let prog = Lazy.force camp_prog in
  let params = camp_params () in
  let table ?obs ?mode incremental jobs =
    Campaign.render
      (Campaign.run ~jobs ?mode ?obs ~incremental ~config:camp_config prog
         camp_world params)
  in
  let full = table false 1 in
  check string "incremental table at jobs=1" full (table true 1);
  (* [`Parallel]: this master pass is far below the campaign's
     break-even, so [`Auto] would run every task on the calling domain *)
  let rc = Ldx_obs.Recorder.create () in
  check string "incremental table at jobs=4" full
    (table ~obs:(Ldx_obs.Recorder.sink rc) ~mode:`Parallel true 4);
  check int "jobs=4 ran on the domain pool" 1
    (Ldx_obs.Metrics.counter (Ldx_obs.Recorder.snapshot rc)
       "campaign.mode.parallel");
  check bool "the campaign actually leaks" true
    (let outs =
       Campaign.run ~incremental:true ~config:camp_config prog camp_world
         params
     in
     List.exists (fun o -> (Campaign.result_exn o).Engine.leak) outs)

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
   reports exactly one capture. *)
let test_no_perturbation () =
  let prog = Lazy.force camp_prog in
  let params = camp_params () in
  let metrics incremental =
    let rc = Ldx_obs.Recorder.create () in
    ignore
      (Campaign.run ~obs:(Ldx_obs.Recorder.sink rc) ~incremental
         ~config:camp_config prog camp_world params);
    Ldx_obs.Recorder.snapshot rc
  in
  let off = metrics false in
  check int "no captures without --incremental" 0
    (Ldx_obs.Metrics.counter off "snap.captured");
  check int "no restores without --incremental" 0
    (Ldx_obs.Metrics.counter off "snap.restored");
  let on = metrics true in
  check int "one capture with --incremental" 1
    (Ldx_obs.Metrics.counter on "snap.captured");
  check int "one restore per task" (List.length params)
    (Ldx_obs.Metrics.counter on "snap.restored")

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
    Alcotest.test_case "full journal resumes incrementally" `Quick
      test_resume_incremental;
    Alcotest.test_case "foreign-config snapshot rejected" `Quick
      test_fingerprint_rejection;
    Alcotest.test_case "snapshot layer silent unless asked" `Quick
      test_no_perturbation;
    Alcotest.test_case "engine counters pinned (fig6/table3)" `Quick
      test_counters_pinned;
    Alcotest.test_case "version-1 payload refused" `Quick
      test_old_version_refused ]
