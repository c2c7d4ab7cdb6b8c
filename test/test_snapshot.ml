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

let test_incremental_identity () =
  List.iter
    (fun c ->
       let table ?obs ?mode incremental jobs =
         Campaign.render (run_camp ?obs ~jobs ?mode ~incremental c)
       in
       let full = table false 1 in
       check string (c.c_label ^ ": incremental table at jobs=1") full
         (table true 1);
       (* [`Parallel]: the short prefix's master pass is far below the
          campaign's break-even, so [`Auto] would run every task on the
          calling domain *)
       let rc = Ldx_obs.Recorder.create () in
       check string (c.c_label ^ ": incremental table at jobs=4") full
         (table ~obs:(Ldx_obs.Recorder.sink rc) ~mode:`Parallel true 4);
       check int (c.c_label ^ ": jobs=4 ran on the domain pool") 1
         (Ldx_obs.Metrics.counter (Ldx_obs.Recorder.snapshot rc)
            "campaign.mode.parallel");
       check bool (c.c_label ^ ": the campaign actually leaks") true
         (List.exists
            (fun o -> (Campaign.result_exn o).Engine.leak)
            (run_camp ~incremental:true c)))
    [ short_prefix; long_prefix ]

(* The loop asks the decouple point's predicate about thread ops too,
   and it must answer false: a [spawn] handing its thread an array
   before the first source would otherwise trap the prefix. *)
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
       let _, on = metrics true in
       check int (c.c_label ^ ": one capture with --incremental") 1
         (Ldx_obs.Metrics.counter on "snap.captured");
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
                c.c_label full_cycles executed)
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
