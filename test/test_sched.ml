(* lib/sched: deterministic scheduling, recording/replay, bounded
   exploration — plus the engine/campaign wiring and the pinned
   per-workload syscall counts the scheduler must not shift. *)

module Sched = Ldx_sched.Scheduler
module Schedule = Ldx_sched.Schedule
module Explore = Ldx_sched.Explore
module Engine = Ldx_core.Engine
module Sched_sweep = Ldx_core.Sched_sweep
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Fault = Ldx_osim.Fault
module Sval = Ldx_osim.Sval
module World = Ldx_osim.World
module Driver = Ldx_vm.Driver
module Lower = Ldx_cfg.Lower
module Counter = Ldx_instrument.Counter
module Obs = Ldx_obs
module Gen_minic = Ldx_genprog.Gen_minic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Schedule log: serialization and cursors.                            *)

let sched_of_list l =
  Array.of_list
    (List.map (fun (t, q) -> { Schedule.s_thread = t; s_quantum = q }) l)

let test_schedule_roundtrip () =
  let s = sched_of_list [ (0, 8); (1, 12); (0, 9); (2, 31) ] in
  (match Schedule.of_string (Schedule.to_string s) with
   | Ok s' -> check bool "roundtrip" true (s = s')
   | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  (match Schedule.of_string "bogus\n0 8\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted a bad header");
  match Schedule.of_string "# ldx-sched/1\n0 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-positive quantum"

let test_cursor_clone () =
  let s = sched_of_list [ (0, 8); (1, 12); (0, 9) ] in
  let c = Schedule.start s in
  ignore (Schedule.next c);
  let c' = Schedule.copy_cursor c in
  (* the clone continues where the original was... *)
  (match Schedule.next c' with
   | Some e -> check int "clone resumes at entry 1" 1 e.Schedule.s_thread
   | None -> Alcotest.fail "clone exhausted early");
  ignore (Schedule.next c');
  check bool "clone exhausted" true (Schedule.exhausted c');
  (* ...without advancing the original (independent counters, the
     Fault.copy_state discipline) *)
  check int "original unmoved by the clone" 1 (Schedule.pos c);
  match Schedule.next c with
  | Some e -> check int "original still at entry 1" 1 e.Schedule.s_thread
  | None -> Alcotest.fail "original exhausted early"

(* ------------------------------------------------------------------ *)
(* Scheduler policies (unit level).                                    *)

let picks st runnable n =
  Array.init n (fun i ->
      Sched.pick st ~runnable ~steps:(i * 100))

let test_legacy_quantum_formula () =
  check int "quantum formula kept bit-for-bit"
    (8 + ((7 lxor (500 * 2654435761)) land 31))
    (Sched.legacy_quantum ~seed:7 ~steps:500)

let test_round_robin_policy () =
  let st = Sched.instantiate (Sched.legacy ~seed:0) in
  check bool "rr cycles the runnable set in order" true
    (picks st [| 3; 5; 9 |] 6 = [| 3; 5; 9; 3; 5; 9 |])

let test_random_policy_reproducible () =
  let spec = Sched.spec ~seed:42 Sched.Random in
  let a = picks (Sched.instantiate spec) [| 0; 1; 2 |] 64 in
  let b = picks (Sched.instantiate spec) [| 0; 1; 2 |] 64 in
  check bool "same spec, same decisions" true (a = b);
  check bool "every pick is runnable" true
    (Array.for_all (fun t -> t >= 0 && t <= 2) a);
  let c = picks (Sched.instantiate (Sched.spec ~seed:43 Sched.Random)) [| 0; 1; 2 |] 64 in
  check bool "another seed diverges somewhere" true (a <> c)

let test_priority_policy () =
  let st = Sched.instantiate (Sched.spec (Sched.Priority [ (1, 5) ])) in
  check bool "highest priority always runs" true
    (picks st [| 0; 1; 2 |] 4 = [| 1; 1; 1; 1 |]);
  (* among equals (unlisted = priority 0), round-robin *)
  let st = Sched.instantiate (Sched.spec (Sched.Priority [ (9, -1) ])) in
  check bool "round-robin among priority ties" true
    (picks st [| 0; 2; 9 |] 4 = [| 0; 2; 0; 2 |])

let test_forced_overrides () =
  let st =
    Sched.instantiate ~record:true
      (Sched.spec (Sched.Forced [ (1, 2); (3, 2) ]))
  in
  check bool "forced decisions override the rr base" true
    (picks st [| 0; 1; 2 |] 5 = [| 0; 2; 2; 2; 1 |]);
  check bool "forcing away from a runnable thread counts as preemption"
    true
    (Sched.preemptions st > 0)

let test_quantum_override () =
  let st = Sched.instantiate ~record:true (Sched.spec ~quantum:5 Sched.Random) in
  ignore (picks st [| 0; 1 |] 8);
  check bool "fixed quantum honoured" true
    (Array.for_all (fun d -> d.Sched.d_quantum = 5) (Sched.trace st))

(* A decision allocates nothing unless someone looks: 10,000
   unrecorded decisions under Round_robin and under Random cost no
   minor-heap words beyond the measurement's own, and a recording
   state still logs every decision. *)
let test_unrecorded_picks_allocate_nothing () =
  let runnable = [| 0; 1; 2 |] in
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let decide st () =
    for i = 1 to 10_000 do
      ignore (Sched.pick st ~runnable ~steps:i : int)
    done
  in
  let baseline = minor_words ignore in
  List.iter
    (fun (name, spec) ->
       let words = minor_words (decide (Sched.instantiate spec)) in
       check (Alcotest.float 0.) (name ^ ": no minor words") baseline words;
       let st = Sched.instantiate ~record:true spec in
       decide st ();
       check int (name ^ ": recording logs every decision") 10_000
         (Array.length (Sched.trace st)))
    [ ("round-robin", Sched.legacy ~seed:7);
      ("random", Sched.spec ~seed:7 Sched.Random) ]

let test_state_copy_mid_stream () =
  let spec = Sched.spec ~seed:3 Sched.Random in
  let st = Sched.instantiate spec in
  ignore (picks st [| 0; 1; 2 |] 10);
  let st' = Sched.copy_full st in
  check bool "clone continues the decision stream exactly" true
    (picks st [| 0; 1; 2 |] 20 = picks st' [| 0; 1; 2 |] 20)

let test_policy_parsing () =
  (match Sched.policy_of_string "rr" with
   | Ok Sched.Round_robin -> ()
   | _ -> Alcotest.fail "rr");
  (match Sched.policy_of_string "random" with
   | Ok Sched.Random -> ()
   | _ -> Alcotest.fail "random");
  (match Sched.policy_of_string "prio:1=5,2=-3" with
   | Ok (Sched.Priority [ (1, 5); (2, -3) ]) -> ()
   | _ -> Alcotest.fail "prio");
  match Sched.policy_of_string "quantum-leap" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown policy"

(* ------------------------------------------------------------------ *)
(* VM integration: the pluggable scheduler is bit-identical to the     *)
(* historical hard-wired one, and recorded schedules replay exactly.   *)

let pbzip2 = Registry.find_exn "Pbzip2"

let test_legacy_bit_identical () =
  let prog = Workload.lower pbzip2 in
  let base = Driver.run ~seed:0 prog pbzip2.Workload.world in
  let explicit =
    Driver.run ~sched:(Sched.instantiate (Sched.legacy ~seed:0)) prog
      pbzip2.Workload.world
  in
  check int "same syscalls" base.Driver.syscalls explicit.Driver.syscalls;
  check int "same cycles" base.Driver.cycles explicit.Driver.cycles;
  check string "same stdout" base.Driver.stdout explicit.Driver.stdout

let summaries_equal (a : Engine.exec_summary) (b : Engine.exec_summary) =
  a.Engine.cycles = b.Engine.cycles
  && a.Engine.steps = b.Engine.steps
  && a.Engine.syscalls = b.Engine.syscalls
  && a.Engine.stdout = b.Engine.stdout

let test_record_replay_identical () =
  let prog, _ = Workload.instrumented pbzip2 in
  let config =
    { (Workload.leak_config pbzip2) with Engine.record_sched = true }
  in
  let r = Engine.run ~config prog pbzip2.Workload.world in
  let schedule =
    match r.Engine.master_schedule with
    | Some s -> s
    | None -> Alcotest.fail "record_sched produced no schedule"
  in
  check bool "a threaded run makes many decisions" true
    (Array.length schedule > 4);
  (* replay the recorded master schedule on both sides: the run must
     reproduce byte-for-byte *)
  let spec = Sched.spec (Sched.Replay schedule) in
  let config' =
    { config with
      Engine.master_sched = Some spec;
      slave_sched = Some spec }
  in
  let r' = Engine.run ~config:config' prog pbzip2.Workload.world in
  check bool "replayed master identical" true
    (summaries_equal r.Engine.master r'.Engine.master);
  check bool "replayed verdict identical" true
    (r.Engine.leak = r'.Engine.leak
     && List.length r.Engine.reports = List.length r'.Engine.reports);
  (* and the schedule survives a serialization roundtrip *)
  match Schedule.of_string (Schedule.to_string schedule) with
  | Ok s -> check bool "schedule text roundtrip" true (s = schedule)
  | Error e -> Alcotest.failf "schedule parse: %s" e

(* The ISSUE-pinned asymmetric per-workload syscall counts: alignment
   accounting changes must not silently shift these. *)
let test_pinned_syscall_counts () =
  List.iter
    (fun (name, master, slave) ->
       let w = Registry.find_exn name in
       let prog, _ = Workload.instrumented w in
       let r = Engine.run ~config:(Workload.leak_config w) prog w.Workload.world in
       check int (name ^ " master syscalls") master r.Engine.master.Engine.syscalls;
       check int (name ^ " slave syscalls") slave r.Engine.slave.Engine.syscalls)
    [ ("403.gcc", 78, 74); ("429.mcf", 51, 62); ("Ngircd", 8, 7) ]

(* ------------------------------------------------------------------ *)
(* Bounded exploration.                                                *)

let table4 = Registry.concurrency

let signatures (t : Sched_sweep.t) =
  List.map (fun v -> v.Sched_sweep.v_signature) t.Sched_sweep.verdicts

let test_explore_distinct_and_deterministic () =
  let prog, _ = Workload.instrumented pbzip2 in
  let config = Workload.leak_config pbzip2 in
  let sweep () =
    Sched_sweep.explore ~bound:2 ~max_schedules:16 ~config prog
      pbzip2.Workload.world
  in
  let t = sweep () in
  check bool "explores >= 10 distinct schedules" true (t.Sched_sweep.schedules >= 10);
  let sigs = signatures t in
  check int "signatures are pairwise distinct"
    (List.length sigs)
    (List.length (List.sort_uniq compare sigs));
  (* base schedule first (breadth-first: 0 forced preemptions) *)
  (match t.Sched_sweep.verdicts with
   | v :: _ -> check bool "base schedule explored first" true (v.Sched_sweep.v_forced = [])
   | [] -> Alcotest.fail "empty sweep");
  check bool "exploration is deterministic" true (signatures (sweep ()) = sigs)

(* Zero sources: every explored schedule reports nothing — schedule
   noise alone never fabricates causality (the PR 4 fault invariant,
   lifted over interleavings). *)
let test_zero_source_clean_all_schedules () =
  List.iter
    (fun (w : Workload.t) ->
       let prog, _ = Workload.instrumented w in
       let t =
         Sched_sweep.explore ~bound:1 ~max_schedules:6
           ~config:(Workload.no_mutation_config w) prog w.Workload.world
       in
       check bool (w.Workload.name ^ " explored > 1 schedule") true
         (t.Sched_sweep.schedules > 1);
       check int (w.Workload.name ^ " zero leaks") 0 t.Sched_sweep.leaks;
       check string (w.Workload.name ^ " stable clean") "schedule-stable clean"
         (Sched_sweep.classification t))
    table4

(* Table 4: the injected leak is detected under EVERY explored
   schedule. *)
let test_leak_detected_all_schedules () =
  List.iter
    (fun (w : Workload.t) ->
       let prog, _ = Workload.instrumented w in
       let t =
         Sched_sweep.explore ~bound:1 ~max_schedules:6
           ~config:(Workload.leak_config w) prog w.Workload.world
       in
       check bool (w.Workload.name ^ " explored > 1 schedule") true
         (t.Sched_sweep.schedules > 1);
       check int (w.Workload.name ^ " leaks under every schedule")
         t.Sched_sweep.schedules t.Sched_sweep.leaks;
       check string (w.Workload.name ^ " stable leak") "schedule-stable leak"
         (Sched_sweep.classification t))
    table4

let test_render_mentions_classification () =
  let prog, _ = Workload.instrumented pbzip2 in
  let t =
    Sched_sweep.explore ~bound:1 ~max_schedules:4
      ~config:(Workload.leak_config pbzip2) prog pbzip2.Workload.world
  in
  let s = Sched_sweep.render t in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check bool "render carries the classification" true
    (contains s (Sched_sweep.classification t));
  check bool "render lists the base schedule" true (contains s "(base)")

(* ------------------------------------------------------------------ *)
(* Campaign wiring.                                                    *)

let test_campaign_of_scheds () =
  let prog, _ = Workload.instrumented pbzip2 in
  let config = Workload.leak_config pbzip2 in
  let params =
    Campaign.of_scheds config
      [ ("rr", Sched.legacy ~seed:0);
        ("random-1", Sched.spec ~seed:1 Sched.Random);
        ("random-2", Sched.spec ~seed:2 Sched.Random) ]
  in
  let outs = Campaign.run ~config prog pbzip2.Workload.world params in
  check int "one outcome per schedule" 3 (List.length outs);
  List.iter
    (fun (o : Campaign.outcome) ->
       match Campaign.result_of o.Campaign.status with
       | Some r ->
         check bool (o.Campaign.params.Campaign.label ^ " leak under its schedule")
           true r.Engine.leak
       | None -> Alcotest.failf "%s crashed" o.Campaign.params.Campaign.label)
    outs

(* [`Auto] on a tiny workload must choose the sequential path (the
   master pass is far below the domain break-even) and say so in the
   metrics — the BENCH 0.70x regression fix. *)
let test_campaign_auto_falls_back_sequential () =
  let prog, _ = Workload.instrumented pbzip2 in
  let config = Workload.leak_config pbzip2 in
  let params = Campaign.of_seeds config [ 1; 2; 3 ] in
  let rec_ = Obs.Recorder.create () in
  let outs =
    Campaign.run ~jobs:4 ~obs:(Obs.Recorder.sink rec_) ~config prog
      pbzip2.Workload.world params
  in
  check int "all tasks ran" 3 (List.length outs);
  let snap = Obs.Recorder.snapshot rec_ in
  check int "auto mode chose sequential" 1
    (Obs.Metrics.counter snap "campaign.mode.sequential");
  check int "task count recorded" 3 (Obs.Metrics.counter snap "campaign.tasks")

(* ------------------------------------------------------------------ *)
(* Property: with zero sources, ANY (schedule, fault-plan) pair yields
   zero reports — dual execution under a shared interleaving and a
   shared fault plan is self-identical. *)

let fault_plan seed =
  Fault.plan ~seed
    [ Fault.rule ~sys:"recv" ~nth:1 Fault.Drop_message;
      Fault.rule ~sys:"recv" (Fault.Short_read 1);
      Fault.rule ~sys:"read" Fault.Transient;
      Fault.rule ~sys:"time" (Fault.Clock_skew 997) ]

let conc_world =
  World.(empty |> with_endpoint "in" [ "7"; "21"; "3"; "9"; "1"; "14" ])

let prop_zero_source_any_schedule_and_faults ((p, seed, faulty) :
    Ldx_lang.Ast.program * int * bool) =
  let prog, _ = Counter.instrument (Lower.lower_program p) in
  let spec = Sched.spec ~seed Sched.Random in
  let config =
    { Engine.default_config with
      Engine.sources = [];
      master_sched = Some spec;
      slave_sched = Some spec;
      faults = (if faulty then Some (fault_plan seed) else None) }
  in
  let r = Executed.run ~config prog conc_world in
  r.Engine.reports = [] && not r.Engine.leak

let qcheck_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"P15 zero sources: any (schedule, faults) silent"
         ~count:60
         ~print:(fun (p, seed, faulty) ->
           Printf.sprintf "seed=%d faults=%b\n%s" seed faulty
             (Gen_minic.print_program p))
         QCheck2.Gen.(triple Gen_minic.gen_conc_program (int_bound 1000) bool)
         prop_zero_source_any_schedule_and_faults) ]

let tests =
  [ ("schedule text roundtrip", `Quick, test_schedule_roundtrip);
    ("schedule cursor clone", `Quick, test_cursor_clone);
    ("legacy quantum formula", `Quick, test_legacy_quantum_formula);
    ("round-robin policy", `Quick, test_round_robin_policy);
    ("random policy reproducible", `Quick, test_random_policy_reproducible);
    ("priority policy", `Quick, test_priority_policy);
    ("forced overrides", `Quick, test_forced_overrides);
    ("quantum override", `Quick, test_quantum_override);
    ("state copy mid-stream", `Quick, test_state_copy_mid_stream);
    ("policy parsing", `Quick, test_policy_parsing);
    ("legacy scheduler bit-identical", `Quick, test_legacy_bit_identical);
    ("record/replay identical", `Quick, test_record_replay_identical);
    ("pinned per-workload syscall counts", `Quick, test_pinned_syscall_counts);
    ("explore: distinct + deterministic", `Quick,
     test_explore_distinct_and_deterministic);
    ("explore: zero sources clean on all schedules", `Slow,
     test_zero_source_clean_all_schedules);
    ("explore: Table 4 leaks on all schedules", `Slow,
     test_leak_detected_all_schedules);
    ("sweep render", `Quick, test_render_mentions_classification);
    ("campaign of_scheds", `Quick, test_campaign_of_scheds);
    ("campaign auto mode sequential fallback", `Quick,
     test_campaign_auto_falls_back_sequential);
    ("unrecorded decisions allocate nothing", `Quick,
     test_unrecorded_picks_allocate_nothing) ]
  @ qcheck_tests
