(* Whole-corpus validation: all 28 benchmark analogues must
   (1) run natively without traps,
   (2) dual-execute with zero divergence when nothing is mutated,
   (3) report causality under their leak configuration, with the engine
       counters an earlier build recorded,
   (4) stay silent under their benign configuration (when present). *)

module Engine = Ldx_core.Engine
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Driver = Ldx_vm.Driver

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let native_ok (w : Workload.t) () =
  let o = Driver.run (Workload.lower w) w.Workload.world in
  (match o.Driver.trap with
   | None -> ()
   | Some m -> Alcotest.failf "%s trapped natively: %s" w.Workload.name m);
  check bool "did some syscalls" true (o.Driver.syscalls > 0)

let aligned_ok (w : Workload.t) () =
  let prog, _ = Workload.instrumented w in
  let r =
    Executed.run ~config:(Workload.no_mutation_config w) prog w.Workload.world
  in
  (match r.Engine.master.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "%s master trapped: %s" w.Workload.name m);
  (match r.Engine.slave.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "%s slave trapped: %s" w.Workload.name m);
  check int (w.Workload.name ^ " diffs") 0 r.Engine.syscall_diffs;
  check bool (w.Workload.name ^ " no leak") false r.Engine.leak

(* Counters of each non-interactive workload's leak run, as an earlier
   build recorded them: tainted sinks, then the [Recorder] counters of
   [leak_counter_names].  Every one of these runs leaks, which "leak
   detected" checks. *)
let leak_counter_names =
  [ "master.syscalls"; "slave.syscalls"; "engine.copies";
    "engine.sink_compares"; "engine.mutations"; "divergence.case1";
    "divergence.case2"; "divergence.case3"; "run.wall_cycles" ]

let leak_counters =
  [ ("400.perlbench", 21, [ 113; 113; 81; 0; 73; 0; 0; 21; 20537 ]);
    ("401.bzip2", 1, [ 135; 135; 132; 0; 125; 0; 0; 1; 102449 ]);
    ("403.gcc", 6, [ 78; 74; 28; 0; 1; 6; 0; 0; 11450 ]);
    ("429.mcf", 50, [ 51; 62; 10; 1; 1; 11; 0; 39; 27571 ]);
    ("445.gobmk", 1, [ 12; 12; 10; 0; 1; 0; 0; 1; 21721 ]);
    ("456.hmmer", 1, [ 20; 20; 18; 0; 3; 0; 0; 1; 37693 ]);
    ("458.sjeng", 1, [ 10; 10; 8; 0; 1; 0; 0; 1; 19676 ]);
    ("462.libquantum", 3, [ 92; 92; 82; 0; 75; 0; 0; 3; 13116 ]);
    ("464.h264ref", 9, [ 21; 21; 11; 0; 1; 0; 5; 4; 30809 ]);
    ("471.omnetpp", 20, [ 87; 87; 13; 3; 2; 0; 0; 20; 70549 ]);
    ("473.astar", 2, [ 45; 45; 42; 34; 1; 0; 0; 2; 787915 ]);
    ("483.xalancbmk", 108, [ 118; 118; 8; 0; 1; 0; 0; 108; 10127 ]);
    ("Nginx", 2, [ 281; 281; 205; 2; 1; 0; 2; 0; 14053 ]);
    ("Tnftp", 1, [ 72; 72; 47; 1; 1; 0; 0; 1; 4997 ]);
    ("Sysstat", 1, [ 28; 28; 27; 1; 5; 0; 0; 1; 1571 ]);
    ("Gif2png", 1, [ 10; 10; 9; 0; 1; 0; 0; 1; 723 ]);
    ("Mp3info", 1, [ 9; 9; 7; 0; 1; 0; 0; 1; 384 ]);
    ("Prozilla", 1, [ 8; 8; 5; 0; 2; 0; 0; 1; 726 ]);
    ("Yopsws", 1, [ 9; 9; 8; 1; 1; 0; 0; 1; 791 ]);
    ("Ngircd", 1, [ 8; 7; 3; 0; 1; 0; 1; 0; 678 ]);
    ("Gcc", 1, [ 8; 8; 7; 0; 1; 0; 0; 1; 607 ]);
    ("Apache", 8, [ 50; 50; 14; 0; 8; 0; 0; 8; 2227 ]);
    ("Pbzip2", 6, [ 43; 43; 13; 0; 6; 0; 0; 6; 2610 ]);
    ("Pigz", 4, [ 30; 30; 17; 4; 4; 0; 0; 4; 1855 ]);
    ("Axel", 3, [ 39; 39; 13; 0; 3; 0; 0; 3; 1798 ]);
    ("X264", 4, [ 30; 30; 9; 2; 4; 0; 0; 4; 1934 ]) ]

let leak_ok (w : Workload.t) () =
  let name = w.Workload.name in
  let prog, _ = Workload.instrumented w in
  let rc = Ldx_obs.Recorder.create () in
  let r =
    Engine.run ~config:(Workload.leak_config w)
      ~obs:(Ldx_obs.Recorder.sink rc) prog w.Workload.world
  in
  (match r.Engine.slave.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "%s slave trapped: %s" name m);
  check bool (name ^ " leak detected") true r.Engine.leak;
  check bool (name ^ " mutated inputs > 0") true (r.Engine.mutated_inputs > 0);
  match List.find_opt (fun (n, _, _) -> n = name) leak_counters with
  | None -> ()
  | Some (_, tainted, counters) ->
    check int (name ^ " tainted_sinks") tainted r.Engine.tainted_sinks;
    let snap = Ldx_obs.Recorder.snapshot rc in
    List.iter2
      (fun key v ->
         check int (name ^ " " ^ key) v (Ldx_obs.Metrics.counter snap key))
      leak_counter_names counters

let benign_ok (w : Workload.t) () =
  match Workload.benign_config w with
  | None -> ()
  | Some config ->
    let prog, _ = Workload.instrumented w in
    let r = Engine.run ~config prog w.Workload.world in
    (match r.Engine.slave.Engine.trap with
     | None -> ()
     | Some m -> Alcotest.failf "%s slave trapped: %s" w.Workload.name m);
    check bool (w.Workload.name ^ " benign: no leak") false r.Engine.leak

(* Concurrency set: schedule perturbation (different seeds) must not
   break the engine even when races change behaviour. *)
let perturbed_ok (w : Workload.t) () =
  let prog, _ = Workload.instrumented w in
  let config =
    { (Workload.leak_config w) with
      Engine.master_seed = 11; Engine.slave_seed = 47 }
  in
  let r = Engine.run ~config prog w.Workload.world in
  (match r.Engine.master.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "%s master trapped: %s" w.Workload.name m);
  match r.Engine.slave.Engine.trap with
  | None -> ()
  | Some m -> Alcotest.failf "%s slave trapped: %s" w.Workload.name m

let registry_complete () =
  check int "28 workloads" 28 (List.length Registry.all);
  check int "12 spec" 12 (List.length Registry.spec);
  check int "5 leak" 5 (List.length Registry.leak);
  check int "6 vulnerable" 6 (List.length Registry.vulnerable);
  check int "5 concurrency" 5 (List.length Registry.concurrency);
  check (Alcotest.list Alcotest.string)
    "leak counters pinned for every non-interactive workload"
    (List.filter_map
       (fun (w : Workload.t) ->
          if w.Workload.interactive then None else Some w.Workload.name)
       Registry.all)
    (List.map (fun (n, _, _) -> n) leak_counters)

let tests =
  Alcotest.test_case "registry complete" `Quick registry_complete
  :: List.concat_map
    (fun (w : Workload.t) ->
       [ Alcotest.test_case (w.Workload.name ^ " native") `Quick (native_ok w);
         Alcotest.test_case (w.Workload.name ^ " aligned") `Quick (aligned_ok w);
         Alcotest.test_case (w.Workload.name ^ " leak") `Quick (leak_ok w);
         Alcotest.test_case (w.Workload.name ^ " benign") `Quick (benign_ok w) ])
    Registry.all
  @ List.map
    (fun (w : Workload.t) ->
       Alcotest.test_case (w.Workload.name ^ " perturbed") `Quick
         (perturbed_ok w))
    Registry.concurrency
