(* Concurrency edge cases in the dual engine (Sec. 7): threads that exist
   in only one execution, lock-gate stalls resolved by lock tainting, and
   schedule-independent per-thread alignment. *)

module Engine = Ldx_core.Engine
module World = Ldx_osim.World

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let clean (r : Engine.result) =
  (match r.Engine.master.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "master trapped: %s" m);
  match r.Engine.slave.Engine.trap with
  | None -> ()
  | Some m -> Alcotest.failf "slave trapped: %s" m

(* A worker thread that exists only in the master: its entire syscall
   stream becomes master-only differences; its sends are flagged. *)
let test_master_only_thread () =
  let src =
    {| fn reporter(x) {
         let s = socket("upstream");
         send(s, "telemetry " + itoa(x));
         return 0;
       }
       fn main() {
         let c = socket("c");
         let secret = atoi(recv(c));
         if (secret == 1) {
           let t = spawn(@reporter, 99);
           join(t);
         }
         print("done");
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "1" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config src world in
  clean r;
  check bool "telemetry leak" true r.Engine.leak;
  check bool "missing-in-slave kind" true
    (List.exists
       (fun rep -> rep.Engine.kind = Engine.Missing_in_slave)
       r.Engine.reports)

(* The mirror image: the thread exists only in the slave. *)
let test_slave_only_thread () =
  let src =
    {| fn reporter(x) {
         let s = socket("upstream");
         send(s, "telemetry " + itoa(x));
         return 0;
       }
       fn main() {
         let c = socket("c");
         let secret = atoi(recv(c));
         if (secret == 3) {
           let t = spawn(@reporter, 99);
           join(t);
         }
         print("done");
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "2" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config src world in
  clean r;
  check bool "slave-only telemetry flagged" true
    (List.exists
       (fun rep -> rep.Engine.kind = Engine.Missing_in_master)
       r.Engine.reports)

(* Divergence changes who locks: the mutated slave's main skips the
   critical section the master's main ran, so one grant the master made
   never comes.  [critical_first] puts that section before main spawns
   the worker; [grants] pins the master's grant order (spawn index 0 is
   main), which decides what the slave's lock gate meets:
   - the worker first: the gate grants the worker, and main's grant is
     simply never asked for;
   - main first: the gate holds the worker back for main's grant, main
     waits in [join], and every thread is blocked.  The stall hook
     taints the lock and the worker goes on.
   Either way the slave finishes without a deadlock trap, and the sum
   leaks the secret (master 11, slave 1). *)
let lock_recovery ~critical_first grants () =
  let critical =
    "if (secret == 1) { lock(1); shared[0] = shared[0] + 10; unlock(1); }"
  and spawn = "let t = spawn(@worker, shared);" in
  let first, second =
    if critical_first then (critical, spawn) else (spawn, critical)
  in
  let src =
    Printf.sprintf
      {| fn worker(shared) {
           lock(1);
           shared[0] = shared[0] + 1;
           unlock(1);
           return 0;
         }
         fn main() {
           let c = socket("c");
           let secret = atoi(recv(c));
           let shared = mkarray(1, 0);
           %s
           %s
           join(t);
           send(c, itoa(shared[0]));
         } |}
      first second
  in
  let prog =
    fst
      (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_source src))
  in
  let world = World.(empty |> with_endpoint "c" [ "1" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let mo = Engine.master_pass config prog world in
  check
    Alcotest.(list (pair string int))
    "the master's grants (lock, spawn index)" grants mo.Engine.mlock_trace;
  let r = Engine.run_with_master config prog world mo in
  clean r;
  check bool "leak" true r.Engine.leak

(* With no mutation and no races, per-thread alignment must be exact for
   ANY pair of scheduler seeds: interleaving freedom does not create
   false differences. *)
let test_schedule_independent_alignment () =
  let src =
    {| fn worker(ctx) {
         let wid = ctx[1];
         let s = socket("out" + itoa(wid));
         for (let k = 0; k < 3; k = k + 1) {
           lock(9);
           send(s, "w" + itoa(wid) + ":" + itoa(k));
           unlock(9);
         }
         return 0;
       }
       fn main() {
         let shared = mkarray(1, 0);
         let c1 = mkarray(2, 0); c1[0] = shared; c1[1] = 1;
         let c2 = mkarray(2, 0); c2[0] = shared; c2[1] = 2;
         let t1 = spawn(@worker, c1);
         let t2 = spawn(@worker, c2);
         join(t1); join(t2);
         print("ok");
       } |}
  in
  let world =
    World.(empty |> with_endpoint "out1" [] |> with_endpoint "out2" [])
  in
  List.iter
    (fun (ms, ss) ->
       let config =
         { Engine.default_config with
           Engine.sources = [];
           sinks = Engine.Network_outputs;
           master_seed = ms;
           slave_seed = ss }
       in
       let r = Executed.run_source ~config src world in
       clean r;
       check int (Printf.sprintf "seeds %d/%d: no diffs" ms ss) 0
         r.Engine.syscall_diffs;
       check bool "no leak" false r.Engine.leak)
    [ (0, 0); (0, 7); (3, 11); (42, 1); (5, 500) ]

(* Mutated data with racing threads: the verdict must hold across seeds
   (the Table 4 property, asserted as a hard invariant here). *)
let test_verdict_stable_under_schedules () =
  let w = Ldx_workloads.Registry.find_exn "Apache" in
  let prog, _ = Ldx_workloads.Workload.instrumented w in
  List.iter
    (fun seed ->
       let config =
         { (Ldx_workloads.Workload.leak_config w) with
           Engine.master_seed = seed;
           slave_seed = seed * 31 + 7 }
       in
       let r = Engine.run ~config prog w.Ldx_workloads.Workload.world in
       clean r;
       check int (Printf.sprintf "seed %d: 8 sinks" seed) 8
         r.Engine.tainted_sinks)
    [ 1; 2; 3; 10; 77 ]

let tests =
  [ Alcotest.test_case "master-only thread" `Quick test_master_only_thread;
    Alcotest.test_case "slave-only thread" `Quick test_slave_only_thread;
    Alcotest.test_case "lock taint recovery" `Quick
      (lock_recovery ~critical_first:false [ ("i:1", 1); ("i:1", 0) ]);
    Alcotest.test_case "gate stall recovery" `Quick
      (lock_recovery ~critical_first:true [ ("i:1", 0); ("i:1", 1) ]);
    Alcotest.test_case "schedule-independent alignment" `Quick
      test_schedule_independent_alignment;
    Alcotest.test_case "verdict stable under schedules" `Quick
      test_verdict_stable_under_schedules ]
