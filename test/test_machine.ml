(* VM-level unit tests: scheduler determinism, spawn pairing keys,
   counter segments across calls, fuel, and OS error paths. *)

module Machine = Ldx_vm.Machine
module Driver = Ldx_vm.Driver
module Os = Ldx_osim.Os
module Sval = Ldx_osim.Sval
module World = Ldx_osim.World

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let threaded_src =
  {| fn worker(ctx) {
       let shared = ctx[0];
       let wid = ctx[1];
       for (let k = 0; k < 5; k = k + 1) {
         let v = shared[0];
         yield();
         shared[0] = v + wid;
       }
       return wid;
     }
     fn main() {
       let shared = mkarray(1, 0);
       let c1 = mkarray(2, 0); c1[0] = shared; c1[1] = 1;
       let c2 = mkarray(2, 0); c2[0] = shared; c2[1] = 100;
       let t1 = spawn(@worker, c1);
       let t2 = spawn(@worker, c2);
       join(t1); join(t2);
       print(itoa(shared[0]));
     } |}

let run_seed seed =
  (Driver.run_source ~seed threaded_src World.empty).Driver.stdout

let test_scheduler_deterministic_per_seed () =
  List.iter
    (fun seed ->
       check string
         (Printf.sprintf "seed %d reproducible" seed)
         (run_seed seed) (run_seed seed))
    [ 0; 1; 2; 17; 99 ]

let test_scheduler_seed_sensitivity () =
  (* the deliberate lost-update race means SOME seed pair must differ *)
  let outs = List.map run_seed [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let distinct = List.sort_uniq compare outs in
  check bool "race visible across seeds" true (List.length distinct > 1)

let test_spawn_indices_sequential () =
  let prog =
    Ldx_cfg.Lower.lower_source
      {| fn w(x) { return x; }
         fn main() {
           let a = spawn(@w, 1);
           let b = spawn(@w, 2);
           join(a); join(b);
         } |}
  in
  let o = Driver.run prog World.empty in
  let idxs =
    List.map
      (fun (th : Machine.thread) -> th.Machine.spawn_index)
      o.Driver.machine.Machine.threads
  in
  check (Alcotest.list int) "pairing keys" [ 0; 1; 2 ] idxs

let test_counter_segments_restore () =
  (* after returning from an indirect call the outer counter resumes
     from its saved value plus the fixed +1 *)
  let o =
    Driver.run_source ~instrument:true ~record_trace:true
      {| fn callee() { print("in1"); print("in2"); print("in3"); return 0; }
         fn main() {
           print("a");
           let f = @callee;
           let x = f();
           print("b");
         } |}
      World.empty
  in
  let counters = List.map (fun t -> t.Driver.counter) o.Driver.trace in
  (* a=1; fresh segment: 1,2,3; back outside: saved 1 + 1 (call) + 1 = 3 *)
  check (Alcotest.list int) "segment save/restore" [ 1; 1; 2; 3; 3 ] counters

let test_os_bad_fd_paths () =
  let os = Os.create World.empty in
  check (Alcotest.testable (Fmt.of_to_string Sval.to_string) Sval.equal)
    "read bad fd" (Sval.S "")
    (Os.exec os "read" [ Sval.I 42; Sval.I 4 ]);
  check int "write bad fd" (-1)
    (Sval.int_exn (Os.exec os "write" [ Sval.I 42; Sval.S "x" ]));
  check int "seek bad fd" (-1)
    (Sval.int_exn (Os.exec os "seek" [ Sval.I 42; Sval.I 0 ]));
  check bool "bad args raise" true
    (match Os.exec os "open" [ Sval.I 3 ] with
     | exception Os.Os_error _ -> true
     | _ -> false)

let test_os_dir_errors () =
  let os = Os.create World.empty in
  check int "mkdir under missing parent" (-1)
    (Sval.int_exn (Os.exec os "mkdir" [ Sval.S "/a/b" ]));
  check int "unlink missing" (-1)
    (Sval.int_exn (Os.exec os "unlink" [ Sval.S "/nope" ]));
  check int "rename missing" (-1)
    (Sval.int_exn (Os.exec os "rename" [ Sval.S "/a"; Sval.S "/b" ]));
  check int "stat missing" (-1)
    (Sval.int_exn (Os.exec os "stat" [ Sval.S "/nope" ]))

let test_resource_keys () =
  let os = Os.create World.(empty |> with_file "/f" "x") in
  let fd = Sval.int_exn (Os.exec os "open" [ Sval.S "/f" ]) in
  check (Alcotest.list Alcotest.string) "read resolves fd"
    [ "path:/f" ]
    (Os.resource_of_syscall os "read" [ Sval.I fd; Sval.I 4 ]);
  check (Alcotest.list Alcotest.string) "creat includes parent"
    [ "path:/d/new"; "path:/d" ]
    (Os.resource_of_syscall os "creat" [ Sval.S "/d/new" ]);
  check (Alcotest.list Alcotest.string) "open is entry-only"
    [ "path:/f" ]
    (Os.resource_of_syscall os "open" [ Sval.S "/f" ])

let test_fuel_budget_respected () =
  let o =
    Driver.run_source ~max_steps:500
      {| fn main() { let i = 0; while (i >= 0) { i = i + 1; } } |}
      World.empty
  in
  check bool "fuel trap" true (o.Driver.trap <> None);
  check bool "stopped promptly" true (o.Driver.steps <= 600)

(* Regression: a scheduler that names a spawn index with no runnable
   thread behind it must trap cleanly ("scheduler pick: ..."), not
   escape as Not_found from the runnable-set lookup (the pre-fix
   behavior).  Scheduler.Pinned is the hostile policy built for exactly
   this: it never checks runnability. *)
let test_hostile_scheduler_traps () =
  (* pinned to a spawn index that never exists *)
  let sched = Machine.Sched.(instantiate (spec (Pinned 5))) in
  let o =
    Driver.run_source ~sched
      {| fn main() { print("hi"); } |}
      World.empty
  in
  (match o.Driver.trap with
   | Some msg ->
     check bool "names the bad index"
       true
       (msg = "scheduler pick: no thread with spawn index 5")
   | None -> Alcotest.fail "expected a trap, got none");
  (* pinned to a real thread that stops being runnable: main blocks on
     join while the worker still runs *)
  let sched = Machine.Sched.(instantiate (spec (Pinned 0))) in
  let o =
    Driver.run_source ~sched
      {| fn w(x) { for (let k = 0; k < 50; k = k + 1) { yield(); } return x; }
         fn main() { let t = spawn(@w, 1); join(t); } |}
      World.empty
  in
  (match o.Driver.trap with
   | Some msg ->
     check string "names the blocked thread"
       "scheduler pick: thread 0 is not runnable" msg
   | None -> Alcotest.fail "expected a trap, got none")

(* Regression: the fuel check used [>], so an execution got max_steps+1
   steps before trapping.  Pin the exact count: an infinite loop under
   a budget of n must execute exactly n steps.  The budgets sweep many
   quantum boundaries, where the stepper refills a lone thread's
   quantum in place (fuel check first, then a fresh decision).  The
   decisions and recorded schedules of this sweep are pinned by the
   vm-golden test's "fuel-sweep" digest. *)
let test_fuel_exact_step_count () =
  for max_steps = 1 to 200 do
    let o =
      Driver.run_source ~max_steps
        {| fn main() { let i = 0; while (i >= 0) { i = i + 1; } } |}
        World.empty
    in
    check (Alcotest.option string)
      (Printf.sprintf "fuel trap at budget %d" max_steps)
      (Some "fuel exhausted") o.Driver.trap;
    check int "exactly max_steps steps" max_steps o.Driver.steps
  done

let tests =
  [ Alcotest.test_case "scheduler deterministic per seed" `Quick
      test_scheduler_deterministic_per_seed;
    Alcotest.test_case "scheduler seed sensitivity" `Quick
      test_scheduler_seed_sensitivity;
    Alcotest.test_case "spawn indices sequential" `Quick
      test_spawn_indices_sequential;
    Alcotest.test_case "counter segments restore" `Quick
      test_counter_segments_restore;
    Alcotest.test_case "os bad fd paths" `Quick test_os_bad_fd_paths;
    Alcotest.test_case "os dir errors" `Quick test_os_dir_errors;
    Alcotest.test_case "resource keys" `Quick test_resource_keys;
    Alcotest.test_case "fuel budget respected" `Quick test_fuel_budget_respected;
    Alcotest.test_case "hostile scheduler pick traps cleanly" `Quick
      test_hostile_scheduler_traps;
    Alcotest.test_case "fuel exhausts at exactly max_steps" `Quick
      test_fuel_exact_step_count ]
