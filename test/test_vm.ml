(* VM end-to-end tests: parse -> lower -> run against a simulated world. *)

module World = Ldx_osim.World
module Driver = Ldx_vm.Driver
module Value = Ldx_vm.Value
module Engine = Ldx_core.Engine

let check = Alcotest.check
let string = Alcotest.string
let int = Alcotest.int

let run ?(world = World.empty) ?(instrument = false) ?seed src =
  Driver.run_source ~instrument ?seed ~record_trace:true src world

let stdout_of ?world ?instrument ?seed src = (run ?world ?instrument ?seed src).Driver.stdout

let no_trap (o : Driver.outcome) =
  match o.Driver.trap with
  | None -> ()
  | Some m -> Alcotest.failf "unexpected trap: %s" m

let test_hello () =
  let o = run {| fn main() { print("hello"); } |} in
  no_trap o;
  check string "stdout" "hello" o.Driver.stdout

let test_arith () =
  check string "arith" "42"
    (stdout_of {| fn main() { let x = 6 * 7; print(itoa(x)); } |})

let test_string_ops () =
  check string "concat+substr" "loworld"
    (stdout_of
       {| fn main() {
            let s = "hello" + " " + "world";
            print(substr(s, 3, 2) + substr(s, 6, 5));
          } |})

let test_if_else () =
  check string "else branch" "neg"
    (stdout_of
       {| fn main() {
            let x = 0 - 5;
            if (x > 0) { print("pos"); } else { print("neg"); }
          } |})

let test_while_loop () =
  check string "sum 1..10" "55"
    (stdout_of
       {| fn main() {
            let s = 0;
            let i = 1;
            while (i <= 10) { s = s + i; i = i + 1; }
            print(itoa(s));
          } |})

let test_for_break_continue () =
  check string "evens until 8" "2468"
    (stdout_of
       {| fn main() {
            for (let i = 1; i <= 100; i = i + 1) {
              if (i % 2 == 1) { continue; }
              if (i > 8) { break; }
              print(itoa(i));
            }
          } |})

let test_functions () =
  check string "fib(10)" "55"
    (stdout_of
       {| fn fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
          }
          fn main() { print(itoa(fib(10))); } |})

let test_indirect_call () =
  check string "dispatch" "9;16"
    (stdout_of
       {| fn sq(x) { return x * x; }
          fn main() {
            let f = @sq;
            print(itoa(f(3)) + ";" + itoa(f(4)));
          } |})

let test_arrays () =
  check string "array sum" "30"
    (stdout_of
       {| fn main() {
            let a = mkarray(4, 0);
            a[0] = 3; a[1] = 9; a[2] = 8; a[3] = 10;
            let s = 0;
            for (let i = 0; i < len(a); i = i + 1) { s = s + a[i]; }
            print(itoa(s));
          } |})

let test_short_circuit () =
  (* the && must not evaluate a[5] when the guard fails *)
  check string "short circuit" "safe"
    (stdout_of
       {| fn main() {
            let a = mkarray(2, 7);
            let i = 5;
            if (i < len(a) && a[i] == 7) { print("unsafe"); }
            else { print("safe"); }
          } |})

let test_file_io () =
  let world = World.(empty |> with_file "/etc/conf" "rate=15") in
  let o =
    run ~world
      {| fn main() {
           let fd = open("/etc/conf");
           let data = read(fd, 100);
           close(fd);
           let i = find(data, "=");
           print(substr(data, i + 1, 10));
         } |}
  in
  no_trap o;
  check string "read conf" "15" o.Driver.stdout

let test_file_write () =
  let o =
    run
      {| fn main() {
           let fd = creat("/out.txt");
           write(fd, "alpha");
           write(fd, "beta");
           close(fd);
           let fd2 = open("/out.txt");
           print(read(fd2, 100));
         } |}
  in
  no_trap o;
  check string "append semantics" "alphabeta" o.Driver.stdout

let test_network () =
  let world = World.(empty |> with_endpoint "server" [ "req1"; "req2" ]) in
  let o =
    run ~world
      {| fn main() {
           let s = socket("server");
           let a = recv(s);
           let b = recv(s);
           send(s, upper(a) + "+" + upper(b));
         } |}
  in
  no_trap o;
  let net = o.Driver.machine.Ldx_vm.Machine.os.Ldx_osim.Os.net in
  match Ldx_osim.Net.find net "server" with
  | Some e ->
    check (Alcotest.list string) "outbox" [ "REQ1+REQ2" ]
      (Ldx_osim.Net.outbox e)
  | None -> Alcotest.fail "endpoint vanished"

let test_trap_div_zero () =
  let o = run {| fn main() { let x = 1 / 0; print(itoa(x)); } |} in
  match o.Driver.trap with
  | Some m -> check Alcotest.bool "mentions zero" true
                (Ldx_vm.Eval.string_hash m >= 0 && String.length m > 0)
  | None -> Alcotest.fail "expected a trap"

let test_trap_oob () =
  let o = run {| fn main() { let a = mkarray(2, 0); print(itoa(a[5])); } |} in
  check Alcotest.bool "trapped" true (o.Driver.trap <> None)

let test_threads_join () =
  let o =
    run
      {| fn worker(x) { return x * 10; }
         fn main() {
           let t1 = spawn(@worker, 4);
           let t2 = spawn(@worker, 5);
           print(itoa(join(t1) + join(t2)));
         } |}
  in
  no_trap o;
  check string "joined" "90" o.Driver.stdout

let test_threads_locks () =
  (* With a lock, the critical section is exclusive regardless of seed. *)
  let src =
    {| fn worker(a) {
         lock(1);
         let v = a[0];
         yield();
         a[0] = v + 1;
         unlock(1);
         return 0;
       }
       fn main() {
         let a = mkarray(1, 0);
         let t1 = spawn(@worker, a);
         let t2 = spawn(@worker, a);
         join(t1); join(t2);
         print(itoa(a[0]));
       } |}
  in
  List.iter
    (fun seed ->
       let o = run ~seed src in
       no_trap o;
       check string (Printf.sprintf "seed %d" seed) "2" o.Driver.stdout)
    [ 0; 1; 7; 13; 99 ]

let test_trace_counters_monotone_without_loops () =
  (* without loops/indirect calls, counter values along the trace are
     strictly increasing *)
  let o =
    run ~instrument:true
      {| fn helper() { print("x"); print("y"); }
         fn main() {
           print("a");
           helper();
           print("b");
         } |}
  in
  no_trap o;
  let counters = List.map (fun t -> t.Driver.counter) o.Driver.trace in
  check (Alcotest.list int) "counters" [ 1; 2; 3; 4 ] counters

let test_exit () =
  let o = run {| fn main() { print("pre"); exit(3); print("post"); } |} in
  check string "stopped at exit" "pre" o.Driver.stdout;
  check (Alcotest.option int) "code" (Some 3) o.Driver.exit_code

let test_fuel () =
  let o =
    Driver.run_source ~max_steps:10_000 ~record_trace:false
      {| fn main() { while (1) { let x = 1; } } |} World.empty
  in
  check Alcotest.bool "fuel trap" true (o.Driver.trap <> None)

(* A thread op that traps hands its thread nothing, in a native run as
   in the master pass: no result, no [Cost.syscall], no trace entry. *)
let test_thread_op_trap () =
  List.iter
    (fun call ->
       let src = Printf.sprintf {| fn main() { print("a"); %s; } |} call in
       let o = run ~instrument:true src in
       let ms = (Engine.run_source src World.empty).Engine.master in
       check Alcotest.bool (call ^ " traps") true (o.Driver.trap <> None);
       check (Alcotest.option string) (call ^ " trap") ms.Engine.trap
         o.Driver.trap;
       check int (call ^ " steps") ms.Engine.steps o.Driver.steps;
       check int (call ^ " cycles") ms.Engine.cycles o.Driver.cycles;
       check int (call ^ " syscalls") ms.Engine.syscalls o.Driver.syscalls;
       check (Alcotest.list string) (call ^ " trace ends at the print")
         [ "print" ]
         (List.map (fun t -> t.Driver.sys) o.Driver.trace))
    [ "spawn(3, 0)"; "alarm(\"x\")"; "longjmp(5)" ]

let tests =
  [ Alcotest.test_case "hello" `Quick test_hello;
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "string ops" `Quick test_string_ops;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "while" `Quick test_while_loop;
    Alcotest.test_case "for/break/continue" `Quick test_for_break_continue;
    Alcotest.test_case "recursion" `Quick test_functions;
    Alcotest.test_case "indirect call" `Quick test_indirect_call;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "file write" `Quick test_file_write;
    Alcotest.test_case "network" `Quick test_network;
    Alcotest.test_case "trap div by zero" `Quick test_trap_div_zero;
    Alcotest.test_case "trap out of bounds" `Quick test_trap_oob;
    Alcotest.test_case "threads join" `Quick test_threads_join;
    Alcotest.test_case "threads locks" `Quick test_threads_locks;
    Alcotest.test_case "trace counters" `Quick
      test_trace_counters_monotone_without_loops;
    Alcotest.test_case "exit" `Quick test_exit;
    Alcotest.test_case "fuel" `Quick test_fuel;
    Alcotest.test_case "thread-op trap hands nothing" `Quick
      test_thread_op_trap ]
