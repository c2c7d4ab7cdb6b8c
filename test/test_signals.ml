(* Signal handling (Sec. 7): registration, alarm-driven delivery at
   syscall boundaries, handler frames behaving like indirect calls
   (fresh counter segments), and dual-execution alignment. *)

module Engine = Ldx_core.Engine
module World = Ldx_osim.World
module Driver = Ldx_vm.Driver

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

let run ?(world = World.empty) src =
  Driver.run_source ~instrument:true src world

let no_trap (o : Driver.outcome) =
  match o.Driver.trap with
  | None -> ()
  | Some m -> Alcotest.failf "unexpected trap: %s" m

let test_sigsend_runs_handler () =
  let o =
    run
      {| fn on_usr(signo) { print("sig" + itoa(signo) + ";"); return 0; }
         fn main() {
           signal(10, @on_usr);
           print("pre;");
           sigsend(10);
           print("post;");
         } |}
  in
  no_trap o;
  (* delivery happens at the sigsend syscall's return, before "post" *)
  check string "handler interleaves" "pre;sig10;post;" o.Driver.stdout

let test_unhandled_signal_ignored () =
  let o =
    run
      {| fn main() {
           print("a;");
           sigsend(31);
           print("b;");
         } |}
  in
  no_trap o;
  check string "ignored" "a;b;" o.Driver.stdout

let test_alarm_counts_syscalls () =
  let o =
    run
      {| fn on_alarm(signo) { print("ALRM;"); return 0; }
         fn main() {
           signal(14, @on_alarm);
           alarm(3);
           print("1;");
           print("2;");
           print("3;");
           print("4;");
         } |}
  in
  no_trap o;
  (* the third syscall after alarm() triggers delivery at its return *)
  check string "delivered after 3rd" "1;2;3;ALRM;4;" o.Driver.stdout

let test_nested_handler_syscalls () =
  (* handler performs syscalls of its own: the fresh counter segment
     must push and pop cleanly (like an indirect call) *)
  let o =
    run
      {| fn on_usr(signo) {
           let fd = creat("/tmp/siglog");
           write(fd, "handled");
           close(fd);
           return 0;
         }
         fn main() {
           signal(10, @on_usr);
           sigsend(10);
           let fd = open("/tmp/siglog");
           print(read(fd, 100));
           close(fd);
         } |}
      ~world:World.(empty |> with_dir "/tmp")
  in
  no_trap o;
  check string "handler effects visible" "handled" o.Driver.stdout

let test_dual_alignment_with_signals () =
  let src =
    {| fn on_alarm(signo) { print("tick;"); return 0; }
       fn main() {
         let s = socket("c");
         signal(14, @on_alarm);
         alarm(2);
         let a = recv(s);
         let b = recv(s);
         let c = recv(s);
         send(s, a + b + c);
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "x"; "y"; "z" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = []; sinks = Engine.Network_outputs }
  in
  let r = Executed.run_source ~config src world in
  check (Alcotest.option string) "slave clean" None r.Engine.slave.Engine.trap;
  check int "aligned" 0 r.Engine.syscall_diffs;
  check bool "no leak" false r.Engine.leak

let test_divergent_signal_detected () =
  (* the secret decides whether a handler (and its syscalls) runs *)
  let src =
    {| fn on_usr(signo) { send_report(); return 0; }
       fn send_report() {
         let s2 = socket("upstream");
         send(s2, "pinged");
       }
       fn main() {
         let s = socket("c");
         signal(10, @on_usr);
         let secret = atoi(recv(s));
         if (secret == 7) { sigsend(10); }
         print("done");
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "7" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config src world in
  check (Alcotest.option string) "slave clean" None r.Engine.slave.Engine.trap;
  check bool "signal-dependent send flagged" true r.Engine.leak

let tests =
  [ Alcotest.test_case "sigsend runs handler" `Quick test_sigsend_runs_handler;
    Alcotest.test_case "unhandled ignored" `Quick test_unhandled_signal_ignored;
    Alcotest.test_case "alarm counts syscalls" `Quick test_alarm_counts_syscalls;
    Alcotest.test_case "nested handler syscalls" `Quick
      test_nested_handler_syscalls;
    Alcotest.test_case "dual alignment with signals" `Quick
      test_dual_alignment_with_signals;
    Alcotest.test_case "divergent signal detected" `Quick
      test_divergent_signal_detected ]
