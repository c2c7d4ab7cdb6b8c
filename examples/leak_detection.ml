(* Information-leak detection on the paper's running example (Fig. 2/3).

     dune exec examples/leak_detection.exe

   An HR service reads an employee record from a socket and reports the
   name and computed raise to a remote site.  The employee's title is
   secret.  The raise is computed on different paths for staff and
   managers (different contract files, different syscalls) — the title
   reaches the output only through control dependences.  We reproduce
   the paper's walk-through: mutate the title in the slave, watch the
   engine tolerate the divergent syscalls, realign at the sends, and
   catch the leak; then show both taint baselines missing it. *)

module Engine = Ldx_core.Engine
module Tracker = Ldx_taint.Tracker
module World = Ldx_osim.World

let program =
  {| fn s_raise(contract) {
       let fd = open(contract);
       let data = read(fd, 100);
       close(fd);
       return atoi(data);
     }
     fn m_raise(salary) {
       let base = s_raise("/etc/contract_mgr");
       if (salary > 5000) {
         let fd = creat("/tmp/seniors");
         write(fd, itoa(salary));
         close(fd);
       }
       return base + 2;
     }
     fn main() {
       let sock = socket("hr");
       let name = recv(sock);
       let title = recv(sock);
       let amount = 0;
       if (title == "STAFF") {
         amount = s_raise("/etc/contract_staff");
       } else {
         amount = m_raise(6000);
         let dept = recv(sock);
         if (dept == "SALES") { amount = amount + 1; }
       }
       send(sock, name);
       send(sock, itoa(amount));
     } |}

let world =
  World.(
    empty
    |> with_file "/etc/contract_staff" "3"
    |> with_file "/etc/contract_mgr" "5"
    |> with_dir "/tmp"
    |> with_endpoint "hr" [ "alice"; "STAFF"; "ENG" ])

let () =
  (* The secret: the employee's title (second message on the socket). *)
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" ~nth:2 () ];
      sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config program world in
  Printf.printf "LDX dual execution:\n";
  Printf.printf "  master syscalls : %d\n" r.Engine.master.Engine.syscalls;
  Printf.printf "  slave syscalls  : %d (path diverged at the title branch)\n"
    r.Engine.slave.Engine.syscalls;
  Printf.printf "  syscall diffs   : %d — tolerated and realigned\n"
    r.Engine.syscall_diffs;
  Printf.printf "  leak            : %b\n" r.Engine.leak;
  List.iter
    (fun rep -> Printf.printf "    %s\n" (Engine.report_to_string rep))
    r.Engine.reports;
  Printf.printf
    "  note: only the raise send is flagged; the name send aligns and \
     matches.\n\n";

  (* The taint baselines track data dependences; the title only decides
     a branch, so nothing they report reaches the sinks. *)
  let taint model =
    let config =
      { Tracker.default_config with
        Tracker.model;
        sources = [ Engine.source ~sys:"recv" ~nth:2 () ];
        sinks = Engine.Network_outputs }
    in
    Tracker.run_source ~config program world
  in
  let tg = taint Tracker.Taintgrind in
  let ld = taint Tracker.Libdft in
  Printf.printf "TaintGrind-like tainted sinks: %d\n" tg.Tracker.tainted_sinks;
  Printf.printf "LibDFT-like tainted sinks    : %d\n" ld.Tracker.tainted_sinks;
  Printf.printf "(both miss the control-dependence leak LDX reported)\n"
