(* Engine edge cases: directory tainting (the Sec. 7 example), exit
   divergence, a send outside the sink set, site-scoped sources,
   multi-source runs, a slave call the OS refuses,
   rename/unlink tainting, dot export smoke. *)

module Engine = Ldx_core.Engine
module World = Ldx_osim.World
module Sval = Ldx_osim.Sval

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let net_cfg sources =
  { Engine.default_config with
    Engine.sources; sinks = Engine.Network_outputs }

let clean (r : Engine.result) =
  (match r.Engine.master.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "master trapped: %s" m);
  match r.Engine.slave.Engine.trap with
  | None -> ()
  | Some m -> Alcotest.failf "slave trapped: %s" m

(* Sec. 7's own example: "if the master creates a directory while the
   slave does not, the directory is tainted.  When the slave tries to
   access the directory later, it gets into the de-coupled mode." *)
let test_directory_tainting () =
  let src =
    {| fn main() {
         let s = socket("c");
         let secret = atoi(recv(s));
         if (secret == 1) { mkdir("/spool"); }
         // both executions now list the parent: contents differ
         let listing = readdir("/");
         send(s, listing);
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "1" ]) in
  let r =
    Engine.run_source
      ~config:(net_cfg [ Engine.source ~sys:"recv" () ])
      src world
  in
  clean r;
  check bool "listing leak detected" true r.Engine.leak;
  (* the slave's readdir must have run decoupled on its private VFS,
     not reused the master's listing *)
  check bool "slave saw its own listing" true
    (List.exists
       (fun (rep : Engine.sink_report) ->
          match (rep.Engine.master_args, rep.Engine.slave_args) with
          | Some _, Some s -> not (List.exists (Sval.equal (Sval.S "spool")) s)
          | _ -> true)
       r.Engine.reports)

let test_rename_tainting () =
  let src =
    {| fn main() {
         let s = socket("c");
         let secret = atoi(recv(s));
         let fd = creat("/a.txt");
         write(fd, "data");
         close(fd);
         if (secret == 1) { rename("/a.txt", "/b.txt"); }
         let present = stat("/a.txt");
         send(s, itoa(present));
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "1" ]) in
  let r =
    Engine.run_source ~config:(net_cfg [ Engine.source ~sys:"recv" () ]) src
      world
  in
  clean r;
  (* master: renamed (stat = -1); slave: still present (stat = 4) *)
  check bool "rename-dependent stat leaks" true r.Engine.leak

let test_exit_divergence () =
  let src =
    {| fn main() {
         let s = socket("c");
         let secret = atoi(recv(s));
         if (secret == 3) { exit(1); }
         send(s, "alive");
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "3" ]) in
  let r =
    Engine.run_source ~config:(net_cfg [ Engine.source ~sys:"recv" () ]) src
      world
  in
  (* master exits before the send; slave survives and sends *)
  check bool "exit-dependent sink flagged" true r.Engine.leak;
  check bool "slave-only send" true
    (List.exists
       (fun rep -> rep.Engine.kind = Engine.Missing_in_master)
       r.Engine.reports)

let test_custom_sinks () =
  (* under [File_outputs] no send is a sink: the data-dependent send
     differs, and that difference is counted but is no leak *)
  let src =
    {| fn main() {
         let a = socket("audit");
         let b = socket("peer");
         let s = socket("c");
         let v = recv(s);
         send(b, v);               // data-dependent but NOT a sink
         send(a, "fixed");         // constant
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "x" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" ~arg:"ep:c" () ];
      sinks = Engine.File_outputs }
  in
  let r = Engine.run_source ~config src world in
  clean r;
  check bool "no send is a sink: no leak" false r.Engine.leak;
  check bool "peer send differed (diff counted)" true
    (r.Engine.syscall_diffs > 0)

(* Programs that make a call the OS refuses, each with its sinks: in the
   last two the refused call is itself a sink.  The snapshot tests' D5
   derives their slaves. *)
let os_error_cases =
  [ ({| fn main() { print("a"); let fd = open(5); print("x"); } |},
     Engine.Output_syscalls);
    ({| fn main() { print("a"); send("x", "y"); print("b"); } |},
     Engine.Network_outputs);
    ({| fn main() { print("a"); write("f", "x"); print("b"); } |},
     Engine.File_outputs) ]

(* A call the OS refuses traps the master, which records nothing for it.
   The slave makes the same call and must trap on it too: serviced as a
   failed call it would run past the trap, and its later outputs, or the
   refused call itself when it is a sink, would read as causality. *)
let test_slave_os_error () =
  List.iter
    (fun (src, sinks) ->
       let config =
         { Engine.default_config with
           Engine.sources = [ Engine.source ~sys:"read" ~arg:"/nowhere" () ];
           sinks }
       in
       (* executed: [Engine.run] derives this slave, since its source
          never matches *)
       let r = Executed.run_source ~config src World.empty in
       check bool (src ^ ": no leak") false r.Engine.leak;
       check int (src ^ ": no difference") 0 r.Engine.syscall_diffs;
       check bool (src ^ ": the slave traps as the master does") true
         (Engine.classify_trap r.Engine.slave.Engine.trap = Engine.Os_failure))
    os_error_cases

let test_site_scoped_source () =
  (* two recvs from the same endpoint; scope the source by static site *)
  let src =
    {| fn main() {
         let s = socket("c");
         let a = recv(s);
         let b = recv(s);
         send(s, a);
         send(s, b);
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "one"; "two" ]) in
  (* find the site of the second recv: sites are allocated in lowering
     order — socket=0, recv=1, recv=2, sends=3,4 *)
  let config = net_cfg [ Engine.source ~sys:"recv" ~site:2 () ] in
  let r = Engine.run_source ~config src world in
  clean r;
  check int "only b's sink flagged" 1 r.Engine.tainted_sinks

let test_multi_source_single_run () =
  let src =
    {| fn main() {
         let s = socket("c");
         let a = recv(s);
         let b = recv(s);
         send(s, a + ":" + b);
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "aa"; "bb" ]) in
  let config =
    net_cfg
      [ Engine.source ~sys:"recv" ~nth:1 (); Engine.source ~sys:"recv" ~nth:2 () ]
  in
  let r = Engine.run_source ~config src world in
  clean r;
  check int "both mutated in one run" 2 r.Engine.mutated_inputs;
  check int "one combined sink" 1 r.Engine.tainted_sinks

let test_dot_export () =
  let prog =
    Ldx_cfg.Lower.lower_source
      {| fn main() {
           for (let i = 0; i < 3; i = i + 1) { print(itoa(i)); }
         } |}
  in
  let f = Ldx_cfg.Ir.find_func_exn prog "main" in
  let dot = Ldx_cfg.Dot.func_to_dot f in
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let found = ref false in
    for i = 0 to hn - nn do
      if (not !found) && String.sub hay i nn = needle then found := true
    done;
    !found
  in
  check bool "digraph" true (contains dot "digraph");
  check bool "back edge marked" true (contains dot "back");
  check bool "loop head marked" true (contains dot "loop head");
  let pdot = Ldx_cfg.Dot.program_to_dot prog in
  check bool "cluster" true (contains pdot "cluster_main")

let tests =
  [ Alcotest.test_case "directory tainting" `Quick test_directory_tainting;
    Alcotest.test_case "rename tainting" `Quick test_rename_tainting;
    Alcotest.test_case "exit divergence" `Quick test_exit_divergence;
    Alcotest.test_case "custom sinks" `Quick test_custom_sinks;
    Alcotest.test_case "slave OS-error call traps" `Quick test_slave_os_error;
    Alcotest.test_case "site-scoped source" `Quick test_site_scoped_source;
    Alcotest.test_case "multi-source single run" `Quick
      test_multi_source_single_run;
    Alcotest.test_case "dot export" `Quick test_dot_export ]
