(* LDX engine tests: alignment, causality inference, the paper's examples. *)

module Engine = Ldx_core.Engine
module Align = Ldx_core.Align
module Mutation = Ldx_core.Mutation
module World = Ldx_osim.World

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let run ?(config = Engine.default_config) ?(world = World.empty) src =
  Engine.run_source ~config src world

let no_sources = { Engine.default_config with Engine.sources = [] }

(* ------------------------------------------------------------------ *)
(* Perfect alignment when nothing is mutated.                          *)

let aligned_src =
  {| fn work(fd, n) {
       let total = 0;
       for (let i = 0; i < n; i = i + 1) {
         let chunk = read(fd, 4);
         total = total + strlen(chunk);
       }
       return total;
     }
     fn main() {
       let fd = open("/data");
       let n = atoi(read(fd, 2));
       let t = work(fd, n);
       print(itoa(t));
       close(fd);
     } |}

let aligned_world = World.(empty |> with_file "/data" "03abcdabcdabcd")

let test_no_mutation_no_diffs () =
  let r = Executed.run_source ~config:no_sources aligned_src aligned_world in
  check int "no diffs" 0 r.Engine.syscall_diffs;
  check int "no reports" 0 (List.length r.Engine.reports);
  check bool "no leak" false r.Engine.leak;
  check (Alcotest.option Alcotest.string) "master clean" None r.Engine.master.Engine.trap;
  check (Alcotest.option Alcotest.string) "slave clean" None r.Engine.slave.Engine.trap;
  check Alcotest.string "same stdout" r.Engine.master.Engine.stdout
    r.Engine.slave.Engine.stdout

let test_vacuous_source_match_no_mutation () =
  (* a source spec that matches nothing leaves executions identical *)
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ] }
  in
  let r = Executed.run_source ~config aligned_src aligned_world in
  check int "no diffs" 0 r.Engine.syscall_diffs;
  check bool "no leak" false r.Engine.leak

(* ------------------------------------------------------------------ *)
(* Fig. 1: counterfactual causality vs. program dependences.           *)

(* (a) strong CC through a data dependence *)
let test_fig1a_data_dep () =
  let world = World.(empty |> with_endpoint "in" [ "7" ]) in
  let r =
    run ~world
      {| fn main() {
           let s = socket("in");
           let x = atoi(recv(s));
           let y = x + 10;
           send(s, itoa(y));
         } |}
  in
  check bool "leak" true r.Engine.leak

(* (b) strong CC through a control dependence: x==1 => s=10 *)
let test_fig1b_control_dep_strong () =
  let world = World.(empty |> with_endpoint "in" [ "1" ]) in
  let r =
    run ~world
      {| fn main() {
           let sock = socket("in");
           let x = atoi(recv(sock));
           let s = 0;
           if (x == 1) { s = 10; } else { s = 20; }
           send(sock, itoa(s));
         } |}
  in
  check bool "leak via control dep" true r.Engine.leak

(* (c) weak causality: many x map to the same output.  Off-by-one on
   x=50 keeps the predicate x<100 true, so the output does not change:
   LDX correctly reports nothing where taint-with-control-deps would
   flag it. *)
let test_fig1c_weak_causality_not_reported () =
  let world = World.(empty |> with_endpoint "in" [ "50" ]) in
  let r =
    run ~world
      {| fn main() {
           let sock = socket("in");
           let x = atoi(recv(sock));
           let s = 0;
           if (x < 100) { s = 1; } else { s = 2; }
           send(sock, itoa(s));
         } |}
  in
  check bool "no leak for weak CC" false r.Engine.leak

(* (d) strong CC missed by both data and control deps: the non-update
   leaks.  secret==10 keeps x at 0; any mutation makes x=1. *)
let test_fig1d_missing_update () =
  let world = World.(empty |> with_endpoint "in" [ "10" ]) in
  let r =
    run ~world
      {| fn main() {
           let sock = socket("in");
           let s = atoi(recv(sock));
           let x = 0;
           if (s != 10) { x = 1; }
           send(sock, itoa(x));
         } |}
  in
  check bool "leak via absence of update" true r.Engine.leak

(* ------------------------------------------------------------------ *)
(* Fig. 2/3: the employee example; secret title, leak through the      *)
(* raise amount (control dependence), with syscall divergence.         *)

let fig2_src =
  {| fn s_raise(contract) {
       let fd = open(contract);
       let data = read(fd, 100);
       return atoi(data);
     }
     fn m_raise(salary) {
       let r = s_raise("/etc/contract_mgr");
       if (salary > 5000) {
         let fd = creat("/tmp/seniors");
         write(fd, itoa(salary));
       }
       return r + 2;
     }
     fn main() {
       let sock = socket("hr");
       let name = recv(sock);
       let title = recv(sock);
       let raise = 0;
       if (title == "STAFF") {
         raise = s_raise("/etc/contract_staff");
       } else {
         raise = m_raise(6000);
         let dept = recv(sock);
         if (dept == "SALES") { raise = raise + 1; }
       }
       send(sock, name);
       send(sock, itoa(raise));
     } |}

let fig2_world =
  World.(
    empty
    |> with_file "/etc/contract_staff" "3"
    |> with_file "/etc/contract_mgr" "5"
    |> with_dir "/tmp"
    |> with_endpoint "hr" [ "alice"; "STAFF"; "ENG" ])

(* Mutating the title ("STAFF" -> off-by-one) flips the branch condition:
   the slave takes the manager path.  LDX must tolerate the syscall
   differences and still align at the sends, catching the raise leak. *)
let test_fig2_title_leak () =
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" ~nth:2 () ];
      Engine.sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config fig2_src fig2_world in
  check bool "leak" true r.Engine.leak;
  check bool "syscall diffs tolerated" true (r.Engine.syscall_diffs > 0);
  (* the name does NOT leak: only the raise send differs *)
  let kinds = List.map (fun rep -> rep.Engine.kind) r.Engine.reports in
  check bool "args-differ at the raise sink" true
    (List.mem Engine.Args_differ kinds);
  check int "exactly one tainted sink" 1 r.Engine.tainted_sinks

(* Mutating the name (1st recv) changes only the data flowing to the
   first send: one tainted sink, no path divergence. *)
let test_fig2_name_leak_data_dep () =
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" ~nth:1 () ];
      Engine.sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config fig2_src fig2_world in
  check bool "leak" true r.Engine.leak;
  check int "one tainted sink" 1 r.Engine.tainted_sinks;
  check int "no path divergence" 0
    (List.length
       (List.filter
          (fun rep -> rep.Engine.kind <> Engine.Args_differ)
          r.Engine.reports))

(* Mutating the department when title=STAFF: the slave still takes the
   staff path (dept is never read there) — the master path doesn't read
   it either, so nothing diverges. *)
let test_fig2_irrelevant_source () =
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" ~nth:3 () ];
      Engine.sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config fig2_src fig2_world in
  check bool "no leak" false r.Engine.leak;
  check int "no diffs" 0 r.Engine.syscall_diffs

(* ------------------------------------------------------------------ *)
(* Fig. 4/5: loop alignment with mutated trip counts.                  *)

let loop_src =
  {| fn main() {
       let fd = open("/in");
       let hdr = read(fd, 4);
       let n = atoi(substr(hdr, 0, 2));
       let m = atoi(substr(hdr, 2, 2));
       for (let i = 0; i < n; i = i + 1) {
         for (let j = 0; j < m; j = j + 1) {
           let x = read(fd, 1);
         }
         let ofd = creat("/tmp/out");
         write(ofd, itoa(i));
         close(ofd);
       }
       let sock = socket("up");
       send(sock, itoa(n * m));
     } |}

let loop_world nm =
  World.(
    empty
    |> with_file "/in" (nm ^ "xxxxxxxxxxxxxxxx")
    |> with_dir "/tmp"
    |> with_endpoint "up" [])

(* The header read is the source; off-by-one mutates "02" -> "12"-ish
   (first char bumped), changing n drastically: trip counts differ, yet
   the engine must realign at the final send and report the n*m leak. *)
let test_loop_trip_count_divergence () =
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"read" ~nth:1 () ];
      Engine.sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config loop_src (loop_world "0202") in
  check bool "leak at send" true r.Engine.leak;
  check bool "syscall diffs from extra iterations" true
    (r.Engine.syscall_diffs > 0);
  check (Alcotest.option Alcotest.string) "slave no trap" None
    r.Engine.slave.Engine.trap

let test_loop_equal_inputs_align () =
  let r = Executed.run_source ~config:no_sources loop_src (loop_world "0303") in
  check int "no diffs" 0 r.Engine.syscall_diffs;
  check bool "no leak" false r.Engine.leak

(* ------------------------------------------------------------------ *)
(* Indirect calls and recursion keep alignment (Sec. 6).               *)

let test_indirect_call_alignment () =
  let world = World.(empty |> with_endpoint "c" [ "5" ]) in
  let config =
    { Engine.default_config with Engine.sinks = Engine.Network_outputs }
  in
  let r =
    Engine.run_source ~config
      {| fn handler_a(x) { print("a"); return x * 2; }
         fn handler_b(x) { print("b"); print("b2"); return x + 100; }
         fn main() {
           let sock = socket("c");
           let v = atoi(recv(sock));
           let h = @handler_a;
           if (v > 3) { h = @handler_b; }
           let out = h(v);
           send(sock, itoa(out));
         } |}
      world
  in
  (* off-by-one: 5 -> 6; both pick handler_b; output differs -> leak *)
  check bool "leak" true r.Engine.leak;
  check (Alcotest.option Alcotest.string) "slave ok" None r.Engine.slave.Engine.trap

let test_indirect_call_divergent_targets () =
  let world = World.(empty |> with_endpoint "c" [ "3" ]) in
  let config =
    { Engine.default_config with Engine.sinks = Engine.Network_outputs }
  in
  let r =
    Engine.run_source ~config
      {| fn handler_a(x) { print("a"); return x * 2; }
         fn handler_b(x) { print("b"); print("b2"); return x + 100; }
         fn main() {
           let sock = socket("c");
           let v = atoi(recv(sock));
           let h = @handler_a;
           if (v > 3) { h = @handler_b; }
           let out = h(v);
           send(sock, itoa(out));
         } |}
      world
  in
  (* 3 -> 4 flips the handler: syscalls inside the handlers misalign,
     the final send still aligns and differs *)
  check bool "leak" true r.Engine.leak;
  check bool "diffs inside handlers" true (r.Engine.syscall_diffs > 0);
  check (Alcotest.option Alcotest.string) "slave ok" None r.Engine.slave.Engine.trap

let test_recursion_alignment () =
  let world = World.(empty |> with_endpoint "c" [ "4" ]) in
  let config =
    { Engine.default_config with Engine.sinks = Engine.Network_outputs }
  in
  let r =
    Engine.run_source ~config
      {| fn walk(n) {
           if (n <= 0) { return 0; }
           print(itoa(n));
           return n + walk(n - 1);
         }
         fn main() {
           let sock = socket("c");
           let d = atoi(recv(sock));
           let s = walk(d);
           send(sock, itoa(s));
         } |}
      world
  in
  (* depth 4 -> 5: different recursion depth, extra prints misaligned,
     send aligns and leaks the sum *)
  check bool "leak" true r.Engine.leak;
  check (Alcotest.option Alcotest.string) "slave ok" None r.Engine.slave.Engine.trap

(* ------------------------------------------------------------------ *)
(* Divergence kinds.                                                   *)

let test_missing_in_slave_sink () =
  (* master sends (secret=1), slave (secret=2) does not *)
  let world = World.(empty |> with_endpoint "c" [ "1" ]) in
  let config =
    { Engine.default_config with Engine.sinks = Engine.Network_outputs }
  in
  let r =
    Engine.run_source ~config
      {| fn main() {
           let sock = socket("c");
           let secret = atoi(recv(sock));
           if (secret == 1) { send(sock, "hello"); }
           print("done");
         } |}
      world
  in
  check bool "leak" true r.Engine.leak;
  let kinds = List.map (fun rep -> rep.Engine.kind) r.Engine.reports in
  check bool "missing in slave" true (List.mem Engine.Missing_in_slave kinds)

let test_missing_in_master_sink () =
  let world = World.(empty |> with_endpoint "c" [ "2" ]) in
  let config =
    { Engine.default_config with Engine.sinks = Engine.Network_outputs }
  in
  let r =
    Engine.run_source ~config
      {| fn main() {
           let sock = socket("c");
           let secret = atoi(recv(sock));
           if (secret == 3) { send(sock, "hello"); }
           print("done");
         } |}
      world
  in
  (* 2 -> 3 in the slave: the send appears only in the slave *)
  check bool "leak" true r.Engine.leak;
  let kinds = List.map (fun rep -> rep.Engine.kind) r.Engine.reports in
  check bool "missing in master" true (List.mem Engine.Missing_in_master kinds)

(* ------------------------------------------------------------------ *)
(* Resource tainting: once a file diverges, later accesses decouple.   *)

let test_resource_tainting () =
  let world = World.(empty |> with_endpoint "c" [ "1" ] |> with_dir "/tmp") in
  let config =
    { Engine.default_config with Engine.sinks = Engine.Network_outputs }
  in
  let r =
    Engine.run_source ~config
      {| fn main() {
           let sock = socket("c");
           let secret = atoi(recv(sock));
           let fd = creat("/tmp/log");
           if (secret == 1) { write(fd, "one"); }
           write(fd, "common");
           close(fd);
           let fd2 = open("/tmp/log");
           let data = read(fd2, 100);
           send(sock, data);
         } |}
      world
  in
  (* master writes "onecommon", slave "common": the file is tainted at the
     divergent write; the slave's read must see its own private "common"
     (not the master's), making the send differ -> leak *)
  check bool "leak" true r.Engine.leak;
  check (Alcotest.option Alcotest.string) "slave ok" None r.Engine.slave.Engine.trap

(* ------------------------------------------------------------------ *)
(* Alignment positions.                                                *)

let test_align_order_loops () =
  let mk cnt loops = { Align.cnt; loops } in
  (* same loop, later iteration is ahead *)
  check bool "iter order" true
    (Align.compare [ mk 3 [ (0, 2) ] ] [ mk 3 [ (0, 1) ] ] > 0);
  (* deeper segment at equal prefix is ahead *)
  check bool "segment depth" true
    (Align.compare [ mk 3 []; mk 0 [] ] [ mk 3 [] ] > 0);
  (* counter dominates when loop sets differ *)
  check bool "cnt order" true
    (Align.compare [ mk 5 [] ] [ mk 3 [ (1, 9) ] ] > 0);
  check int "equal" 0
    (Align.compare
       [ mk 2 [ (0, 1); (1, 0) ] ]
       [ mk 2 [ (0, 1); (1, 0) ] ])

let test_mutation_strategies () =
  List.iter
    (fun (name, s) ->
       let v = Ldx_osim.Sval.I 41 in
       let v' = Mutation.mutate s v in
       check bool (name ^ " changes int") true (not (Ldx_osim.Sval.equal v v'))
       )
    [ ("off-by-one", Mutation.Off_by_one);
      ("bitflip", Mutation.Bitflip);
      ("add", Mutation.Add_constant 7);
      ("random", Mutation.Random_replace 99) ];
  let s = Ldx_osim.Sval.S "hello" in
  check bool "off-by-one changes string" true
    (not (Ldx_osim.Sval.equal s (Mutation.mutate Mutation.Off_by_one s)))

(* Determinism: the same dual run twice gives identical results. *)
let test_engine_deterministic () =
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" ~nth:2 () ];
      Engine.sinks = Engine.Network_outputs }
  in
  let r1 = Engine.run_source ~config fig2_src fig2_world in
  let r2 = Engine.run_source ~config fig2_src fig2_world in
  check int "same diffs" r1.Engine.syscall_diffs r2.Engine.syscall_diffs;
  check int "same sinks" r1.Engine.tainted_sinks r2.Engine.tainted_sinks;
  check int "same wall cycles" r1.Engine.wall_cycles r2.Engine.wall_cycles

(* Overhead sanity: dual execution wall clock within a small factor of
   native (it must NOT be ~2x, since the slave runs on its own CPU). *)
let test_overhead_model () =
  let native = Engine.native_cycles aligned_src aligned_world in
  let r = run ~config:no_sources ~world:aligned_world aligned_src in
  let overhead =
    float_of_int (r.Engine.wall_cycles - native) /. float_of_int native
  in
  check bool "native positive" true (native > 0);
  check bool
    (Printf.sprintf "overhead %.3f within 30%%" overhead)
    true
    (overhead >= 0.0 && overhead < 0.30)

let tests =
  [ Alcotest.test_case "no mutation, no diffs" `Quick test_no_mutation_no_diffs;
    Alcotest.test_case "vacuous source" `Quick test_vacuous_source_match_no_mutation;
    Alcotest.test_case "fig1a data dep" `Quick test_fig1a_data_dep;
    Alcotest.test_case "fig1b control dep strong" `Quick
      test_fig1b_control_dep_strong;
    Alcotest.test_case "fig1c weak causality" `Quick
      test_fig1c_weak_causality_not_reported;
    Alcotest.test_case "fig1d missing update" `Quick test_fig1d_missing_update;
    Alcotest.test_case "fig2 title leak" `Quick test_fig2_title_leak;
    Alcotest.test_case "fig2 name leak" `Quick test_fig2_name_leak_data_dep;
    Alcotest.test_case "fig2 irrelevant source" `Quick test_fig2_irrelevant_source;
    Alcotest.test_case "loop trip divergence" `Quick
      test_loop_trip_count_divergence;
    Alcotest.test_case "loop equal inputs" `Quick test_loop_equal_inputs_align;
    Alcotest.test_case "indirect call alignment" `Quick
      test_indirect_call_alignment;
    Alcotest.test_case "indirect divergent targets" `Quick
      test_indirect_call_divergent_targets;
    Alcotest.test_case "recursion alignment" `Quick test_recursion_alignment;
    Alcotest.test_case "missing in slave" `Quick test_missing_in_slave_sink;
    Alcotest.test_case "missing in master" `Quick test_missing_in_master_sink;
    Alcotest.test_case "resource tainting" `Quick test_resource_tainting;
    Alcotest.test_case "align order" `Quick test_align_order_loops;
    Alcotest.test_case "mutation strategies" `Quick test_mutation_strategies;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "overhead model" `Quick test_overhead_model ]
