(* Counter instrumentation tests, including the paper's Fig. 2 example. *)

module Ir = Ldx_cfg.Ir
module Lower = Ldx_cfg.Lower
module Counter = Ldx_instrument.Counter

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let instr src = Counter.instrument (Lower.lower_source src)

(* The running example of the paper (Fig. 2): an employee-record program
   whose raise computation branches on the secret title. *)
let fig2_src =
  {| fn s_raise(contract) {
       let fd = open(contract);
       let data = read(fd, 100);
       return atoi(data);
     }
     fn m_raise(salary) {
       let raise = s_raise("/etc/contract_mgr");
       if (salary > 5000) {
         let fd = creat("/tmp/seniors");
         write(fd, itoa(salary));
       }
       return raise + 2;
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
         let age = recv(sock);
         if (age == "SENIOR") { raise = raise + 1; }
       }
       send(sock, name);
       send(sock, itoa(raise));
     } |}

let test_fig2_fcnt () =
  let _, stats = instr fig2_src in
  let fcnt name =
    let fs =
      List.find (fun (f : Counter.func_stats) -> String.equal f.Counter.fname name)
        stats.Counter.per_func
    in
    fs.Counter.fcnt
  in
  (* s_raise: open + read = 2 (as in the paper) *)
  check int "s_raise fcnt" 2 (fcnt "s_raise");
  (* m_raise: s_raise(2) + creat + write compensated = 4
     (the paper's MRaise has 3 because its write is a single syscall;
      ours opens the file too) *)
  check int "m_raise fcnt" 4 (fcnt "m_raise");
  (* main: socket + 2 recv + max(staff: 2, mgr: 4 + recv) + 2 sends *)
  check int "main fcnt" 10 (fcnt "main")

let test_fig2_instrumentation_added () =
  let p, stats = instr fig2_src in
  check bool "added compensation" true (stats.Counter.instrs_added > 0);
  check bool "instrumentation present" true (Ir.total_instrumentation p > 0)

let test_no_compensation_for_balanced_branches () =
  (* both branches have one syscall: no Cnt_add needed on the join *)
  let p, _ =
    instr
      {| fn main() {
           let x = rand();
           if (x > 5) { print("a"); } else { print("b"); }
           print("end");
         } |}
  in
  let cnt_adds =
    Ir.count_instrs_if (function Ir.Cnt_add _ -> true | _ -> false) p
  in
  check int "no cnt_add" 0 cnt_adds

let test_compensation_for_unbalanced_branches () =
  let p, _ =
    instr
      {| fn main() {
           let x = rand();
           if (x > 5) { print("a"); print("b"); }
           print("end");
         } |}
  in
  let adds = ref [] in
  Ir.iter_instrs p (fun _ _ i ->
      match i with Ir.Cnt_add k -> adds := k :: !adds | _ -> ());
  check (Alcotest.list int) "one +2 compensation" [ 2 ] !adds

let test_loop_instrumentation () =
  let p, stats =
    instr
      {| fn main() {
           let n = rand();
           for (let i = 0; i < n; i = i + 1) { print(itoa(i)); }
           print("done");
         } |}
  in
  check int "one instrumented loop" 1 stats.Counter.loops_instrumented;
  let backs =
    Ir.count_instrs_if (function Ir.Loop_back _ -> true | _ -> false) p
  in
  let enters =
    Ir.count_instrs_if (function Ir.Loop_enter _ -> true | _ -> false) p
  in
  let exits =
    Ir.count_instrs_if (function Ir.Loop_exit _ -> true | _ -> false) p
  in
  check int "one backedge" 1 backs;
  check int "one enter" 1 enters;
  check bool "has exit" true (exits >= 1)

let test_syscall_free_loop_not_instrumented () =
  let p, stats =
    instr
      {| fn main() {
           let s = 0;
           for (let i = 0; i < 1000; i = i + 1) { s = s + i; }
           print(itoa(s));
         } |}
  in
  check int "no instrumented loops" 0 stats.Counter.loops_instrumented;
  let backs =
    Ir.count_instrs_if (function Ir.Loop_back _ -> true | _ -> false) p
  in
  check int "no barriers" 0 backs

let test_inactive_loops_config () =
  let src =
    {| fn main() {
         let s = 0;
         for (let i = 0; i < 10; i = i + 1) { s = s + i; }
         print(itoa(s));
       } |}
  in
  let _, stats =
    Counter.instrument
      ~config:{ Counter.default_config with Counter.instrument_inactive_loops = true }
      (Lower.lower_source src)
  in
  check int "forced instrumentation" 1 stats.Counter.loops_instrumented

let test_recursive_marked_fresh () =
  let p, stats =
    instr
      {| fn f(n) { if (n <= 0) { return 0; } print(itoa(n)); return f(n - 1); }
         fn main() { let x = f(3); print("end"); } |}
  in
  check int "one recursive func" 1 stats.Counter.recursive_funcs;
  let fresh =
    Ir.count_instrs_if
      (function Ir.Call { fresh_frame = true; _ } -> true | _ -> false)
      p
  in
  (* the self-call inside f and the call from main are both fresh *)
  check int "fresh call sites" 2 fresh

let test_static_counters_path_invariance_manual () =
  (* cnt_in at the join of an if must equal max of both branch exits *)
  let p =
    Lower.lower_source
      {| fn main() {
           let x = rand();
           if (x) { print("a"); print("b"); } else { print("c"); }
           print("join");
         } |}
  in
  let m = Ir.find_func_exn p "main" in
  let cnts = Counter.static_counters [] m in
  (* find the block containing the "join" syscall; its cnt_out must be 4:
     rand(1) + max(2,1) + 1 *)
  let join_cnt =
    List.filter_map
      (fun (bid, _cin, cout) ->
         let b = m.Ir.blocks.(bid) in
         let has_join =
           Array.exists
             (function
               | Ir.Syscall { args = [ Ldx_lang.Ast.Str "join" ]; _ } -> true
               | _ -> false)
             b.Ir.instrs
         in
         if has_join then Some cout else None)
      cnts
  in
  check (Alcotest.list int) "join cnt" [ 4 ] join_cnt

let test_max_static_cnt () =
  let _, stats =
    instr
      {| fn main() {
           print("1"); print("2"); print("3");
         } |}
  in
  check int "max static cnt" 3 stats.Counter.max_static_cnt

(* The paper's Fig. 4/5 loop example: the runtime counter sequence at
   syscalls must match the figure — bounded inside loops (resets on the
   back edges), bumped past in-loop values at the exits. *)
let test_fig4_counter_sequence () =
  let src =
    {| fn main() {
         let fd = open("/in");
         let hdr = read(fd, 4);
         let n = atoi(substr(hdr, 0, 2));
         let m = atoi(substr(hdr, 2, 2));
         for (let i = 0; i < n; i = i + 1) {
           for (let j = 0; j < m; j = j + 1) {
             let x = read(fd, 1);
           }
           print("w" + itoa(i));
         }
         print("send");
       } |}
  in
  let world =
    Ldx_osim.World.(empty |> with_file "/in" "0202abcdefgh")
  in
  let o = Ldx_vm.Driver.run_source ~instrument:true ~record_trace:true src world in
  (match o.Ldx_vm.Driver.trap with
   | None -> ()
   | Some m -> Alcotest.failf "trap: %s" m);
  let counters =
    List.map (fun t -> t.Ldx_vm.Driver.counter) o.Ldx_vm.Driver.trace
  in
  (* open read | [read read] write | [read read] write | send
     1    2      3    3    4        3    3    4         5     *)
  check (Alcotest.list int) "Fig. 4 counter sequence"
    [ 1; 2; 3; 3; 4; 3; 3; 4; 5 ] counters

let test_indirect_sites_counted () =
  let _, stats =
    instr
      {| fn h() { print("h"); return 0; }
         fn main() { let f = @h; let x = f(); print("m"); } |}
  in
  check int "indirect sites" 1 stats.Counter.indirect_sites

(* A hand-built irreducible CFG (a two-entry cycle b1 <-> b2, no back
   edge) cannot come out of the lowering; instrumenting one must fail
   with the reducibility error. *)
let test_irreducible_refused () =
  let c = Ldx_lang.Ast.Var "c" in
  let block bid term = { Ir.bid; instrs = [||]; term } in
  let f =
    { Ir.fname = "main"; params = []; entry = 0;
      blocks =
        [| block 0 (Ir.Branch (c, 1, 2)); block 1 (Ir.Jump 2);
           block 2 (Ir.Branch (c, 1, 3)); block 3 (Ir.Ret None) |] }
  in
  let p = { Ir.funcs = [| f |]; n_sites = 0; n_loops = 0 } in
  match Counter.instrument p with
  | exception Failure m ->
    check Alcotest.string "message"
      "Counter.instrument_func: irreducible CFG in main" m
  | _ -> Alcotest.fail "expected an irreducible-CFG failure"

let tests =
  [ Alcotest.test_case "fig2 fcnt" `Quick test_fig2_fcnt;
    Alcotest.test_case "fig2 instrumentation" `Quick test_fig2_instrumentation_added;
    Alcotest.test_case "balanced branches" `Quick
      test_no_compensation_for_balanced_branches;
    Alcotest.test_case "unbalanced branches" `Quick
      test_compensation_for_unbalanced_branches;
    Alcotest.test_case "loop instrumentation" `Quick test_loop_instrumentation;
    Alcotest.test_case "syscall-free loop skipped" `Quick
      test_syscall_free_loop_not_instrumented;
    Alcotest.test_case "inactive loop config" `Quick test_inactive_loops_config;
    Alcotest.test_case "recursive fresh frames" `Quick test_recursive_marked_fresh;
    Alcotest.test_case "static counters manual" `Quick
      test_static_counters_path_invariance_manual;
    Alcotest.test_case "max static cnt" `Quick test_max_static_cnt;
    Alcotest.test_case "fig4 counter sequence" `Quick test_fig4_counter_sequence;
    Alcotest.test_case "indirect sites counted" `Quick test_indirect_sites_counted;
    Alcotest.test_case "irreducible CFG refused" `Quick test_irreducible_refused ]
