(* Fault injection: per-kind OS semantics, deterministic schedules, and
   the false-positive invariant — the tentpole soundness claim: with no
   configured sources, ANY fault plan yields leak = false, zero sink
   reports and zero divergences, because environment misbehaviour is
   recorded by the master and replayed through the coupling, never
   re-rolled (DESIGN.md "Fault model"). *)

module Engine = Ldx_core.Engine
module Counter = Ldx_instrument.Counter
module Lower = Ldx_cfg.Lower
module World = Ldx_osim.World
module Os = Ldx_osim.Os
module Fault = Ldx_osim.Fault
module Sval = Ldx_osim.Sval
module Net = Ldx_osim.Net
module Gen_minic = Ldx_genprog.Gen_minic

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let str = Alcotest.string

let sval = Alcotest.testable (fun fmt v -> Fmt.string fmt (Sval.to_string v)) Sval.equal

let os_with ?(world = World.empty) plan =
  let os = Os.create world in
  Os.set_faults os (Some plan);
  os

(* ------------------------------------------------------------------ *)
(* Fault kinds at the Os dispatch point.                               *)

let file_world = World.(empty |> with_file "/a" "abcdef")

let test_error_return () =
  let os = os_with ~world:file_world (Fault.plan [ Fault.rule ~sys:"open" (Fault.Error_return (Sval.I (-7))) ]) in
  check sval "open replaced by the injected error" (Sval.I (-7))
    (Os.exec os "open" [ Sval.S "/a" ]);
  check int "one fault injected" 1 (Os.faults_injected os)

let test_short_read () =
  let os = os_with ~world:file_world (Fault.plan [ Fault.rule ~sys:"read" (Fault.Short_read 2) ]) in
  let fd = match Os.exec os "open" [ Sval.S "/a" ] with Sval.I fd -> fd | _ -> assert false in
  check sval "read capped at 2 bytes" (Sval.S "ab")
    (Os.exec os "read" [ Sval.I fd; Sval.I 10 ]);
  (* the file position advanced by the SHORT length: the tail is still
     readable, like a real short read *)
  check sval "next read resumes after the short chunk" (Sval.S "cd")
    (Os.exec os "read" [ Sval.I fd; Sval.I 2 ])

let test_short_recv () =
  let world = World.(empty |> with_endpoint "c" [ "hello" ]) in
  let os = os_with ~world (Fault.plan [ Fault.rule ~sys:"recv" (Fault.Short_read 3) ]) in
  let fd = match Os.exec os "socket" [ Sval.S "c" ] with Sval.I fd -> fd | _ -> assert false in
  check sval "recv truncated to 3 bytes" (Sval.S "hel")
    (Os.exec os "recv" [ Sval.I fd ])

let test_transient () =
  let world = World.(empty |> with_endpoint "c" [ "m1"; "m2" ]) in
  let os = os_with ~world (Fault.plan [ Fault.rule ~sys:"recv" ~nth:1 Fault.Transient ]) in
  let fd = match Os.exec os "socket" [ Sval.S "c" ] with Sval.I fd -> fd | _ -> assert false in
  check sval "first recv fails transiently" (Sval.S "")
    (Os.exec os "recv" [ Sval.I fd ]);
  (* EINTR-style: the syscall did NOT execute, so the message is still
     queued and the retry gets it *)
  check sval "retry receives the undisturbed message" (Sval.S "m1")
    (Os.exec os "recv" [ Sval.I fd ])

let test_drop_recv () =
  let world = World.(empty |> with_endpoint "c" [ "m1"; "m2" ]) in
  let os = os_with ~world (Fault.plan [ Fault.rule ~sys:"recv" ~nth:1 Fault.Drop_message ]) in
  let fd = match Os.exec os "socket" [ Sval.S "c" ] with Sval.I fd -> fd | _ -> assert false in
  check sval "dropped message reads empty" (Sval.S "")
    (Os.exec os "recv" [ Sval.I fd ]);
  (* unlike Transient, the message was consumed on the wire *)
  check sval "next recv gets the SECOND message" (Sval.S "m2")
    (Os.exec os "recv" [ Sval.I fd ])

let test_drop_send () =
  let world = World.(empty |> with_endpoint "c" []) in
  let os = os_with ~world (Fault.plan [ Fault.rule ~sys:"send" Fault.Drop_message ]) in
  let fd = match Os.exec os "socket" [ Sval.S "c" ] with Sval.I fd -> fd | _ -> assert false in
  check sval "send claims full delivery" (Sval.I 4)
    (Os.exec os "send" [ Sval.I fd; Sval.S "data" ]);
  let outbox =
    match Net.find os.Os.net "c" with Some e -> Net.outbox e | None -> []
  in
  check int "nothing reached the endpoint" 0 (List.length outbox)

let test_clock_skew () =
  let honest = Os.create World.empty in
  let skewed = os_with (Fault.plan [ Fault.rule ~sys:"time" (Fault.Clock_skew 100) ]) in
  let t0 = Os.exec honest "time" [] in
  let t1 = Os.exec skewed "time" [] in
  match (t0, t1) with
  | Sval.I a, Sval.I b -> check int "clock advanced by the skew" (a + 100) b
  | _ -> Alcotest.fail "time returned a non-integer"

(* ------------------------------------------------------------------ *)
(* Schedules: nth/site/prob selection and determinism.                 *)

let test_nth_selection () =
  let st = Fault.instantiate (Fault.plan [ Fault.rule ~sys:"recv" ~nth:2 Fault.Drop_message ]) in
  check bool "first occurrence honest" true (Fault.decide st ~sys:"recv" ~site:0 = None);
  check bool "second occurrence faulted" true (Fault.decide st ~sys:"recv" ~site:0 <> None);
  check bool "third occurrence honest again" true (Fault.decide st ~sys:"recv" ~site:0 = None)

let test_site_selection () =
  let st = Fault.instantiate (Fault.plan [ Fault.rule ~sys:"recv" ~site:7 Fault.Transient ]) in
  check bool "other site honest" true (Fault.decide st ~sys:"recv" ~site:3 = None);
  check bool "matching site faulted" true (Fault.decide st ~sys:"recv" ~site:7 <> None)

(* The seeded probability coin is a pure function of (seed, rule,
   occurrence): two instantiations replay the same fate sequence, and
   a ~50% rule actually fires sometimes and spares sometimes. *)
let test_prob_deterministic () =
  let plan = Fault.plan ~seed:42 [ Fault.rule ~sys:"recv" ~prob:50 Fault.Transient ] in
  let fates st = List.init 64 (fun _ -> Fault.decide st ~sys:"recv" ~site:0 <> None) in
  let a = fates (Fault.instantiate plan) in
  let b = fates (Fault.instantiate plan) in
  check bool "identical fate sequences" true (a = b);
  check bool "a 50% rule fires at least once" true (List.mem true a);
  check bool "a 50% rule spares at least once" true (List.mem false a)

(* A snapshot keeps the occurrence counters (Fault.copy_state): an OS
   rebuilt from its projection continues the schedule where the original
   was, and the two count independently from there. *)
let test_clone_continues_schedule () =
  let os = os_with (Fault.plan [ Fault.rule ~sys:"time" ~nth:2 Fault.Transient ]) in
  ignore (Os.exec os "time" []);                 (* occurrence 1: honest *)
  let c = Ldx_snap.Snap.os_of_sos (Ldx_snap.Snap.sos_of_os os) in
  check sval "rebuilt OS's next time call is occurrence 2" (Sval.I (-1))
    (Os.exec c "time" []);
  check sval "original's next time call is occurrence 2 too" (Sval.I (-1))
    (Os.exec os "time" [])

let test_parse_roundtrip () =
  match Fault.parse ~seed:9 "short=2:read@1,drop:recv%50,skew=100:time,error=-3:open#4" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
    check int "four rules" 4 (List.length p.Fault.rules);
    check str "pretty-print survives" "seed=9 short=2:read@1,drop:recv%50,skew=100:time,error=-3:open#4"
      (Fault.to_string p);
    (match Fault.parse ~seed:9 "short=2:read@1,drop:recv%50,skew=100:time,error=-3:open#4" with
     | Ok p2 -> check bool "parse is deterministic" true (p = p2)
     | Error e -> Alcotest.failf "reparse failed: %s" e)

let test_parse_errors () =
  let bad s = match Fault.parse s with Error _ -> true | Ok _ -> false in
  check bool "missing syscall separator rejected" true (bad "drop");
  check bool "unknown action rejected" true (bad "explode:recv");
  check bool "non-integer argument rejected" true (bad "short=x:read")

(* ------------------------------------------------------------------ *)
(* The false-positive invariant (tier-1).                              *)

let instrument src = fst (Counter.instrument (Lower.lower_source src))

(* A program exercising every faultable input class plus output sinks. *)
let chaos_src =
  {| fn main() {
       let s = socket("in");
       let a = atoi(recv(s));
       let b = atoi(recv(s));
       let t = time() & 15;
       let r = rand() & 7;
       let f = open("/a");
       let v = 0;
       if (f >= 0) { v = strlen(read(f, 4)); }
       send(s, itoa(a + b));
       print(itoa(t + r + v));
     } |}

let chaos_world =
  World.(
    empty |> with_file "/a" "abcdef"
    |> with_endpoint "in" [ "31"; "42"; "53" ])

let heavy_plan =
  Fault.plan ~seed:3
    [ Fault.rule ~sys:"recv" ~nth:1 Fault.Drop_message;
      Fault.rule ~sys:"recv" (Fault.Short_read 1);
      Fault.rule ~sys:"read" Fault.Transient;
      Fault.rule ~sys:"open" (Fault.Error_return (Sval.I (-1)));
      Fault.rule ~sys:"time" (Fault.Clock_skew 997);
      Fault.rule ~sys:"send" Fault.Drop_message ]

let no_source_config faults =
  { Engine.default_config with
    Engine.sources = [];
    faults = Some faults }

(* Zero sources + heavy faults => no leak, no reports, no divergences:
   the only delta between master and slave is the (empty) source set,
   so every faulted outcome is copied through the coupling. *)
let test_fp_invariant_heavy () =
  let r =
    Executed.run ~config:(no_source_config heavy_plan)
      (instrument chaos_src) chaos_world
  in
  check bool "no leak" false r.Engine.leak;
  check int "no sink reports" 0 (List.length r.Engine.reports);
  check int "no divergences" 0 r.Engine.syscall_diffs;
  check bool "faults actually fired" true
    (r.Engine.master.Engine.faults_injected > 0);
  (* the coupled slave advances the SAME schedule: its private OS
     consulted the plan on every copied syscall *)
  check int "slave's fault schedule tracked the master's"
    r.Engine.master.Engine.faults_injected
    r.Engine.slave.Engine.faults_injected;
  check str "identical outputs" r.Engine.master.Engine.stdout
    r.Engine.slave.Engine.stdout

(* With a real source configured, fault injection must not mask a real
   leak: the mutated recv still flows to the send sink. *)
let test_faults_do_not_mask_leaks () =
  let config =
    { (no_source_config heavy_plan) with
      Engine.sources = [ Engine.source ~sys:"recv" ~nth:2 () ] }
  in
  let r = Engine.run ~config (instrument chaos_src) chaos_world in
  check bool "the genuine leak is still detected" true r.Engine.leak

(* Dual execution under a fault plan is reproducible end to end. *)
let test_fault_run_deterministic () =
  let run () =
    Engine.run ~config:(no_source_config heavy_plan)
      (instrument chaos_src) chaos_world
  in
  check bool "two faulted runs are byte-identical" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* QCheck sweep: >= 50 random (program, plan) pairs, zero sources.     *)

let qcheck_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

let gen_case =
  QCheck2.Gen.pair Gen_minic.gen_program (QCheck2.Gen.int_bound 0x3FFFFFF)

let print_case (p, seed) =
  Printf.sprintf "seed=%d\n%s" seed (Gen_minic.print_program p)

(* For ANY fault plan and zero sources: leak = false, zero reports,
   zero divergences — the acceptance-criterion sweep (>= 50 plans). *)
let prop_fp_invariant ((p, seed) : Ldx_lang.Ast.program * int) =
  let prog, _ = Counter.instrument (Lower.lower_program p) in
  let plan = Fault.random ~rand:(Random.State.make [| seed |]) () in
  let r =
    Executed.run ~config:(no_source_config plan) prog qcheck_world
  in
  (not r.Engine.leak) && r.Engine.reports = [] && r.Engine.syscall_diffs = 0
  && r.Engine.master.Engine.faults_injected
     = r.Engine.slave.Engine.faults_injected

let qtest name count gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let tests =
  [ Alcotest.test_case "error return" `Quick test_error_return;
    Alcotest.test_case "short read" `Quick test_short_read;
    Alcotest.test_case "short recv" `Quick test_short_recv;
    Alcotest.test_case "transient failure leaves state intact" `Quick
      test_transient;
    Alcotest.test_case "dropped recv consumes the message" `Quick
      test_drop_recv;
    Alcotest.test_case "dropped send never delivers" `Quick test_drop_send;
    Alcotest.test_case "clock skew" `Quick test_clock_skew;
    Alcotest.test_case "nth occurrence selection" `Quick test_nth_selection;
    Alcotest.test_case "site selection" `Quick test_site_selection;
    Alcotest.test_case "probabilistic rules are seeded-deterministic"
      `Quick test_prob_deterministic;
    Alcotest.test_case "clone continues the fault schedule" `Quick
      test_clone_continues_schedule;
    Alcotest.test_case "spec parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "spec parse errors" `Quick test_parse_errors;
    Alcotest.test_case "FP invariant under heavy faults (tier-1)" `Quick
      test_fp_invariant_heavy;
    Alcotest.test_case "faults do not mask real leaks" `Quick
      test_faults_do_not_mask_leaks;
    Alcotest.test_case "faulted dual run deterministic" `Quick
      test_fault_run_deterministic;
    qtest "P15 no sources + any fault plan => no leak" 60 gen_case print_case
      prop_fp_invariant ]
