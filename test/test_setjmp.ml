(* setjmp/longjmp: VM semantics and counter-stack restoration (Sec. 6). *)

module Engine = Ldx_core.Engine
module World = Ldx_osim.World
module Driver = Ldx_vm.Driver

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool

let run ?(world = World.empty) ?(instrument = true) src =
  Driver.run_source ~instrument src world

let no_trap (o : Driver.outcome) =
  match o.Driver.trap with
  | None -> ()
  | Some m -> Alcotest.failf "unexpected trap: %s" m

let test_basic_setjmp () =
  let o =
    run
      {| fn main() {
           let j = setjmp(1);
           if (j == 0) { print("first"); }
           else { print("again"); }
         } |}
  in
  no_trap o;
  check string "setjmp returns 0 initially" "first" o.Driver.stdout

let test_longjmp_loops_back () =
  let o =
    run
      {| fn main() {
           let tries = 0;
           let j = setjmp(1);
           tries = tries + 1;
           print(itoa(tries) + ";");
           if (tries < 3) { longjmp(1); }
           print("done");
         } |}
  in
  no_trap o;
  check string "retry loop via longjmp" "1;2;3;done" o.Driver.stdout

let test_longjmp_across_frames () =
  let o =
    run
      {| fn deep(n) {
           if (n == 0) {
             print("bail;");
             longjmp(7);
           }
           return deep(n - 1);
         }
         fn main() {
           let j = setjmp(7);
           if (j == 0) {
             let x = deep(3);
             print("unreachable");
           } else {
             print("recovered");
           }
         } |}
  in
  no_trap o;
  check string "non-local exit" "bail;recovered" o.Driver.stdout

let test_longjmp_unset_traps () =
  let o = run {| fn main() { longjmp(9); print("no"); } |} in
  check bool "trapped" true (o.Driver.trap <> None)

(* The paper's requirement: the counter stack is saved at setjmp and
   restored at longjmp, so two executions that both longjmp stay
   aligned. *)
let test_dual_alignment_with_longjmp () =
  let src =
    {| fn main() {
         let s = socket("c");
         let attempts = 0;
         let j = setjmp(1);
         attempts = attempts + 1;
         let tok = recv(s);
         if (tok == "retry" && attempts < 4) { longjmp(1); }
         send(s, "attempts=" + itoa(attempts));
       } |}
  in
  let world =
    World.(empty |> with_endpoint "c" [ "retry"; "retry"; "ok" ])
  in
  let config =
    { Engine.default_config with
      Engine.sources = []; sinks = Engine.Network_outputs }
  in
  let r = Executed.run_source ~config src world in
  check (Alcotest.option string) "slave clean" None r.Engine.slave.Engine.trap;
  check Alcotest.int "no diffs" 0 r.Engine.syscall_diffs;
  check bool "no leak" false r.Engine.leak

(* Divergent longjmp: one execution jumps, the other does not — the
   misalignment must be reported, not deadlock or trap. *)
let test_dual_divergent_longjmp () =
  let src =
    {| fn main() {
         let s = socket("c");
         let secret = atoi(recv(s));
         let j = setjmp(1);
         if (j == 0 && secret == 5) {
           print("retrying;");
           longjmp(1);
         }
         send(s, "jumps=" + itoa(j));
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "5" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let r = Engine.run_source ~config src world in
  check (Alcotest.option string) "slave clean" None r.Engine.slave.Engine.trap;
  check bool "causality reported" true r.Engine.leak

let tests =
  [ Alcotest.test_case "setjmp returns 0" `Quick test_basic_setjmp;
    Alcotest.test_case "longjmp loops back" `Quick test_longjmp_loops_back;
    Alcotest.test_case "longjmp across frames" `Quick
      test_longjmp_across_frames;
    Alcotest.test_case "longjmp unset traps" `Quick test_longjmp_unset_traps;
    Alcotest.test_case "dual alignment with longjmp" `Quick
      test_dual_alignment_with_longjmp;
    Alcotest.test_case "dual divergent longjmp" `Quick
      test_dual_divergent_longjmp ]
