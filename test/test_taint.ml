(* The taint baselines (Ldx_taint.Tracker): the propagation rules one
   program each, under both models, and the tracker's runs against the
   VM's on the frozen corpus. *)

module Tracker = Ldx_taint.Tracker
module Driver = Ldx_vm.Driver
module Corpus = Test_vm_golden

let world = Corpus.test_world

(* One program per rule; the default recv sources (the endpoint sends
   "3", "14", ...) and output sinks; the tainted sinks expected under
   TaintGrind and under LibDFT. *)
let rules =
  [ ("binop: result wrapped iff an operand is",
     {| let x = recv(s); print(x + "!"); print("a" + "b"); |}, 1, 1);
    ("branch: no taint through control",
     {| let x = recv(s);
        if (x == "3") { print("three"); } else { print("other"); } |}, 0, 0);
    ("a[i]: element as stored, index taint dropped",
     {| let a = mkarray(2, "c"); let i = atoi(recv(s)) - 3; print(a[i]); |},
     0, 0);
    ("s[i]: the string's taint, not the index's",
     {| let x = recv(s); print(x[0]);
        let t = "abc"; let i = atoi(recv(s)) - 14; print(t[i]); |}, 1, 1);
    ("store: keeps the stored value's taint, drops the index's",
     {| let a = mkarray(2, "c"); a[1] = recv(s); print(a[0]); print(a[1]);
        let i = atoi(recv(s)) - 14; a[i] = "d"; print(a[0]); |}, 1, 1);
    ("mkarray: clean box, init as given",
     {| let n = atoi(recv(s)); let a = mkarray(n, "x"); print(len(a));
        let b = mkarray(2, recv(s)); print(b[1]); |}, 1, 1);
    ("len: the operand's taint, not its elements'",
     {| let t = recv(s); print(len(t));
        let a = mkarray(1, recv(s)); print(len(a)); |}, 1, 1);
    ("libdft_unmodeled builtin: clean under LibDFT",
     {| let x = recv(s); print(substr(x, 0, 1)); print(itoa(atoi(x))); |},
     2, 1);
    ("spawn: the argument keeps its taint",
     {| let t = spawn(@worker, recv(s)); join(t); |}, 1, 1);
    ("join: the result keeps its taint",
     {| let t = spawn(@source, 0); print(join(t)); |}, 1, 1);
    ("thread-op control arguments read through",
     {| let k = atoi(recv(s)) - 3;
        lock(k); unlock(k);
        let t = spawn(@worker, "w") + k; join(t);
        signal(10 + k, @handler); sigsend(10);
        alarm(1 + k); print("tick");
        let j = setjmp(k);
        if (j == 0) { longjmp(k); }
        print("end"); |}, 0, 0) ]

let program body =
  {| fn worker(v) { print(v); return 0; }
     fn source(v) { let s = socket("in"); return recv(s); }
     fn handler(signo) { print("sig"); return 0; }
     fn main() { let s = socket("in"); |} ^ body ^ " }"

let test_rules () =
  List.iter
    (fun (rule, body, tg, ld) ->
       let src = program body in
       let native = Driver.run_source src world in
       Alcotest.(check (option string)) (rule ^ ": native run") None
         native.Driver.trap;
       List.iter
         (fun (model, expected) ->
            let r =
              Tracker.run_source
                ~config:{ Tracker.default_config with Tracker.model } src world
            in
            Alcotest.(check (option string)) (rule ^ ": trap") None
              r.Tracker.trap;
            Alcotest.(check string) (rule ^ ": stdout") native.Driver.stdout
              r.Tracker.stdout;
            Alcotest.(check int) (rule ^ ": tainted sinks") expected
              r.Tracker.tainted_sinks)
         [ (Tracker.Taintgrind, tg); (Tracker.Libdft, ld) ])
    rules

(* P12 on every corpus case: stdout, trap and steps of the tracker's
   runs (both models) are the native run's.  Among them stress-001,
   which takes a setjmp, and stress-003, which installs a signal
   handler: the tracker once refused both (a trap at the setjmp, resp.
   signal, syscall). *)
let test_corpus () =
  let differ =
    List.filter_map
      (fun (c : Corpus.case) ->
         let prog = Ldx_cfg.Lower.lower_source c.Corpus.src in
         if List.for_all fst (Test_properties.taint_runs prog world) then None
         else Some c.Corpus.name)
      (Corpus.read_corpus ())
  in
  Alcotest.(check (list string)) "cases run differently" [] differ

let tests =
  [ Alcotest.test_case "propagation rules under both models" `Quick
      test_rules;
    Alcotest.test_case "tracker runs as the VM on the corpus" `Quick
      test_corpus ]
