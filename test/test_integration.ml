(* Kitchen-sink integration: one program exercising every alignment-
   relevant feature at once — nested loops with breaks, recursion,
   indirect calls, signals, setjmp/longjmp, threads with locks, file and
   network I/O — dual-executed with and without mutation. *)

module Engine = Ldx_core.Engine
module World = Ldx_osim.World

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let kitchen_sink =
  {| // recursion + indirect dispatch
     fn fold_digits(s, i, f, acc) {
       if (i >= strlen(s)) { return acc; }
       let c = char_at(s, i);
       if (c >= 48 && c <= 57) { acc = f(acc, c - 48); }
       return fold_digits(s, i + 1, f, acc);
     }
     fn combine_add(a, b) { return a + b; }
     fn combine_max(a, b) { return max(a, b); }

     fn on_tick(signo) { print("t;"); return 0; }

     fn worker(ctx) {
       let shared = ctx[0];
       let wid = ctx[1];
       for (let k = 0; k < 2; k = k + 1) {
         lock(5);
         shared[0] = shared[0] + wid;
         unlock(5);
       }
       return wid;
     }

     fn main() {
       signal(14, @on_tick);
       alarm(6);
       let cfg = open("/etc/app.conf");
       let mode = read(cfg, 4);
       close(cfg);
       let sock = socket("feed");
       let combine = @combine_add;
       if (mode == "max") { combine = @combine_max; }

       // nested loops with data-dependent break
       let total = 0;
       let batches = 0;
       let stop = 0;
       while (stop == 0) {
         let msg = recv(sock);
         if (msg == "") { break; }
         batches = batches + 1;
         // inner loop over retries with an early exit
         for (let t = 0; t < 3; t = t + 1) {
           if (find(msg, "!") >= 0) { break; }
           let probe = stat("/etc/app.conf");
         }
         total = fold_digits(msg, 0, combine, total);
         if (batches >= 8) { stop = 1; }
       }

       // setjmp-protected finalization with one retry
       let tries = 0;
       let j = setjmp(1);
       tries = tries + 1;
       let ofd = creat("/out/report");
       write(ofd, "total=" + itoa(total) + " tries=" + itoa(tries));
       close(ofd);
       if (tries < 2) { longjmp(1); }

       // a worker pool stirs a shared cell under a lock
       let shared = mkarray(1, 0);
       let c1 = mkarray(2, 0); c1[0] = shared; c1[1] = 1;
       let c2 = mkarray(2, 0); c2[0] = shared; c2[1] = 2;
       let t1 = spawn(@worker, c1);
       let t2 = spawn(@worker, c2);
       join(t1); join(t2);
       send(sock, "sum=" + itoa(total) + " pool=" + itoa(shared[0]));
     } |}

let world =
  World.(
    empty
    |> with_dir "/etc" |> with_dir "/out"
    |> with_file "/etc/app.conf" "add"
    |> with_endpoint "feed"
      [ "a1b2"; "x9!"; "c3d4"; "55"; "zz!"; "67" ])

let net_sinks sources =
  { Engine.default_config with Engine.sources; sinks = Engine.Network_outputs }

let test_aligned () =
  let r = Executed.run_source ~config:(net_sinks []) kitchen_sink world in
  (match r.Engine.master.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "master: %s" m);
  (match r.Engine.slave.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "slave: %s" m);
  check int "no diffs" 0 r.Engine.syscall_diffs;
  check bool "no leak" false r.Engine.leak

let test_feed_leak () =
  let r =
    Engine.run_source
      ~config:(net_sinks [ Engine.source ~sys:"recv" ~arg:"feed" () ])
      kitchen_sink world
  in
  (match r.Engine.slave.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "slave: %s" m);
  check bool "digit sum leaks" true r.Engine.leak;
  check bool "divergence tolerated" true (r.Engine.syscall_diffs > 0)

let test_mode_leak () =
  (* mutating the combiner mode flips the indirect-call target: the sum
     becomes a max — pure control dependence into the sink *)
  let r =
    Engine.run_source
      ~config:
        { (net_sinks [ Engine.source ~sys:"read" ~arg:"/etc/app.conf" () ]) with
          Engine.strategy = Ldx_core.Mutation.Swap_substring ("add", "max") }
      kitchen_sink world
  in
  (match r.Engine.slave.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "slave: %s" m);
  check bool "mode leaks through indirect dispatch" true r.Engine.leak

let test_deterministic_under_seeds () =
  List.iter
    (fun (ms, ss) ->
       let config =
         { (net_sinks []) with Engine.master_seed = ms; slave_seed = ss }
       in
       let r = Engine.run_source ~config kitchen_sink world in
       check int
         (Printf.sprintf "seeds %d/%d aligned" ms ss)
         0 r.Engine.syscall_diffs)
    [ (0, 3); (9, 2); (31, 77) ]

let tests =
  [ Alcotest.test_case "kitchen sink aligned" `Quick test_aligned;
    Alcotest.test_case "kitchen sink feed leak" `Quick test_feed_leak;
    Alcotest.test_case "kitchen sink mode leak" `Quick test_mode_leak;
    Alcotest.test_case "kitchen sink seeds" `Quick
      test_deterministic_under_seeds ]
