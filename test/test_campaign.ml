(* Campaign layer + divergence-accounting regressions.

   - exact [syscall_diffs] pinned per divergence case (the case-2 path
     used to increment twice for one path-diff syscall pair);
   - [src_nth] occurrence counters keyed per spec index (structurally
     equal specs used to share one [Hashtbl.hash]-keyed counter);
   - master recordings are immutable: replaying one [master_out]
     through several slave passes yields identical results;
   - [Attribute.per_source] performs exactly one master pass;
   - a parallel campaign (jobs=4) is byte-identical to a sequential
     one (qcheck, random structured programs). *)

module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Attribute = Ldx_core.Attribute
module Mutation = Ldx_core.Mutation
module Counter = Ldx_instrument.Counter
module Lower = Ldx_cfg.Lower
module World = Ldx_osim.World
module Sval = Ldx_osim.Sval
module Gen_minic = Ldx_genprog.Gen_minic
module Obs = Ldx_obs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

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

let kinds (r : Engine.result) =
  List.map (fun (rep : Engine.sink_report) -> rep.Engine.kind)
    r.Engine.reports

(* ------------------------------------------------------------------ *)
(* Exact divergence accounting.                                        *)

(* Case 3 (aligned, same PC, different parameters): the mutated recv is
   coupled (a copy is not a difference); the dependent send is exactly
   one difference. *)
let test_diffs_case3 () =
  let src =
    {| fn main() { let s = socket("c"); let v = recv(s); send(s, v); } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "aa" ]) in
  let r =
    Engine.run_source
      ~config:(net_cfg [ Engine.source ~sys:"recv" () ])
      src world
  in
  clean r;
  check int "one syscall diff" 1 r.Engine.syscall_diffs;
  check bool "one args-differ report" true
    (kinds r = [ Engine.Args_differ ])

(* Case 2 (same counter, different PC): ONE path-diff syscall pair is
   ONE difference.  The old accounting incremented twice here, so this
   program reported syscall_diffs = 2. *)
let test_diffs_case2 () =
  let src =
    {| fn main() {
         let s = socket("c");
         let secret = atoi(recv(s));
         if (secret == 1) { send(s, "a"); } else { print("b"); }
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "1" ]) in
  let r =
    Engine.run_source
      ~config:(net_cfg [ Engine.source ~sys:"recv" () ])
      src world
  in
  clean r;
  check bool "path diff reported" true
    (List.mem Engine.Different_syscall (kinds r));
  check int "one syscall diff for one path-diff pair" 1
    r.Engine.syscall_diffs

(* Case 1, master-only: the slave (secret mutated to 4) exits before the
   send, so the master's send is dropped as master-only — one
   difference — plus the slave-only exit syscall. *)
let test_diffs_master_only () =
  let src =
    {| fn main() {
         let s = socket("c");
         let secret = atoi(recv(s));
         if (secret == 4) { exit(1); }
         send(s, "alive");
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "3" ]) in
  let r =
    Engine.run_source
      ~config:(net_cfg [ Engine.source ~sys:"recv" () ])
      src world
  in
  (match r.Engine.master.Engine.trap with
   | None -> ()
   | Some m -> Alcotest.failf "master trapped: %s" m);
  check bool "master-only sink reported" true
    (List.mem Engine.Missing_in_slave (kinds r));
  check int "slave-only exit + master-only send" 2 r.Engine.syscall_diffs

(* Case 1, slave-only: the master (secret 3) exits before the send, the
   slave (secret 4) survives and sends — one slave-only difference plus
   the master-only exit. *)
let test_diffs_slave_only () =
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
    Engine.run_source
      ~config:(net_cfg [ Engine.source ~sys:"recv" () ])
      src world
  in
  check bool "slave-only sink reported" true
    (List.mem Engine.Missing_in_master (kinds r));
  check int "master-only exit + slave-only send" 2 r.Engine.syscall_diffs

(* ------------------------------------------------------------------ *)
(* src_nth occurrence counters are per spec index.                     *)

(* Two structurally equal nth=2 specs: under the old Hashtbl.hash
   keying they shared one counter, so the SECOND spec saw count 2 on
   the FIRST recv and the first input was mutated.  Keyed per index,
   both specs fire on the second recv only. *)
let test_nth_spec_collision () =
  let src =
    {| fn main() {
         let s = socket("c");
         let a = recv(s);
         let b = recv(s);
         send(s, a);
         send(s, b);
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "aa"; "bb" ]) in
  let nth2 = Engine.source ~sys:"recv" ~nth:2 () in
  let r = Engine.run_source ~config:(net_cfg [ nth2; nth2 ]) src world in
  clean r;
  check int "exactly one mutated input" 1 r.Engine.mutated_inputs;
  match r.Engine.reports with
  | [ rep ] ->
    check bool "the SECOND recv's sink diverges" true
      (match rep.Engine.master_args with
       | Some args -> List.exists (Sval.equal (Sval.S "bb")) args
       | None -> false)
  | reps ->
    Alcotest.failf "expected exactly one report, got %d" (List.length reps)

(* A single nth spec still selects exactly the nth dynamic match. *)
let test_nth_single () =
  let src =
    {| fn main() {
         let s = socket("c");
         let a = recv(s);
         let b = recv(s);
         send(s, a);
         send(s, b);
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "aa"; "bb" ]) in
  let r =
    Engine.run_source
      ~config:(net_cfg [ Engine.source ~sys:"recv" ~nth:1 () ])
      src world
  in
  clean r;
  check int "one mutated input" 1 r.Engine.mutated_inputs;
  match r.Engine.reports with
  | [ rep ] ->
    check bool "the FIRST recv's sink diverges" true
      (match rep.Engine.master_args with
       | Some args -> List.exists (Sval.equal (Sval.S "aa")) args
       | None -> false)
  | reps ->
    Alcotest.failf "expected exactly one report, got %d" (List.length reps)

(* The taint tracker matches sources with the engine's matcher, so the
   same two cases hold there: [nth2; nth2] taints the SECOND recv only,
   as a single [nth2] does, and [nth1] taints the other send.  The
   tracker's own counters were keyed by [Hashtbl.hash spec]: the two
   equal specs shared one counter and tainted the first recv. *)
let test_tracker_nth_specs () =
  let src =
    {| fn main() {
         let s = socket("c");
         let a = recv(s);
         let b = recv(s);
         send(s, a);
         send(s, b);
       } |}
  in
  let world = World.(empty |> with_endpoint "c" [ "aa"; "bb" ]) in
  let sites sources =
    let r =
      Ldx_taint.Tracker.run_source
        ~config:
          { Ldx_taint.Tracker.default_config with
            Ldx_taint.Tracker.sources; sinks = Engine.Network_outputs }
        src world
    in
    check (Alcotest.option Alcotest.string) "no trap" None
      r.Ldx_taint.Tracker.trap;
    check int "one tainted sink" 1 r.Ldx_taint.Tracker.tainted_sinks;
    r.Ldx_taint.Tracker.tainted_sites
  in
  let nth n = Engine.source ~sys:"recv" ~nth:n () in
  let first = sites [ nth 1 ] and second = sites [ nth 2 ] in
  check bool "nth1 and nth2 taint different sends" true (first <> second);
  check (Alcotest.list int) "equal specs taint the second send" second
    (sites [ nth 2; nth 2 ])

(* ------------------------------------------------------------------ *)
(* Replayable master log.                                              *)

let attribution_src =
  {| fn main() {
       let x = socket("x");
       let y = socket("y");
       let vx = recv(x);
       let vy = recv(y);
       send(x, vx);
       send(y, vy);
     } |}

let attribution_world =
  World.(empty |> with_endpoint "x" [ "11" ] |> with_endpoint "y" [ "22" ])

let instrumented src =
  fst (Counter.instrument (Lower.lower_source src))

let test_replay_identical () =
  let prog = instrumented attribution_src in
  let config = net_cfg [ Engine.source ~sys:"recv" () ] in
  let mo = Engine.master_pass config prog attribution_world in
  let r1 = Engine.run_with_master config prog attribution_world mo in
  let r2 = Engine.run_with_master config prog attribution_world mo in
  check bool "two replays of one recording are identical" true (r1 = r2);
  let fresh = Engine.run ~config prog attribution_world in
  check bool "a replay equals a fresh dual execution" true (r1 = fresh)

(* Replays under DIFFERENT slave configs from one recording match fresh
   dual executions of those configs — the soundness fact the campaign
   layer rests on. *)
let test_replay_across_configs () =
  let prog = instrumented attribution_src in
  let base = net_cfg [ Engine.source ~sys:"recv" () ] in
  let mo = Engine.master_pass base prog attribution_world in
  List.iter
    (fun (_, strategy) ->
       let config = { base with Engine.strategy } in
       let replay = Engine.run_with_master config prog attribution_world mo in
       let fresh = Engine.run ~config prog attribution_world in
       check bool "replayed strategy run equals fresh run" true
         (replay = fresh))
    Mutation.all_strategies

(* ------------------------------------------------------------------ *)
(* Attribution on the campaign layer.                                  *)

let attribution_config =
  net_cfg
    [ Engine.source ~sys:"recv" ~arg:"ep:x" ();
      Engine.source ~sys:"recv" ~arg:"ep:y" ();
      Engine.source ~sys:"recv" () ]

let test_per_source_one_master () =
  let prog = instrumented attribution_src in
  let master_begins = ref 0 and slave_begins = ref 0 in
  let obs =
    Obs.Sink.of_fn (function
      | Obs.Event.Phase_begin Obs.Event.Master_run -> incr master_begins
      | Obs.Event.Phase_begin Obs.Event.Slave_run -> incr slave_begins
      | _ -> ())
  in
  let attrs =
    Attribute.per_source ~config:attribution_config ~obs prog
      attribution_world
  in
  check int "three attributions" 3 (List.length attrs);
  check int "exactly ONE master pass for K sources" 1 !master_begins;
  check int "one slave pass per source" 3 !slave_begins

let test_per_source_matches_isolated_runs () =
  let prog = instrumented attribution_src in
  let attrs =
    Attribute.per_source ~config:attribution_config prog attribution_world
  in
  List.iter
    (fun (a : Attribute.attribution) ->
       let isolated =
         Engine.run
           ~config:{ attribution_config with Engine.sources = [ a.Attribute.source ] }
           prog attribution_world
       in
       check bool "campaign attribution equals isolated dual execution"
         true (a.Attribute.result = isolated))
    attrs;
  (* and the x/y sinks attribute to their own sources *)
  match attrs with
  | [ ax; ay; _all ] ->
    check int "x-source taints one sink" 1
      ax.Attribute.result.Engine.tainted_sinks;
    check int "y-source taints one sink" 1
      ay.Attribute.result.Engine.tainted_sinks
  | _ -> Alcotest.fail "expected three attributions"

(* ------------------------------------------------------------------ *)
(* Parallel determinism.                                               *)

let campaign_params config =
  Campaign.of_strategies config Mutation.all_strategies
  @ Campaign.of_seeds config [ 1; 2 ]

let test_campaign_parallel_matches_sequential () =
  let prog = instrumented attribution_src in
  let config = attribution_config in
  let params = campaign_params config in
  let seq = Campaign.run ~jobs:1 ~config prog attribution_world params in
  (* [`Parallel] forces the domain-pool path even on hosts where [`Auto]
     would (correctly) fall back to sequential — this test is about the
     parallel path's determinism, not the mode heuristic *)
  let par =
    Campaign.run ~jobs:4 ~mode:`Parallel ~config prog attribution_world params
  in
  check int "same number of outcomes" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Campaign.outcome) (b : Campaign.outcome) ->
       check bool "parallel outcome byte-identical to sequential" true
         (a.Campaign.params = b.Campaign.params
          && a.Campaign.status = b.Campaign.status))
    seq par

(* ------------------------------------------------------------------ *)
(* The fan-out loop every campaign runs its tasks through.            *)

let never () = false

(* Every index reaches [record] exactly once, with its own [run]
   result, at any job count — more jobs than indexes included. *)
let test_fan_out_exactly_once () =
  List.iter
    (fun (jobs, k) ->
       let hits = Array.make k 0 in
       let mismatched = Atomic.make 0 in
       Campaign.fan_out ~jobs ~stop:never ~run:(fun i -> 3 * i)
         ~record:(fun i r ->
             if r <> 3 * i then Atomic.incr mismatched;
             hits.(i) <- hits.(i) + 1)
         (Array.init k Fun.id);
       let what = Printf.sprintf "jobs=%d k=%d" jobs k in
       check bool (what ^ ": every index recorded once") true
         (Array.for_all (( = ) 1) hits);
       check int (what ^ ": record gets run's result") 0 (Atomic.get mismatched))
    [ (1, 37); (2, 37); (4, 37); (8, 3); (4, 1); (4, 0) ]

(* [record] needs no synchronization of its own: a plain counter, read,
   left alone a while, then written back, loses no update. *)
let test_fan_out_records_never_overlap () =
  let k = 1000 in
  let counter = ref 0 in
  Campaign.fan_out ~jobs:4 ~stop:never ~run:ignore
    ~record:(fun _ () ->
        let c = !counter in
        for _ = 1 to 200 do Domain.cpu_relax () done;
        counter := c + 1)
    (Array.init k Fun.id);
  check int "every record saw the previous one's write" k !counter

let test_fan_out_jobs1_order () =
  let idxs = [| 5; 3; 9; 0; 7; 1; 8; 2; 6; 4 |] in
  let seen = ref [] in
  Campaign.fan_out ~jobs:1 ~stop:never ~run:Fun.id
    ~record:(fun i _ -> seen := i :: !seen)
    idxs;
  check (Alcotest.list int) "records arrive in idxs order"
    (Array.to_list idxs) (List.rev !seen)

let test_fan_out_stop () =
  List.iter
    (fun jobs ->
       let ran = Atomic.make 0 in
       Campaign.fan_out ~jobs ~stop:(fun () -> true)
         ~run:(fun _ -> Atomic.incr ran)
         ~record:(fun _ () -> Atomic.incr ran)
         (Array.init 20 Fun.id);
       check int
         (Printf.sprintf "jobs=%d: a stop from the start runs nothing" jobs)
         0 (Atomic.get ran))
    [ 1; 4 ];
  List.iter
    (fun m ->
       let recorded = ref 0 in
       Campaign.fan_out ~jobs:1 ~stop:(fun () -> !recorded >= m) ~run:ignore
         ~record:(fun _ () -> incr recorded)
         (Array.init 20 Fun.id);
       check int (Printf.sprintf "stop after %d records" m) m !recorded)
    [ 1; 7; 19 ]

exception Helper_failed

(* A [run] that raises on a helper domain is re-raised on the caller
   once that helper has ended, and no index is claimed after it.  The
   helper raises only once the caller's first task has started, and
   that task waits for the helper's domain to exit (its
   [Domain.at_exit] runs when the domain's body returns, after the
   raise was caught), so exactly two tasks ever start. *)
let test_fan_out_helper_raise () =
  let caller = Domain.self () in
  let caller_started = Atomic.make false in
  let helper_ended = Atomic.make false in
  let runs = Atomic.make 0 in
  let records = Atomic.make 0 in
  let give_up = Unix.gettimeofday () +. 10. in
  let await flag =
    while (not (Atomic.get flag)) && Unix.gettimeofday () < give_up do
      Domain.cpu_relax ()
    done
  in
  let run _ =
    Atomic.incr runs;
    if Domain.self () <> caller then begin
      await caller_started;
      Domain.at_exit (fun () -> Atomic.set helper_ended true);
      raise Helper_failed
    end;
    Atomic.set caller_started true;
    await helper_ended
  in
  (match
     Campaign.fan_out ~jobs:2 ~stop:never ~run
       ~record:(fun _ () -> Atomic.incr records)
       (Array.init 100 Fun.id)
   with
   | () -> Alcotest.fail "the helper's exception was swallowed"
   | exception Helper_failed -> ());
  check bool "the helper ended before the re-raise" true
    (Atomic.get helper_ended);
  check int "no task started after the raise" 2 (Atomic.get runs);
  check int "only the caller's task was recorded" 1 (Atomic.get records);
  (* and a raise waits for every helper's task in flight: here the
     caller raises while the helper is still inside its first task *)
  let helper_started = Atomic.make false in
  let helper_done = Atomic.make false in
  let run _ =
    if Domain.self () = caller then begin
      await helper_started;
      raise Helper_failed
    end;
    Atomic.set helper_started true;
    Unix.sleepf 0.05;
    Atomic.set helper_done true
  in
  (match
     Campaign.fan_out ~jobs:2 ~stop:never ~run ~record:(fun _ () -> ())
       (Array.init 100 Fun.id)
   with
   | () -> Alcotest.fail "the caller's exception was swallowed"
   | exception Helper_failed -> ());
  check bool "the helper's task in flight finished before the re-raise" true
    (Atomic.get helper_done)

(* ------------------------------------------------------------------ *)
(* Crash containment and retries.                                      *)

exception Deliberate of string

(* A runner that raises for task labels carrying "crash" and delegates
   to the real engine otherwise — the fault-tolerance probe from the
   Campaign interface. *)
let crashing_runner ?obs:_ cfg prog world mo =
  List.iter
    (fun (s : Engine.source_spec) ->
       match s.Engine.src_arg with
       | Some "crash-marker" -> raise (Deliberate "boom")
       | _ -> ())
    cfg.Engine.sources;
  Engine.run_with_master cfg prog world mo

let crash_params config =
  let base = Campaign.params_of_config config in
  [ { base with Campaign.label = "ok-1" };
    { base with
      Campaign.label = "crash";
      sources = [ Engine.source ~sys:"recv" ~arg:"crash-marker" () ] };
    { base with Campaign.label = "ok-2"; slave_seed = 7 } ]

(* One deliberately crashing task: Crashed for it, Ok (with the same
   results a clean campaign produces) for every sibling — under both
   jobs=1 and jobs=4, byte-identical across repeated runs. *)
let test_campaign_crash_contained () =
  let prog = instrumented attribution_src in
  let config = net_cfg [ Engine.source ~sys:"recv" () ] in
  let params = crash_params config in
  let run jobs =
    Campaign.run ~jobs ~mode:`Parallel ~runner:crashing_runner ~config prog
      attribution_world params
  in
  let statuses outs = List.map (fun o -> o.Campaign.status) outs in
  List.iter
    (fun jobs ->
       let outs = run jobs in
       (match statuses outs with
        | [ Campaign.Ok _; Campaign.Crashed { exn; _ }; Campaign.Ok _ ] ->
          check bool "exception recorded" true (String.length exn > 0)
        | _ -> Alcotest.failf "jobs=%d: unexpected status shape" jobs);
       (* siblings match an uncontained clean run *)
       let clean_outs =
         Campaign.run ~jobs:1 ~config prog attribution_world
           [ List.nth params 0; List.nth params 2 ]
       in
       (match (statuses outs, statuses clean_outs) with
        | ( [ s0; _; s2 ], [ c0; c2 ] ) ->
          check bool "sibling 0 unaffected by the crash" true (s0 = c0);
          check bool "sibling 2 unaffected by the crash" true (s2 = c2)
        | _ -> Alcotest.fail "unexpected clean-run shape");
       (* byte-identical across repeated runs *)
       check bool "campaign with crash is deterministic" true
         (statuses (run jobs) = statuses outs))
    [ 1; 4 ];
  (* and jobs=1 / jobs=4 agree with each other *)
  check bool "jobs=1 equals jobs=4 under a crash" true
    (statuses (run 1) = statuses (run 4))

(* Retry policy: a failure that clears under a jittered slave seed is
   transient — one retry turns Crashed into Ok; without retries it
   stays Crashed. *)
let test_campaign_retry_transient () =
  let prog = instrumented attribution_src in
  let config = net_cfg [ Engine.source ~sys:"recv" () ] in
  let transient_runner ?obs:_ cfg prog world mo =
    if cfg.Engine.slave_seed = 0 then raise (Deliberate "transient")
    else Engine.run_with_master cfg prog world mo
  in
  let params = [ Campaign.params_of_config config ] in
  let without =
    Campaign.run ~runner:transient_runner ~config prog attribution_world
      params
  in
  (match (List.hd without).Campaign.status with
   | Campaign.Crashed _ -> ()
   | _ -> Alcotest.fail "expected Crashed without retries");
  let with_retry =
    Campaign.run ~runner:transient_runner
      ~retry:{ Campaign.no_retries with Campaign.max_retries = 1 }
      ~config prog attribution_world params
  in
  match (List.hd with_retry).Campaign.status with
  | Campaign.Ok r ->
    check bool "retried task completed" true (r.Engine.total_syscalls > 0)
  | _ -> Alcotest.fail "expected Ok after one retry"

(* Fuel exhaustion is a distinct status (not a crash, not Ok) and the
   summary's trap classifies as Fuel. *)
let test_campaign_fuel_status () =
  let prog = instrumented attribution_src in
  let config =
    { (net_cfg [ Engine.source ~sys:"recv" () ]) with Engine.max_steps = 5 }
  in
  let outs =
    Campaign.run ~config prog attribution_world
      [ Campaign.params_of_config config ]
  in
  match (List.hd outs).Campaign.status with
  | Campaign.Fuel_exhausted r ->
    check bool "master or slave classified as fuel" true
      (Engine.classify_trap r.Engine.master.Engine.trap = Engine.Fuel
       || Engine.classify_trap r.Engine.slave.Engine.trap = Engine.Fuel);
    check bool "render marks the task fuel-exhausted" true
      (let s = Campaign.render outs in
       let sub = "fuel-exhausted" in
       let found = ref false in
       for i = 0 to String.length s - String.length sub do
         if (not !found) && String.sub s i (String.length sub) = sub then
           found := true
       done;
       !found)
  | _ -> Alcotest.fail "expected Fuel_exhausted"

(* ------------------------------------------------------------------ *)
(* Deadlines, backoff, fuel budgets, quarantine.                       *)

let contains hay needle =
  let n = String.length needle in
  let found = ref false in
  for i = 0 to String.length hay - n do
    if (not !found) && String.sub hay i n = needle then found := true
  done;
  !found

(* A task deadline tighter than the configured budget cuts the slave
   pass off as Timed_out (not Fuel_exhausted: the budget was fine, the
   deadline was not); a slack deadline changes nothing. *)
let test_campaign_deadline () =
  let prog = instrumented attribution_src in
  let config = net_cfg [ Engine.source ~sys:"recv" () ] in
  let params = [ Campaign.params_of_config config ] in
  let outs =
    Campaign.run ~deadline:5 ~config prog attribution_world params
  in
  (match (List.hd outs).Campaign.status with
   | Campaign.Timed_out _ as s ->
     check bool "status class" true (Campaign.status_class s = "timed-out");
     check bool "render marks the task timed-out" true
       (contains (Campaign.render outs) "timed-out")
   | _ -> Alcotest.fail "expected Timed_out under a 5-step deadline");
  let slack =
    Campaign.run ~deadline:config.Engine.max_steps ~config prog
      attribution_world params
  in
  match (List.hd slack).Campaign.status with
  | Campaign.Ok _ -> ()
  | _ -> Alcotest.fail "expected Ok under a slack deadline"

(* Retry attempt k re-runs with slave_seed + backoff^(k-1): exponential
   backoff in seed space, linear when backoff <= 1. *)
let test_campaign_backoff_seeds () =
  let prog = instrumented attribution_src in
  let config = net_cfg [ Engine.source ~sys:"recv" () ] in
  let seeds = ref [] in
  let seed_logger ?obs:_ (cfg : Engine.config) _prog _world _mo =
    seeds := cfg.Engine.slave_seed :: !seeds;
    raise (Deliberate "always")
  in
  let base =
    { (Campaign.params_of_config config) with Campaign.slave_seed = 100 }
  in
  let run retry =
    seeds := [];
    let outs =
      Campaign.run ~runner:seed_logger ~retry ~config prog attribution_world
        [ base ]
    in
    (List.rev !seeds, (List.hd outs).Campaign.attempts)
  in
  let exp_seeds, exp_attempts =
    run
      { Campaign.no_retries with
        Campaign.max_retries = 3; backoff = 3 }
  in
  check bool "exponential strides 1,3,9" true
    (exp_seeds = [ 100; 101; 103; 109 ]);
  check int "every attempt recorded" 4 exp_attempts;
  let lin_seeds, _ =
    run
      { Campaign.no_retries with
        Campaign.max_retries = 3; backoff = 1 }
  in
  check bool "backoff <= 1 keeps the legacy linear jitter" true
    (lin_seeds = [ 100; 101; 102; 103 ])

(* A configured slave scheduler spec is what [Engine.resolve_sched]
   runs, ahead of the slave seed: a seed sweep and a retry re-seed the
   spec with the task, or every task reruns one schedule.  Pbzip2's
   rows differ under a random policy once they are re-seeded. *)
let test_seed_sweep_reseeds_sched () =
  let w = Option.get (Ldx_workloads.Registry.find "Pbzip2") in
  let prog, _ = Ldx_workloads.Workload.instrumented w in
  let world = w.Ldx_workloads.Workload.world in
  let config =
    { (Ldx_workloads.Workload.leak_config w) with
      Engine.slave_sched =
        Some (Engine.Sched.spec ~seed:3 Engine.Sched.Random) }
  in
  let seeds = ref [] in
  let logger ?obs (cfg : Engine.config) prog world mo =
    seeds :=
      ( cfg.Engine.slave_seed,
        Option.map (fun s -> s.Engine.Sched.seed) cfg.Engine.slave_sched )
      :: !seeds;
    Engine.run_with_master ?obs cfg prog world mo
  in
  let outs =
    Campaign.run ~runner:logger ~config prog world
      (Campaign.of_seeds config [ 0; 1; 2; 3 ])
  in
  check bool "each task's spec carries its seed" true
    (List.sort compare !seeds
     = [ (0, Some 0); (1, Some 1); (2, Some 2); (3, Some 3) ]);
  let rows =
    List.map
      (fun o ->
         let r = Campaign.result_exn o in
         (r.Engine.syscall_diffs, r.Engine.slave.Engine.cycles))
      outs
  in
  check bool "the seeds run distinct schedules" true
    (List.length (List.sort_uniq compare rows) > 1);
  seeds := [];
  let crash ?obs cfg prog world mo =
    ignore (logger ?obs cfg prog world mo);
    raise (Deliberate "always")
  in
  ignore
    (Campaign.run ~runner:crash
       ~retry:{ Campaign.no_retries with Campaign.max_retries = 2 }
       ~config prog world
       [ { (Campaign.params_of_config config) with
           Campaign.slave_seed = 10 } ]);
  check bool "a retry re-seeds the spec" true
    (List.rev !seeds = [ (10, Some 3); (11, Some 11); (12, Some 12) ])

(* The cumulative fuel budget stops the retry loop early: crashed
   attempts are charged the per-attempt step cap, so a pathological
   task cannot multiply its cost through retries. *)
let test_campaign_retry_fuel_budget () =
  let prog = instrumented attribution_src in
  let config =
    { (net_cfg [ Engine.source ~sys:"recv" () ]) with Engine.max_steps = 1000 }
  in
  let always_crash ?obs:_ _ _ _ _ = raise (Deliberate "pathological") in
  let run fuel_budget =
    let outs =
      Campaign.run ~runner:always_crash
        ~retry:
          { Campaign.no_retries with
            Campaign.max_retries = 5; fuel_budget }
        ~config prog attribution_world
        [ Campaign.params_of_config config ]
    in
    (List.hd outs).Campaign.attempts
  in
  check int "unbudgeted: every retry burned" 6 (run None);
  (* two crashed attempts are charged 2 * 1000 steps > 1500: the third
     attempt never runs *)
  check int "budget caps cumulative attempts" 2 (run (Some 1500))

(* Quarantine: a crash that reproduces on every (seed-perturbed) retry
   is deterministic — parked as Quarantined, with the event and counter
   to match.  A first-try crash with no retries stays Crashed: one run
   proves nothing about determinism. *)
let test_campaign_quarantine () =
  let prog = instrumented attribution_src in
  let config = net_cfg [ Engine.source ~sys:"recv" () ] in
  let always_crash ?obs:_ _ _ _ _ = raise (Deliberate "deterministic") in
  let params = [ Campaign.params_of_config config ] in
  let rc = Obs.Recorder.create () in
  let outs =
    Campaign.run ~obs:(Obs.Recorder.sink rc) ~runner:always_crash
      ~retry:
        { Campaign.no_retries with Campaign.max_retries = 2 }
      ~config prog attribution_world params
  in
  (match List.hd outs with
   | { Campaign.status = Campaign.Quarantined { exn; _ }; attempts; _ } ->
     check bool "exception retained" true (contains exn "deterministic");
     check int "all attempts crashed" 3 attempts;
     check bool "render marks the task quarantined" true
       (contains (Campaign.render outs) "quarantined")
   | _ -> Alcotest.fail "expected Quarantined");
  let snap = Obs.Recorder.snapshot rc in
  check int "campaign.quarantined counter" 1
    (Obs.Metrics.counter snap "campaign.quarantined");
  check int "retry.quarantines counter" 1
    (Obs.Metrics.counter snap "retry.quarantines");
  (* without retries there is no reproduction evidence: stays Crashed *)
  let no_retry =
    Campaign.run ~runner:always_crash
      ~retry:Campaign.no_retries
      ~config prog attribution_world params
  in
  match (List.hd no_retry).Campaign.status with
  | Campaign.Crashed _ -> ()
  | _ -> Alcotest.fail "expected Crashed without a confirming retry"

(* ------------------------------------------------------------------ *)
(* Parallel observability: per-task buffered sinks.                    *)

(* jobs=4 with a plain (non-domain-safe) closure sink: the collecting
   domain drains each task's private buffer in task order, so the sink
   sees one Master_run phase, every slave pass, and Task_done per task
   in task order — without any synchronization of its own. *)
let test_campaign_parallel_obs_order () =
  let prog = instrumented attribution_src in
  let config = net_cfg [ Engine.source ~sys:"recv" () ] in
  let params = campaign_params config in
  let events = ref [] in
  let obs = Obs.Sink.of_fn (fun e -> events := e :: !events) in
  let outs =
    Campaign.run ~jobs:4 ~mode:`Parallel ~obs ~config prog attribution_world
      params
  in
  check bool "all tasks completed" true
    (List.for_all
       (fun o -> match o.Campaign.status with Campaign.Ok _ -> true | _ -> false)
       outs);
  let evs = List.rev !events in
  let count p = List.length (List.filter p evs) in
  check int "one master phase" 1
    (count (function
       | Obs.Event.Phase_begin Obs.Event.Master_run -> true
       | _ -> false));
  check int "one slave phase per task" (List.length params)
    (count (function
       | Obs.Event.Phase_begin Obs.Event.Slave_run -> true
       | _ -> false));
  let labels =
    List.filter_map
      (function Obs.Event.Task_done { label; _ } -> Some label | _ -> None)
      evs
  in
  check bool "Task_done per task, in task order" true
    (labels = List.map (fun (p : Campaign.slave_params) -> p.Campaign.label) params)

(* ------------------------------------------------------------------ *)
(* Journaled campaigns: checkpoint, resume, kill-anywhere recovery.    *)

let with_journal f =
  let path = Filename.temp_file "ldx_test_campaign" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Resuming a complete journal replays every outcome verbatim (no
   master pass, no task re-runs) and renders byte-identically.  Cut to
   its first k of n outcome records (a kill at a record boundary), it
   replays those k and runs only the other n - k. *)
let test_campaign_resume_complete () =
  let prog = instrumented attribution_src in
  let config = attribution_config in
  let params = campaign_params config in
  let n = List.length params in
  with_journal @@ fun path ->
  let outs = Campaign.run ~journal:path ~config prog attribution_world params in
  let reference = Campaign.render outs in
  let resume_leg what ((_, rerun, _) as expected) =
    let resumed = ref None and begun = ref 0 in
    let obs =
      Obs.Sink.of_fn (function
        | Obs.Event.Resume { replayed; rerun; torn; _ } ->
          resumed := Some (replayed, rerun, torn)
        | Obs.Event.Task_begin _ -> incr begun
        | _ -> ())
    in
    match
      Campaign.resume ~obs ~journal:path ~config prog attribution_world params
    with
    | Error e -> Alcotest.fail e
    | Ok outs' ->
      Alcotest.(check string) (what ^ ": resume renders byte-identically")
        reference (Campaign.render outs');
      Alcotest.(check (option (triple int int int)))
        (what ^ ": replayed, re-run, torn") (Some expected) !resumed;
      check int (what ^ ": tasks run") rerun !begun
  in
  resume_leg "complete" (n, 0, 0);
  let k = n / 2 in
  Test_snapshot.truncate_journal path k;
  resume_leg "cut" (k, n - k, 0)

(* A journal written under one configuration refuses to resume another:
   different tasks, a different deadline, or different retry controls
   all flip the fingerprint. *)
let test_campaign_resume_fingerprint_mismatch () =
  let prog = instrumented attribution_src in
  let config = attribution_config in
  let params = campaign_params config in
  with_journal @@ fun path ->
  ignore (Campaign.run ~journal:path ~config prog attribution_world params);
  let expect_error what r =
    match r with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "resume accepted %s" what
  in
  expect_error "a dropped task"
    (Campaign.resume ~journal:path ~config prog attribution_world
       (List.tl params));
  expect_error "a new deadline"
    (Campaign.resume ~deadline:10_000 ~journal:path ~config prog
       attribution_world params);
  expect_error "new retry controls"
    (Campaign.resume
       ~retry:{ Campaign.no_retries with Campaign.max_retries = 2 }
       ~journal:path ~config prog attribution_world params);
  (* the matching configuration still resumes *)
  match Campaign.resume ~journal:path ~config prog attribution_world params with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "matching config rejected: %s" e

(* The fingerprint a journal stores, pinned for each named sink set on
   one fixed campaign, and once under the retry policy the CLIs derive
   from --max-retries 2 --backoff 2 --retry-fuel-budget 1000: the
   sink-set tag and the retry text are persisted bytes, so a journal of
   an earlier build resumes only while these stay put. *)
let test_fingerprint_pinned () =
  let prog = instrumented attribution_src in
  let fp ?retry sinks =
    let config = { attribution_config with Engine.sinks } in
    Campaign.fingerprint ?retry ~config prog attribution_world
      (campaign_params config)
  in
  List.iter
    (fun (name, sinks, expected) ->
       Alcotest.(check string) name expected (fp sinks))
    [ ("outputs", Engine.Output_syscalls, "97e27d28b6f58486");
      ("network", Engine.Network_outputs, "e4d4d76b2037f4ac");
      ("files", Engine.File_outputs, "f8c14780fd1f78ed");
      ("attack", Engine.Attack_sinks, "7462b11770f1eeb9") ];
  Alcotest.(check string) "network, CLI retry policy" "f5f926e16e9ef1ea"
    (fp
       ~retry:
         { Campaign.max_retries = 2; backoff = 2; fuel_budget = Some 1000 }
       Engine.Network_outputs)

(* Graceful drain: a [stop] that turns true mid-campaign finishes the
   in-flight task, journals it, marks the unclaimed rest as drained
   placeholders, and a later resume re-runs exactly those — rendering
   byte-identically to the uninterrupted run. *)
let test_campaign_drain_and_resume () =
  let prog = instrumented attribution_src in
  let config = attribution_config in
  let params = campaign_params config in
  let reference =
    Campaign.render (Campaign.run ~jobs:1 ~config prog attribution_world params)
  in
  with_journal @@ fun path ->
  let done_tasks = ref 0 in
  let counting_runner ?obs cfg prog world mo =
    incr done_tasks;
    let r = Engine.run_with_master ?obs cfg prog world mo in
    r
  in
  (* stop after the first task completes *)
  let outs =
    Campaign.run ~journal:path ~runner:counting_runner
      ~stop:(fun () -> !done_tasks >= 1)
      ~config prog attribution_world params
  in
  let drained, finished =
    List.partition
      (fun (o : Campaign.outcome) ->
         match o.Campaign.status with
         | Campaign.Crashed { exn; _ } -> exn = "drained (not run)"
         | _ -> false)
      outs
  in
  check int "exactly one task ran before the drain" 1 (List.length finished);
  check int "the rest are drained placeholders, attempts = 0" 0
    (List.fold_left (fun a (o : Campaign.outcome) -> a + o.Campaign.attempts)
       0 drained);
  check int "drained + finished covers the campaign" (List.length params)
    (List.length drained + List.length finished);
  (* the journal holds only the finished outcome; resume runs the rest *)
  match Campaign.resume ~journal:path ~config prog attribution_world params with
  | Error e -> Alcotest.fail e
  | Ok outs' ->
    Alcotest.(check string) "resume completes the drained campaign"
      reference (Campaign.render outs')

(* The parallel paths honour [stop] too — and never invent outcomes for
   tasks the drain skipped. *)
let test_campaign_drain_parallel () =
  let prog = instrumented attribution_src in
  let config = attribution_config in
  let params = campaign_params config in
  let outs =
    Campaign.run ~jobs:4 ~mode:`Parallel
      ~stop:(fun () -> true)
      ~config prog attribution_world params
  in
  check bool "an immediate stop drains every task" true
    (List.for_all
       (fun (o : Campaign.outcome) ->
          match o.Campaign.status with
          | Campaign.Crashed { exn; _ } -> exn = "drained (not run)"
          | _ -> false)
       outs)

let qcheck_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

(* Over random structured programs: a jobs=4 campaign across all
   mutation strategies is byte-identical to the sequential campaign. *)
let prop_campaign_deterministic (p : Ldx_lang.Ast.program) =
  let prog, _ = Counter.instrument (Lower.lower_program p) in
  let config = Engine.default_config in
  let params = Campaign.of_strategies config Mutation.all_strategies in
  let seq = Campaign.run ~jobs:1 ~config prog qcheck_world params in
  let par =
    Campaign.run ~jobs:4 ~mode:`Parallel ~config prog qcheck_world params
  in
  List.for_all2
    (fun (a : Campaign.outcome) (b : Campaign.outcome) ->
       a.Campaign.status = b.Campaign.status)
    seq par

(* Kill-anywhere durability (over random structured programs): journal
   a campaign, then simulate a crash by truncating the journal at EVERY
   outcome-record boundary and mid-record, and resume at jobs=1 and
   jobs=4 — every resumption must render byte-identically to the
   uninterrupted campaign.  (Cuts inside the manifest are out of scope:
   the manifest is only ever published by an atomic rename.) *)
let prop_resume_truncated (p : Ldx_lang.Ast.program) =
  let prog, _ = Counter.instrument (Lower.lower_program p) in
  let config = Engine.default_config in
  let params =
    Campaign.of_strategies config
      [ List.hd Mutation.all_strategies ]
    @ Campaign.of_seeds config [ 1; 2 ]
  in
  let reference =
    Campaign.render (Campaign.run ~jobs:1 ~config prog qcheck_world params)
  in
  with_journal @@ fun path ->
  ignore (Campaign.run ~journal:path ~config prog qcheck_world params);
  let text = read_file path in
  (* cut points: the end of the manifest (no outcomes journaled), each
     outcome record's end, and the middle of each record *)
  let cuts =
    let acc = ref [] in
    let len = String.length text in
    let rec line_starts i =
      if i < len then begin
        (if text.[i] = 'o' then
           let stop =
             match String.index_from_opt text i '\n' with
             | Some j -> j + 1
             | None -> len
           in
           acc := stop :: ((i + stop) / 2) :: i :: !acc);
        match String.index_from_opt text i '\n' with
        | Some j -> line_starts (j + 1)
        | None -> ()
      end
    in
    line_starts 0;
    List.sort_uniq compare !acc
  in
  List.for_all
    (fun cut ->
       List.for_all
         (fun jobs ->
            with_journal @@ fun cut_path ->
            write_file cut_path (String.sub text 0 cut);
            let mode = if jobs > 1 then `Parallel else `Sequential in
            match
              Campaign.resume ~jobs ~mode ~journal:cut_path ~config prog
                qcheck_world params
            with
            | Error e ->
              QCheck2.Test.fail_reportf "cut at %d, jobs=%d: %s" cut jobs e
            | Ok outs -> Campaign.render outs = reference)
         [ 1; 4 ])
    cuts

(* ---------- journal outcome codec ---------- *)

(* A fixed [Engine.result] with no shared substructure, so its
   [Marshal] image is the same under any build of the same layout. *)
let fixed_result =
  let side stdout trap exit_code cycles =
    { Engine.cycles; steps = cycles / 3; syscalls = 4; stdout; trap;
      exit_code; faults_injected = 0 }
  in
  { Engine.trace = []; reports = []; leak = true; tainted_sinks = 1;
    total_sinks = 2; syscall_diffs = 3; diffs_before_first_report = 1;
    total_syscalls = 9; mutated_inputs = 1;
    master = side "master out\n" None (Some 0) 1200;
    slave = side "slave out\n" (Some "fuel exhausted") None 1350;
    wall_cycles = 1350; dyn_cnt_avg = 2.5; dyn_cnt_max = 7;
    max_seg_depth = 2; master_schedule = None }

(* Payloads recorded from an earlier build of the codec. *)
let test_outcome_known_answers () =
  check Alcotest.string "crashed"
    "crash 2 4661696c7572652822626f6f6d2229 \
     526169736564206174204c64782e660a43616c6c65642066726f6d204c64782e67"
    (Campaign.encode_outcome
       (Campaign.Crashed
          { exn = "Failure(\"boom\")";
            backtrace = "Raised at Ldx.f\nCalled from Ldx.g" })
       2);
  check Alcotest.string "quarantined, empty backtrace"
    "quarantine 3 6b696c6c6564203320776f726b6572732028612c622c6329 -"
    (Campaign.encode_outcome
       (Campaign.Quarantined
          { exn = "killed 3 workers (a,b,c)"; backtrace = "" })
       3);
  check Alcotest.string "ok"
    "ok 1 8495a6be0000005a0000000900000035000000300800004300404041414243414941\
     f00104b0010190442b6d6173746572206f75740a40904040f00105460101c2442a736c61\
     7665206f75740a902e6675656c2065786861757374656440400105460c0000000000000440\
     474240"
    (Campaign.encode_outcome (Campaign.Ok fixed_result) 1)

(* [decode_outcome] accepts exactly what [encode_outcome] writes: every
   status round-trips, and a payload the encoder never emits is
   refused rather than read as a neighbouring outcome. *)
let test_outcome_decoding_strict () =
  let statuses =
    [ (Campaign.Ok fixed_result, 1);
      (Campaign.Fuel_exhausted fixed_result, 2);
      (Campaign.Timed_out fixed_result, 3);
      (Campaign.Crashed { exn = "E"; backtrace = "" }, 1);
      (Campaign.Crashed { exn = ""; backtrace = "a b\nc" }, 2);
      (Campaign.Quarantined { exn = "x y"; backtrace = "\x00\xff" }, 4) ]
  in
  List.iter
    (fun (s, a) ->
       let p = Campaign.encode_outcome s a in
       check bool ("round-trip " ^ p) true
         (Campaign.decode_outcome p = Some (s, a)))
    statuses;
  check bool "the well-formed neighbour decodes" true
    (Campaign.decode_outcome "crash 2 41 -"
     = Some (Campaign.Crashed { exn = "A"; backtrace = "" }, 2));
  check bool "a real result in upper-case hex is refused" true
    (Campaign.decode_outcome
       (String.uppercase_ascii
          (Campaign.encode_outcome (Campaign.Timed_out fixed_result) 1))
     = None
     && Campaign.decode_outcome
          ("ok 1 "
           ^ String.uppercase_ascii
               (Ldx_store.Store.hex_encode (Marshal.to_string fixed_result [])))
        = None);
  List.iter
    (fun p ->
       check bool ("refused: " ^ p) true (Campaign.decode_outcome p = None))
    [ "crash 2 4_ -"; "crash 2 4A -"; "crash 2 414 -"; "crash 2 4g -";
      "crash 2 41 "; "crash 2  -"; "crash 0x2 41 -"; "crash +2 41 -";
      "crash 2_ 41 -"; "ok 1 8495A6BE"; "crash 2 41"; "bogus 2 41 -" ]

let qtest name count gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:Gen_minic.print_program gen prop)

let tests =
  [ Alcotest.test_case "case 3 counts one diff" `Quick test_diffs_case3;
    Alcotest.test_case "case 2 counts one diff (regression)" `Quick
      test_diffs_case2;
    Alcotest.test_case "master-only diff accounting" `Quick
      test_diffs_master_only;
    Alcotest.test_case "slave-only diff accounting" `Quick
      test_diffs_slave_only;
    Alcotest.test_case "equal nth specs count independently (regression)"
      `Quick test_nth_spec_collision;
    Alcotest.test_case "single nth spec picks the nth match" `Quick
      test_nth_single;
    Alcotest.test_case "tracker nth specs as the engine" `Quick
      test_tracker_nth_specs;
    Alcotest.test_case "master log replays identically" `Quick
      test_replay_identical;
    Alcotest.test_case "replay across slave configs equals fresh runs"
      `Quick test_replay_across_configs;
    Alcotest.test_case "per_source records one master" `Quick
      test_per_source_one_master;
    Alcotest.test_case "per_source equals isolated runs" `Quick
      test_per_source_matches_isolated_runs;
    Alcotest.test_case "parallel campaign equals sequential" `Quick
      test_campaign_parallel_matches_sequential;
    Alcotest.test_case "fan-out records every index once" `Quick
      test_fan_out_exactly_once;
    Alcotest.test_case "fan-out records never overlap" `Quick
      test_fan_out_records_never_overlap;
    Alcotest.test_case "fan-out at jobs=1 records in order" `Quick
      test_fan_out_jobs1_order;
    Alcotest.test_case "fan-out honours stop" `Quick test_fan_out_stop;
    Alcotest.test_case "fan-out re-raises after joining every helper" `Quick
      test_fan_out_helper_raise;
    Alcotest.test_case "crashing task contained (jobs=1 and jobs=4)" `Quick
      test_campaign_crash_contained;
    Alcotest.test_case "retry policy clears transient failures" `Quick
      test_campaign_retry_transient;
    Alcotest.test_case "fuel exhaustion is a distinct status" `Quick
      test_campaign_fuel_status;
    Alcotest.test_case "deadline cuts tasks off as Timed_out" `Quick
      test_campaign_deadline;
    Alcotest.test_case "retry seeds follow exponential backoff" `Quick
      test_campaign_backoff_seeds;
    Alcotest.test_case "seed sweep re-seeds a scheduler spec" `Quick
      test_seed_sweep_reseeds_sched;
    Alcotest.test_case "fuel budget caps cumulative retries" `Quick
      test_campaign_retry_fuel_budget;
    Alcotest.test_case "deterministic crashers quarantined" `Quick
      test_campaign_quarantine;
    Alcotest.test_case "parallel sink buffered, drained in task order"
      `Quick test_campaign_parallel_obs_order;
    Alcotest.test_case "resume of a complete journal replays verbatim"
      `Quick test_campaign_resume_complete;
Alcotest.test_case "resume rejects a fingerprint mismatch" `Quick
      test_campaign_resume_fingerprint_mismatch;
    Alcotest.test_case "fingerprint pinned per sink set" `Quick
      test_fingerprint_pinned;
    Alcotest.test_case "drain finishes in-flight, resume completes" `Quick
      test_campaign_drain_and_resume;
    Alcotest.test_case "parallel campaigns honour stop" `Quick
      test_campaign_drain_parallel;
    Alcotest.test_case "outcome codec known answers" `Quick
      test_outcome_known_answers;
    Alcotest.test_case "outcome decoding is strict" `Quick
      test_outcome_decoding_strict;
    qtest "P14 campaign jobs=4 deterministic" 40 Gen_minic.gen_program
      prop_campaign_deterministic;
    qtest "P15 kill-anywhere resume renders identically" 10
      Gen_minic.gen_program prop_resume_truncated ]
