(* Layer measurements that need inputs of their own: the host-time
   counterpart of Fig. 6 and the lease queue's scaling curve. *)

open Common
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Queue = Ldx_queue.Queue
module Store = Ldx_store.Store

(* ------------------------------------------------------------------ *)
(* Fig. 6 in host time: per registry program, a native Driver.run of
   the uninstrumented program next to master_pass + run_with_master of
   the instrumented one under the leak config, beside the simulated
   overhead (virtual wall cycles over native cycles), which is exact. *)

type fig6_row = {
  name : string;
  native_ms : float;  (** median over repetitions *)
  dual_ms : float;
  steps : int;        (** native VM steps *)
  host : float;       (** dual_ms / native_ms *)
  sim : float;        (** wall_cycles / native cycles *)
  sim_stable : bool;  (** the simulated ratio repeated exactly *)
}

let fig6 sp ~reps =
  let runs = Hashtbl.create 32 in
  for _ = 1 to reps do
    List.iter
      (fun (w : Workload.t) ->
         let k =
           { Oneshot.w; config_name = "leak"; config = Workload.leak_config w;
             expected = "leak" }
         in
         Spans.begin_request sp ~phase:Spans.Suite ~kind:("fig6:" ^ w.Workload.name);
         let r, plain, _ =
           Spans.span sp "replay" "replay" (fun () -> Oneshot.traced_kind sp k)
         in
         let dual_ms = Spans.last_ms sp "engine.master" +. Spans.last_ms sp "engine.slave" in
         let native =
           probe sp "vm.native" (fun () ->
               Ldx_vm.Driver.run plain w.Workload.world)
         in
         let native_ms = Spans.last_ms sp "vm.native" in
         let sim =
           float_of_int r.Engine.wall_cycles
           /. float_of_int (max 1 native.Ldx_vm.Driver.cycles)
         in
         let prev = Option.value (Hashtbl.find_opt runs w.Workload.name) ~default:[] in
         Hashtbl.replace runs w.Workload.name
           ((native_ms, dual_ms, native.Ldx_vm.Driver.steps, sim) :: prev))
      Registry.all
  done;
  List.map
    (fun (w : Workload.t) ->
       let rs = Hashtbl.find runs w.Workload.name in
       let native_ms = Stats.median (List.map (fun (n, _, _, _) -> n) rs) in
       let dual_ms = Stats.median (List.map (fun (_, d, _, _) -> d) rs) in
       let _, _, steps, sim = List.hd rs in
       { name = w.Workload.name; native_ms; dual_ms; steps;
         host = dual_ms /. native_ms; sim;
         sim_stable = List.for_all (fun (_, _, st, s) -> s = sim && st = steps) rs })
    Registry.all

let print_fig6 rows =
  Printf.eprintf "\nFig. 6 in host time (median of repetitions; leak config)\n";
  Printf.eprintf "%-16s %10s %10s %10s %12s %12s\n" "program" "native_ms"
    "dual_ms" "steps" "host dual/nat" "sim dual/nat";
  List.iter
    (fun r ->
       Printf.eprintf "%-16s %10.4f %10.4f %10d %12.3f %12.4f%s\n" r.name
         r.native_ms r.dual_ms r.steps r.host r.sim
         (if r.sim_stable then "" else "  (simulated ratio did not repeat)"))
    rows;
  Printf.eprintf "%-16s %10s %10s %10s %12.3f %12.4f\n%!" "geomean" "" "" ""
    (Stats.geomean (List.map (fun r -> r.host) rows))
    (Stats.geomean (List.map (fun r -> r.sim) rows))

let fig6_metrics rows =
  let total_ms = Stats.sum (List.map (fun r -> r.native_ms) rows) in
  let steps = List.fold_left (fun a r -> a + r.steps) 0 rows in
  [ ("vm.native_ms", "ms", Stats.mean (List.map (fun r -> r.native_ms) rows));
    ("vm.steps_per_us", "steps/us", float_of_int steps /. (total_ms *. 1e3));
    ("engine.dual_over_native", "ratio",
     Stats.geomean (List.map (fun r -> r.host) rows));
    ("engine.sim_over_native", "ratio",
     Stats.geomean (List.map (fun r -> r.sim) rows)) ]
  @ List.map
    (fun r -> ("engine.dual_over_native." ^ r.name, "ratio", r.host))
    rows

(* ------------------------------------------------------------------ *)
(* The lease queue's scaling curve: a journal of N records (a lease and
   an outcome per finished task, with real encode_outcome payloads)
   built with Queue.append, then Queue.load and Queue.claim timed on
   it.  Each claim appends one lease record, which is truncated away
   again so every claim sees exactly N records. *)

let curve_sizes = [ 100; 1_000; 10_000; 100_000 ]

let curve_reps n =
  if n >= 100_000 then 2 else if n >= 10_000 then 3 else if n >= 1_000 then 7
  else 15

(* Real outcome payloads: four slave seeds of each concurrency
   program's leak config. *)
let curve_payloads () =
  List.concat_map
    (fun (w : Workload.t) ->
       let prog = fst (Workload.instrumented w) in
       let config = Workload.leak_config w in
       Campaign.run ~jobs:1 ~config prog w.Workload.world
         (Campaign.of_seeds config [ 0; 1; 2; 3 ])
       |> List.map (fun o ->
           Campaign.encode_outcome o.Campaign.status o.Campaign.attempts))
    Registry.concurrency
  |> Array.of_list

let queue_curve ~tmp =
  let payloads = curve_payloads () in
  let path = Filename.concat tmp "curve.journal" in
  let append_us = ref [] in
  let rows =
    List.map
      (fun n ->
         let reps = curve_reps n in
         let finished = n / 2 in
         let manifest =
           { Store.fingerprint = "perfbench-queue-curve"; meta = [];
             tasks = List.init (finished + 1) (Printf.sprintf "t%d") }
         in
         Store.close (Store.checkpoint_entries ~path manifest []);
         let append e =
           let t0 = Stats.now_ns () in
           Queue.append ~path e;
           append_us := (Stats.ms_between t0 (Stats.now_ns ()) *. 1e3) :: !append_us
         in
         let deadline_us = Queue.now_us () + Service.ttl_us in
         for i = 0 to finished - 1 do
           append (Store.Lease { index = i; owner = "curve"; epoch = 0; deadline_us });
           append
             (Store.Outcome
                { index = i; payload = payloads.(i mod Array.length payloads) })
         done;
         let timed f =
           List.init reps (fun _ ->
               let t0 = Stats.now_ns () in
               f ();
               Stats.ms_between t0 (Stats.now_ns ()))
         in
         let load_ms =
           timed (fun () ->
               match Queue.load ~path with
               | Ok _ -> ()
               | Error e -> failwith ("queue curve load: " ^ e))
         in
         let size = (Unix.stat path).Unix.st_size in
         let claim_ms =
           timed (fun () ->
               (match
                  Queue.claim ~path ~owner:"probe" ~now_us:(Queue.now_us ())
                    ~ttl_us:Service.ttl_us ()
                with
                | Ok (Queue.Claimed _) -> ()
                | Ok _ -> failwith "queue curve: claim found nothing to claim"
                | Error e -> failwith ("queue curve claim: " ^ e));
               Unix.truncate path size)
         in
         Sys.remove path;
         (n, size, Stats.median load_ms, Stats.median claim_ms))
      curve_sizes
  in
  Printf.eprintf "\nLease queue scaling curve (median of repetitions)\n";
  Printf.eprintf "%10s %12s %10s %10s\n" "records" "bytes" "load_ms" "claim_ms";
  List.iter
    (fun (n, size, l, c) -> Printf.eprintf "%10d %12d %10.3f %10.3f\n" n size l c)
    rows;
  flush stderr;
  ("queue.append_us", "us", Stats.mean !append_us)
  :: List.concat_map
    (fun (n, _, l, c) ->
       [ (Printf.sprintf "queue.load_ms.r%d" n, "ms", l);
         (Printf.sprintf "queue.claim_ms.r%d" n, "ms", c) ])
    rows
