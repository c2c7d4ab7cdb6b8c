(* The campaign service, run as one fleet member does it but in this
   process: a Table-4-style slave-seed sweep (Campaign.of_seeds) over
   one of the five concurrency programs, through Campaign.Service.init,
   one Campaign.Service.worker (heartbeats off, so it never sleeps),
   Service.collect and Campaign.render, on a fresh journal.  Every
   claim re-reads and re-folds the whole journal, so the queue and
   store layers do most of the work here and none in the other
   workloads.  The table must equal the in-memory Campaign.run ~jobs:1
   table and every task must leak.

   The pool is each concurrency program at three task counts; the seed
   draws the slave seeds and orders the requests. *)

open Common
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry

let task_counts = [ 20; 30; 40 ]

(* Far beyond any request's length: with one worker no lease expires. *)
let ttl_us = 3_600_000_000

type campaign = {
  name : string;
  config : Engine.config;
  prog : Ldx_cfg.Ir.program;
  world : Ldx_osim.World.t;
  params : Campaign.slave_params list;
  reference : string Lazy.t;  (** the in-memory Campaign.run table *)
}

let pool rng =
  List.concat_map
    (fun (w : Workload.t) ->
       let prog = fst (Workload.instrumented w) in
       let config = Workload.leak_config w in
       List.map
         (fun n ->
            let seeds = distinct rng n ~lo:0 ~hi:((1 lsl 20) - 1) in
            let params = Campaign.of_seeds config seeds in
            { name = Printf.sprintf "%s,tasks=%d" w.Workload.name n;
              config; prog; world = w.Workload.world; params;
              reference =
                lazy
                  (Campaign.render
                     (Campaign.run ~jobs:1 ~config prog w.Workload.world
                        params)) })
         task_counts)
    Registry.concurrency
  |> Array.of_list

(* One service campaign.  With [?sp] each public call gets a span;
   [?runner] replaces the worker's task runner (the traced run's timing
   runner).  Returns the outcomes and the journal's final size. *)
let run_service ?obs ?runner ?sp ~path c =
  let span name layer f =
    match sp with Some sp -> Spans.span sp name layer f | None -> f ()
  in
  (try Sys.remove path with Sys_error _ -> ());
  span "campaign.init" "campaign" (fun () ->
      Campaign.Service.init ~path ~config:c.config c.prog c.world c.params);
  let master =
    span "engine.master" "engine" (fun () ->
        Engine.master_pass ?obs c.config c.prog c.world)
  in
  (match
     span "queue.worker" "queue" (fun () ->
         Campaign.Service.worker ?obs ?runner ~master ~path ~owner:"perfbench"
           ~ttl_us ~heartbeat_us:0 ~poll_us:1_000 ~config:c.config c.prog
           c.world c.params)
   with
   | Ok `Complete -> ()
   | Ok `Drained -> failwith "service worker drained before the queue did"
   | Error e -> failwith ("service worker: " ^ e));
  let outs =
    span "campaign.collect" "campaign" (fun () ->
        match Campaign.Service.collect ~path c.params with
        | Ok outs -> outs
        | Error e -> failwith ("service collect: " ^ e))
  in
  let bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  (outs, bytes)

let codec_probes sp outs =
  List.iter
    (fun o ->
       let payload =
         probe sp "campaign.encode" (fun () ->
             Campaign.encode_outcome o.Campaign.status o.Campaign.attempts)
       in
       sample "campaign.outcome_bytes" (float_of_int (String.length payload));
       ignore (probe sp "campaign.decode" (fun () ->
           Campaign.decode_outcome payload)))
    outs

let setup ~tick ~warm ~seed ~tmp =
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let pool = pool rng in
  let path = Filename.concat tmp "service.journal" in
  let run c = campaign_response (fst (run_service ~path c)) in
  if warm then Array.iter (fun c -> tick (); ignore (run c)) pool;
  { kinds = Array.length pool;
    describe = (fun i -> pool.(i).name);
    run = (fun i -> run pool.(i));
    traced =
      (fun sp i ->
         let c = pool.(i) in
         let span name layer f = Spans.span sp name layer f in
         let runner : Campaign.runner =
           fun ?obs cfg prog world mo ->
             span "campaign.task" "campaign" (fun () ->
                 span "engine.slave" "engine" (fun () ->
                     Engine.run_with_master ?obs cfg prog world mo))
         in
         let outs, _ = run_service ~runner ~sp ~path c in
         let table =
           span "campaign.render" "campaign" (fun () -> Campaign.render outs)
         in
         ( campaign_response ~table outs,
           fun () ->
             probe sp "vm.flat_compile" (fun () ->
                 ignore (Ldx_vm.Machine.compile c.prog));
             codec_probes sp outs ));
    check = (fun i r -> check_campaign ~reference:pool.(i).reference r);
    counts =
      (fun () ->
         count_cycle pool (fun m obs c ->
             let _, bytes = run_service ~obs ~path c in
             Metrics.add m "store.journal_bytes" bytes)) }
