(* Incremental campaigns: Campaign.run ~jobs:1 ~incremental:true over a
   generated long-prefix program — L source-free iterations, the one
   recv source, S suffix iterations, then a send whose argument is an
   injective function of the received string.  Every task applies a
   value-changing Add_constant mutation, so every task leaks by
   construction, and the table must equal the full-mode table.

   The pool crosses prefix-share strata on both sides of incremental
   mode's break-even (share 0 loses to full mode, long prefixes win by
   up to ~10x), each at three task counts; the seed jitters L and S by up
   to 1%, draws the received value and the mutation constants, and
   orders the requests.  The strata are fixed and the jitter small so
   that every seed carries nearly the same amount of work. *)

open Common

let strata = [ (0, 1500); (1500, 1500); (9000, 1000); (30000, 300); (100000, 200) ]

let task_counts = [ 16; 24; 32 ]

let source ~prefix ~suffix =
  Printf.sprintf
    "fn main() {\n\
    \  let acc = 0;\n\
    \  for (let i = 0; i < %d; i = i + 1) {\n\
    \    acc = (acc * 31 + i) %% 65521;\n\
    \  }\n\
    \  let c = socket(\"input\");\n\
    \  let m = recv(c);\n\
    \  let s = 0;\n\
    \  for (let j = 0; j < %d; j = j + 1) {\n\
    \    s = (s * 31 + j) %% 65521;\n\
    \  }\n\
    \  send(c, m + \"/\" + itoa(acc) + \"/\" + itoa(s));\n\
     }\n"
    prefix suffix

let config =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"recv" () ];
    sinks = Engine.Network_outputs }

type campaign = {
  name : string;
  prog : Ldx_cfg.Ir.program;
  world : Ldx_osim.World.t;
  params : Campaign.slave_params list;
  reference : string Lazy.t;  (** the full-mode table *)
}

let jitter rng base =
  if base = 0 then 0
  else base + Random.State.int rng (base / 50 + 1) - (base / 100)

(* The pool: each stratum at each task count, drawn from [rng]. *)
let campaigns rng =
  List.concat_map
    (fun (l, s) ->
       List.map
         (fun tasks ->
            let prefix = jitter rng l and suffix = jitter rng s in
            let input = string_of_int (10 + Random.State.int rng 99990) in
            let ks = distinct rng tasks ~lo:1 ~hi:94 in
            let prog =
              fst
                (Ldx_instrument.Counter.instrument
                   (Ldx_cfg.Lower.lower_program
                      (Ldx_lang.Parser.parse_exn (source ~prefix ~suffix))))
            in
            let world =
              Ldx_osim.World.(empty |> with_endpoint "input" [ input ])
            in
            let params =
              List.map
                (fun k ->
                   { (Campaign.params_of_config config) with
                     Campaign.label = Printf.sprintf "add%d" k;
                     strategy = Ldx_core.Mutation.Add_constant k })
                ks
            in
            { name = Printf.sprintf "L=%d,S=%d,tasks=%d" prefix suffix tasks;
              prog; world; params;
              reference =
                lazy
                  (Campaign.render
                     (Campaign.run ~jobs:1 ~config prog world params)) })
         task_counts)
    strata
  |> Array.of_list

let run_campaign ?obs c =
  Campaign.run ~jobs:1 ?obs ~incremental:true ~config c.prog c.world c.params

(* The incremental campaign, replayed as the calls Campaign.run makes:
   one master pass, one shared slave prefix, then per task a
   fingerprint check, a suffix resume and a finalize.  Campaign.run
   falls back to full passes when the prefix never pauses or a task's
   fingerprint differs; neither can happen for this workload's
   programs, so the replay raises instead (a failed request). *)
let traced_campaign sp c =
  let span name layer f = Spans.span sp name layer f in
  let mo =
    span "engine.master" "engine" (fun () ->
        Engine.master_pass config c.prog c.world)
  in
  let p0 = List.hd c.params in
  let prefix_cfg = Campaign.apply config { p0 with Campaign.sources = [] } in
  let specs = List.concat_map (fun p -> p.Campaign.sources) c.params in
  let ss =
    match
      span "engine.prefix" "engine" (fun () ->
          Engine.slave_prefix prefix_cfg ~specs c.prog c.world mo)
    with
    | Engine.Prefix_paused ss -> ss
    | Engine.Prefix_done _ -> failwith "the slave prefix never paused"
  in
  let outs =
    List.map
      (fun p ->
         let cfg = Campaign.apply config p in
         let fp =
           span "engine.fingerprint" "engine" (fun () ->
               Engine.slave_fingerprint cfg c.prog c.world)
         in
         if fp <> ss.Engine.ss_fingerprint then
           failwith "a task's fingerprint differs from the snapshot's";
         let so =
           span "engine.resume" "engine" (fun () ->
               Engine.slave_resume cfg c.prog c.world mo ss)
         in
         let r =
           span "engine.finalize" "engine" (fun () ->
               Engine.finalize_result cfg mo so)
         in
         { Campaign.params = p; status = Campaign.Ok r; attempts = 1 })
      c.params
  in
  let table = span "campaign.render" "campaign" (fun () -> Campaign.render outs) in
  (outs, table, mo, ss)

let snap_probes sp c (mo : Engine.master_out) (ss : Engine.slave_snapshot) =
  let m =
    probe sp "snap.restore" (fun () ->
        Ldx_snap.Snap.restore ~fprog:mo.Engine.mmachine.Ldx_vm.Machine.fprog
          c.prog ss.Engine.ss_snap)
  in
  ignore (probe sp "snap.capture" (fun () -> Ldx_snap.Snap.capture m));
  let wire =
    probe sp "snap.to_string" (fun () ->
        Ldx_snap.Snap.to_string ss.Engine.ss_snap)
  in
  sample "snap.wire_bytes" (float_of_int (String.length wire))

let setup ~tick ~warm ~seed ~tmp:_ =
  let rng = Random.State.make [| seed; 0x1c4 |] in
  let pool = campaigns rng in
  if warm then Array.iter (fun c -> tick (); ignore (run_campaign c)) pool;
  { kinds = Array.length pool;
    describe = (fun i -> pool.(i).name);
    run = (fun i -> campaign_response (run_campaign pool.(i)));
    traced =
      (fun sp i ->
         let c = pool.(i) in
         let outs, table, mo, ss = traced_campaign sp c in
         ( campaign_response ~table outs,
           fun () ->
             probe sp "vm.flat_compile" (fun () ->
                 ignore (Ldx_vm.Machine.compile c.prog));
             snap_probes sp c mo ss ));
    check = (fun i r -> check_campaign ~reference:pool.(i).reference r);
    counts =
      (fun () ->
         count_cycle pool (fun _ obs c -> ignore (run_campaign ~obs c))) }
