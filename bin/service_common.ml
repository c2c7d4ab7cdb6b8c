(* The campaign front end that ldx_run and the service binaries share.

   The flags that describe a campaign (program or workload, world,
   sources, sinks, strategy, sweep, retry controls) are defined here
   once, and so is the derivation of the campaign from them: ldx_run's
   single-process reference and the service cannot drift apart.  Sink
   sets and strategies are read from their tables ([Engine.sink_sets],
   [Mutation.all_strategies]).

   ldx_worker and ldx_campaignd must agree BYTE-FOR-BYTE on the campaign
   they describe: a worker validates the journal's fingerprint against
   the spec it was launched with, so the supervisor rebuilds each
   worker's argv from its own spec ([to_argv]) rather than trusting two
   hand-written command lines to stay in sync. *)

open Cmdliner
module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module World = Ldx_osim.World
module Workload = Ldx_workloads.Workload

type spec = {
  prog_file : string option;
  workload : string option;
  files : string list;
  endpoints : string list;
  sources : string list;
  sink : Engine.sink_config;
  strategy : Mutation.strategy;
  sweep : [ `Strategies | `Seeds of int ] option;
      (* [None]: neither sweep flag; the services sweep strategies *)
  task_deadline : int option;
  max_retries : int;
  backoff : int;
  retry_budget : int option;
  sync : bool;
}

(* ---------- terms ---------- *)

(* The sink sets by command-line name, from their one table. *)
let sink_sets =
  List.map (fun (name, sinks, _) -> (name, sinks)) Engine.sink_sets

(* The command-line name of a table's value. *)
let name_of table v = fst (List.find (fun (_, x) -> x = v) table)

let term : spec Term.t =
  let prog_file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM.minic")
  in
  let workload =
    Arg.(value & opt (some string) None
         & info [ "workload" ] ~docv:"NAME"
           ~doc:"Run a registry workload (e.g. 403.gcc, 473.astar) \
                 instead of a program file: its world, sources, sinks \
                 and strategy come from the registry entry's leak \
                 configuration.")
  in
  let files =
    Arg.(value & opt_all string []
         & info [ "file" ] ~docv:"PATH=DATA"
           ~doc:"Add a file to the simulated world: PATH=CONTENTS \
                 (repeatable).")
  in
  let endpoints =
    Arg.(value & opt_all string []
         & info [ "endpoint" ] ~docv:"NAME=MSGS"
           ~doc:"Add a network endpoint: NAME=MSG1,MSG2,... (inbound \
                 script, repeatable).")
  in
  let sources =
    Arg.(value & opt_all string [ "recv" ]
         & info [ "source" ] ~docv:"SPEC"
           ~doc:"Source syscalls to mutate in the slave, e.g. 'recv' or \
                 'read@/etc/secret' (syscall@resource-substring, \
                 repeatable).")
  in
  let sink =
    Arg.(value & opt (enum sink_sets) Engine.default_config.Engine.sinks
         & info [ "sink" ] ~docv:"KIND"
           ~doc:("Sink set: " ^ doc_alts_enum sink_sets ^ "."))
  in
  let strategy =
    Arg.(value
         & opt (enum Mutation.all_strategies)
             Engine.default_config.Engine.strategy
         & info [ "strategy" ] ~docv:"NAME"
           ~doc:("Mutation strategy: "
                 ^ doc_alts_enum Mutation.all_strategies ^ "."))
  in
  let sweep_strategies =
    Arg.(value & flag
         & info [ "sweep-strategies" ]
           ~doc:"Record one master pass, then run one slave pass per \
                 mutation strategy and print the comparison table \
                 (Sec. 8.3 study).  The service binaries' default \
                 sweep.")
  in
  let sweep_seeds =
    Arg.(value & opt (some int) None
         & info [ "sweep-seeds" ] ~docv:"N"
           ~doc:"Record one master pass, then run one slave pass per \
                 slave scheduler seed 0..N-1 and print the comparison \
                 table; a task's seed also re-seeds ldx_run's --sched \
                 policy.  ldx_run's run is the single-process reference \
                 for the ldx_campaignd service (identical task list and \
                 table).")
  in
  let task_deadline =
    Arg.(value & opt (some int) None
         & info [ "task-deadline" ] ~docv:"STEPS"
           ~doc:"Campaign modes: cap each slave task at $(docv) VM steps \
                 (fuel-derived, so bit-deterministic — no wall clocks); \
                 a task cut off below the configured budget finishes as \
                 timed-out.")
  in
  let max_retries =
    Arg.(value & opt int 0
         & info [ "max-retries" ] ~docv:"N"
           ~doc:"Campaign modes: retry crashed/fuel-exhausted/timed-out \
                 tasks up to $(docv) times under jittered slave seeds; a \
                 task that crashes on every attempt is quarantined.")
  in
  let backoff =
    Arg.(value & opt int 1
         & info [ "backoff" ] ~docv:"BASE"
           ~doc:"Retry seed-jitter growth base: 1 = linear jitter \
                 (default), larger = jitter grows BASE^(k-1) on retry k \
                 — exponential backoff in seed space.")
  in
  let retry_budget =
    Arg.(value & opt (some int) None
         & info [ "retry-fuel-budget" ] ~docv:"STEPS"
           ~doc:"Cumulative VM-step budget one task may spend across all \
                 its attempts; once spent, no further retries.")
  in
  let sync =
    Arg.(value & flag
         & info [ "sync" ]
           ~doc:"fsync the campaign journal (ldx_run's --journal, the \
                 services' --queue) on checkpoint and every outcome \
                 append.  The default (off) survives process crashes; \
                 --sync also survives power loss, at one disk \
                 round-trip per task.")
  in
  let make prog_file workload files endpoints sources sink strategy
      sweep_strategies sweep_seeds task_deadline max_retries backoff
      retry_budget sync =
    let sweep =
      match (sweep_strategies, sweep_seeds) with
      | _, Some n -> Some (`Seeds n)
      | true, None -> Some `Strategies
      | false, None -> None
    in
    { prog_file; workload; files; endpoints; sources; sink; strategy; sweep;
      task_deadline; max_retries; backoff; retry_budget; sync }
  in
  Term.(const make $ prog_file $ workload $ files $ endpoints $ sources $ sink
        $ strategy $ sweep_strategies $ sweep_seeds $ task_deadline
        $ max_retries $ backoff $ retry_budget $ sync)

(* ---------- spec -> campaign ---------- *)

let split_once ch s =
  match String.index_opt s ch with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let build_world files endpoints =
  let w = ref World.empty in
  List.iter
    (fun spec ->
       let path, data = split_once '=' spec in
       w := World.with_file path data !w)
    files;
  List.iter
    (fun spec ->
       let name, msgs = split_once '=' spec in
       let script = if msgs = "" then [] else String.split_on_char ',' msgs in
       w := World.with_endpoint name script !w)
    endpoints;
  !w

let parse_sources specs =
  List.map
    (fun spec ->
       let sys, arg = split_once '@' spec in
       Engine.source ~sys ?arg:(if arg = "" then None else Some arg) ())
    specs

(* The program a spec names: MiniC source text or a registry workload. *)
let read_input (s : spec) =
  match (s.workload, s.prog_file) with
  | Some _, Some _ -> Error "give PROGRAM.minic or --workload, not both"
  | None, None -> Error "a PROGRAM.minic argument or --workload is required"
  | None, Some path ->
    (match In_channel.with_open_text path In_channel.input_all with
     | src -> Ok (`Src src)
     | exception Sys_error e -> Error e)
  | Some name, None ->
    (match Ldx_workloads.Registry.find name with
     | Some w -> Ok (`Workload w)
     | None -> Error (Printf.sprintf "unknown workload %S" name))

(* The world and base config of an input: a workload's own, or the
   spec's world, sources, sinks and strategy. *)
let setup (s : spec) = function
  | `Workload w -> (w.Workload.world, Workload.leak_config w)
  | `Src _ ->
    ( build_world s.files s.endpoints,
      { Engine.default_config with
        Engine.sources = parse_sources s.sources;
        sinks = s.sink;
        strategy = s.strategy } )

(* The instrumented program: a workload arrives instrumented, a source
   text is lowered and instrumented here. *)
let lower = function
  | `Workload w -> Ok (fst (Workload.instrumented w))
  | `Src src ->
    (match Ldx_cfg.Lower.lower_source src with
     | exception Failure msg -> Error msg
     | prog -> Ok (fst (Ldx_instrument.Counter.instrument prog)))

(* One task per strategy unless --sweep-seeds asks for seeds. *)
let tasks (s : spec) (config : Engine.config) =
  match s.sweep with
  | Some (`Seeds n) -> Campaign.of_seeds config (List.init (max 0 n) Fun.id)
  | Some `Strategies | None ->
    Campaign.of_strategies config Mutation.all_strategies

let retry (s : spec) =
  if s.max_retries = 0 && s.retry_budget = None then None
  else
    Some
      { Campaign.max_retries = s.max_retries;
        backoff = s.backoff;
        fuel_budget = s.retry_budget }

type campaign = {
  config : Engine.config;
  prog : Ldx_cfg.Ir.program;
  world : World.t;
  params : Campaign.slave_params list;
  retry : Campaign.retry_policy option;
  deadline : int option;
}

(* The service's campaign: both sides of the fingerprint handshake come
   through here. *)
let resolve (s : spec) : (campaign, string) result =
  let ( let* ) = Result.bind in
  let* input = read_input s in
  let world, config = setup s input in
  let* prog = lower input in
  Ok
    { config; prog; world;
      params = tasks s config;
      retry = retry s;
      deadline = s.task_deadline }

(* ---------- spec -> argv (supervisor respawning workers) ---------- *)

let to_argv (s : spec) : string list =
  let opt flag = function None -> [] | Some v -> [ flag; v ] in
  let rep flag vs = List.concat_map (fun v -> [ flag; v ]) vs in
  (match s.prog_file with Some p -> [ p ] | None -> [])
  @ opt "--workload" s.workload
  @ rep "--file" s.files
  @ rep "--endpoint" s.endpoints
  @ rep "--source" s.sources
  @ [ "--sink"; name_of sink_sets s.sink;
      "--strategy"; name_of Mutation.all_strategies s.strategy ]
  @ (match s.sweep with
     | Some (`Seeds n) -> [ "--sweep-seeds"; string_of_int n ]
     | Some `Strategies | None -> [ "--sweep-strategies" ])
  @ opt "--task-deadline" (Option.map string_of_int s.task_deadline)
  @ [ "--max-retries"; string_of_int s.max_retries;
      "--backoff"; string_of_int s.backoff ]
  @ opt "--retry-fuel-budget" (Option.map string_of_int s.retry_budget)
  @ (if s.sync then [ "--sync" ] else [])
