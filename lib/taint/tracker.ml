(* The dynamic-tainting baseline engines (LIBDFT-like and TaintGrind-like).

   A native run (Driver.run) with two additions:
   - builtins follow the model's rule ([builtin], compiled into the
     program's closures);
   - a hook around each OS call counts the sinks among which an
     argument is wrapped, before the call, and wraps a source's result
     after it.
   The VM propagates the wrapper by data dependence only (Value.t):
   branch conditions never taint the values computed under them, the
   limitation of LIBDFT and TAINTGRIND the paper exploits.  The
   engine's monitoring of every instruction costs Cost.taint_shadow
   extra cycles per step (the ~6x slowdown of Sec. 8.1). *)

module Cost = Ldx_vm.Cost
module Driver = Ldx_vm.Driver
module Eval = Ldx_vm.Eval
module Machine = Ldx_vm.Machine
module Value = Ldx_vm.Value
module Engine = Ldx_core.Engine
module Os = Ldx_osim.Os

type model = Taintgrind | Libdft

type config = {
  model : model;
  sources : Engine.source_spec list;
  sinks : Engine.sink_config;
  max_steps : int;
}

let default_config =
  { model = Taintgrind;
    sources = [ Engine.source ~sys:"recv" () ];
    sinks = Engine.Output_syscalls;
    max_steps = 30_000_000 }

type result = {
  tainted_sinks : int;           (* dynamic sink executions with tainted args *)
  total_sinks : int;
  tainted_sites : int list;      (* distinct static sites flagged *)
  cycles : int;
  steps : int;
  stdout : string;
  trap : string option;
}

(* The model's rule for builtins ("library calls"): [mkarray] makes a
   clean array holding [init] as given, LibDFT's unmodeled calls return
   clean results, and any other result is wrapped iff an argument is
   (so [len] takes its operand's wrapper, not its elements'). *)
let builtin model name args =
  match (name, args) with
  | "mkarray", [ n; init ] -> Eval.apply_builtin name [ Value.untaint n; init ]
  | _ when not (List.exists Value.is_tainted args) ->
    Eval.apply_builtin name args
  | _ ->
    let r = Eval.apply_builtin name (List.map Value.untaint args) in
    if model = Libdft && List.mem name Ldx_lang.Names.libdft_unmodeled then r
    else Value.Tainted r

let run ?(config = default_config) (prog : Ldx_cfg.Ir.program) world : result =
  let is_sink = Engine.sink_pred config.sinks in
  let is_source =
    Engine.source_matcher
      { Engine.default_config with Engine.sources = config.sources }
  in
  let tainted_sinks = ref 0 and total_sinks = ref 0 and sites = ref [] in
  let on_os_call os (p : Machine.pending) sargs call =
    let { Machine.sys; sysargs; site; _ } = p in
    if is_sink sys site sargs then begin
      incr total_sinks;
      if List.exists Value.is_tainted sysargs then begin
        incr tainted_sinks;
        if not (List.mem site !sites) then sites := site :: !sites
      end
    end;
    let r = Value.of_sval (call ()) in
    let resources = Os.resource_of_syscall os sys sargs in
    if is_source ~sys ~site ~args:sargs ~resources then Value.Tainted r else r
  in
  let o =
    Driver.run ~max_steps:config.max_steps
      ~fprog:(Machine.compile ~builtin:(builtin config.model) prog)
      ~on_os_call prog world
  in
  { tainted_sinks = !tainted_sinks;
    total_sinks = !total_sinks;
    tainted_sites = List.rev !sites;
    cycles = o.Driver.cycles + (o.Driver.steps * Cost.taint_shadow);
    steps = o.Driver.steps;
    stdout = o.Driver.stdout;
    trap = o.Driver.trap }

let run_source ?config src world =
  run ?config (Ldx_cfg.Lower.lower_source src) world
