(** The dynamic-tainting baseline engines (LIBDFT-like, TaintGrind-like).

    A native run ({!Ldx_vm.Driver.run}) in which the results of source
    syscalls carry the {!Ldx_vm.Value.Tainted} wrapper.  Differences
    from LDX that Table 3 hinges on: data-dependence-only propagation
    (the VM's rule: branch conditions never taint what is computed
    under them), the LibDFT library-call modelling gap, and a
    per-instruction monitoring cost ({!Ldx_vm.Cost.taint_shadow}, the
    ~6x slowdown of Sec. 8.1).  Threads, setjmp and signals are the
    VM's own, scheduled as {!Ldx_vm.Driver.run}'s default round-robin. *)

(** TaintGrind models every library call; LibDFT drops taint across
    {!Ldx_lang.Names.libdft_unmodeled} (the paper's observed gap). *)
type model = Taintgrind | Libdft

type config = {
  model : model;
  sources : Ldx_core.Engine.source_spec list;
  sinks : Ldx_core.Engine.sink_config;
  max_steps : int;
}

(** TaintGrind model, recv sources, output sinks. *)
val default_config : config

type result = {
  tainted_sinks : int;       (** dynamic sink executions with tainted args *)
  total_sinks : int;
  tainted_sites : int list;  (** distinct static sites flagged *)
  cycles : int;
      (** the native run's cycles plus [steps * Cost.taint_shadow] *)
  steps : int;               (** the native run's *)
  stdout : string;
  trap : string option;
}

(** Run natively, tracking taint.  Sources match as the LDX engine's
    do ({!Ldx_core.Engine.source_matcher}): each [src_nth] spec counts
    its own occurrences.  Meant for uninstrumented programs; counter
    instructions, if present, run as in any native run. *)
val run : ?config:config -> Ldx_cfg.Ir.program -> Ldx_osim.World.t -> result

val run_source : ?config:config -> string -> Ldx_osim.World.t -> result
