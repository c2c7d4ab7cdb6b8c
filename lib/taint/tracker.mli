(** The dynamic-tainting baseline engines (LIBDFT-like, TaintGrind-like).

    An interpreter over the same flat bytecode the VM executes, with
    shadow taint on every value.  Differences from LDX that Table 3 hinges on:
    data-dependence-only propagation (branch conditions never taint what
    is computed under them), the LibDFT library-call modelling gap, and a
    per-instruction monitoring cost ({!Ldx_vm.Cost.taint_shadow}, the ~6x
    slowdown of Sec. 8.1).  Threads are sequentialized ([spawn] runs the
    worker synchronously) — a documented simplification. *)

type config = {
  model : Shadow.model;
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
  steps : int;
  stdout : string;
  trap : string option;
}

(** Run on an UNinstrumented program (counter instructions, if present,
    are ignored).  Sources match as the LDX engine's do
    ({!Ldx_core.Engine.source_matcher}): each [src_nth] spec counts its
    own occurrences. *)
val run : ?config:config -> Ldx_cfg.Ir.program -> Ldx_osim.World.t -> result

val run_source : ?config:config -> string -> Ldx_osim.World.t -> result
