(* Dual runs whose slave is always executed.  [Engine.run] derives the
   slave of a run that no source reaches from the master's log, and
   such a slave agrees with its master by construction; a check of the
   alignment itself (no sources, so nothing may differ) runs the two
   passes here instead, where the slave executes every instruction. *)

module Engine = Ldx_core.Engine

let run ?(config = Engine.default_config) prog world =
  Engine.run_with_master config prog world
    (Engine.master_pass config prog world)

let run_source ?config src world =
  run ?config
    (fst (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_source src)))
    world
