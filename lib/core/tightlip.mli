(** TightLip-style baseline (Yumerefendi et al. 2007).

    Same master/slave model, but no execution alignment: the slave's
    syscalls are matched against the master's in strict FIFO order
    (optionally within a small look-ahead window).  The first mismatch is
    declared a leak and the run terminates — the behaviour Table 2
    contrasts with LDX. *)

type result = {
  leak_reported : bool;
  terminated_early : bool;          (** stopped at a mismatch *)
  syscalls_before_mismatch : int;
  total_master_syscalls : int;
}

(** [run ?config ?window prog world] — [window] is the FIFO look-ahead
    (0 = strict order, the classic behaviour). *)
val run :
  ?config:Engine.config -> ?window:int ->
  Ldx_cfg.Ir.program -> Ldx_osim.World.t -> result
