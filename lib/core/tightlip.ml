(* TightLip-style baseline (Yumerefendi et al. 2007).

   Same master/slave model but NO execution alignment: the slave's
   syscalls are compared against the master's in strict FIFO order (an
   optional look-ahead window tolerates tiny reorderings).  The first
   mismatch is declared a leak and the run terminates — the behaviour
   Table 2 contrasts with LDX, which keeps executing through nontrivial
   syscall differences and only reports real sink divergence. *)

module Driver = Ldx_vm.Driver
module Machine = Ldx_vm.Machine
module Value = Ldx_vm.Value
module Os = Ldx_osim.Os
module Sval = Ldx_osim.Sval
module World = Ldx_osim.World
module Ir = Ldx_cfg.Ir

type result = {
  leak_reported : bool;
  terminated_early : bool;
  syscalls_before_mismatch : int;
  total_master_syscalls : int;
}

exception Mismatch

let run ?(config = Engine.default_config) ?(window = 0) (prog : Ir.program)
    (world : World.t) : result =
  let mo = Engine.master_pass config prog world in
  (* flatten the master's outcomes back into chronological order: records
     were queued per thread; single-threaded programs have spawn index 0.
     For multi-threaded programs TightLip's FIFO model is per-process; we
     approximate with per-thread FIFOs as well (favourable to TightLip). *)
  let os = Os.create ~pid:1001 world in
  Os.set_faults os config.faults;
  let m =
    Machine.create ~seed:config.slave_seed ~max_steps:config.max_steps
      ?fprog:(Engine.compiled_for mo prog) prog os
  in
  let matched = ref 0 in
  let mismatch = ref false in
  let is_source = Engine.source_matcher config in
  (* private cursors over the master's frozen per-thread logs: TightLip
     consumes the recording without mutating it, like every other
     master_out consumer *)
  let cursors : (int, int ref) Hashtbl.t = Hashtbl.create 4 in
  let cursor_for tid =
    match Hashtbl.find_opt cursors tid with
    | Some c -> c
    | None ->
      let c = ref 0 in
      Hashtbl.replace cursors tid c;
      c
  in
  let on_os_call th (p : Machine.pending) sargs : Value.t =
    let recs = Engine.records_for mo th.Machine.spawn_index in
    let cur = cursor_for th.Machine.spawn_index in
    (* look for a match within the window *)
    let rec try_match k =
      if !cur >= Array.length recs || k > window then raise Mismatch
      else begin
        let r = recs.(!cur) in
        incr cur;
        if String.equal r.Engine.rsys p.Machine.sys
        && Sval.list_equal r.Engine.rargs sargs
        then r
        else try_match (k + 1)
      end
    in
    let r = try try_match 0 with Mismatch -> raise Mismatch in
    incr matched;
    (try ignore (Os.exec os p.Machine.sys sargs) with Os.Os_error _ -> ());
    let resources = Os.resource_of_syscall os p.Machine.sys sargs in
    let v =
      if is_source ~sys:p.Machine.sys ~site:p.Machine.site ~args:sargs ~resources
      then Mutation.mutate config.strategy r.Engine.rresult
      else r.Engine.rresult
    in
    Value.of_sval v
  in
  (* the loop catches only [Value.Trap]: a mismatch ends the run *)
  (try ignore (Driver.drive ~blocked:(ref []) ~on_os_call m)
   with Mismatch -> mismatch := true);
  let leftover = ref 0 in
  Array.iter
    (fun (tid, recs) ->
       let consumed =
         match Hashtbl.find_opt cursors tid with Some c -> !c | None -> 0
       in
       leftover := !leftover + (Array.length recs - consumed))
    mo.Engine.mlog;
  (* unconsumed master syscalls also count as differences *)
  let leak = !mismatch || !leftover > 0 in
  { leak_reported = leak;
    terminated_early = !mismatch;
    syscalls_before_mismatch = !matched;
    total_master_syscalls = mo.Engine.msummary.Engine.syscalls }
