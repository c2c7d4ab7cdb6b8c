(* Single-execution driver ("native run") and the one event loop.

   [drive] is the only loop over [Machine.run_until_event]: it services
   thread operations with the VM primitives, retries the ones that
   block, and hands every other syscall to its caller's callback.  [run]
   services those against the process's own OS; it is the baseline the
   overhead experiments (Fig. 6) compare against, and the taint
   tracker's run.  Every pass of the dual engine in ldx.core drives its
   machine with [drive] too. *)

module Os = Ldx_osim.Os
module Sval = Ldx_osim.Sval

type trace_entry = {
  sys : string;
  args : Sval.t list;
  result : Sval.t;
  counter : int;
  site : int;
  tid : int;
}

type outcome = {
  machine : Machine.t;
  trap : string option;
  cycles : int;
  steps : int;
  syscalls : int;
  stdout : string;
  exit_code : int option;
  trace : trace_entry list;           (* only when ~record_trace *)
}

let is_thread_op = function
  | "lock" | "unlock" | "spawn" | "join" | "yield" | "setjmp" | "longjmp"
  | "signal" | "alarm" | "sigsend" ->
    true
  | _ -> false

(* Service a thread-operation syscall with the VM primitives; [`Block]
   leaves the thread pending for retry. *)
let rec service_thread_op (m : Machine.t) (th : Machine.thread)
    (p : Machine.pending) : [ `Done of Value.t | `Block ] =
  match (p.Machine.sys, p.Machine.sysargs) with
  | "lock", [ lockv ] ->
    if Machine.try_lock m th lockv then `Done (Value.Int 0) else `Block
  | "unlock", [ lockv ] ->
    ignore (Machine.unlock m th lockv);
    `Done (Value.Int 0)
  | "spawn", [ Value.Fptr f; arg ] ->
    let tid = Machine.spawn m f arg in
    `Done (Value.Int tid)
  | "spawn", [ v; _ ] ->
    Value.trap "spawn: expected function pointer, got %s" (Value.to_string v)
  | "join", [ Value.Int tid ] ->
    (match Machine.try_join m tid with
     | Some v -> `Done v
     | None -> `Block)
  | "yield", [] -> `Done (Value.Int 0)
  | "setjmp", [ bufv ] ->
    Machine.do_setjmp m th bufv ~dst:p.Machine.dst_slot;
    `Done (Value.Int 0)
  | "signal", [ Value.Int signo; Value.Fptr h ] ->
    Machine.register_signal m signo h;
    `Done (Value.Int 0)
  | "alarm", [ Value.Int n ] ->
    Machine.set_alarm th n Machine.sigalrm;
    `Done (Value.Int 0)
  | "sigsend", [ Value.Int signo ] ->
    Machine.raise_signal th signo;
    `Done (Value.Int 0)
  | "longjmp", [ bufv ] ->
    if Machine.do_longjmp m th bufv then
      (* control has been transferred; the longjmp itself "returns"
         nothing observable at its (abandoned) call site *)
      `Done (Value.Int 0)
    else Value.trap "longjmp: buffer was never set"
  | sys, args -> thread_op_other m th p sys args

(* Control arguments read through the taint wrapper (spawn's argument,
   matched above, keeps it).  Apart from [service_thread_op]'s match,
   which it would otherwise make larger on every path. *)
and thread_op_other m th p sys args =
  if List.exists Value.is_tainted args then
    service_thread_op m th
      { p with Machine.sysargs = List.map Value.untaint args }
  else
    Value.trap "thread op %s: bad arguments (%s)" sys
      (String.concat ", " (List.map Value.to_string args))

let os_exec os (p : Machine.pending) sargs =
  try Os.exec ~site:p.Machine.site os p.Machine.sys sargs
  with Os.Os_error msg -> raise (Value.Trap ("os-error: " ^ msg))

(* A trap raised while a syscall is serviced finishes the machine before
   [provide_result], so the thread gets nothing: no [Cost.syscall], no
   trace entry.  [pause] is asked under the same handler, before the
   thread-op dispatch; [first] is serviced without asking it. *)
let drive ?(pause = fun _ _ -> false) ?first ?(on_stuck = fun _ -> false)
    ?trace ~(blocked : Machine.thread list ref) ~on_os_call (m : Machine.t) =
  let record tr th (p : Machine.pending) args result =
    tr :=
      { sys = p.Machine.sys; args; result; counter = Machine.counter_of th;
        site = p.Machine.site; tid = th.Machine.tid }
      :: !tr
  in
  let service th (p : Machine.pending) =
    if is_thread_op p.Machine.sys then begin
      match service_thread_op m th p with
      | `Done v ->
        (match trace with
         | Some tr ->
           record tr th p (List.map Value.to_sval_safe p.Machine.sysargs)
             (Value.to_sval_safe v)
         | None -> ());
        Machine.provide_result m th v
      | `Block -> blocked := th :: !blocked
    end
    else begin
      let sargs = List.map Value.to_sval p.Machine.sysargs in
      let v = on_os_call th p sargs in
      (match trace with
       | Some tr -> record tr th p sargs (Value.to_sval v)
       | None -> ());
      Machine.provide_result m th v
    end
  in
  (* a blocked thread's status changes only here: each is still awaiting
     its thread op, and a retry that completes it is not traced *)
  let retry_blocked () =
    let bs = !blocked in
    blocked := [];
    let progress = ref false in
    List.iter
      (fun th ->
         match th.Machine.status with
         | Machine.Awaiting p ->
           (match service_thread_op m th p with
            | `Done v ->
              progress := true;
              Machine.provide_result m th v
            | `Block -> blocked := th :: !blocked)
         | _ -> ())
      bs;
    !progress
  in
  let paused = ref None in
  let step ~ask th =
    (try
       let p = Machine.pending_of th in
       if ask && pause th p then paused := Some th else service th p
     with Value.Trap msg ->
       m.Machine.trap <- Some msg;
       m.Machine.finished <- true);
    match !paused with None -> ignore (retry_blocked ()) | Some _ -> ()
  in
  let rec loop () =
    match Machine.run_until_event m with
    | Machine.Ev_syscall th ->
      step ~ask:true th;
      next ()
    | Machine.Ev_idle ->
      if retry_blocked () || (on_stuck !blocked && retry_blocked ()) then
        loop ()
      else begin
        m.Machine.trap <- Some "deadlock: all threads blocked";
        m.Machine.finished <- true
      end
    | Machine.Ev_done | Machine.Ev_trap _ -> ()
  and next () =
    match !paused with
    | None -> if not m.Machine.finished then loop ()
    | Some _ -> ()
  in
  (match first with
   | Some th ->
     step ~ask:false th;
     next ()
   | None -> loop ());
  match !paused with Some th -> `Paused th | None -> `Done

let run ?(seed = 0) ?sched ?(max_steps = 30_000_000) ?(record_trace = false)
    ?fprog ?on_os_call (prog : Ldx_cfg.Ir.program) (world : Ldx_osim.World.t)
  : outcome =
  let os = Os.create world in
  let m = Machine.create ~seed ?sched ~max_steps ?fprog prog os in
  let trace = if record_trace then Some (ref []) else None in
  let on_os_call =
    match on_os_call with
    | None -> fun _ p sargs -> Value.of_sval (os_exec os p sargs)
    | Some hook ->
      fun _ p sargs -> hook os p sargs (fun () -> os_exec os p sargs)
  in
  ignore (drive ?trace ~blocked:(ref []) ~on_os_call m);
  { machine = m;
    trap = m.Machine.trap;
    cycles = m.Machine.cycles;
    steps = m.Machine.steps;
    syscalls = m.Machine.syscalls;
    stdout = Os.stdout_contents os;
    exit_code = os.Os.exit_code;
    trace = (match trace with Some tr -> List.rev !tr | None -> []) }

(* Convenience: parse, lower, optionally instrument, run. *)
let run_source ?(instrument = false) ?seed ?sched ?max_steps ?record_trace src
    world =
  let prog = Ldx_cfg.Lower.lower_source src in
  let prog =
    if instrument then fst (Ldx_instrument.Counter.instrument prog) else prog
  in
  run ?seed ?sched ?max_steps ?record_trace prog world
