(* The MiniC virtual machine.

   Event-driven: [run_until_event] executes instructions (scheduling
   threads through the pluggable scheduler) until something the driver
   must handle occurs:
   - a syscall was reached (the VM never services syscalls itself;
     the driver answers with [provide_result]),
   - every live thread is waiting on the driver ([Ev_idle]),
   - the process finished or trapped.
   Everything else is answered in place: scheduling decisions (a lone
   runnable thread even refills its own quantum without leaving the
   flat loop) and loop backedge barriers, which no driver needs to see.

   Counter state (Sec. 4-6): each thread carries a stack of counter
   segments; a segment has the current counter value and a stack of
   (loop id, iteration) pairs maintained by the Loop_enter / Loop_back /
   Loop_exit instrumentation.  Fresh-frame calls (indirect calls and calls
   to recursive functions) push a segment.

   Execution form: [create] compiles the program once to flat bytecode
   (Ldx_cfg.Flat) — integer opcodes, register slots, resolved jumps,
   expressions as closures over the register file ({!Eval.compile_flat})
   — unless the caller hands it a program already compiled from the
   same IR.  The stepper dispatches over that with no per-instruction
   hashing or allocation. *)

module Ir = Ldx_cfg.Ir
module Flat = Ldx_cfg.Flat
module Sched = Ldx_sched.Scheduler
open Value

(* The stepper and the profile must agree on opcode numbering. *)
let () =
  assert (
    Flat.op_assign = Profile.op_assign
    && Flat.op_store = Profile.op_store
    && Flat.op_call = Profile.op_call
    && Flat.op_call_indirect = Profile.op_call_indirect
    && Flat.op_syscall = Profile.op_syscall
    && Flat.op_cnt_add = Profile.op_cnt_add
    && Flat.op_loop_enter = Profile.op_loop_enter
    && Flat.op_loop_back = Profile.op_loop_back
    && Flat.op_loop_exit = Profile.op_loop_exit
    && Flat.op_jump = Profile.op_jump
    && Flat.op_branch = Profile.op_branch
    && Flat.op_ret = Profile.op_ret
    && Flat.op_call_arity = 12
    && Flat.op_call_missing = 13)

type seg = {
  mutable cnt : int;
  mutable loops : (int * int) list;   (* (loop id, iteration), innermost first *)
}

type pending = {
  sys : string;
  sysargs : Value.t list;
  dst_slot : int;                     (* resolved register slot; -1 = none *)
  site : int;
}

type barrier = { loop : int; dec : int }

type status =
  | Runnable
  | Awaiting of pending
  | Finished of Value.t

(* The compiled execution form.  Immutable after [compile]: machines,
   and the domains running them, may share one. *)
type compiled = Eval.code Flat.program

type frame = {
  fn : Ir.func;
  fl : Eval.code Flat.func;
  mutable bid : int;                   (* current block *)
  mutable idx : int;                   (* pc into [fl.code] *)
  regs : Value.t array;                (* slots; [Value.undef] = unset *)
  ret_dst : int;                       (* caller slot for the result; -1 *)
  fresh : bool;                        (* pushed a counter segment *)
  prof_base : int;
  (* the function's base in the profile's flat block numbering (0 when
     profiling is off); a block's flat index is [prof_base + bid] *)
}

type thread = {
  tid : int;
  spawn_index : int;                   (* pairing key across dual executions *)
  mutable frames : frame list;         (* top first *)
  mutable segs : seg list;             (* top first *)
  mutable status : status;
  jmp_bufs : (string, jmp_buf) Hashtbl.t;
  mutable alarm : (int * int) option;
      (* (syscalls until delivery, signo) -- see [set_alarm] *)
  mutable pending_signals : int list;   (* delivery order, oldest first *)
}

(* setjmp/longjmp (Sec. 6): the buffer snapshots the frame stack shape,
   the resume point, the destination slot of the setjmp, and — the
   paper's key detail — a deep copy of the counter-segment stack, which
   longjmp restores so alignment survives non-local control flow. *)
and jmp_buf = {
  j_frames : frame list;               (* frame list at the setjmp *)
  j_bid : int;                         (* resume point (after setjmp) *)
  j_idx : int;
  j_dst : int;                         (* slot the setjmp writes; -1 = none *)
  j_segs : (int * (int * int) list) list;  (* snapshot: (cnt, loops) *)
}

type lock_state = {
  mutable owner : int option;          (* tid *)
  mutable acquisitions : int;
}

type t = {
  prog : Ir.program;
  fprog : compiled;                    (* the compiled execution form *)
  os : Ldx_osim.Os.t;
  mutable threads : thread list;       (* creation order *)
  mutable by_spawn : thread array;     (* index = spawn_index (O(1) picks) *)
  mutable next_tid : int;
  mutable spawn_count : int;
  mutable scratch : int array array;   (* exact-size runnable-set buffers *)
  locks : (string, lock_state) Hashtbl.t;
  sig_handlers : (int, string) Hashtbl.t;    (* signo -> handler function *)
  mutable lock_trace : (string * int) list;  (* (lock, spawn_index), reversed *)
  mutable lock_gate : (string -> int -> bool) option;
  (* when set (slave mode), [try_lock] additionally asks the gate whether
     this thread (by spawn_index) may take the lock now *)
  sched : Sched.state;
  (* the pluggable scheduler (lib/sched): owns the pick cursor and
     quantum choice; the default is [Sched.legacy], bit-identical to
     the historical hard-wired round-robin *)
  mutable steps : int;
  mutable cycles : int;                (* virtual clock *)
  mutable syscalls : int;              (* syscall events emitted *)
  mutable instr_events : int;          (* instrumentation instrs executed *)
  mutable finished : bool;
  mutable trap : string option;
  max_steps : int;
  (* dynamic counter statistics (Table 1) *)
  mutable cnt_sum : int;
  mutable cnt_max : int;
  mutable cnt_samples : int;
  mutable max_seg_depth : int;
  (* observability step hooks (installed by the engine, [None] = off:
     the disabled path is one pointer comparison).  [on_obs_syscall]
     fires at each syscall return after the cost is charged and before
     signal handlers are pushed (so the thread's position is still the
     syscall's); [on_obs_barrier] at each loop backedge barrier after
     the counter reset and cost charge; [on_obs_cnt_sample] at each
     dynamic counter sample. *)
  mutable on_obs_syscall : (t -> thread -> pending -> unit) option;
  mutable on_obs_barrier : (t -> thread -> barrier -> unit) option;
  mutable on_obs_cnt_sample : (t -> thread -> int -> unit) option;
  mutable on_obs_sched : (t -> Sched.decision -> unit) option;
  prof : Profile.t option;
  (* cost-attribution counters mirroring every virtual-clock charge;
     [None] = off, same one-pointer-comparison discipline as the obs
     hooks.  Never consulted by execution semantics. *)
}

type event =
  | Ev_syscall of thread
  | Ev_idle
  | Ev_done
  | Ev_trap of string

let new_seg () = { cnt = 0; loops = [] }

let rec lock_key = function
  | Int n -> "i:" ^ string_of_int n
  | Str s -> "s:" ^ s
  | v -> ( match v with Tainted v -> lock_key v | _ -> trap "invalid lock id")

(* The VM's instantiation of the flat form: each literal is boxed once
   and each expression closed over the register file once, at compile
   time. *)
let compile ?builtin (prog : Ir.program) : compiled =
  Flat.compile
    { Flat.c_unit = Unit;
      c_int = (fun n -> Int n);
      c_str = (fun s -> Str s);
      c_fun = (fun f -> Fptr f);
      c_expr = Eval.compile_flat ?builtin }
    prog

(* Fresh frame for [fl]; regs start as the undef sentinel. *)
let new_frame (fl : Eval.code Flat.func) ~ret_dst ~fresh ~prof_base =
  let fn = fl.Flat.f_ir in
  { fn; fl;
    bid = fn.Ir.entry;
    idx = fl.Flat.entry_pc;
    regs = Array.make fl.Flat.nslots undef;
    ret_dst; fresh; prof_base }

let create ?(seed = 0) ?sched ?(max_steps = 30_000_000) ?prof ?fprog
    (prog : Ir.program) (os : Ldx_osim.Os.t) : t =
  let main = Ir.find_func_exn prog "main" in
  if main.Ir.params <> [] then invalid_arg "Machine.create: main takes no params";
  (match prof with Some p -> Profile.attach p prog | None -> ());
  let main_base =
    match prof with Some p -> Profile.base_of p main.Ir.fname | None -> 0
  in
  let fprog =
    match fprog with
    | None -> compile prog
    | Some f when f.Flat.p_ir == prog -> f
    | Some _ ->
      invalid_arg "Machine.create: fprog was compiled from another program"
  in
  let main_fl = fprog.Flat.funcs.(Hashtbl.find fprog.Flat.fidx "main") in
  let main_thread =
    { tid = 0; spawn_index = 0;
      frames = [ new_frame main_fl ~ret_dst:(-1) ~fresh:false
                   ~prof_base:main_base ];
      segs = [ new_seg () ];
      status = Runnable;
      jmp_bufs = Hashtbl.create 4;
      alarm = None;
      pending_signals = [] }
  in
  { prog; fprog; os;
    threads = [ main_thread ];
    by_spawn = Array.make 4 main_thread;
    next_tid = 1;
    spawn_count = 1;
    scratch = [||];
    locks = Hashtbl.create 8;
    sig_handlers = Hashtbl.create 4;
    lock_trace = [];
    lock_gate = None;
    sched =
      (match sched with
       | Some s -> s
       | None -> Sched.instantiate (Sched.legacy ~seed));
    steps = 0;
    cycles = 0;
    syscalls = 0;
    instr_events = 0;
    finished = false;
    trap = None;
    max_steps;
    cnt_sum = 0;
    cnt_max = 0;
    cnt_samples = 0;
    max_seg_depth = 1;
    on_obs_syscall = None;
    on_obs_barrier = None;
    on_obs_cnt_sample = None;
    on_obs_sched = None;
    prof }

(* Flat-block base of [fname] in the attached profile (0 when off). *)
let prof_base_of t fname =
  match t.prof with None -> 0 | Some p -> Profile.base_of p fname

(* Charge [cost] cycles for a dispatch of opcode [op] in [frame]'s
   current block.  The clock update is identical with profiling off. *)
let[@inline] charge t (frame : frame) op cost =
  t.cycles <- t.cycles + cost;
  match t.prof with
  | None -> ()
  | Some p -> Profile.charge p ~op ~blk:(frame.prof_base + frame.bid) ~cost

let cur_seg (th : thread) =
  match th.segs with
  | s :: _ -> s
  | [] -> trap "empty counter-segment stack"

let cur_frame (th : thread) =
  match th.frames with
  | f :: _ -> f
  | [] -> trap "empty frame stack"

(* Counter + loop-iteration snapshot for alignment (outermost segment
   first; within a segment loops are innermost first). *)
let position_of (th : thread) : (int * (int * int) list) list =
  List.rev_map (fun s -> (s.cnt, s.loops)) th.segs

let counter_of (th : thread) = (cur_seg th).cnt

(* ------------------------------------------------------------------ *)
(* Thread primitives (used by the driver to service thread syscalls).  *)

(* Register a thread under its spawn index (grow-by-doubling). *)
let register_thread t (th : thread) =
  let n = Array.length t.by_spawn in
  if th.spawn_index >= n then begin
    let a = Array.make (max 4 (2 * n)) th in
    Array.blit t.by_spawn 0 a 0 n;
    t.by_spawn <- a
  end;
  t.by_spawn.(th.spawn_index) <- th

let spawn t (fname : string) (arg : Value.t) : int =
  let fl =
    match Hashtbl.find_opt t.fprog.Flat.fidx fname with
    | Some fi -> t.fprog.Flat.funcs.(fi)
    | None ->
      ignore (Ir.find_func_exn t.prog fname : Ir.func);
      assert false
  in
  let frame =
    new_frame fl ~ret_dst:(-1) ~fresh:false ~prof_base:(prof_base_of t fname)
  in
  (match fl.Flat.nparams with
   | 0 -> ()
   | 1 -> frame.regs.(0) <- arg
   | _ -> trap "spawn: %s must take at most one parameter" fname);
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let spawn_index = t.spawn_count in
  t.spawn_count <- spawn_index + 1;
  let th =
    { tid; spawn_index;
      frames = [ frame ];
      segs = [ new_seg () ];
      status = Runnable;
      jmp_bufs = Hashtbl.create 4;
      alarm = None;
      pending_signals = [] }
  in
  t.threads <- t.threads @ [ th ];
  register_thread t th;
  tid

let find_thread t tid = List.find_opt (fun th -> th.tid = tid) t.threads

let lock_state t key =
  match Hashtbl.find_opt t.locks key with
  | Some s -> s
  | None ->
    let s = { owner = None; acquisitions = 0 } in
    Hashtbl.replace t.locks key s;
    s

(* Attempt to acquire; returns true on success.  Consults the lock gate
   (slave schedule replay) when installed. *)
let try_lock t (th : thread) (lockv : Value.t) : bool =
  let key = lock_key lockv in
  let st = lock_state t key in
  (* consult (and let advance) the gate only when the lock is free, so a
     replay gate's cursor moves exactly when a grant happens *)
  let gate_ok =
    st.owner = None
    && (match t.lock_gate with
        | None -> true
        | Some gate -> gate key th.spawn_index)
  in
  if gate_ok then begin
    st.owner <- Some th.tid;
    st.acquisitions <- st.acquisitions + 1;
    t.lock_trace <- (key, th.spawn_index) :: t.lock_trace;
    true
  end
  else false

let unlock t (th : thread) (lockv : Value.t) : bool =
  let key = lock_key lockv in
  let st = lock_state t key in
  if st.owner = Some th.tid then begin
    st.owner <- None;
    true
  end
  else false

let try_join t (target : int) : Value.t option =
  match find_thread t target with
  | Some { status = Finished v; _ } -> Some v
  | Some _ -> None
  | None -> Some (Int (-1))

(* setjmp: snapshot the resume point and a deep copy of the counter
   stack.  Called while the thread is Awaiting the setjmp syscall, so
   the current frame's [idx] already points past it; [dst] is the
   pending call's destination slot. *)
let do_setjmp t (th : thread) (bufv : Value.t) ~(dst : int) : unit =
  ignore t;
  let key = lock_key bufv in
  let frame = cur_frame th in
  Hashtbl.replace th.jmp_bufs key
    { j_frames = th.frames;
      j_bid = frame.bid;
      j_idx = frame.idx;
      j_dst = dst;
      j_segs = List.map (fun s -> (s.cnt, s.loops)) th.segs }

(* longjmp: unwind to the saved frame list, restore the counter stack,
   and make the setjmp return 1.  Returns false when the buffer was
   never set (C leaves this undefined; we make it a no-op failure). *)
let do_longjmp t (th : thread) (bufv : Value.t) : bool =
  ignore t;
  match Hashtbl.find_opt th.jmp_bufs (lock_key bufv) with
  | None -> false
  | Some buf ->
    th.frames <- buf.j_frames;
    let frame = cur_frame th in
    frame.bid <- buf.j_bid;
    frame.idx <- buf.j_idx;
    th.segs <- List.map (fun (cnt, loops) -> { cnt; loops }) buf.j_segs;
    if buf.j_dst >= 0 then frame.regs.(buf.j_dst) <- Int 1;
    true

(* Signals (Sec. 7).  Handlers are invoked like indirect calls: a fresh
   counter-stack segment is pushed for the handler frame, so syscalls
   inside handlers align independently of the interrupted context.
   Delivery points are deterministic (at syscall returns), so two
   executions on the same path deliver at the same positions; path
   divergence falls to the engine's ordinary divergence handling. *)

let register_signal t (signo : int) (handler : string) : unit =
  Hashtbl.replace t.sig_handlers signo handler

let sigalrm = 14

(* Deliver [signo] to this thread after [n] further syscall events. *)
let set_alarm (th : thread) (n : int) (signo : int) : unit =
  if n <= 0 then th.alarm <- None
  else th.alarm <- Some (n, signo)

let raise_signal (th : thread) (signo : int) : unit =
  th.pending_signals <- th.pending_signals @ [ signo ]

(* ------------------------------------------------------------------ *)
(* Calls.                                                              *)

let push_seg t (th : thread) =
  th.segs <- new_seg () :: th.segs;
  let depth = List.length th.segs in
  if depth > t.max_seg_depth then t.max_seg_depth <- depth

(* Generic call path (indirect calls, signal handlers): args arrive as
   a list, arity is checked at runtime with the historical trap
   message. *)
let push_call t (th : thread) ~(fl : Eval.code Flat.func)
    ~(vargs : Value.t list) ~(ret_dst : int) ~fresh =
  let nargs = List.length vargs in
  if nargs <> fl.Flat.nparams then
    trap "call %s: arity mismatch (%d args, %d params)" fl.Flat.f_ir.Ir.fname
      nargs fl.Flat.nparams;
  let frame =
    new_frame fl ~ret_dst ~fresh
      ~prof_base:(prof_base_of t fl.Flat.f_ir.Ir.fname)
  in
  List.iteri (fun i a -> frame.regs.(i) <- a) vargs;
  th.frames <- frame :: th.frames;
  if fresh then push_seg t th

let func_by_name t name =
  match Hashtbl.find_opt t.fprog.Flat.fidx name with
  | Some fi -> Some t.fprog.Flat.funcs.(fi)
  | None -> None

(* [a[i] = v] off the stepper's fast path: out of bounds, a wrapped
   index (stored through), or no array at all. *)
let rec store name (va : Value.t) (vi : Value.t) (ve : Value.t) =
  match (va, vi) with
  | Arr arr, Int k ->
    if k >= 0 && k < Array.length arr then arr.(k) <- ve
    else trap "store index %d out of bounds (len %d)" k (Array.length arr)
  | _, Tainted vi -> store name va vi ve
  | _ -> trap "store into non-array %s" name

(* Push handler frames for every pending signal (oldest runs first, so
   push in reverse order).  Unhandled signals are ignored (the default
   disposition). *)
let deliver_signals t (th : thread) =
  match th.pending_signals with
  | [] -> ()
  | pending ->
    th.pending_signals <- [];
    List.iter
      (fun signo ->
         match Hashtbl.find_opt t.sig_handlers signo with
         | None -> ()
         | Some h ->
           (match func_by_name t h with
            | Some fl ->
              push_call t th ~fl ~vargs:[ Int signo ] ~ret_dst:(-1)
                ~fresh:true
            | None -> trap "signal handler %s is not a function" h))
      (List.rev pending)

let pop_frame t (th : thread) (retval : Value.t) =
  match th.frames with
  | [] -> trap "return with empty frame stack"
  | frame :: rest ->
    th.frames <- rest;
    if frame.fresh then begin
      (match th.segs with
       | _ :: outer :: _ as segs ->
         th.segs <- List.tl segs;
         (* the call site contributes a fixed +1 (Sec. 6) *)
         outer.cnt <- outer.cnt + 1
       | _ -> trap "fresh frame without outer counter segment")
    end;
    (match rest with
     | [] -> th.status <- Finished retval
     | caller :: _ ->
       if frame.ret_dst >= 0 then caller.regs.(frame.ret_dst) <- retval);
    ignore t

(* ------------------------------------------------------------------ *)
(* Driver interface for pending events.                                 *)

let provide_result t (th : thread) (v : Value.t) =
  match th.status with
  | Awaiting p ->
    if p.dst_slot >= 0 then (cur_frame th).regs.(p.dst_slot) <- v;
    t.cycles <- t.cycles + Cost.syscall;
    (match t.prof with
     | Some pr ->
       let frame = cur_frame th in
       Profile.charge_cycles pr ~op:Profile.op_syscall
         ~blk:(frame.prof_base + frame.bid) ~cost:Cost.syscall;
       Profile.charge_syscall pr ~sys:p.sys ~cost:Cost.syscall
     | None -> ());
    (match t.on_obs_syscall with Some f -> f t th p | None -> ());
    th.status <- Runnable;
    (* signal delivery point: syscall return *)
    deliver_signals t th
  | Runnable | Finished _ ->
    invalid_arg "Machine.provide_result: thread not awaiting"

(* A loop backedge barrier (Algorithm 3), applied where the thread
   stands: the counter reset to the header's value, the iteration bump,
   [Cost.barrier] and the obs hook.  The stepper then ends the quantum,
   as expiry does; no driver sees a barrier. *)
let apply_barrier t (th : thread) (frame : frame) ~loop ~dec =
  t.instr_events <- t.instr_events + 1;
  charge t frame Profile.op_loop_back Cost.barrier;
  let seg = cur_seg th in
  seg.cnt <- seg.cnt - dec;
  (match seg.loops with
   | (l, i) :: rest when l = loop -> seg.loops <- (l, i + 1) :: rest
   | _ -> trap "loop_back L%d: loop stack mismatch" loop);
  match t.on_obs_barrier with Some f -> f t th { loop; dec } | None -> ()

let record_cnt_sample t (th : thread) =
  let c = (cur_seg th).cnt in
  t.cnt_sum <- t.cnt_sum + c;
  t.cnt_samples <- t.cnt_samples + 1;
  if c > t.cnt_max then t.cnt_max <- c;
  match t.on_obs_cnt_sample with Some f -> f t th c | None -> ()

(* Common syscall dispatch tail: alarm countdown, counter bump, event. *)
let syscall_event t (th : thread) (frame : frame) (p : pending) : event option =
  (match th.alarm with
   | Some (1, signo) ->
     th.alarm <- None;
     raise_signal th signo
   | Some (k, signo) -> th.alarm <- Some (k - 1, signo)
   | None -> ());
  let seg = cur_seg th in
  seg.cnt <- seg.cnt + 1;
  record_cnt_sample t th;
  t.syscalls <- t.syscalls + 1;
  (* step counted at dispatch; the Cost.syscall cycles land in the
     same block at [provide_result] *)
  charge t frame Profile.op_syscall 0;
  th.status <- Awaiting p;
  Some (Ev_syscall th)

(* ------------------------------------------------------------------ *)
(* Scheduling decisions.                                               *)

exception Trapped of string

(* Exact-size runnable-set buffer for [Sched.pick] (which sizes the
   choice set by [Array.length]); cached per size, reused across
   decisions.  The scheduler copies the array if it retains it. *)
let scratch_of t (n : int) : int array =
  if Array.length t.scratch < n then begin
    let old = t.scratch in
    let no = Array.length old in
    t.scratch <-
      Array.init (max n 4) (fun i ->
          if i < no then old.(i) else Array.make (i + 1) 0)
  end;
  t.scratch.(n - 1)

(* One scheduling decision over [runnable] (spawn indexes — the
   dual-execution pairing key, which doubles as the [by_spawn] index):
   the pick, its validation and the obs hook.  A hostile or buggy
   scheduler naming an unknown or non-runnable spawn index is a clean
   trap, not an escaped exception.  The chosen thread runs
   [Sched.quantum t.sched] steps. *)
let decide t (runnable : int array) : thread =
  let c = Sched.pick t.sched ~runnable ~steps:t.steps in
  if c < 0 || c >= t.spawn_count then
    raise
      (Trapped (Printf.sprintf "scheduler pick: no thread with spawn index %d" c));
  let th = t.by_spawn.(c) in
  (match th.status with
   | Runnable -> ()
   | Awaiting _ | Finished _ ->
     raise
       (Trapped (Printf.sprintf "scheduler pick: thread %d is not runnable" c)));
  (match t.on_obs_sched with
   | Some f -> f t (Sched.last_decision t.sched)
   | None -> ());
  th

(* ------------------------------------------------------------------ *)
(* Flat quantum runner: the hot loop.                                  *)

(* Batched retirement of a maximal run of [n] consecutive bookkeeping
   instructions (cnt_add / loop_enter / loop_exit) starting at [pc0].
   Only entered when the whole run fits in the remaining quantum and
   fuel, so dispatch, fuel and quantum checks happen once per run
   instead of once per instruction.  Accounting is per-instruction and
   identical to the unbatched arms (the first instruction's step was
   already counted by the caller), so steps, cycles, instr_events and
   profile attribution stay bit-identical — including mid-run traps on
   malformed loop stacks. *)
let exec_instr_run t (th : thread) (frame : frame)
    (code : Eval.code Flat.finstr array) (pc0 : int) (n : int) : unit =
  let seg = cur_seg th in
  for pc = pc0 to pc0 + n - 1 do
    let ins = Array.unsafe_get code pc in
    if pc > pc0 then t.steps <- t.steps + 1;
    t.instr_events <- t.instr_events + 1;
    match ins.Flat.op with
    | 5 (* cnt_add *) ->
      charge t frame Profile.op_cnt_add Cost.cnt_instr;
      seg.cnt <- seg.cnt + ins.Flat.a
    | 6 (* loop_enter *) ->
      charge t frame Profile.op_loop_enter Cost.cnt_instr;
      seg.loops <- (ins.Flat.a, 0) :: seg.loops
    | _ (* loop_exit *) ->
      charge t frame Profile.op_loop_exit Cost.cnt_instr;
      let pops = ins.Flat.pops in
      for pi = 0 to Array.length pops - 1 do
        let l = Array.unsafe_get pops pi in
        match seg.loops with
        | (l', _) :: rest when l' = l -> seg.loops <- rest
        | _ -> trap "loop_exit L%d: loop stack mismatch" l
      done;
      seg.cnt <- seg.cnt + ins.Flat.b
  done;
  frame.idx <- pc0 + n

(* Execute up to [q0] instructions of [th] (which must be Runnable).
   Returns the event that ended the quantum early, or [None] when the
   quantum (or the thread's runnability) ran out.  [lone]: [th] was the
   only runnable thread at its pick, so an ended quantum refills in
   place (see [expire]).  The current frame's code/regs are held in
   locals and refetched only when the frame stack changes (call/ret),
   so the per-instruction cost is one int match, field loads and a
   call of the instruction's expression closures — no hashing, no list
   traversal, and no allocation beyond what the semantics demand
   (syscall argument lists, loop-stack conses, callee register files).  Reads through lowering-produced indices are
   unchecked: pc targets and register slots are in range by
   construction (every block ends in a redirecting terminator, slots
   are assigned below [nslots]); program-controlled indices — array
   loads/stores — keep their checks. *)
let run_quantum_flat t (th : thread) ~lone (q0 : int) : event option =
  let rec enter q =
    match th.frames with
    | [] -> None
    | frame :: _ ->
      run frame frame.fl.Flat.code frame.regs q
  (* The quantum ran out or a barrier ended it.  A lone thread is still
     the only runnable one: inside [run_until_event] only the running
     thread changes state, while other threads' statuses and the OS
     exit flag change only in the driver (syscall service and thread
     ops, signals delivered at syscall return, alarms counted in
     syscalls).  So the outer loop would make this very decision over
     [|th|]; make it here, after the same fuel check, and keep the
     cached frame. *)
  and expire frame code regs =
    if not lone then None
    else begin
      if t.steps >= t.max_steps then raise (Trapped "fuel exhausted");
      let runnable = scratch_of t 1 in
      runnable.(0) <- th.spawn_index;
      ignore (decide t runnable : thread);
      run frame code regs (Sched.quantum t.sched)
    end
  and run frame code regs q =
    if q = 0 then expire frame code regs
    else if t.steps >= t.max_steps then raise (Trapped "fuel exhausted")
    else begin
      let ins = Array.unsafe_get code frame.idx in
      t.steps <- t.steps + 1;
      frame.idx <- frame.idx + 1;
      frame.bid <- ins.Flat.i_bid;
      match ins.Flat.op with
      | 0 (* assign *) ->
        charge t frame Profile.op_assign Cost.instr;
        Array.unsafe_set regs ins.Flat.dst (ins.Flat.e1 regs);
        run frame code regs (q - 1)
      | 1 (* store *) ->
        charge t frame Profile.op_store Cost.instr;
        let va = Array.unsafe_get regs ins.Flat.a in
        if va == undef then trap "undefined variable %s" ins.Flat.name;
        let vi = ins.Flat.e1 regs in
        let ve = ins.Flat.e2 regs in
        (match (va, vi) with
         | Arr arr, Int k when k >= 0 && k < Array.length arr -> arr.(k) <- ve
         | _ -> store ins.Flat.name va vi ve);
        run frame code regs (q - 1)
      | 2 (* call: resolved callee, arity known-good — args evaluate
             straight into the callee's register file *) ->
        charge t frame Profile.op_call Cost.instr;
        let fl = Array.unsafe_get t.fprog.Flat.funcs ins.Flat.a in
        let callee_regs = Array.make fl.Flat.nslots undef in
        let args = ins.Flat.args in
        for i = 0 to Array.length args - 1 do
          Array.unsafe_set callee_regs i ((Array.unsafe_get args i) regs)
        done;
        let fn = fl.Flat.f_ir in
        th.frames <-
          { fn; fl; bid = fn.Ir.entry; idx = fl.Flat.entry_pc;
            regs = callee_regs; ret_dst = ins.Flat.dst;
            fresh = ins.Flat.fresh;
            prof_base = prof_base_of t fn.Ir.fname }
          :: th.frames;
        if ins.Flat.fresh then push_seg t th;
        enter (q - 1)
      | 3 (* call_indirect *) ->
        charge t frame Profile.op_call_indirect Cost.instr;
        let vf = ins.Flat.e1 regs in
        let vargs = Eval.eval_args ins.Flat.args regs in
        (match vf with
         | Fptr name ->
           (match func_by_name t name with
            | Some fl ->
              push_call t th ~fl ~vargs ~ret_dst:ins.Flat.dst ~fresh:true
            | None -> trap "indirect call to unknown function %s" name)
         | v -> trap "indirect call through non-funptr %s" (to_string v));
        enter (q - 1)
      | 4 (* syscall *) ->
        let vargs = Eval.eval_args ins.Flat.args regs in
        syscall_event t th frame
          { sys = ins.Flat.name; sysargs = vargs; dst_slot = ins.Flat.dst;
            site = ins.Flat.b }
      | 5 (* cnt_add *) ->
        let pc0 = frame.idx - 1 in
        let n = Array.unsafe_get frame.fl.Flat.instr_runs pc0 in
        if n > 1 && n <= q && t.steps + n - 1 <= t.max_steps then begin
          exec_instr_run t th frame code pc0 n;
          run frame code regs (q - n)
        end
        else begin
          charge t frame Profile.op_cnt_add Cost.cnt_instr;
          t.instr_events <- t.instr_events + 1;
          (cur_seg th).cnt <- (cur_seg th).cnt + ins.Flat.a;
          run frame code regs (q - 1)
        end
      | 6 (* loop_enter *) ->
        let pc0 = frame.idx - 1 in
        let n = Array.unsafe_get frame.fl.Flat.instr_runs pc0 in
        if n > 1 && n <= q && t.steps + n - 1 <= t.max_steps then begin
          exec_instr_run t th frame code pc0 n;
          run frame code regs (q - n)
        end
        else begin
          charge t frame Profile.op_loop_enter Cost.cnt_instr;
          t.instr_events <- t.instr_events + 1;
          let seg = cur_seg th in
          seg.loops <- (ins.Flat.a, 0) :: seg.loops;
          run frame code regs (q - 1)
        end
      | 7 (* loop_back *) ->
        apply_barrier t th frame ~loop:ins.Flat.a ~dec:ins.Flat.b;
        expire frame code regs
      | 8 (* loop_exit *) ->
        let pc0 = frame.idx - 1 in
        let n = Array.unsafe_get frame.fl.Flat.instr_runs pc0 in
        if n > 1 && n <= q && t.steps + n - 1 <= t.max_steps then begin
          exec_instr_run t th frame code pc0 n;
          run frame code regs (q - n)
        end
        else begin
          charge t frame Profile.op_loop_exit Cost.cnt_instr;
          t.instr_events <- t.instr_events + 1;
          let seg = cur_seg th in
          let pops = ins.Flat.pops in
          for pi = 0 to Array.length pops - 1 do
            let l = Array.unsafe_get pops pi in
            (match seg.loops with
             | (l', _) :: rest when l' = l -> seg.loops <- rest
             | _ -> trap "loop_exit L%d: loop stack mismatch" l)
          done;
          seg.cnt <- seg.cnt + ins.Flat.b;
          run frame code regs (q - 1)
        end
      | 9 (* jump *) ->
        charge t frame Profile.op_jump Cost.instr;
        frame.idx <- ins.Flat.a;
        run frame code regs (q - 1)
      | 10 (* branch *) ->
        charge t frame Profile.op_branch Cost.instr;
        frame.idx <-
          (if truthy (ins.Flat.e1 regs) then ins.Flat.a else ins.Flat.b);
        run frame code regs (q - 1)
      | 11 (* ret *) ->
        charge t frame Profile.op_ret Cost.instr;
        pop_frame t th (ins.Flat.e1 regs);
        (match th.status with
         | Runnable -> enter (q - 1)
         | Awaiting _ | Finished _ -> None)
      | 12 (* call with statically-known arity mismatch: args still
              evaluate first (their traps take precedence), then the
              historical runtime message *) ->
        charge t frame Profile.op_call Cost.instr;
        let args = ins.Flat.args in
        for i = 0 to Array.length args - 1 do
          ignore (args.(i) regs : Value.t)
        done;
        trap "call %s: arity mismatch (%d args, %d params)" ins.Flat.name
          ins.Flat.a ins.Flat.b
      | 13 (* call to a statically-unknown callee: same evaluation
              order, then the historical Invalid_argument from the name
              lookup *) ->
        charge t frame Profile.op_call Cost.instr;
        let args = ins.Flat.args in
        for i = 0 to Array.length args - 1 do
          ignore (args.(i) regs : Value.t)
        done;
        ignore (Ir.find_func_exn t.prog ins.Flat.name : Ir.func);
        run frame code regs (q - 1)
      | _ -> assert false
    end
  in
  enter q0

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)

let run_until_event (t : t) : event =
  let rec loop () =
    if Ldx_osim.Os.exited t.os then begin
      t.finished <- true;
      Ev_done
    end
    (* exact fuel bound: trap *before* the step that would exceed
       max_steps, so exactly max_steps steps execute *)
    else if t.steps >= t.max_steps then raise (Trapped "fuel exhausted")
    else
      match t.by_spawn.(0).status with
      | Finished _ ->
        t.finished <- true;
        Ev_done
      | Runnable | Awaiting _ ->
        let nthreads = t.spawn_count in
        let nr = ref 0 and waiting = ref false in
        for i = 0 to nthreads - 1 do
          match t.by_spawn.(i).status with
          | Runnable -> incr nr
          | Awaiting _ -> waiting := true
          | Finished _ -> ()
        done;
        if !nr = 0 then
          if !waiting then Ev_idle
          else begin
            t.finished <- true;
            Ev_done
          end
        else begin
          let runnable = scratch_of t !nr in
          let j = ref 0 in
          for i = 0 to nthreads - 1 do
            match t.by_spawn.(i).status with
            | Runnable ->
              runnable.(!j) <- i;
              incr j
            | Awaiting _ | Finished _ -> ()
          done;
          let th = decide t runnable in
          let q = Sched.quantum t.sched in
          (* the quantum runner re-checks fuel before every step:
             without that an execution could overshoot max_steps by a
             full quantum before the outer check fires *)
          match
            try run_quantum_flat t th ~lone:(!nr = 1) q
            with Trap msg -> raise (Trapped msg)
          with
          | Some e -> e
          | None -> loop ()
        end
  in
  if t.finished then Ev_done
  else
    try loop ()
    with Trapped msg ->
      t.trap <- Some msg;
      t.finished <- true;
      Ev_trap msg

let pending_of (th : thread) =
  match th.status with
  | Awaiting p -> p
  | Runnable | Finished _ ->
    invalid_arg "Machine.pending_of: thread not awaiting"

(* Average dynamic counter value (Table 1 "Dyn. Cnt"). *)
let dyn_cnt_avg t =
  if t.cnt_samples = 0 then 0.0
  else float_of_int t.cnt_sum /. float_of_int t.cnt_samples

(* ------------------------------------------------------------------ *)
(* Decouple-point snapshots (the machine half of lib/snap).

   A [snapshot] is a canonical, self-contained pure-data projection of
   the machine: no Hashtbls (sorted assoc lists instead), no closures,
   no aliases into the live machine.  Values are deep-copied through a
   physical-identity memo, so aliasing — including cyclic arrays — is
   preserved INSIDE the snapshot but severed from the original; the
   machine may keep running after [snapshot], and one snapshot supports
   any number of [restore]s (restore deep-copies again).  The canonical
   form is what makes snapshots comparison- and Marshal-stable: equal
   machine states project to structurally equal snapshots regardless of
   Hashtbl capacity or insertion history — the property [Ldx_snap]'s
   [equal] and [fingerprint] rest on.

   NOT captured: the program ([prog]/[fprog] are immutable and shared —
   [restore] takes them as inputs), the profile (a restored machine is
   unprofiled), the obs hooks and lock gate (consumers reinstall after
   restore), the OS world (the caller's business: a canonical
   projection in [Ldx_snap]), and the scratch buffers
   (rebuilt on demand).  Capture is a pull operation — a machine that
   is never snapshotted pays nothing. *)

type sframe = {
  sf_fname : string;
  sf_bid : int;
  sf_idx : int;
  sf_regs : Value.t array;   (* undef slots hold [Unit]; see [sf_undef] *)
  sf_undef : bool array;     (* per-slot: the live slot was the sentinel *)
  sf_ret_dst : int;
  sf_fresh : bool;
}

type sjmp = {
  sj_key : string;
  sj_frames : int list;      (* frame-table indexes, top first *)
  sj_bid : int;
  sj_idx : int;
  sj_dst : int;
  sj_segs : (int * (int * int) list) list;
}

type spending = {
  sp_sys : string;
  sp_args : Value.t list;
  sp_dst_slot : int;
  sp_site : int;
}

type sstatus =
  | S_runnable
  | S_awaiting of spending
  | S_finished of Value.t

type sthread = {
  sth_tid : int;
  sth_spawn : int;
  sth_table : sframe array;
      (* every frame reachable from the stack or a jmp_buf, in first-
         encounter order (stack top first, then key-sorted jmp_bufs) *)
  sth_stack : int list;      (* th.frames as table indexes, top first *)
  sth_segs : (int * (int * int) list) list;  (* (cnt, loops), top first *)
  sth_status : sstatus;
  sth_jmps : sjmp list;      (* key-sorted *)
  sth_alarm : (int * int) option;
  sth_signals : int list;
}

type snapshot = {
  sn_threads : sthread array;          (* creation order *)
  sn_next_tid : int;
  sn_spawn_count : int;
  sn_locks : (string * (int option * int)) list;
      (* key-sorted: lock -> (owner tid, acquisitions) *)
  sn_handlers : (int * string) list;   (* signo-sorted *)
  sn_lock_trace : (string * int) list;
  sn_sched : Sched.state;              (* private copy, log preserved *)
  sn_steps : int;
  sn_cycles : int;
  sn_syscalls : int;
  sn_instr_events : int;
  sn_finished : bool;
  sn_trap : string option;
  sn_max_steps : int;
  sn_cnt_sum : int;
  sn_cnt_max : int;
  sn_cnt_samples : int;
  sn_max_seg_depth : int;
}

(* Deep value copy through a memo keyed on the payload array's physical
   identity.  Registering the destination BEFORE copying elements makes
   cyclic arrays (a.(0) == a) terminate; keying on identity keeps
   aliased arrays aliased in the copy — sharing is semantics here: a
   store through one alias must stay visible through the other after
   restore.  The memo is an assoc list scanned with [==]: captures see
   few distinct arrays, and an O(n^2) scan beats dragging in a
   physical-equality hashtable.  Zero-length payloads are skipped (all
   zero-length arrays share one atom, including [undef]'s payload). *)
let rec copy_value (memo : (Value.t array * Value.t array) list ref)
    (v : Value.t) : Value.t =
  match v with
  | Unit | Int _ | Str _ | Fptr _ | Tainted _ -> v
  | Arr a ->
    if Array.length a = 0 then Arr [||]
    else begin
      let rec find = function
        | [] -> None
        | (src, dst) :: rest -> if src == a then Some dst else find rest
      in
      match find !memo with
      | Some dst -> Arr dst
      | None ->
        let dst = Array.make (Array.length a) Unit in
        memo := (a, dst) :: !memo;
        Array.iteri (fun i x -> dst.(i) <- copy_value memo x) a;
        Arr dst
    end

let snapshot (t : t) : snapshot =
  let vmemo = ref [] in
  let cv v = copy_value vmemo v in
  let snap_frame (f : frame) : sframe =
    let n = Array.length f.regs in
    let regs = Array.make n Unit and und = Array.make n false in
    for i = 0 to n - 1 do
      let v = f.regs.(i) in
      (* [undef] is structurally an [Arr [||]], indistinguishable from a
         legitimate empty array — mask it out by physical identity.  It
         only ever lives directly in register slots (reads of it trap
         before it can flow anywhere else). *)
      if v == undef then und.(i) <- true else regs.(i) <- cv v
    done;
    { sf_fname = f.fn.Ir.fname; sf_bid = f.bid; sf_idx = f.idx;
      sf_regs = regs; sf_undef = und; sf_ret_dst = f.ret_dst;
      sf_fresh = f.fresh }
  in
  let snap_thread (th : thread) : sthread =
    (* Frame table: frames form a DAG, not a stack — jmp_bufs ALIAS live
       frames (and may keep popped frames reachable), and restore must
       rebuild exactly that shape.  Dedup by physical identity into a
       table; stacks become index lists.  jmp_bufs are key-sorted before
       traversal so table order never depends on Hashtbl iteration. *)
    let fmemo : (frame * int) list ref = ref [] in
    let rev_table = ref [] and ntable = ref 0 in
    let index_of (f : frame) : int =
      let rec find = function
        | [] -> None
        | (g, i) :: rest -> if g == f then Some i else find rest
      in
      match find !fmemo with
      | Some i -> i
      | None ->
        let i = !ntable in
        incr ntable;
        fmemo := (f, i) :: !fmemo;
        rev_table := snap_frame f :: !rev_table;
        i
    in
    let stack = List.map index_of th.frames in
    let jmps =
      Hashtbl.fold (fun k b acc -> (k, b) :: acc) th.jmp_bufs []
      |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
      |> List.map (fun (key, (b : jmp_buf)) ->
          { sj_key = key;
            sj_frames = List.map index_of b.j_frames;
            sj_bid = b.j_bid; sj_idx = b.j_idx; sj_dst = b.j_dst;
            sj_segs = b.j_segs })
    in
    let status =
      match th.status with
      | Runnable -> S_runnable
      | Awaiting p ->
        S_awaiting { sp_sys = p.sys; sp_args = List.map cv p.sysargs;
                     sp_dst_slot = p.dst_slot; sp_site = p.site }
      | Finished v -> S_finished (cv v)
    in
    { sth_tid = th.tid; sth_spawn = th.spawn_index;
      sth_table = Array.of_list (List.rev !rev_table);
      sth_stack = stack;
      sth_segs = List.map (fun s -> (s.cnt, s.loops)) th.segs;
      sth_status = status;
      sth_jmps = jmps;
      sth_alarm = th.alarm;
      sth_signals = th.pending_signals }
  in
  let locks =
    Hashtbl.fold
      (fun k (l : lock_state) acc -> (k, (l.owner, l.acquisitions)) :: acc)
      t.locks []
    |> List.sort compare
  in
  let handlers =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sig_handlers []
    |> List.sort compare
  in
  { sn_threads = Array.of_list (List.map snap_thread t.threads);
    sn_next_tid = t.next_tid;
    sn_spawn_count = t.spawn_count;
    sn_locks = locks;
    sn_handlers = handlers;
    sn_lock_trace = t.lock_trace;
    sn_sched = Sched.copy_full t.sched;
    sn_steps = t.steps;
    sn_cycles = t.cycles;
    sn_syscalls = t.syscalls;
    sn_instr_events = t.instr_events;
    sn_finished = t.finished;
    sn_trap = t.trap;
    sn_max_steps = t.max_steps;
    sn_cnt_sum = t.cnt_sum;
    sn_cnt_max = t.cnt_max;
    sn_cnt_samples = t.cnt_samples;
    sn_max_seg_depth = t.max_seg_depth }

let restore ~(prog : Ir.program) ~(fprog : compiled) (os : Ldx_osim.Os.t)
    (snap : snapshot) : t =
  let vmemo = ref [] in
  let rv v = copy_value vmemo v in
  let build_frame (sf : sframe) : frame =
    let fi =
      match Hashtbl.find_opt fprog.Flat.fidx sf.sf_fname with
      | Some fi -> fi
      | None ->
        invalid_arg
          (Printf.sprintf "Machine.restore: unknown function %s" sf.sf_fname)
    in
    let fl = fprog.Flat.funcs.(fi) in
    if Array.length sf.sf_regs <> fl.Flat.nslots then
      invalid_arg
        (Printf.sprintf
           "Machine.restore: %s has %d slots, snapshot carries %d"
           sf.sf_fname fl.Flat.nslots (Array.length sf.sf_regs));
    let regs =
      Array.init fl.Flat.nslots (fun i ->
          if sf.sf_undef.(i) then undef else rv sf.sf_regs.(i))
    in
    { fn = fl.Flat.f_ir; fl; bid = sf.sf_bid; idx = sf.sf_idx;
      regs; ret_dst = sf.sf_ret_dst; fresh = sf.sf_fresh; prof_base = 0 }
  in
  let build_thread (st : sthread) : thread =
    let table = Array.map build_frame st.sth_table in
    let frame i =
      if i < 0 || i >= Array.length table then
        invalid_arg "Machine.restore: frame index out of range"
      else table.(i)
    in
    let jmp_bufs = Hashtbl.create (max 4 (List.length st.sth_jmps)) in
    List.iter
      (fun sj ->
         Hashtbl.replace jmp_bufs sj.sj_key
           { j_frames = List.map frame sj.sj_frames;
             j_bid = sj.sj_bid; j_idx = sj.sj_idx; j_dst = sj.sj_dst;
             j_segs = sj.sj_segs })
      st.sth_jmps;
    { tid = st.sth_tid; spawn_index = st.sth_spawn;
      frames = List.map frame st.sth_stack;
      segs = List.map (fun (cnt, loops) -> { cnt; loops }) st.sth_segs;
      status =
        (match st.sth_status with
         | S_runnable -> Runnable
         | S_awaiting p ->
           Awaiting { sys = p.sp_sys; sysargs = List.map rv p.sp_args;
                      dst_slot = p.sp_dst_slot; site = p.sp_site }
         | S_finished v -> Finished (rv v));
      jmp_bufs;
      alarm = st.sth_alarm;
      pending_signals = st.sth_signals }
  in
  if Array.length snap.sn_threads = 0 then
    invalid_arg "Machine.restore: snapshot has no threads";
  let threads = Array.to_list (Array.map build_thread snap.sn_threads) in
  let locks = Hashtbl.create 8 in
  List.iter
    (fun (k, (owner, acquisitions)) ->
       Hashtbl.replace locks k { owner; acquisitions })
    snap.sn_locks;
  let sig_handlers = Hashtbl.create 4 in
  List.iter (fun (k, v) -> Hashtbl.replace sig_handlers k v)
    snap.sn_handlers;
  let t =
    { prog; fprog; os;
      threads;
      by_spawn = Array.make (max 4 snap.sn_spawn_count) (List.hd threads);
      next_tid = snap.sn_next_tid;
      spawn_count = snap.sn_spawn_count;
      scratch = [||];
      locks;
      sig_handlers;
      lock_trace = snap.sn_lock_trace;
      lock_gate = None;
      sched = Sched.copy_full snap.sn_sched;
      steps = snap.sn_steps;
      cycles = snap.sn_cycles;
      syscalls = snap.sn_syscalls;
      instr_events = snap.sn_instr_events;
      finished = snap.sn_finished;
      trap = snap.sn_trap;
      max_steps = snap.sn_max_steps;
      cnt_sum = snap.sn_cnt_sum;
      cnt_max = snap.sn_cnt_max;
      cnt_samples = snap.sn_cnt_samples;
      max_seg_depth = snap.sn_max_seg_depth;
      on_obs_syscall = None;
      on_obs_barrier = None;
      on_obs_cnt_sample = None;
      on_obs_sched = None;
      prof = None }
  in
  List.iter (register_thread t) threads;
  t
