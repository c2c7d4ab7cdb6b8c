(* Deterministic in-VM cost attribution (the instrument panel for the
   flat-bytecode rewrite and every later perf PR).

   A profile is a set of flat integer counter arrays bumped at the same
   points the virtual clock is charged:

   - per-opcode steps and cycles (indexed by a dense opcode id),
   - per-CFG-block steps and cycles (indexed by [frame.prof_base + bid],
     where [prof_base] is the function's base in a global flat block
     numbering computed once per program),
   - per-syscall counts and cycles (cold path: one Hashtbl bump per
     serviced syscall),
   - engine-level coupling categories charged by the slave wrapper
     (share_copy, couple_stall, sink_compare).

   The hot path allocates nothing: every charge is two or four array
   increments behind a [t option] check, so a machine with no profile
   pays one pointer comparison per charge site — the same zero-cost
   discipline as the obs hooks, and the no-perturbation invariant
   (verdicts and engine counters bit-identical with profiling on/off)
   is pinned by test_prof.ml.

   Everything recorded here is derived from the deterministic virtual
   clock, so profiles are bit-reproducible: same program, same world,
   same seeds => same profile. *)

module Ir = Ldx_cfg.Ir

(* Dense opcode ids.  Dispatch sites index these directly; keep
   [op_names] in sync. *)
let op_assign = 0
let op_store = 1
let op_call = 2
let op_call_indirect = 3
let op_syscall = 4
let op_cnt_add = 5
let op_loop_enter = 6
let op_loop_back = 7
let op_loop_exit = 8
let op_jump = 9
let op_branch = 10
let op_ret = 11
let n_ops = 12

let op_names =
  [| "assign"; "store"; "call"; "call_indirect"; "syscall"; "cnt_add";
     "loop_enter"; "loop_back"; "loop_exit"; "jump"; "branch"; "ret" |]

(* Engine-level coupling categories: cycles the slave's clock gains
   outside ordinary dispatch.  [couple_stall] is the fast-forward to the
   producing master stamp on a copy (the two-CPU wait); [share_copy] and
   [sink_compare] are the fixed Cost charges on the copy path. *)
let eng_share_copy = 0
let eng_couple_stall = 1
let eng_sink_compare = 2
let n_eng = 3
let eng_names = [| "share_copy"; "couple_stall"; "sink_compare" |]

type layout = {
  bases : (string, int) Hashtbl.t;        (* fname -> flat block base *)
  l_funcs : (string * int * int) array;   (* fname, base, nblocks *)
  total_blocks : int;
}

type t = {
  op_steps : int array;
  op_cycles : int array;
  eng_counts : int array;
  eng_cycles : int array;
  sys_counts : (string, int ref) Hashtbl.t;
  sys_cycles : (string, int ref) Hashtbl.t;
  mutable layout : layout option;
  mutable blk_steps : int array;
  mutable blk_cycles : int array;
}

let create () =
  { op_steps = Array.make n_ops 0;
    op_cycles = Array.make n_ops 0;
    eng_counts = Array.make n_eng 0;
    eng_cycles = Array.make n_eng 0;
    sys_counts = Hashtbl.create 8;
    sys_cycles = Hashtbl.create 8;
    layout = None;
    blk_steps = [||];
    blk_cycles = [||] }

(* Compute the flat block numbering of [prog] (funcs in program order,
   blocks in index order) and size the per-block arrays.  Idempotent:
   a profile stays attached to the first program it saw, so one profile
   must not be shared between machines running different programs. *)
let attach (p : t) (prog : Ir.program) : unit =
  match p.layout with
  | Some _ -> ()
  | None ->
    let n = Array.length prog.Ir.funcs in
    let bases = Hashtbl.create (2 * n) in
    let l_funcs = Array.make n ("", 0, 0) in
    let total = ref 0 in
    Array.iteri
      (fun i (f : Ir.func) ->
         let nb = Array.length f.Ir.blocks in
         Hashtbl.replace bases f.Ir.fname !total;
         l_funcs.(i) <- (f.Ir.fname, !total, nb);
         total := !total + nb)
      prog.Ir.funcs;
    p.layout <- Some { bases; l_funcs; total_blocks = !total };
    p.blk_steps <- Array.make (max 1 !total) 0;
    p.blk_cycles <- Array.make (max 1 !total) 0

let base_of (p : t) (fname : string) : int =
  match p.layout with
  | None -> 0
  | Some l -> (
      match Hashtbl.find_opt l.bases fname with Some b -> b | None -> 0)

(* One dispatch: a step (and [cost] cycles) attributed to opcode [op]
   and flat block [blk]. *)
(* Unchecked accesses: [op] is a dense opcode id (< n_ops) and [blk] is
   [base_of fname + bid] against the attached layout — both in range by
   construction at every call site ([attach] runs in [Machine.create]
   before any charge).  This runs once per interpreted instruction. *)
let[@inline] charge (p : t) ~op ~blk ~cost =
  Array.unsafe_set p.op_steps op (Array.unsafe_get p.op_steps op + 1);
  Array.unsafe_set p.op_cycles op (Array.unsafe_get p.op_cycles op + cost);
  Array.unsafe_set p.blk_steps blk (Array.unsafe_get p.blk_steps blk + 1);
  Array.unsafe_set p.blk_cycles blk (Array.unsafe_get p.blk_cycles blk + cost)

(* Cycles charged after the dispatch step was already counted (syscall
   service at [provide_result]): cycles only, no step. *)
let[@inline] charge_cycles (p : t) ~op ~blk ~cost =
  p.op_cycles.(op) <- p.op_cycles.(op) + cost;
  p.blk_cycles.(blk) <- p.blk_cycles.(blk) + cost

let bump tbl key k =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + k
  | None -> Hashtbl.replace tbl key (ref k)

(* Per-syscall breakdown, keyed by syscall name (cold path). *)
let charge_syscall (p : t) ~(sys : string) ~cost =
  bump p.sys_counts sys 1;
  bump p.sys_cycles sys cost

let charge_engine (p : t) ~cat ~cycles =
  p.eng_counts.(cat) <- p.eng_counts.(cat) + 1;
  p.eng_cycles.(cat) <- p.eng_cycles.(cat) + cycles

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type row = { r_name : string; r_steps : int; r_cycles : int }

type block_row = {
  b_func : string;
  b_bid : int;
  b_steps : int;
  b_cycles : int;
}

type snapshot = {
  s_ops : row list;           (* opcode order, zero rows dropped *)
  s_blocks : block_row list;  (* program order, zero rows dropped *)
  s_syscalls : row list;      (* name-sorted *)
  s_engine : row list;        (* category order, zero rows dropped *)
  s_total_steps : int;
  s_total_cycles : int;       (* ops + engine: equals the side's clock *)
}

let snapshot (p : t) : snapshot =
  let rows names counts cycles =
    let acc = ref [] in
    for i = Array.length names - 1 downto 0 do
      if counts.(i) <> 0 || cycles.(i) <> 0 then
        acc :=
          { r_name = names.(i); r_steps = counts.(i); r_cycles = cycles.(i) }
          :: !acc
    done;
    !acc
  in
  let blocks =
    match p.layout with
    | None -> []
    | Some l ->
      let acc = ref [] in
      Array.iter
        (fun (fname, base, nb) ->
           for bid = 0 to nb - 1 do
             let i = base + bid in
             if p.blk_steps.(i) <> 0 || p.blk_cycles.(i) <> 0 then
               acc :=
                 { b_func = fname; b_bid = bid; b_steps = p.blk_steps.(i);
                   b_cycles = p.blk_cycles.(i) }
                 :: !acc
           done)
        l.l_funcs;
      List.rev !acc
  in
  let syscalls =
    Hashtbl.fold
      (fun sys c acc ->
         let cyc =
           match Hashtbl.find_opt p.sys_cycles sys with
           | Some r -> !r
           | None -> 0
         in
         { r_name = sys; r_steps = !c; r_cycles = cyc } :: acc)
      p.sys_counts []
    |> List.sort (fun a b -> compare a.r_name b.r_name)
  in
  let sum a = Array.fold_left ( + ) 0 a in
  { s_ops = rows op_names p.op_steps p.op_cycles;
    s_blocks = blocks;
    s_syscalls = syscalls;
    s_engine = rows eng_names p.eng_counts p.eng_cycles;
    s_total_steps = sum p.op_steps;
    s_total_cycles = sum p.op_cycles + sum p.eng_cycles }
