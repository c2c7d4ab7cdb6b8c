(* Flat bytecode: the execution form of the IR.

   [compile] lowers an {!Ir.program} once into, per function, a single
   flat instruction array with
   - integer opcodes (ids 0..11 deliberately equal the VM profile's
     dense opcode ids, so dispatch and attribution share one numbering),
   - locals resolved to integer register slots (params first, then
     first-use order; reads of a never-written slot are detected at run
     time through a sentinel and trap as undefined variables),
   - jump targets resolved to instruction indexes (blocks are
     concatenated in bid order, each ending with its explicit
     terminator instruction),
   - direct calls resolved to function indexes, with statically-known
     failures (unknown callee, arity mismatch) lowered to dedicated
     trap opcodes that keep the runtime error order and messages of a
     dynamic lookup (arguments first, then the call's own trap),
   - every instruction carrying its origin block id, which keeps the
     profile's [prof_base + bid] block-attribution contract intact.

   Two type parameters are injected through {!consts}, so this lowering
   does not depend on the VM: the constant type ('v, the VM's runtime
   values) and the executable form of an expression ('c), built once
   per expression by [c_expr] from the lowered ['v fexpr].  The VM
   makes closures over the register file; a taint tracker's closures
   differ only in the builtin rule they call. *)

module Ast = Ldx_lang.Ast

type 'v fexpr =
  | Const of 'v
  | Reg of int
  | Unop of Ast.unop * 'v fexpr
  | Binop of Ast.binop * 'v fexpr * 'v fexpr
  | Index of 'v fexpr * 'v fexpr
  | Builtin of string * 'v fexpr array
  (* Specialized shapes for the dominant leaf patterns (reg op reg,
     reg op const, const op reg, arr[reg]).  Produced by the smart
     constructors in [cexpr]; they save one or two recursive
     evaluations per node on the interpreter hot path and are
     semantically identical to the general forms they replace
     (including operand evaluation order for traps). *)
  | BinopRR of Ast.binop * int * int
  | BinopRC of Ast.binop * int * 'v
  | BinopCR of Ast.binop * 'v * int
  | IndexRR of int * int

(* Opcodes.  0..11 match Ldx_vm.Profile's dense opcode ids (asserted at
   VM module init); 12..13 are synthetic compile-time-diagnosed call
   failures, charged as op_call. *)
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
let op_call_arity = 12
let op_call_missing = 13
let n_ops = 14

(* One flat instruction.  A fat record rather than a variant so that
   dispatch is a single int match and operand access is field loads;
   field meaning per opcode:
   - assign: dst, e1
   - store: a = array slot, name = array var (trap messages), e1 =
     index, e2 = value
   - call: a = callee function index, args, dst, fresh
   - call_indirect: e1 = fptr, args, dst, b = site (always fresh)
   - syscall: name = syscall, args, dst, b = site
   - cnt_add: a = k
   - loop_enter: a = loop id
   - loop_back: a = loop id, b = dec
   - loop_exit: pops, b = bump
   - jump: a = target pc
   - branch: e1 = cond, a = then pc, b = else pc
   - ret: e1 (Const unit when the IR returns nothing)
   - call_arity: name = callee, a = #args, b = #params, args, dst
   - call_missing: name = callee, args, dst
   Expressions are carried in the engine's compiled form ('c). *)
type 'c finstr = {
  op : int;
  i_bid : int;             (* origin block: profile attribution target *)
  dst : int;               (* destination slot; -1 = none *)
  a : int;
  b : int;
  e1 : 'c;
  e2 : 'c;
  args : 'c array;
  name : string;
  pops : int array;
  fresh : bool;
}

type 'c func = {
  f_ir : Ir.func;
  code : 'c finstr array;
  block_pc : int array;    (* bid -> pc of the block's first instruction *)
  entry_pc : int;
  nslots : int;
  nparams : int;           (* params occupy slots 0..nparams-1, in order *)
  slot_names : string array;      (* slot -> source name (trap messages) *)
  slot_of : (string, int) Hashtbl.t;  (* name -> slot (Eval.eval_reg) *)
  instr_runs : int array;
  (* [instr_runs.(pc)] is the length of the maximal run of consecutive
     pure-bookkeeping instrumentation instructions (cnt_add, loop_enter,
     loop_exit — NOT loop_back, which is a barrier) starting at [pc];
     0 when [code.(pc)] is any other opcode.  Runs never cross block
     boundaries (every block ends in a non-instrumentation terminator),
     so all instructions of a run share [i_bid].  The VM's batched fast
     path uses this to retire a whole run in one dispatch. *)
}

type 'c program = {
  p_ir : Ir.program;
  funcs : 'c func array;   (* aligned with [p_ir.funcs] *)
  fidx : (string, int) Hashtbl.t;  (* fname -> index, first occurrence *)
}

(* Injections: how source literals become the engine's values, and how
   a lowered expression becomes its executable form.  [c_expr names e]
   runs once per expression at compile time; [names] maps the
   function's slots to source names (trap messages). *)
type ('v, 'c) consts = {
  c_unit : 'v;
  c_int : int -> 'v;
  c_str : string -> 'v;
  c_fun : string -> 'v;
  c_expr : string array -> 'v fexpr -> 'c;
}

(* ------------------------------------------------------------------ *)
(* Slot assignment: params first (duplicates get fresh positional
   slots, the name maps to the last one), then every other name in
   first-use order over blocks/instrs.  Deterministic, so slot
   numbering is stable across compiles. *)

let collect_slots (f : Ir.func) : (string, int) Hashtbl.t * string array =
  let slot_of = Hashtbl.create 32 in
  let rev_names = ref [] in
  let n = ref 0 in
  let fresh name =
    let s = !n in
    incr n;
    rev_names := name :: !rev_names;
    s
  in
  List.iter (fun p -> Hashtbl.replace slot_of p (fresh p)) f.Ir.params;
  let add name =
    if not (Hashtbl.mem slot_of name) then
      Hashtbl.replace slot_of name (fresh name)
  in
  let add_opt = function Some d -> add d | None -> () in
  let rec walk (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Str _ | Ast.Funref _ -> ()
    | Ast.Var x -> add x
    | Ast.Unop (_, a) -> walk a
    | Ast.Binop (_, a, b) -> walk a; walk b
    | Ast.Index (a, i) -> walk a; walk i
    | Ast.Call (_, args) -> List.iter walk args
  in
  Array.iter
    (fun (b : Ir.block) ->
       Array.iter
         (fun (ins : Ir.instr) ->
            match ins with
            | Ir.Assign (x, e) -> walk e; add x
            | Ir.Store (a, i, e) -> add a; walk i; walk e
            | Ir.Call { dst; args; _ } -> List.iter walk args; add_opt dst
            | Ir.Call_indirect { dst; fptr; args; _ } ->
              walk fptr; List.iter walk args; add_opt dst
            | Ir.Syscall { dst; args; _ } -> List.iter walk args; add_opt dst
            | Ir.Cnt_add _ | Ir.Loop_enter _ | Ir.Loop_back _
            | Ir.Loop_exit _ -> ())
         b.Ir.instrs;
       match b.Ir.term with
       | Ir.Branch (c, _, _) -> walk c
       | Ir.Ret (Some e) -> walk e
       | Ir.Jump _ | Ir.Ret None -> ())
    f.Ir.blocks;
  (slot_of, Array.of_list (List.rev !rev_names))

(* ------------------------------------------------------------------ *)
(* Code emission.                                                      *)

let compile_func (cs : ('v, 'c) consts) (prog : Ir.program)
    (fidx : (string, int) Hashtbl.t) (slot_of : (string, int) Hashtbl.t)
    (slot_names : string array) (f : Ir.func) : 'c func =
  let nil = cs.c_expr slot_names (Const cs.c_unit) in
  let mk ?(dst = -1) ?(a = 0) ?(b = 0) ?(e1 = nil) ?(e2 = nil) ?(args = [||])
      ?(name = "") ?(pops = [||]) ?(fresh = false) op i_bid =
    { op; i_bid; dst; a; b; e1; e2; args; name; pops; fresh }
  in
  let rec cexpr (e : Ast.expr) : 'v fexpr =
    match e with
    | Ast.Int n -> Const (cs.c_int n)
    | Ast.Str s -> Const (cs.c_str s)
    | Ast.Funref g -> Const (cs.c_fun g)
    | Ast.Var x -> Reg (Hashtbl.find slot_of x)
    | Ast.Unop (op, a) -> Unop (op, cexpr a)
    | Ast.Binop (op, a, b) ->
      (match (cexpr a, cexpr b) with
       | Reg i, Reg j -> BinopRR (op, i, j)
       | Reg i, Const v -> BinopRC (op, i, v)
       | Const v, Reg j -> BinopCR (op, v, j)
       | fa, fb -> Binop (op, fa, fb))
    | Ast.Index (a, i) ->
      (match (cexpr a, cexpr i) with
       | Reg x, Reg y -> IndexRR (x, y)
       | fa, fi -> Index (fa, fi))
    | Ast.Call (name, args) ->
      Builtin (name, Array.of_list (List.map cexpr args))
  in
  let cx e = cs.c_expr slot_names (cexpr e) in
  let cargs args = Array.of_list (List.map cx args) in
  let slot x = Hashtbl.find slot_of x in
  let slot_opt = function Some d -> slot d | None -> -1 in
  let nb = Array.length f.Ir.blocks in
  let block_pc = Array.make nb 0 in
  let len = ref 0 in
  Array.iteri
    (fun bi (b : Ir.block) ->
       block_pc.(bi) <- !len;
       len := !len + Array.length b.Ir.instrs + 1)
    f.Ir.blocks;
  let code = Array.make (max 1 !len) (mk op_ret 0) in
  Array.iteri
    (fun bi (b : Ir.block) ->
       let pc = ref block_pc.(bi) in
       let emit ins = code.(!pc) <- ins; incr pc in
       Array.iter
         (fun (ins : Ir.instr) ->
            match ins with
            | Ir.Assign (x, e) ->
              emit (mk op_assign bi ~dst:(slot x) ~e1:(cx e))
            | Ir.Store (a, i, e) ->
              emit
                (mk op_store bi ~a:(slot a) ~name:a ~e1:(cx i) ~e2:(cx e))
            | Ir.Call { dst; callee; args; fresh_frame } ->
              let args = cargs args in
              let dst = slot_opt dst in
              (match Hashtbl.find_opt fidx callee with
               | None ->
                 emit (mk op_call_missing bi ~name:callee ~args ~dst)
               | Some fi ->
                 let nparams =
                   List.length prog.Ir.funcs.(fi).Ir.params
                 in
                 let nargs = Array.length args in
                 if nargs <> nparams then
                   emit
                     (mk op_call_arity bi ~name:callee ~a:nargs ~b:nparams
                        ~args ~dst)
                 else
                   emit (mk op_call bi ~a:fi ~args ~dst ~fresh:fresh_frame))
            | Ir.Call_indirect { dst; fptr; args; site } ->
              emit
                (mk op_call_indirect bi ~e1:(cx fptr) ~args:(cargs args)
                   ~dst:(slot_opt dst) ~b:site)
            | Ir.Syscall { dst; sys; args; site } ->
              emit
                (mk op_syscall bi ~name:sys ~args:(cargs args)
                   ~dst:(slot_opt dst) ~b:site)
            | Ir.Cnt_add k -> emit (mk op_cnt_add bi ~a:k)
            | Ir.Loop_enter { loop } -> emit (mk op_loop_enter bi ~a:loop)
            | Ir.Loop_back { loop; dec } ->
              emit (mk op_loop_back bi ~a:loop ~b:dec)
            | Ir.Loop_exit { pops; bump } ->
              emit
                (mk op_loop_exit bi ~pops:(Array.of_list pops) ~b:bump))
         b.Ir.instrs;
       match b.Ir.term with
       | Ir.Jump l -> emit (mk op_jump bi ~a:block_pc.(l))
       | Ir.Branch (c, bt, bf) ->
         emit
           (mk op_branch bi ~e1:(cx c) ~a:block_pc.(bt) ~b:block_pc.(bf))
       | Ir.Ret None -> emit (mk op_ret bi)
       | Ir.Ret (Some e) -> emit (mk op_ret bi ~e1:(cx e)))
    f.Ir.blocks;
  let instr_runs = Array.make (Array.length code) 0 in
  for pc = Array.length code - 1 downto 0 do
    match code.(pc).op with
    | 5 (* cnt_add *) | 6 (* loop_enter *) | 8 (* loop_exit *) ->
      instr_runs.(pc) <-
        1 + (if pc + 1 < Array.length code then instr_runs.(pc + 1) else 0)
    | _ -> ()
  done;
  { f_ir = f;
    code;
    block_pc;
    entry_pc = block_pc.(f.Ir.entry);
    nslots = Array.length slot_names;
    nparams = List.length f.Ir.params;
    slot_names;
    slot_of;
    instr_runs }

let compile (cs : ('v, 'c) consts) (prog : Ir.program) : 'c program =
  let nf = Array.length prog.Ir.funcs in
  let fidx = Hashtbl.create (2 * nf) in
  Array.iteri
    (fun i (f : Ir.func) ->
       if not (Hashtbl.mem fidx f.Ir.fname) then
         Hashtbl.replace fidx f.Ir.fname i)
    prog.Ir.funcs;
  let funcs =
    Array.map
      (fun f ->
         let slot_of, slot_names = collect_slots f in
         compile_func cs prog fidx slot_of slot_names f)
      prog.Ir.funcs
  in
  { p_ir = prog; funcs; fidx }

(* ------------------------------------------------------------------ *)
(* Debug printing (opcode table mirrors DESIGN.md).                    *)

let op_names =
  [| "assign"; "store"; "call"; "call_indirect"; "syscall"; "cnt_add";
     "loop_enter"; "loop_back"; "loop_exit"; "jump"; "branch"; "ret";
     "call_arity"; "call_missing" |]

let func_to_string (fl : 'c func) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "flat %s: %d instrs, %d slots (%d params)\n"
       fl.f_ir.Ir.fname (Array.length fl.code) fl.nslots fl.nparams);
  Array.iteri
    (fun pc (ins : 'c finstr) ->
       Buffer.add_string buf
         (Printf.sprintf "  %3d: b%-2d %-13s dst=%d a=%d b=%d%s\n" pc
            ins.i_bid op_names.(ins.op) ins.dst ins.a ins.b
            (if ins.name = "" then "" else " " ^ ins.name)))
    fl.code;
  Buffer.contents buf
