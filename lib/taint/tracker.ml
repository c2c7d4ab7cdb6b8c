(* The dynamic-tainting baseline engines (LIBDFT-like and TaintGrind-like).

   A direct recursive interpreter over the same IR the VM executes, with
   shadow taint on every value.  Differences from LDX that the paper's
   Table 3 hinges on:
   - propagation is data-dependence only (branch conditions never taint
     the values computed under them);
   - the LibDFT model additionally drops taint across a set of library
     calls (Names.libdft_unmodeled);
   - the engine monitors every instruction, which the cost model charges
     at Cost.taint_shadow extra cycles per instruction (the ~6x slowdown
     of Sec. 8.1).

   Threads are sequentialized ([spawn] runs the worker synchronously),
   a documented simplification: the taint verdicts of these baselines do
   not depend on interleaving for our workloads. *)

module Ir = Ldx_cfg.Ir
module Flat = Ldx_cfg.Flat
module Os = Ldx_osim.Os
module Sval = Ldx_osim.Sval
module World = Ldx_osim.World
module Cost = Ldx_vm.Cost
module Value = Ldx_vm.Value
module Machine = Ldx_vm.Machine
module Engine = Ldx_core.Engine
open Ldx_lang

type config = {
  model : Shadow.model;
  sources : Engine.source_spec list;
  sinks : Engine.sink_config;
  max_steps : int;
}

let default_config =
  { model = Shadow.Taintgrind;
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

exception Program_exit

type st = {
  prog : Ir.program;
  os : Os.t;
  config : config;
  is_sink : string -> int -> Sval.t list -> bool;
  mutable steps : int;
  mutable cycles : int;
  mutable tainted_sinks : int;
  mutable total_sinks : int;
  mutable tainted_sites : int list;
  source_hits : (int, int) Hashtbl.t;
  thread_results : (int, Shadow.t) Hashtbl.t;
  mutable next_tid : int;
}

let contains hay needle =
  (* allocation-free scan, same as Engine.contains *)
  let hn = String.length hay and nn = String.length needle in
  nn = 0
  || (let rec matches_at i j =
        j >= nn || (hay.[i + j] = needle.[j] && matches_at i (j + 1))
      in
      let rec scan i = i <= hn - nn && (matches_at i 0 || scan (i + 1)) in
      scan 0)

let is_source st ~sys ~site ~args ~resources =
  (* no short-circuit: every spec's occurrence counter must advance *)
  List.fold_left
    (fun hit (spec : Engine.source_spec) ->
       let base =
         (match spec.Engine.src_sys with
          | None -> true
          | Some s -> String.equal s sys)
         && (match spec.Engine.src_site with None -> true | Some s -> s = site)
         && (match spec.Engine.src_arg with
             | None -> true
             | Some sub ->
               List.exists (fun r -> contains r sub) resources
               || (match args with
                   | Sval.S a :: _ -> contains a sub
                   | _ -> false))
       in
       let this =
         if not base then false
         else
           match spec.Engine.src_nth with
           | None -> true
           | Some n ->
             let key = Hashtbl.hash spec in
             let c =
               1 + (try Hashtbl.find st.source_hits key with Not_found -> 0)
             in
             Hashtbl.replace st.source_hits key c;
             c = n
       in
       hit || this)
    false st.config.sources

let[@inline] charge st =
  st.steps <- st.steps + 1;
  if st.steps > st.config.max_steps then Value.trap "fuel exhausted";
  st.cycles <- st.cycles + Cost.instr + Cost.taint_shadow

let rec eval st (locals : (string, Shadow.t) Hashtbl.t) (e : Ast.expr) :
  Shadow.t =
  match e with
  | Ast.Int n -> Shadow.clean (Shadow.Int n)
  | Ast.Str s -> Shadow.clean (Shadow.Str s)
  | Ast.Var x ->
    (match Hashtbl.find_opt locals x with
     | Some v -> v
     | None -> Value.trap "undefined variable %s" x)
  | Ast.Funref f -> Shadow.clean (Shadow.Fptr f)
  | Ast.Unop (op, a) -> Shadow.apply_unop op (eval st locals a)
  | Ast.Binop (op, a, b) ->
    let va = eval st locals a in
    let vb = eval st locals b in
    Shadow.apply_binop op va vb
  | Ast.Index (a, i) ->
    let va = eval st locals a in
    let vi = eval st locals i in
    (match (va.Shadow.base, vi.Shadow.base) with
     | Shadow.Arr arr, Shadow.Int k ->
       if k >= 0 && k < Array.length arr then arr.(k)
       else Value.trap "index %d out of bounds (len %d)" k (Array.length arr)
     | Shadow.Str s, Shadow.Int k ->
       if k >= 0 && k < String.length s then
         Shadow.with_taint va.Shadow.taint (Shadow.Int (Char.code s.[k]))
       else Value.trap "string index %d out of bounds" k
     | _ -> Value.trap "indexing non-array")
  | Ast.Call (name, args) ->
    let vargs = List.map (eval st locals) args in
    Shadow.apply_builtin st.config.model name vargs

(* Syscall handling is shared by the tree and flat interpreters; [call]
   is whichever function-call path the caller runs under (so spawned
   workers execute in the same mode as their spawner). *)
let handle_syscall st ~(call : string -> Shadow.t list -> Shadow.t) ~sys ~site
    (vargs : Shadow.t list) : Shadow.t =
  match sys with
  | "lock" | "unlock" | "yield" -> Shadow.clean (Shadow.Int 0)
  | "spawn" ->
    (match vargs with
     | [ { Shadow.base = Shadow.Fptr f; _ }; arg ] ->
       let tid = st.next_tid in
       st.next_tid <- tid + 1;
       let r = call f [ arg ] in
       Hashtbl.replace st.thread_results tid r;
       Shadow.clean (Shadow.Int tid)
     | _ -> Value.trap "spawn: bad arguments")
  | "join" ->
    (match vargs with
     | [ { Shadow.base = Shadow.Int tid; _ } ] ->
       (match Hashtbl.find_opt st.thread_results tid with
        | Some r -> r
        | None -> Shadow.clean (Shadow.Int (-1)))
     | _ -> Value.trap "join: bad arguments")
  | _ ->
    let sargs = List.map Shadow.to_sval vargs in
    if st.is_sink sys site sargs then begin
      st.total_sinks <- st.total_sinks + 1;
      if List.exists (fun (v : Shadow.t) -> v.Shadow.taint <> 0) vargs then begin
        st.tainted_sinks <- st.tainted_sinks + 1;
        if not (List.mem site st.tainted_sites) then
          st.tainted_sites <- site :: st.tainted_sites
      end
    end;
    let r =
      try Os.exec st.os sys sargs
      with Os.Os_error msg -> raise (Value.Trap msg)
    in
    if Os.exited st.os then raise Program_exit;
    let resources = Os.resource_of_syscall st.os sys sargs in
    let taint = if is_source st ~sys ~site ~args:sargs ~resources then 1 else 0 in
    st.cycles <- st.cycles + Cost.syscall;
    Shadow.of_sval ~taint r

let rec call_function st (fname : string) (args : Shadow.t list) : Shadow.t =
  let fn = Ir.find_func_exn st.prog fname in
  let locals = Hashtbl.create 16 in
  (try List.iter2 (fun p a -> Hashtbl.replace locals p a) fn.Ir.params args
   with Invalid_argument _ ->
     Value.trap "call %s: arity mismatch" fname);
  exec_block st fn locals fn.Ir.entry

and exec_block st (fn : Ir.func) locals (bid : int) : Shadow.t =
  let block = fn.Ir.blocks.(bid) in
  let n = Array.length block.Ir.instrs in
  let rec instrs i =
    if i >= n then terminator ()
    else begin
      charge st;
      (match block.Ir.instrs.(i) with
       | Ir.Assign (x, e) -> Hashtbl.replace locals x (eval st locals e)
       | Ir.Store (a, ie, e) ->
         let va =
           match Hashtbl.find_opt locals a with
           | Some v -> v
           | None -> Value.trap "undefined variable %s" a
         in
         let vi = eval st locals ie in
         let ve = eval st locals e in
         (match (va.Shadow.base, vi.Shadow.base) with
          | Shadow.Arr arr, Shadow.Int k ->
            if k >= 0 && k < Array.length arr then arr.(k) <- ve
            else Value.trap "store index %d out of bounds" k
          | _ -> Value.trap "store into non-array %s" a)
       | Ir.Call { dst; callee; args; _ } ->
         let vargs = List.map (eval st locals) args in
         let r = call_function st callee vargs in
         (match dst with Some d -> Hashtbl.replace locals d r | None -> ())
       | Ir.Call_indirect { dst; fptr; args; _ } ->
         let vf = eval st locals fptr in
         let vargs = List.map (eval st locals) args in
         (match vf.Shadow.base with
          | Shadow.Fptr name ->
            let r = call_function st name vargs in
            (match dst with Some d -> Hashtbl.replace locals d r | None -> ())
          | _ -> Value.trap "indirect call through non-funptr")
       | Ir.Syscall { dst; sys; args; site } ->
         let vargs = List.map (eval st locals) args in
         let r = handle_syscall st ~call:(call_function st) ~sys ~site vargs in
         (match dst with Some d -> Hashtbl.replace locals d r | None -> ())
       | Ir.Cnt_add _ | Ir.Loop_enter _ | Ir.Loop_back _ | Ir.Loop_exit _ ->
         (* the taint baselines run uninstrumented code; tolerate anyway *)
         ());
      instrs (i + 1)
    end
  and terminator () =
    charge st;
    match block.Ir.term with
    | Ir.Jump l -> exec_block st fn locals l
    | Ir.Branch (c, bt, bf) ->
      (* NB: the branch taint is deliberately NOT propagated — this is
         the control-dependence blindness of these baselines *)
      let v = eval st locals c in
      exec_block st fn locals (if Shadow.truthy v then bt else bf)
    | Ir.Ret None -> Shadow.clean Shadow.Unit
    | Ir.Ret (Some e) -> eval st locals e
  in
  instrs 0

(* ------------------------------------------------------------------ *)
(* Flat interpreter: the default hot path, over the same compiled form
   as the VM ({!Ldx_cfg.Flat}) instantiated with shadow constants.
   Instruction-for-instruction equivalent to the tree walker above
   (every IR instruction and terminator is exactly one flat
   instruction, so [steps] and [cycles] agree between modes); the
   tracker-specific trap messages — which differ from the VM's — are
   reproduced exactly.  Calls still use host recursion, preserving the
   tree walker's stack-overflow behavior on deep recursion. *)

(* The tracker interprets the lowered expressions itself ([eval_flat]
   below), so its compiled form is the [fexpr] unchanged. *)
let shadow_consts : (Shadow.t, Shadow.t Flat.fexpr) Flat.consts =
  { Flat.c_unit = Shadow.clean Shadow.Unit;
    c_int = (fun n -> Shadow.clean (Shadow.Int n));
    c_str = (fun s -> Shadow.clean (Shadow.Str s));
    c_fun = (fun f -> Shadow.clean (Shadow.Fptr f));
    c_expr = (fun _names e -> e) }

(* Unset-register sentinel (physical identity, like {!Value.undef}: the
   record is a unique allocation, never program-reachable). *)
let sh_undef : Shadow.t = Shadow.clean (Shadow.Arr [||])

let rec eval_flat st (regs : Shadow.t array) (names : string array)
    (e : Shadow.t Flat.fexpr) : Shadow.t =
  match e with
  | Flat.Const v -> v
  | Flat.Reg i ->
    (* unsafe: slots are lowering-assigned, always < Array.length regs *)
    let v = Array.unsafe_get regs i in
    if v == sh_undef then Value.trap "undefined variable %s" names.(i) else v
  | Flat.Unop (op, a) -> Shadow.apply_unop op (eval_flat st regs names a)
  | Flat.Binop (op, a, b) ->
    let va = eval_flat st regs names a in
    let vb = eval_flat st regs names b in
    Shadow.apply_binop op va vb
  | Flat.Index (a, i) ->
    let va = eval_flat st regs names a in
    let vi = eval_flat st regs names i in
    (match (va.Shadow.base, vi.Shadow.base) with
     | Shadow.Arr arr, Shadow.Int k ->
       if k >= 0 && k < Array.length arr then arr.(k)
       else Value.trap "index %d out of bounds (len %d)" k (Array.length arr)
     | Shadow.Str s, Shadow.Int k ->
       if k >= 0 && k < String.length s then
         Shadow.with_taint va.Shadow.taint (Shadow.Int (Char.code s.[k]))
       else Value.trap "string index %d out of bounds" k
     | _ -> Value.trap "indexing non-array")
  | Flat.Builtin (name, args) ->
    let n = Array.length args in
    let rec build i =
      if i = n then []
      else
        let v = eval_flat st regs names args.(i) in
        v :: build (i + 1)
    in
    Shadow.apply_builtin st.config.model name (build 0)
  (* specialized shapes: same semantics as the general arms above, with
     the leaf evaluations inlined (operand order preserved for traps) *)
  | Flat.BinopRR (op, i, j) ->
    let va = Array.unsafe_get regs i in
    let vb = Array.unsafe_get regs j in
    if va == sh_undef then Value.trap "undefined variable %s" names.(i)
    else if vb == sh_undef then Value.trap "undefined variable %s" names.(j)
    else Shadow.apply_binop op va vb
  | Flat.BinopRC (op, i, v) ->
    let va = Array.unsafe_get regs i in
    if va == sh_undef then Value.trap "undefined variable %s" names.(i)
    else Shadow.apply_binop op va v
  | Flat.BinopCR (op, v, j) ->
    let vb = Array.unsafe_get regs j in
    if vb == sh_undef then Value.trap "undefined variable %s" names.(j)
    else Shadow.apply_binop op v vb
  | Flat.IndexRR (x, y) ->
    let va = Array.unsafe_get regs x in
    let vi = Array.unsafe_get regs y in
    if va == sh_undef then Value.trap "undefined variable %s" names.(x)
    else if vi == sh_undef then Value.trap "undefined variable %s" names.(y)
    else
      (match (va.Shadow.base, vi.Shadow.base) with
       | Shadow.Arr arr, Shadow.Int k ->
         if k >= 0 && k < Array.length arr then arr.(k)
         else Value.trap "index %d out of bounds (len %d)" k (Array.length arr)
       | Shadow.Str s, Shadow.Int k ->
         if k >= 0 && k < String.length s then
           Shadow.with_taint va.Shadow.taint (Shadow.Int (Char.code s.[k]))
         else Value.trap "string index %d out of bounds" k
       | _ -> Value.trap "indexing non-array")

let rec exec_flat st (fprog : Shadow.t Flat.fexpr Flat.program)
    (fl : Shadow.t Flat.fexpr Flat.func) (regs : Shadow.t array) : Shadow.t =
  let code = fl.Flat.code in
  let names = fl.Flat.slot_names in
  let rec go pc : Shadow.t =
    (* unsafe fetch: [go (pc + 1)] only runs after non-terminators, and
       every block ends in a redirecting terminator, so pc stays in
       bounds by construction *)
    let ins = Array.unsafe_get code pc in
    charge st;
    match ins.Flat.op with
    | 0 (* assign *) ->
      Array.unsafe_set regs ins.Flat.dst (eval_flat st regs names ins.Flat.e1);
      go (pc + 1)
    | 1 (* store *) ->
      let va = regs.(ins.Flat.a) in
      if va == sh_undef then
        Value.trap "undefined variable %s" ins.Flat.name;
      let vi = eval_flat st regs names ins.Flat.e1 in
      let ve = eval_flat st regs names ins.Flat.e2 in
      (match (va.Shadow.base, vi.Shadow.base) with
       | Shadow.Arr arr, Shadow.Int k ->
         if k >= 0 && k < Array.length arr then arr.(k) <- ve
         else Value.trap "store index %d out of bounds" k
       | _ -> Value.trap "store into non-array %s" ins.Flat.name);
      go (pc + 1)
    | 2 (* call *) ->
      let fl2 = fprog.Flat.funcs.(ins.Flat.a) in
      let regs2 = Array.make fl2.Flat.nslots sh_undef in
      let args = ins.Flat.args in
      for i = 0 to Array.length args - 1 do
        regs2.(i) <- eval_flat st regs names args.(i)
      done;
      let r = exec_flat st fprog fl2 regs2 in
      if ins.Flat.dst >= 0 then regs.(ins.Flat.dst) <- r;
      go (pc + 1)
    | 3 (* call_indirect *) ->
      let vf = eval_flat st regs names ins.Flat.e1 in
      let args = ins.Flat.args in
      let n = Array.length args in
      let rec build i =
        if i = n then []
        else
          let v = eval_flat st regs names args.(i) in
          v :: build (i + 1)
      in
      let vargs = build 0 in
      (match vf.Shadow.base with
       | Shadow.Fptr name ->
         let r = call_function_flat st fprog name vargs in
         if ins.Flat.dst >= 0 then regs.(ins.Flat.dst) <- r;
         go (pc + 1)
       | _ -> Value.trap "indirect call through non-funptr")
    | 4 (* syscall *) ->
      let args = ins.Flat.args in
      let n = Array.length args in
      let rec build i =
        if i = n then []
        else
          let v = eval_flat st regs names args.(i) in
          v :: build (i + 1)
      in
      let r =
        handle_syscall st ~call:(call_function_flat st fprog)
          ~sys:ins.Flat.name ~site:ins.Flat.b (build 0)
      in
      if ins.Flat.dst >= 0 then regs.(ins.Flat.dst) <- r;
      go (pc + 1)
    | 5 | 6 | 7 | 8 (* instrumentation: tolerated, never interpreted *) ->
      go (pc + 1)
    | 9 (* jump *) -> go ins.Flat.a
    | 10 (* branch: taint deliberately NOT propagated *) ->
      let v = eval_flat st regs names ins.Flat.e1 in
      go (if Shadow.truthy v then ins.Flat.a else ins.Flat.b)
    | 11 (* ret *) -> eval_flat st regs names ins.Flat.e1
    | 12 (* statically-diagnosed arity mismatch: args evaluate first *) ->
      let args = ins.Flat.args in
      for i = 0 to Array.length args - 1 do
        ignore (eval_flat st regs names args.(i) : Shadow.t)
      done;
      Value.trap "call %s: arity mismatch" ins.Flat.name
    | 13 (* statically-unknown callee *) ->
      let args = ins.Flat.args in
      for i = 0 to Array.length args - 1 do
        ignore (eval_flat st regs names args.(i) : Shadow.t)
      done;
      ignore (Ir.find_func_exn st.prog ins.Flat.name : Ir.func);
      assert false
    | _ -> assert false
  in
  go fl.Flat.entry_pc

and call_function_flat st (fprog : Shadow.t Flat.fexpr Flat.program)
    (fname : string) (args : Shadow.t list) : Shadow.t =
  match Hashtbl.find_opt fprog.Flat.fidx fname with
  | None ->
    (* same Invalid_argument as the tree walker's find_func_exn *)
    ignore (Ir.find_func_exn st.prog fname : Ir.func);
    assert false
  | Some fi ->
    let fl = fprog.Flat.funcs.(fi) in
    if List.length args <> fl.Flat.nparams then
      Value.trap "call %s: arity mismatch" fname;
    let regs = Array.make fl.Flat.nslots sh_undef in
    List.iteri (fun i a -> regs.(i) <- a) args;
    exec_flat st fprog fl regs

let run ?(config = default_config) ?vm (prog : Ir.program) (world : World.t) :
  result =
  let vm = match vm with Some v -> v | None -> !Machine.default_vm in
  let os = Os.create ~pid:2000 world in
  let st =
    { prog; os; config;
      is_sink = Engine.sink_pred config.sinks;
      steps = 0; cycles = 0;
      tainted_sinks = 0; total_sinks = 0; tainted_sites = [];
      source_hits = Hashtbl.create 4;
      thread_results = Hashtbl.create 4;
      next_tid = 1 }
  in
  let trap =
    try
      (match vm with
       | Machine.Tree -> ignore (call_function st "main" [] : Shadow.t)
       | Machine.Flat ->
         let fprog = Flat.compile shadow_consts prog in
         ignore (call_function_flat st fprog "main" [] : Shadow.t));
      None
    with
    | Program_exit -> None
    | Value.Trap msg -> Some msg
    | Stack_overflow -> Some "stack overflow"
  in
  { tainted_sinks = st.tainted_sinks;
    total_sinks = st.total_sinks;
    tainted_sites = List.rev st.tainted_sites;
    cycles = st.cycles;
    steps = st.steps;
    stdout = Os.stdout_contents os;
    trap }

let run_source ?config ?vm src world =
  run ?config ?vm (Ldx_cfg.Lower.lower_source src) world
