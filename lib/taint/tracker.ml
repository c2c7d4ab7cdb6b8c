(* The dynamic-tainting baseline engines (LIBDFT-like and TaintGrind-like).

   An interpreter over the same flat bytecode the VM executes
   ({!Ldx_cfg.Flat}, instantiated with shadow constants), with shadow
   taint on every value.  Differences from LDX that the paper's
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
module Engine = Ldx_core.Engine

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
  fprog : Shadow.t Flat.fexpr Flat.program;
  os : Os.t;
  config : config;
  is_sink : string -> int -> Sval.t list -> bool;
  is_source :
    sys:string -> site:int -> args:Sval.t list -> resources:string list ->
    bool;
  mutable steps : int;
  mutable cycles : int;
  mutable tainted_sinks : int;
  mutable total_sinks : int;
  mutable tainted_sites : int list;
  thread_results : (int, Shadow.t) Hashtbl.t;
  mutable next_tid : int;
}

let[@inline] charge st =
  st.steps <- st.steps + 1;
  if st.steps > st.config.max_steps then Value.trap "fuel exhausted";
  st.cycles <- st.cycles + Cost.instr + Cost.taint_shadow

(* ------------------------------------------------------------------ *)
(* The interpreter.  Every IR instruction and terminator is exactly one
   flat instruction and one [charge].  The tracker's trap messages
   differ from the VM's.  Calls use host recursion, so deep recursion
   ends in a "stack overflow" trap. *)

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

let rec exec_flat st (fl : Shadow.t Flat.fexpr Flat.func)
    (regs : Shadow.t array) : Shadow.t =
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
      let fl2 = st.fprog.Flat.funcs.(ins.Flat.a) in
      let regs2 = Array.make fl2.Flat.nslots sh_undef in
      let args = ins.Flat.args in
      for i = 0 to Array.length args - 1 do
        regs2.(i) <- eval_flat st regs names args.(i)
      done;
      let r = exec_flat st fl2 regs2 in
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
         let r = call_function st name vargs in
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
      let r = handle_syscall st ~sys:ins.Flat.name ~site:ins.Flat.b (build 0) in
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

(* Calls by name: [main], indirect calls and spawned workers. *)
and call_function st (fname : string) (args : Shadow.t list) : Shadow.t =
  match Hashtbl.find_opt st.fprog.Flat.fidx fname with
  | None ->
    (* the Invalid_argument of Ir.find_func_exn *)
    ignore (Ir.find_func_exn st.prog fname : Ir.func);
    assert false
  | Some fi ->
    let fl = st.fprog.Flat.funcs.(fi) in
    if List.length args <> fl.Flat.nparams then
      Value.trap "call %s: arity mismatch" fname;
    let regs = Array.make fl.Flat.nslots sh_undef in
    List.iteri (fun i a -> regs.(i) <- a) args;
    exec_flat st fl regs

and handle_syscall st ~sys ~site (vargs : Shadow.t list) : Shadow.t =
  match sys with
  | "lock" | "unlock" | "yield" -> Shadow.clean (Shadow.Int 0)
  | "spawn" ->
    (match vargs with
     | [ { Shadow.base = Shadow.Fptr f; _ }; arg ] ->
       let tid = st.next_tid in
       st.next_tid <- tid + 1;
       let r = call_function st f [ arg ] in
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
    let taint =
      if st.is_source ~sys ~site ~args:sargs ~resources then 1 else 0
    in
    st.cycles <- st.cycles + Cost.syscall;
    Shadow.of_sval ~taint r

let run ?(config = default_config) (prog : Ir.program) (world : World.t) :
  result =
  let st =
    { prog;
      fprog = Flat.compile shadow_consts prog;
      os = Os.create ~pid:2000 world;
      config;
      is_sink = Engine.sink_pred config.sinks;
      is_source =
        Engine.source_matcher
          { Engine.default_config with Engine.sources = config.sources };
      steps = 0; cycles = 0;
      tainted_sinks = 0; total_sinks = 0; tainted_sites = [];
      thread_results = Hashtbl.create 4;
      next_tid = 1 }
  in
  let trap =
    try
      ignore (call_function st "main" [] : Shadow.t);
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
    stdout = Os.stdout_contents st.os;
    trap }

let run_source ?config src world =
  run ?config (Ldx_cfg.Lower.lower_source src) world
