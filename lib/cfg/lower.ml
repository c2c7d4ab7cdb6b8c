(* AST -> CFG lowering.

   Design decisions that matter for the alignment algorithms downstream:
   - every function gets a single exit block (so the per-function counter
     increment FCNT is well defined along every path);
   - [&&]/[||] always lower to control flow (C semantics; also exercises
     the compensation scheme on syscall-free diamonds);
   - calls are extracted out of expressions in evaluation order, so a
     [pexpr] in the final IR is pure (its only calls are builtins with
     pure arguments). *)

open Ldx_lang

exception Lower_error of string

type bb = {
  id : int;
  mutable rinstrs : Ir.instr list;   (* reversed *)
  mutable term : Ir.terminator option;
}

type fctx = {
  mutable bbs : bb list;             (* reversed list of all blocks *)
  mutable nblocks : int;
  mutable cur : bb;
  mutable ntemp : int;
  sites : int ref;                   (* global syscall/icall site counter *)
  prog : Ast.program;
  exit_bid : int;
  ret_reg : string;
}

let ret_reg = "%ret"

let new_bb ctx =
  let b = { id = ctx.nblocks; rinstrs = []; term = None } in
  ctx.nblocks <- ctx.nblocks + 1;
  ctx.bbs <- b :: ctx.bbs;
  b

let emit ctx i = ctx.cur.rinstrs <- i :: ctx.cur.rinstrs

let set_term ctx t =
  match ctx.cur.term with None -> ctx.cur.term <- Some t | Some _ -> ()

let switch_to ctx b = ctx.cur <- b

let fresh_temp ctx =
  let t = "%t" ^ string_of_int ctx.ntemp in
  ctx.ntemp <- ctx.ntemp + 1;
  t

let fresh_site ctx =
  let s = !(ctx.sites) in
  incr ctx.sites;
  s

(* Classify a call by callee name. *)
type callee_kind = User | Builtin | Syscall | Indirect

let classify ctx name =
  match Names.kind name with
  | Some (Names.Builtin _) -> Builtin
  | Some (Names.Syscall _) -> Syscall
  | None ->
    match Ast.find_func ctx.prog name with
    | Some _ -> User
    | None -> Indirect  (* checked to be a local variable by Check *)

let rec lower_expr ctx (e : Ast.expr) : Ir.pexpr =
  match e with
  | Ast.Int _ | Ast.Str _ | Ast.Var _ | Ast.Funref _ -> e
  | Ast.Unop (op, a) -> Ast.Unop (op, lower_expr ctx a)
  | Ast.Binop (Ast.And, a, b) -> lower_short_circuit ctx ~is_and:true a b
  | Ast.Binop (Ast.Or, a, b) -> lower_short_circuit ctx ~is_and:false a b
  | Ast.Binop (op, a, b) ->
    let la = lower_expr ctx a in
    let lb = lower_expr ctx b in
    Ast.Binop (op, la, lb)
  | Ast.Index (a, i) ->
    let la = lower_expr ctx a in
    let li = lower_expr ctx i in
    Ast.Index (la, li)
  | Ast.Call (name, args) ->
    (match classify ctx name with
     | Builtin ->
       let largs = List.map (lower_expr ctx) args in
       Ast.Call (name, largs)
     | User ->
       let largs = List.map (lower_expr ctx) args in
       let t = fresh_temp ctx in
       emit ctx (Ir.Call { dst = Some t; callee = name; args = largs;
                           fresh_frame = false });
       Ast.Var t
     | Syscall ->
       let largs = List.map (lower_expr ctx) args in
       let t = fresh_temp ctx in
       emit ctx (Ir.Syscall { dst = Some t; sys = name; args = largs;
                              site = fresh_site ctx });
       Ast.Var t
     | Indirect ->
       let largs = List.map (lower_expr ctx) args in
       let t = fresh_temp ctx in
       emit ctx (Ir.Call_indirect { dst = Some t; fptr = Ast.Var name;
                                    args = largs; site = fresh_site ctx });
       Ast.Var t)

(* t = a && b  lowers to:
     la = [[a]]; branch la ? rhs : fls
   rhs: lb = [[b]]; t = !!lb; jump join
   fls: t = 0; jump join
   join: ... (value is Var t)                                            *)
and lower_short_circuit ctx ~is_and a b =
  let la = lower_expr ctx a in
  let t = fresh_temp ctx in
  let b_rhs = new_bb ctx in
  let b_const = new_bb ctx in
  let b_join = new_bb ctx in
  (if is_and then set_term ctx (Ir.Branch (la, b_rhs.id, b_const.id))
   else set_term ctx (Ir.Branch (la, b_const.id, b_rhs.id)));
  switch_to ctx b_rhs;
  let lb = lower_expr ctx b in
  emit ctx (Ir.Assign (t, Ast.Unop (Ast.Not, Ast.Unop (Ast.Not, lb))));
  set_term ctx (Ir.Jump b_join.id);
  switch_to ctx b_const;
  emit ctx (Ir.Assign (t, Ast.Int (if is_and then 0 else 1)));
  set_term ctx (Ir.Jump b_join.id);
  switch_to ctx b_join;
  Ast.Var t

(* Lower a call statement whose result is discarded (no temp). *)
let lower_call_stmt ctx name args =
  match classify ctx name with
  | Builtin ->
    (* pure, result discarded: still lower args for their call effects *)
    let _ = List.map (lower_expr ctx) args in
    ()
  | User ->
    let largs = List.map (lower_expr ctx) args in
    emit ctx (Ir.Call { dst = None; callee = name; args = largs;
                        fresh_frame = false })
  | Syscall ->
    let largs = List.map (lower_expr ctx) args in
    emit ctx (Ir.Syscall { dst = None; sys = name; args = largs;
                           site = fresh_site ctx })
  | Indirect ->
    let largs = List.map (lower_expr ctx) args in
    emit ctx (Ir.Call_indirect { dst = None; fptr = Ast.Var name;
                                 args = largs; site = fresh_site ctx })

type loop_env = { brk : int; cont : int }

let rec lower_stmt ctx (env : loop_env option) (s : Ast.stmt) =
  match s with
  | Ast.Let (x, e) | Ast.Assign (x, e) ->
    let le = lower_expr ctx e in
    emit ctx (Ir.Assign (x, le))
  | Ast.Index_assign (a, i, e) ->
    let li = lower_expr ctx i in
    let le = lower_expr ctx e in
    emit ctx (Ir.Store (a, li, le))
  | Ast.Expr (Ast.Call (name, args)) -> lower_call_stmt ctx name args
  | Ast.Expr e -> ignore (lower_expr ctx e)
  | Ast.If (c, tb, fb) ->
    let lc = lower_expr ctx c in
    let b_then = new_bb ctx in
    let b_else = new_bb ctx in
    let b_join = new_bb ctx in
    set_term ctx (Ir.Branch (lc, b_then.id, b_else.id));
    switch_to ctx b_then;
    lower_block ctx env tb;
    set_term ctx (Ir.Jump b_join.id);
    switch_to ctx b_else;
    lower_block ctx env fb;
    set_term ctx (Ir.Jump b_join.id);
    switch_to ctx b_join
  | Ast.While (c, body) ->
    let b_head = new_bb ctx in
    set_term ctx (Ir.Jump b_head.id);
    switch_to ctx b_head;
    let lc = lower_expr ctx c in
    let b_body = new_bb ctx in
    let b_exit = new_bb ctx in
    set_term ctx (Ir.Branch (lc, b_body.id, b_exit.id));
    switch_to ctx b_body;
    lower_block ctx (Some { brk = b_exit.id; cont = b_head.id }) body;
    set_term ctx (Ir.Jump b_head.id);
    switch_to ctx b_exit
  | Ast.For (init, cond, step, body) ->
    (match init with None -> () | Some s -> lower_stmt ctx env s);
    let b_head = new_bb ctx in
    set_term ctx (Ir.Jump b_head.id);
    switch_to ctx b_head;
    let lc = match cond with None -> Ast.Int 1 | Some c -> lower_expr ctx c in
    let b_body = new_bb ctx in
    let b_step = new_bb ctx in
    let b_exit = new_bb ctx in
    set_term ctx (Ir.Branch (lc, b_body.id, b_exit.id));
    switch_to ctx b_body;
    lower_block ctx (Some { brk = b_exit.id; cont = b_step.id }) body;
    set_term ctx (Ir.Jump b_step.id);
    switch_to ctx b_step;
    (match step with None -> () | Some s -> lower_stmt ctx None s);
    set_term ctx (Ir.Jump b_head.id);
    switch_to ctx b_exit
  | Ast.Break ->
    (match env with
     | Some { brk; _ } -> set_term ctx (Ir.Jump brk)
     | None -> raise (Lower_error "break outside loop"));
    switch_to ctx (new_bb ctx)  (* dead continuation *)
  | Ast.Continue ->
    (match env with
     | Some { cont; _ } -> set_term ctx (Ir.Jump cont)
     | None -> raise (Lower_error "continue outside loop"));
    switch_to ctx (new_bb ctx)
  | Ast.Return eo ->
    (match eo with
     | None -> emit ctx (Ir.Assign (ctx.ret_reg, Ast.Int 0))
     | Some e ->
       let le = lower_expr ctx e in
       emit ctx (Ir.Assign (ctx.ret_reg, le)));
    set_term ctx (Ir.Jump ctx.exit_bid);
    switch_to ctx (new_bb ctx)

and lower_block ctx env body = List.iter (lower_stmt ctx env) body

(* Remove blocks unreachable from entry and renumber densely. *)
let prune_unreachable (f : Ir.func) : Ir.func =
  let reach = Ir.reachable_blocks f in
  let n = Array.length f.blocks in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for b = 0 to n - 1 do
    if reach.(b) then begin
      remap.(b) <- !next;
      incr next
    end
  done;
  let retarget t =
    match t with
    | Ir.Jump l -> Ir.Jump remap.(l)
    | Ir.Branch (c, a, b) -> Ir.Branch (c, remap.(a), remap.(b))
    | Ir.Ret _ -> t
  in
  let blocks = Array.make !next None in
  Array.iter
    (fun (b : Ir.block) ->
       if reach.(b.bid) then
         blocks.(remap.(b.bid)) <-
           Some { b with Ir.bid = remap.(b.bid); term = retarget b.term })
    f.blocks;
  let blocks =
    Array.map (function Some b -> b | None -> assert false) blocks
  in
  { f with Ir.entry = remap.(f.entry); blocks }

let lower_fundef prog sites (fd : Ast.fundef) : Ir.func =
  let entry_bb = { id = 0; rinstrs = []; term = None } in
  let ctx =
    { bbs = [ entry_bb ]; nblocks = 1; cur = entry_bb; ntemp = 0;
      sites; prog; exit_bid = 0 (* patched below *); ret_reg }
  in
  (* exit block is block 1 *)
  let exit_bb = new_bb ctx in
  exit_bb.term <- Some (Ir.Ret (Some (Ast.Var ret_reg)));
  let ctx = { ctx with exit_bid = exit_bb.id } in
  (* ctx is a fresh record sharing the mutable bb state; keep using it *)
  emit ctx (Ir.Assign (ret_reg, Ast.Int 0));
  lower_block ctx None fd.Ast.body;
  set_term ctx (Ir.Jump exit_bb.id);
  let blocks = Array.make ctx.nblocks None in
  List.iter
    (fun (b : bb) ->
       let term = match b.term with Some t -> t | None -> Ir.Jump exit_bb.id in
       blocks.(b.id) <-
         Some { Ir.bid = b.id;
                instrs = Array.of_list (List.rev b.rinstrs);
                term })
    ctx.bbs;
  let blocks = Array.map (function Some b -> b | None -> assert false) blocks in
  prune_unreachable
    { Ir.fname = fd.Ast.fname; params = fd.Ast.params; entry = 0; blocks }

(* Lower a whole checked program. *)
let lower_program (prog : Ast.program) : Ir.program =
  Check.check_exn prog;
  let sites = ref 0 in
  let funcs = Array.of_list (List.map (lower_fundef prog sites) prog.funcs) in
  { Ir.funcs; n_sites = !sites; n_loops = 0 }

let lower_source (src : string) : Ir.program =
  lower_program (Parser.parse_exn src)
