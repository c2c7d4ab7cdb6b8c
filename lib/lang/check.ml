(* Static well-formedness checks run before lowering.

   Ensures: a [main] entry exists and takes no parameters; no duplicate
   functions or parameters; call arities of builtins/syscalls match;
   variables are defined before use; break/continue only inside loops;
   user functions are not shadowed by reserved names.  Returns a list of
   diagnostics (empty = ok). *)

open Ast

type diagnostic = { func : string; message : string }

let diag func fmt = Printf.ksprintf (fun message -> { func; message }) fmt

module StrSet = Set.Make (String)

let check_call prog ~vars fname callee nargs errors =
  match Names.kind callee with
  | Some (Names.Builtin ar) ->
    if Names.arity_matches ar nargs then errors
    else
      diag fname "builtin '%s' applied to %d arguments" callee nargs :: errors
  | Some (Names.Syscall ar) ->
    if Names.arity_matches ar nargs then errors
    else
      diag fname "syscall '%s' applied to %d arguments" callee nargs :: errors
  | None ->
    match find_func prog callee with
    | Some f ->
      if List.length f.params <> nargs then
        diag fname "function '%s' expects %d arguments, got %d"
          callee (List.length f.params) nargs
        :: errors
      else errors
    | None ->
      if StrSet.mem callee vars then errors (* indirect call through a local *)
      else diag fname "unknown callee '%s'" callee :: errors

let rec check_expr prog ~vars fname e errors =
  match e with
  | Int _ | Str _ -> errors
  | Var x ->
    if StrSet.mem x vars then errors
    else diag fname "use of undefined variable '%s'" x :: errors
  | Funref f ->
    (match find_func prog f with
     | Some _ -> errors
     | None -> diag fname "function pointer to unknown function '%s'" f :: errors)
  | Unop (_, e) -> check_expr prog ~vars fname e errors
  | Binop (_, a, b) ->
    check_expr prog ~vars fname a (check_expr prog ~vars fname b errors)
  | Index (a, i) ->
    check_expr prog ~vars fname a (check_expr prog ~vars fname i errors)
  | Call (callee, args) ->
    let errors =
      List.fold_left (fun errs a -> check_expr prog ~vars fname a errs) errors args
    in
    check_call prog ~vars fname callee (List.length args) errors

let rec check_block prog ~vars ~in_loop fname body errors =
  match body with
  | [] -> errors
  | s :: rest ->
    let vars, errors = check_stmt prog ~vars ~in_loop fname s errors in
    check_block prog ~vars ~in_loop fname rest errors

and check_stmt prog ~vars ~in_loop fname s errors =
  match s with
  | Let (x, e) ->
    let errors = check_expr prog ~vars fname e errors in
    let errors =
      if Names.reserved x then
        diag fname "variable '%s' shadows a reserved name" x :: errors
      else errors
    in
    (StrSet.add x vars, errors)
  | Assign (x, e) ->
    let errors = check_expr prog ~vars fname e errors in
    let errors =
      if StrSet.mem x vars then errors
      else diag fname "assignment to undefined variable '%s'" x :: errors
    in
    (vars, errors)
  | Index_assign (a, i, e) ->
    let errors = check_expr prog ~vars fname (Var a) errors in
    let errors = check_expr prog ~vars fname i errors in
    (vars, check_expr prog ~vars fname e errors)
  | If (c, t, f) ->
    let errors = check_expr prog ~vars fname c errors in
    let errors = check_block prog ~vars ~in_loop fname t errors in
    (vars, check_block prog ~vars ~in_loop fname f errors)
  | While (c, b) ->
    let errors = check_expr prog ~vars fname c errors in
    (vars, check_block prog ~vars ~in_loop:true fname b errors)
  | For (init, cond, step, b) ->
    let vars', errors =
      match init with
      | None -> (vars, errors)
      | Some s -> check_stmt prog ~vars ~in_loop fname s errors
    in
    let errors =
      match cond with
      | None -> errors
      | Some c -> check_expr prog ~vars:vars' fname c errors
    in
    let errors =
      match step with
      | None -> errors
      | Some s -> snd (check_stmt prog ~vars:vars' ~in_loop fname s errors)
    in
    (vars, check_block prog ~vars:vars' ~in_loop:true fname b errors)
  | Break | Continue ->
    let errors =
      if in_loop then errors
      else diag fname "break/continue outside of a loop" :: errors
    in
    (vars, errors)
  | Return None -> (vars, errors)
  | Return (Some e) -> (vars, check_expr prog ~vars fname e errors)
  | Expr e -> (vars, check_expr prog ~vars fname e errors)

let check_fundef prog (f : fundef) errors =
  let errors =
    if Names.reserved f.fname then
      diag f.fname "function name shadows a reserved name" :: errors
    else errors
  in
  let seen, errors =
    List.fold_left
      (fun (seen, errs) p ->
         if StrSet.mem p seen then
           (seen, diag f.fname "duplicate parameter '%s'" p :: errs)
         else (StrSet.add p seen, errs))
      (StrSet.empty, errors) f.params
  in
  check_block prog ~vars:seen ~in_loop:false f.fname f.body errors

let check_program (prog : program) : diagnostic list =
  let errors =
    match find_func prog "main" with
    | Some { params = []; _ } -> []
    | Some _ -> [ diag "main" "'main' takes no parameters" ]
    | None -> [ diag "<program>" "no 'main' function" ]
  in
  let _, errors =
    List.fold_left
      (fun (seen, errs) f ->
         if StrSet.mem f.fname seen then
           (seen, diag f.fname "duplicate function definition" :: errs)
         else (StrSet.add f.fname seen, errs))
      (StrSet.empty, errors) prog.funcs
  in
  let errors = List.fold_left (fun errs f -> check_fundef prog f errs) errors prog.funcs in
  List.rev errors

let check_exn prog =
  match check_program prog with
  | [] -> ()
  | ds ->
    let msgs = List.map (fun d -> Printf.sprintf "[%s] %s" d.func d.message) ds in
    failwith ("MiniC check failed:\n" ^ String.concat "\n" msgs)
