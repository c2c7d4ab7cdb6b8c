(* Basic-block intermediate representation.

   The lowering pass (see {!Lower}) produces one CFG per function.  Pure
   computation stays as expression trees ([pexpr], whose only calls are to
   pure builtins); everything with side effects or alignment relevance is
   an [instr].  Counter-instrumentation instructions ([Cnt_add],
   [Loop_enter], [Loop_back], [Loop_exit]) are inserted by
   {!Ldx_instrument.Counter}; an uninstrumented program never contains
   them. *)

type pexpr = Ldx_lang.Ast.expr

type instr =
  | Assign of string * pexpr
  | Store of string * pexpr * pexpr              (* a[i] = e *)
  | Call of {
      dst : string option;
      callee : string;
      args : pexpr list;
      fresh_frame : bool;
      (* [fresh_frame] is set by the instrumenter on calls to recursive
         functions: the counter is saved and reset to 0 for the callee,
         restored (and bumped by 1) on return — same treatment as
         indirect calls (Sec. 6). *)
    }
  | Call_indirect of {
      dst : string option;
      fptr : pexpr;
      args : pexpr list;
      site : int;
    }
  | Syscall of {
      dst : string option;
      sys : string;
      args : pexpr list;
      site : int;                                 (* static syscall site id *)
    }
  (* --- instrumentation (counter maintenance) --- *)
  | Cnt_add of int                                (* cnt += k (edge compensation) *)
  | Loop_enter of { loop : int }                  (* push (loop, iter=0) *)
  | Loop_back of { loop : int; dec : int }        (* barrier; cnt -= dec; iter += 1 *)
  | Loop_exit of { pops : int list; bump : int }  (* pop loops; cnt += bump *)

type terminator =
  | Jump of int
  | Branch of pexpr * int * int                   (* cond, then, else *)
  | Ret of pexpr option

type block = {
  bid : int;
  instrs : instr array;
  term : terminator;
}

type func = {
  fname : string;
  params : string list;
  entry : int;
  blocks : block array;                           (* index = bid *)
}

type program = {
  funcs : func array;
  n_sites : int;                                  (* syscall + indirect-call sites *)
  n_loops : int;                                  (* instrumented loops (post-pass) *)
}

let find_func (p : program) name =
  let rec go i =
    if i >= Array.length p.funcs then None
    else if String.equal p.funcs.(i).fname name then Some p.funcs.(i)
    else go (i + 1)
  in
  go 0

let find_func_exn p name =
  match find_func p name with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func_exn: no function " ^ name)

let successors = function
  | Jump l -> [ l ]
  | Branch (_, t, f) -> if t = f then [ t ] else [ t; f ]
  | Ret _ -> []

(* [successors] without building the list, in the same order: the CFG
   analyses walk every block's successors several times per function. *)
let iter_successors k = function
  | Jump l -> k l
  | Branch (_, t, f) -> k t; if f <> t then k f
  | Ret _ -> ()

let fold_successors k term acc =
  match term with
  | Jump l -> k l acc
  | Branch (_, t, f) -> if f = t then k t acc else k f (k t acc)
  | Ret _ -> acc

(* Predecessor map: preds.(b) = list of blocks with an edge into b. *)
let predecessors (f : func) : int list array =
  let preds = Array.make (Array.length f.blocks) [] in
  (* last block first, so each list comes out in ascending order *)
  for i = Array.length f.blocks - 1 downto 0 do
    let b = f.blocks.(i) in
    iter_successors (fun s -> preds.(s) <- b.bid :: preds.(s)) b.term
  done;
  preds

(* Reverse postorder of the blocks reachable from entry. *)
let reverse_postorder (f : func) : int list =
  let n = Array.length f.blocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      iter_successors dfs f.blocks.(b).term;
      order := b :: !order
    end
  in
  dfs f.entry;
  !order

let reachable_blocks f =
  let n = Array.length f.blocks in
  let visited = Array.make n false in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      iter_successors dfs f.blocks.(b).term
    end
  in
  dfs f.entry;
  visited

(* --- statistics helpers (Table 1) --- *)

let instr_is_syscall = function Syscall _ -> true | _ -> false

let instr_is_instrumentation = function
  | Cnt_add _ | Loop_enter _ | Loop_back _ | Loop_exit _ -> true
  | Assign _ | Store _ | Call _ | Call_indirect _ | Syscall _ -> false

let count_instrs_if pred (p : program) =
  Array.fold_left
    (fun acc f ->
       Array.fold_left
         (fun acc b ->
            Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) acc b.instrs)
         acc f.blocks)
    0 p.funcs

let total_instrs p = count_instrs_if (fun _ -> true) p
let total_syscall_sites p = count_instrs_if instr_is_syscall p
let total_instrumentation p = count_instrs_if instr_is_instrumentation p

let iter_instrs (p : program) k =
  Array.iter
    (fun f -> Array.iter (fun b -> Array.iter (fun i -> k f b i) b.instrs) f.blocks)
    p.funcs

(* --- printing (for debugging and golden tests) --- *)

let pexpr_to_string = Ldx_lang.Printer.expr_to_string

let instr_to_string = function
  | Assign (x, e) -> Printf.sprintf "%s = %s" x (pexpr_to_string e)
  | Store (a, i, e) ->
    Printf.sprintf "%s[%s] = %s" a (pexpr_to_string i) (pexpr_to_string e)
  | Call { dst; callee; args; fresh_frame } ->
    Printf.sprintf "%scall%s %s(%s)"
      (match dst with Some d -> d ^ " = " | None -> "")
      (if fresh_frame then "*" else "")
      callee
      (String.concat ", " (List.map pexpr_to_string args))
  | Call_indirect { dst; fptr; args; site } ->
    Printf.sprintf "%sicall[%d] (%s)(%s)"
      (match dst with Some d -> d ^ " = " | None -> "")
      site (pexpr_to_string fptr)
      (String.concat ", " (List.map pexpr_to_string args))
  | Syscall { dst; sys; args; site } ->
    Printf.sprintf "%ssys[%d] %s(%s)"
      (match dst with Some d -> d ^ " = " | None -> "")
      site sys
      (String.concat ", " (List.map pexpr_to_string args))
  | Cnt_add k -> Printf.sprintf "cnt += %d" k
  | Loop_enter { loop } -> Printf.sprintf "loop_enter L%d" loop
  | Loop_back { loop; dec } -> Printf.sprintf "loop_back L%d (cnt -= %d)" loop dec
  | Loop_exit { pops; bump } ->
    Printf.sprintf "loop_exit [%s] (cnt += %d)"
      (String.concat "," (List.map (Printf.sprintf "L%d") pops))
      bump

let term_to_string = function
  | Jump l -> Printf.sprintf "jump b%d" l
  | Branch (c, t, f) -> Printf.sprintf "branch %s ? b%d : b%d" (pexpr_to_string c) t f
  | Ret None -> "ret"
  | Ret (Some e) -> "ret " ^ pexpr_to_string e

let func_to_string (f : func) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s) entry=b%d\n" f.fname
       (String.concat ", " f.params) f.entry);
  Array.iter
    (fun b ->
       Buffer.add_string buf (Printf.sprintf "  b%d:\n" b.bid);
       Array.iter
         (fun i -> Buffer.add_string buf ("    " ^ instr_to_string i ^ "\n"))
         b.instrs;
       Buffer.add_string buf ("    " ^ term_to_string b.term ^ "\n"))
    f.blocks;
  Buffer.contents buf

let program_to_string (p : program) =
  String.concat "\n" (Array.to_list (Array.map func_to_string p.funcs))
