(* The VM against references that need no second stepper.

   - D1-D3: under every scheduling policy, replaying the recorded
     schedule reproduces the run: same stdout, trap, step, cycle and
     syscall counts, exit code, syscall trace (with alignment counters)
     and decision log.  Quantifies over random structured programs,
     random threaded programs, and "stress" programs that mix threads,
     signals, setjmp/longjmp and deliberate traps.
   - D6: the closure the flat compiler builds for an expression
     computes what [Eval.eval_reg] computes on the source expression.

   Step, cycle, trace, schedule and profile equality against an
   independent stepper is pinned on a frozen corpus only, by the
   vm-golden test (DESIGN.md, "Frozen oracle"). *)

module Driver = Ldx_vm.Driver
module World = Ldx_osim.World
module Sched = Ldx_sched.Scheduler
module Schedule = Ldx_sched.Schedule
module Gen_minic = Ldx_genprog.Gen_minic

let test_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

(* Everything a native run exposes, normalized for comparison. *)
type obs = {
  o_stdout : string;
  o_trap : string option;
  o_steps : int;
  o_cycles : int;
  o_syscalls : int;
  o_exit : int option;
  o_trace :
    (string * Ldx_osim.Sval.t list * Ldx_osim.Sval.t * int * int * int) list;
  o_sched : (int * int * int) list;
}

let observe ~seed spec src : obs =
  let sched = Sched.instantiate ~record:true spec in
  let o =
    Driver.run_source ~instrument:true ~seed ~sched ~record_trace:true src
      test_world
  in
  { o_stdout = o.Driver.stdout;
    o_trap = o.Driver.trap;
    o_steps = o.Driver.steps;
    o_cycles = o.Driver.cycles;
    o_syscalls = o.Driver.syscalls;
    o_exit = o.Driver.exit_code;
    o_trace =
      List.map
        (fun (t : Driver.trace_entry) ->
           (t.Driver.sys, t.Driver.args, t.Driver.result, t.Driver.counter,
            t.Driver.site, t.Driver.tid))
        o.Driver.trace;
    o_sched =
      Array.to_list
        (Array.map
           (fun (d : Sched.decision) ->
              (d.Sched.d_index, d.Sched.d_chosen, d.Sched.d_quantum))
           (Sched.trace sched)) }

(* The native properties draw a scheduling policy per case.  Replaying
   the run's recorded schedule must reproduce it decision for decision,
   whether a decision was made in [run_until_event] or as a lone
   thread's in-place refill. *)
type policy = Rr | Random | Priority | Forced

let policy_name = function
  | Rr -> "rr" | Random -> "random" | Priority -> "priority"
  | Forced -> "forced"

let spec_of ~seed = function
  | Rr -> Sched.legacy ~seed
  | Random -> Sched.spec ~seed Sched.Random
  | Priority -> Sched.spec ~seed (Sched.Priority [ (seed mod 3, 1) ])
  | Forced ->
    Sched.spec ~seed
      (Sched.Forced [ (seed mod 5, 1); (5 + (seed mod 11), 2); (20, 0) ])

let prop_replay_reproduces (p, seed, policy) =
  let src = Gen_minic.print_program p in
  let run = observe ~seed (spec_of ~seed policy) src in
  let schedule =
    Schedule.of_list
      (List.map
         (fun (_, s_thread, s_quantum) -> { Schedule.s_thread; s_quantum })
         run.o_sched)
  in
  observe ~seed (Sched.spec ~seed (Sched.Replay schedule)) src = run

(* ------------------------------------------------------------------ *)
(* Expression level: the flat VM's closure form of an expression, built
   through the flat lowering, against [Eval.eval_reg] (a direct walk of
   the source expression) on the same [Ast.expr] and register file.
   This pins the value or the trap message of every operand shape,
   operand by operand. *)

module Ast = Ldx_lang.Ast
module Eval = Ldx_vm.Eval
module Value = Ldx_vm.Value
module Flat = Ldx_cfg.Flat
module Ir = Ldx_cfg.Ir

(* The register file, in slot order: the compiled function's params.
   [u] holds [undef]; [w] is no param, so an expression that reads it
   gets a slot after them that is never written.  Both trap as
   undefined variables.  [p] and [q] carry the taint wrapper. *)
let regfile =
  let arr () = Value.Arr [| Value.Int 1; Value.Str "z"; Value.Int 3 |] in
  [ ("a", Value.Int 7); ("b", Value.Int 0); ("c", Value.Int (-1));
    ("m", Value.Int max_int); ("n", Value.Int min_int);
    ("s", Value.Str "ab"); ("t", Value.Str "");
    ("x", arr ()); ("y", arr ()); ("f", Value.Fptr "g");
    ("p", Value.Tainted (Value.Int 3)); ("q", Value.Tainted (Value.Str "ab"));
    ("u", Value.undef) ]

let expr_names = List.map fst regfile @ [ "w" ]

let expr_builtins =
  [ ("len", 1); ("strlen", 1); ("itoa", 1); ("atoi", 1); ("abs", 1);
    ("chr", 1); ("min", 2); ("max", 2); ("char_at", 2); ("bit", 2);
    ("repeat", 2); ("find", 2); ("mkarray", 2); ("substr", 3) ]

(* Mostly well-typed enough to get past the first operator: ints and
   int slots dominate, and an index is usually a slot indexed by a
   small int, so bounds edges (len, -1) are reached as often as the
   type errors. *)
let gen_expr : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var = map (fun x -> Ast.Var x) (oneofl expr_names) in
  let small = map (fun n -> Ast.Int n) (oneofl [ 0; 1; 2; 3; -1 ]) in
  let leaf =
    frequency
      [ (4, var); (3, small);
        (1, map (fun n -> Ast.Int n) (oneofl [ 62; 63; -5; max_int; min_int ]));
        (1, map (fun s -> Ast.Str s) (oneofl [ ""; "ab"; "b" ]));
        (1, return (Ast.Funref "g")) ]
  in
  let binops =
    Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or; Band;
          Bor; Bxor; Shl; Shr ]
  in
  sized_size (int_range 1 4)
  @@ fix (fun self n ->
      if n = 0 then leaf
      else
        let sub = self (n - 1) in
        frequency
          [ (1, leaf);
            (6, map3 (fun op l r -> Ast.Binop (op, l, r)) (oneofl binops) sub
                 sub);
            (1, map2 (fun op e -> Ast.Unop (op, e))
                 (oneofl Ast.[ Neg; Not ]) sub);
            (2, map2 (fun a i -> Ast.Index (a, i))
                 (frequency [ (3, var); (1, sub) ])
                 (frequency [ (2, small); (1, var); (1, sub) ]));
            (1, oneofl expr_builtins >>= fun (name, arity) ->
                map (fun args -> Ast.Call (name, args)) (list_repeat arity sub))
          ])

(* [e]'s closure, lowered as the right-hand side of [r = e] in a
   function whose params are the register file's names. *)
let closure_of (e : Ast.expr) : Eval.code * (string, int) Hashtbl.t * int =
  let f =
    { Ir.fname = "f"; params = List.map fst regfile; entry = 0;
      blocks =
        [| { Ir.bid = 0; instrs = [| Ir.Assign ("r", e) |];
             term = Ir.Ret None } |] }
  in
  let fp =
    Ldx_vm.Machine.compile { Ir.funcs = [| f |]; n_sites = 0; n_loops = 0 }
  in
  let fl = fp.Flat.funcs.(0) in
  (fl.Flat.code.(0).Flat.e1, fl.Flat.slot_of, fl.Flat.nslots)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Value.Trap msg -> Error ("trap " ^ msg)
  | exception e -> Error (Printexc.to_string e)

(* [None] when [e]'s closure and [Eval.eval_reg] agree on [e], else
   both outcomes. *)
let disagreement (e : Ast.expr) : string option =
  let code, slot_of, nslots = closure_of e in
  let regs = Array.make nslots Value.undef in
  List.iteri (fun i (_, v) -> regs.(i) <- v) regfile;
  let via_walk = outcome (fun () -> Eval.eval_reg slot_of regs e) in
  let via_closure = outcome (fun () -> code regs) in
  let show = function Ok v -> Value.to_string v | Error m -> m in
  if via_walk = via_closure then None
  else
    Some
      (Printf.sprintf "eval_reg: %s\nclosure: %s" (show via_walk)
         (show via_closure))

let prop_expr_closure_equivalent (e : Ast.expr) =
  match disagreement e with
  | None -> true
  | Some m -> QCheck2.Test.fail_report m

(* Shapes the random property may rarely draw, pinned by hand. *)
let test_expr_closure_corpus () =
  let open Ast in
  let v x = Var x and i n = Int n in
  List.iter
    (fun e ->
       match disagreement e with
       | None -> ()
       | Some m ->
         Alcotest.failf "%s\n%s" (Ldx_lang.Printer.expr_to_string e) m)
    [ (* [&&] and [||] evaluate both operands: the right one still traps *)
      Binop (And, i 0, v "u"); Binop (Or, i 1, v "w");
      Binop (And, v "u", v "w"); Binop (Or, v "a", Binop (Div, i 1, i 0));
      (* division and modulo by zero, every operand shape *)
      Binop (Div, v "a", v "b"); Binop (Mod, v "a", i 0);
      Binop (Div, i 1, v "b"); Binop (Mod, Binop (Add, v "a", i 1), v "b");
      Binop (Div, v "n", v "c"); Binop (Mod, v "n", v "c");
      (* shifts out of range *)
      Binop (Shl, v "a", i 63); Binop (Shr, v "n", i (-1));
      Binop (Shl, v "a", v "m"); Binop (Shr, i 1, v "c");
      (* int overflow wraps the same way on the fast path *)
      Binop (Add, v "m", i 1); Binop (Sub, v "n", v "a");
      Binop (Mul, v "m", v "m"); Unop (Neg, v "n");
      (* string operands *)
      Binop (Add, v "s", v "a"); Binop (Add, v "a", v "s");
      Binop (Add, v "s", i 3); Binop (Add, i 3, v "s");
      Binop (Lt, v "s", v "t"); Binop (Ge, v "s", Str "ab");
      Binop (Le, Str "b", v "s"); Binop (Gt, v "s", v "a");
      Binop (Sub, v "s", v "t"); Binop (Lt, v "a", v "s");
      (* arrays *)
      Binop (Eq, v "x", v "y"); Binop (Ne, v "x", v "y");
      Binop (Eq, v "x", v "x"); Binop (Lt, v "x", v "y");
      Index (v "x", v "a"); Index (v "x", i 1); Index (v "s", v "c");
      Index (v "x", i 3); Index (Binop (Add, v "s", i 1), i 2);
      Index (v "x", Binop (Sub, i 3, v "b")); Index (v "f", v "b");
      Index (v "a", v "b"); Index (v "x", v "u"); Index (v "u", v "x");
      (* undefined operands on the left, the right, or both *)
      Binop (Add, v "u", v "a"); Binop (Add, v "a", v "u");
      Binop (Lt, v "u", v "w"); Binop (Eq, v "w", i 1);
      Binop (Mul, i 2, v "u"); Unop (Not, v "w");
      Call ("itoa", [ v "u" ]); Call ("min", [ v "a"; v "w" ]);
      Binop (Add, Binop (Add, v "u", i 1), Binop (Div, i 1, i 0));
      Binop (Add, Binop (Div, i 1, i 0), v "u") ]

let with_seed gen =
  QCheck2.Gen.triple gen (QCheck2.Gen.int_range 0 1000)
    (QCheck2.Gen.oneofl [ Rr; Random; Priority; Forced ])

let print_triple (p, seed, policy) =
  Printf.sprintf "seed %d, policy %s\n%s" seed (policy_name policy)
    (Gen_minic.print_program p)

let qtest_seeded ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:print_triple (with_seed gen) prop)

let tests =
  [ qtest_seeded "D1 native replay (structured)" Gen_minic.gen_program
      prop_replay_reproduces;
    qtest_seeded "D2 native replay (threads)" Gen_minic.gen_conc_program
      prop_replay_reproduces;
    qtest_seeded ~count:120 "D3 native replay (stress)"
      Gen_minic.gen_stress_program prop_replay_reproduces;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"D6 expression closure = eval_reg" ~count:2000
         ~print:Ldx_lang.Printer.expr_to_string gen_expr
         prop_expr_closure_equivalent);
    Alcotest.test_case "D6 expression closure = eval_reg (corpus)" `Quick
      test_expr_closure_corpus ]
