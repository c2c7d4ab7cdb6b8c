(* QCheck generators for MiniC.

   Two generator families:
   - [arb_program]: random *structured* programs built from templates of
     nested ifs, loops, calls and syscalls over a small variable pool.
     They always terminate (loops are bounded counters) and never trap
     (indices in range, no division), so that alignment properties can
     quantify over them.
   - [arb_expr]/[arb_fundef]: random ASTs for parser/printer round-trips
     (these need not execute). *)

open Ldx_lang
module Gen = QCheck2.Gen

(* ---------------- executable random programs ---------------- *)

(* Context: variables v0..v3 (ints, initialized), a socket s, and an
   output fd.  All generated statements keep them well-typed. *)

let var_names = [ "v0"; "v1"; "v2"; "v3" ]

let gen_ivar = Gen.oneofl var_names

let gen_atom : Ast.expr Gen.t =
  Gen.oneof
    [ Gen.map (fun n -> Ast.Int n) (Gen.int_range 0 9);
      Gen.map (fun v -> Ast.Var v) gen_ivar ]

let gen_pure_expr : Ast.expr Gen.t =
  let open Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then gen_atom
      else
        oneof
          [ gen_atom;
            map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Ast.Binop (Ast.Sub, a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) (self (n / 2)) gen_atom;
            map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
            map2 (fun a b -> Ast.Binop (Ast.Band, a, b)) (self (n / 2)) (self (n / 2)) ])

let gen_cond : Ast.expr Gen.t =
  let open Gen in
  let* op = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
  let* a = gen_pure_expr in
  let* b = gen_pure_expr in
  return (Ast.Binop (op, a, b))

(* Syscalls woven into the program: prints (output), reads from an input
   socket, time/rand (inputs shared by the slave). *)
let gen_syscall : Ast.stmt Gen.t =
  let open Gen in
  oneof
    [ map (fun v -> Ast.Expr (Ast.Call ("print",
        [ Ast.Call ("itoa", [ Ast.Var v ]) ]))) gen_ivar;
      map (fun v -> Ast.Assign (v, Ast.Call ("atoi",
        [ Ast.Call ("recv", [ Ast.Var "s" ]) ]))) gen_ivar;
      map (fun v -> Ast.Assign (v, Ast.Binop (Ast.Band,
        Ast.Call ("rand", []), Ast.Int 7))) gen_ivar;
      map (fun v -> Ast.Assign (v, Ast.Binop (Ast.Band,
        Ast.Call ("time", []), Ast.Int 15))) gen_ivar ]

let gen_assign : Ast.stmt Gen.t =
  let open Gen in
  map2 (fun v e -> Ast.Assign (v, e)) gen_ivar gen_pure_expr

(* Bounded loop: for (i# = 0; i# < k; i# = i# + 1) body, k <= 4. *)
let counter = ref 0

let fresh_loop_var () =
  incr counter;
  Printf.sprintf "i%d" !counter

let rec gen_stmt depth : Ast.stmt Gen.t =
  let open Gen in
  if depth <= 0 then oneof [ gen_assign; gen_syscall ]
  else
    frequency
      [ (3, gen_assign);
        (3, gen_syscall);
        (2, gen_if depth);
        (2, gen_loop depth) ]

and gen_block depth : Ast.block Gen.t =
  let open Gen in
  let* n = int_range 1 4 in
  list_repeat n (gen_stmt (depth - 1))

and gen_if depth : Ast.stmt Gen.t =
  let open Gen in
  let* c = gen_cond in
  let* t = gen_block depth in
  let* f = oneof [ return []; gen_block depth ] in
  return (Ast.If (c, t, f))

and gen_loop depth : Ast.stmt Gen.t =
  let open Gen in
  let* k = int_range 1 4 in
  let* body = gen_block depth in
  let i = fresh_loop_var () in
  return
    (Ast.For
       ( Some (Ast.Let (i, Ast.Int 0)),
         Some (Ast.Binop (Ast.Lt, Ast.Var i, Ast.Int k)),
         Some (Ast.Assign (i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int 1))),
         body ))

(* A helper function the program may call (exercises FCNT computation),
   plus main.  Variables are initialized up front. *)
let gen_program : Ast.program Gen.t =
  let open Gen in
  counter := 0;
  let* helper_body = gen_block 2 in
  let* body1 = gen_block 3 in
  let* call_helper = bool in
  let* body2 = gen_block 2 in
  let inits =
    Ast.Let ("s", Ast.Call ("socket", [ Ast.Str "in" ]))
    :: List.map (fun v -> Ast.Let (v, Ast.Int 1)) var_names
  in
  let helper =
    { Ast.fname = "helper";
      params = [ "v0" ];
      body =
        (Ast.Let ("s", Ast.Call ("socket", [ Ast.Str "in" ]))
         :: Ast.Let ("v1", Ast.Int 2) :: Ast.Let ("v2", Ast.Int 3)
         :: Ast.Let ("v3", Ast.Int 4) :: helper_body)
        @ [ Ast.Return (Some (Ast.Var "v0")) ] }
  in
  let call =
    if call_helper then
      [ Ast.Assign ("v0", Ast.Call ("helper", [ Ast.Var "v1" ])) ]
    else []
  in
  let main =
    { Ast.fname = "main"; params = [];
      body = inits @ body1 @ call @ body2 }
  in
  return { Ast.funcs = [ helper; main ] }

let print_program p = Printer.to_string p

(* ---------------- random concurrent programs ---------------- *)

(* Race-free threaded programs: K workers, each doing a deterministic
   per-thread mix of sends/prints/locked shared updates; main joins all.
   Used to check that per-thread alignment is schedule-independent. *)
let gen_conc_program : Ast.program Gen.t =
  let open Gen in
  let* nworkers = int_range 1 3 in
  let* per_worker = int_range 1 4 in
  let* use_lock = bool in
  let* body_kind = int_range 0 2 in
  let stmt_of k =
    match (body_kind + k) mod 3 with
    | 0 ->
      Ast.Expr
        (Ast.Call
           ("send",
            [ Ast.Var "s";
              Ast.Binop (Ast.Add, Ast.Str "m", Ast.Call ("itoa", [ Ast.Var "k" ])) ]))
    | 1 ->
      Ast.Expr
        (Ast.Call ("print", [ Ast.Call ("itoa", [ Ast.Var "wid" ]) ]))
    | _ ->
      Ast.Expr
        (Ast.Call ("write", [ Ast.Int 1; Ast.Str "x" ]))
  in
  let guarded body =
    if use_lock then
      (Ast.Expr (Ast.Call ("lock", [ Ast.Int 1 ])) :: body)
      @ [ Ast.Expr (Ast.Call ("unlock", [ Ast.Int 1 ])) ]
    else body
  in
  let worker =
    { Ast.fname = "worker";
      params = [ "wid" ];
      body =
        [ Ast.Let ("s", Ast.Call ("socket",
            [ Ast.Binop (Ast.Add, Ast.Str "out", Ast.Call ("itoa", [ Ast.Var "wid" ])) ]));
          Ast.For
            ( Some (Ast.Let ("k", Ast.Int 0)),
              Some (Ast.Binop (Ast.Lt, Ast.Var "k", Ast.Int per_worker)),
              Some (Ast.Assign ("k", Ast.Binop (Ast.Add, Ast.Var "k", Ast.Int 1))),
              guarded [ stmt_of 0; stmt_of 1 ] );
          Ast.Return (Some (Ast.Var "wid")) ] }
  in
  let spawns =
    List.concat
      (List.init nworkers (fun i ->
           [ Ast.Let (Printf.sprintf "t%d" i,
                      Ast.Call ("spawn", [ Ast.Funref "worker"; Ast.Int i ])) ]))
  in
  let joins =
    List.init nworkers (fun i ->
        Ast.Expr (Ast.Call ("join", [ Ast.Var (Printf.sprintf "t%d" i) ])))
  in
  let main =
    { Ast.fname = "main"; params = [];
      body = spawns @ joins @ [ Ast.Expr (Ast.Call ("print", [ Ast.Str "end" ])) ] }
  in
  return { Ast.funcs = [ worker; main ] }

(* ---------------- random ASTs for round-trips ---------------- *)

let gen_ident =
  Gen.map (fun n -> Printf.sprintf "x%d" n) (Gen.int_range 0 20)

let gen_any_expr : Ast.expr Gen.t =
  let open Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun i -> Ast.Int i) (int_range (-100) 100);
            map (fun v -> Ast.Var v) gen_ident;
            map (fun s -> Ast.Str s)
              (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
            map (fun v -> Ast.Funref v) gen_ident ]
      else
        oneof
          [ map (fun i -> Ast.Int i) (int_range (-100) 100);
            (let* op =
               oneofl
                 [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Eq;
                   Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or;
                   Ast.Band; Ast.Bor; Ast.Bxor; Ast.Shl; Ast.Shr ]
             in
             map2 (fun a b -> Ast.Binop (op, a, b)) (self (n / 2)) (self (n / 2)));
            map (fun a -> Ast.Unop (Ast.Not, a)) (self (n - 1));
            map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
            map2 (fun a i -> Ast.Index (a, i))
              (map (fun v -> Ast.Var v) gen_ident) (self (n / 2));
            (let* f = gen_ident in
             let* args = list_size (int_range 0 3) (self (n / 3)) in
             return (Ast.Call (f, args))) ])

let rec gen_any_stmt n : Ast.stmt Gen.t =
  let open Gen in
  if n <= 0 then
    oneof
      [ map2 (fun v e -> Ast.Let (v, e)) gen_ident gen_any_expr;
        map2 (fun v e -> Ast.Assign (v, e)) gen_ident gen_any_expr;
        map (fun e -> Ast.Expr e) gen_any_expr;
        return Ast.Break;
        return Ast.Continue;
        return (Ast.Return None);
        map (fun e -> Ast.Return (Some e)) gen_any_expr ]
  else
    oneof
      [ map2 (fun v e -> Ast.Let (v, e)) gen_ident gen_any_expr;
        (let* c = gen_any_expr in
         let* t = gen_any_block (n - 1) in
         let* f = gen_any_block (n - 1) in
         return (Ast.If (c, t, f)));
        (let* c = gen_any_expr in
         let* b = gen_any_block (n - 1) in
         return (Ast.While (c, b)));
        (let* init =
           oneof
             [ return None;
               map (fun e -> Some (Ast.Let ("fi", e))) gen_any_expr ]
         in
         let* cond = oneof [ return None; map Option.some gen_any_expr ] in
         let* step =
           oneof
             [ return None;
               map (fun e -> Some (Ast.Assign ("fi", e))) gen_any_expr ]
         in
         let* b = gen_any_block (n - 1) in
         return (Ast.For (init, cond, step, b))) ]

and gen_any_block n : Ast.block Gen.t =
  Gen.(list_size (int_range 0 3) (gen_any_stmt n))

let gen_any_fundef : Ast.fundef Gen.t =
  let open Gen in
  let* name = gen_ident in
  let* params = list_size (int_range 0 3) gen_ident in
  (* round-trips don't go through the checker, so duplicate parameter
     names are fine here *)
  let* body = gen_any_block 2 in
  return { Ast.fname = "f_" ^ name; params; body }

(* ---------------- stress programs for VM property testing ---------- *)

(* Programs that may trap, spawn threads, install signal handlers and
   take one-shot setjmp/longjmp exits — every runtime feature of the
   VM, in one pot.  Used by the replay and snapshot round-trip
   properties, and frozen in the VM golden corpus.  Termination is
   still guaranteed (bounded loops, one-shot longjmp guard); trapping
   is allowed and part of the point. *)
let gen_stress_program : Ast.program Gen.t =
  let open Gen in
  counter := 0;
  let* body1 = gen_block 2 in
  let* body2 = gen_block 2 in
  let* use_thread = bool in
  let* use_signal = bool in
  let* use_setjmp = bool in
  let* use_trappy = bool in
  let* divisor = int_range 0 2 in
  let* index = int_range 0 5 in
  let inits =
    Ast.Let ("s", Ast.Call ("socket", [ Ast.Str "in" ]))
    :: List.map (fun v -> Ast.Let (v, Ast.Int 1)) var_names
  in
  (* may divide by zero or index out of bounds — the trap must carry the
     same message and land on the same step in both VMs *)
  let trappy =
    if not use_trappy then []
    else
      [ Ast.Let ("arr", Ast.Call ("mkarray", [ Ast.Int 4; Ast.Int 7 ]));
        Ast.Assign
          ("v0",
           Ast.Binop
             (Ast.Div, Ast.Var "v1",
              Ast.Binop (Ast.Sub, Ast.Var "v2", Ast.Int divisor)));
        Ast.Assign ("v1", Ast.Index (Ast.Var "arr", Ast.Int index)) ]
  in
  let sj body =
    if not use_setjmp then body
    else
      (* one-shot: the longjmp retakes the setjmp exactly once *)
      Ast.Let ("jumped", Ast.Int 0)
      :: Ast.Let ("j", Ast.Call ("setjmp", [ Ast.Int 1 ]))
      :: body
      @ [ Ast.If
            ( Ast.Binop
                (Ast.And,
                 Ast.Binop (Ast.Eq, Ast.Var "jumped", Ast.Int 0),
                 Ast.Binop (Ast.Gt, Ast.Var "v0", Ast.Var "v3")),
              [ Ast.Assign ("jumped", Ast.Int 1);
                Ast.Expr (Ast.Call ("longjmp", [ Ast.Int 1 ])) ],
              [] ) ]
  in
  let signals =
    if not use_signal then []
    else
      [ Ast.Expr (Ast.Call ("signal", [ Ast.Int 10; Ast.Funref "on_sig" ]));
        Ast.Expr (Ast.Call ("alarm", [ Ast.Int 2 ]));
        Ast.Expr (Ast.Call ("signal", [ Ast.Int 14; Ast.Funref "on_sig" ]));
        Ast.Expr (Ast.Call ("sigsend", [ Ast.Int 10 ])) ]
  in
  let thread_setup =
    if not use_thread then []
    else
      [ Ast.Let ("t0", Ast.Call ("spawn", [ Ast.Funref "worker"; Ast.Int 2 ])) ]
  in
  let thread_join =
    if not use_thread then []
    else [ Ast.Expr (Ast.Call ("join", [ Ast.Var "t0" ])) ]
  in
  let handler =
    { Ast.fname = "on_sig";
      params = [ "signo" ];
      body =
        [ Ast.Expr
            (Ast.Call ("print", [ Ast.Call ("itoa", [ Ast.Var "signo" ]) ]));
          Ast.Return (Some (Ast.Int 0)) ] }
  in
  let worker =
    { Ast.fname = "worker";
      params = [ "wid" ];
      body =
        [ Ast.Let ("s", Ast.Call ("socket", [ Ast.Str "in" ]));
          Ast.For
            ( Some (Ast.Let ("k", Ast.Int 0)),
              Some (Ast.Binop (Ast.Lt, Ast.Var "k", Ast.Int 3)),
              Some (Ast.Assign ("k", Ast.Binop (Ast.Add, Ast.Var "k", Ast.Int 1))),
              [ Ast.Expr
                  (Ast.Call ("print", [ Ast.Call ("itoa", [ Ast.Var "k" ]) ])) ] );
          Ast.Return (Some (Ast.Var "wid")) ] }
  in
  let main =
    { Ast.fname = "main";
      params = [];
      body =
        inits @ signals @ thread_setup
        @ sj (body1 @ trappy)
        @ body2 @ thread_join
        @ [ Ast.Expr (Ast.Call ("print", [ Ast.Str "end" ])) ] }
  in
  return { Ast.funcs = [ handler; worker; main ] }
