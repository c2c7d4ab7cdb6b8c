(* Front-end golden test: one digest per program over everything the
   front end produces — tokens with their positions, the printed AST,
   the checker's diagnostics in order, the lowered and the instrumented
   IR, the instrumentation stats and every compiled flat function; for a
   malformed program, the exact error message and position.  The
   digests in [frontend_golden.txt] pin the front end's output: any
   speed work on the lexer, parser, checker, lowering, loop analysis or
   instrumenter must leave every one of them unchanged.

   Digests are taken over printed forms, not [Marshal] images, so they
   do not depend on the compiler version. *)

open Ldx_lang
module Ir = Ldx_cfg.Ir
module Counter = Ldx_instrument.Counter

let token_line (t : Lexer.t) =
  Printf.sprintf "%d:%d %s" t.Lexer.line t.Lexer.col
    (match t.Lexer.tok with
     | Lexer.INT n -> "INT " ^ string_of_int n
     | Lexer.STRING s -> Printf.sprintf "STRING %S" s
     | Lexer.IDENT s -> "IDENT " ^ s
     | Lexer.KW s -> "KW " ^ s
     | Lexer.PUNCT s -> "PUNCT " ^ s
     | Lexer.OP s -> "OP " ^ s
     | Lexer.EOF -> "EOF")

let stats_lines (s : Counter.stats) =
  List.map
    (fun (f : Counter.func_stats) ->
       Printf.sprintf "func %s fcnt=%d max=%d loops=%d/%d added=%d" f.fname
         f.fcnt f.max_cnt f.loops_instrumented f.loops_total f.added_instrs)
    s.per_func
  @ [ Printf.sprintf
        "recursive=%d indirect=%d fresh=%d syscalls=%d before=%d added=%d \
         loops=%d max_static=%d"
        s.recursive_funcs s.indirect_sites s.fresh_call_sites s.syscall_sites
        s.instrs_before s.instrs_added s.loops_instrumented s.max_static_cnt ]

(* Everything the front end says about one source, as text. *)
let render src =
  let buf = Buffer.create 4096 in
  let line s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  (match Lexer.tokenize src with
   | toks -> List.iter (fun t -> line (token_line t)) toks
   | exception Lexer.Error (m, l, c) ->
     line (Printf.sprintf "lexer error %d:%d %s" l c m));
  (match Parser.parse_exn src with
   | exception Failure m -> line m
   | ast ->
     line (Printer.to_string ast);
     List.iter
       (fun (d : Check.diagnostic) ->
          line (Printf.sprintf "diag [%s] %s" d.Check.func d.Check.message))
       (Check.check_program ast);
     (match Ldx_cfg.Lower.lower_program ast with
      | exception Failure m -> line m
      | plain ->
        line (Ir.program_to_string plain);
        let prog, stats = Counter.instrument plain in
        line (Ir.program_to_string prog);
        List.iter line (stats_lines stats);
        Array.iter
          (fun f -> line (Ldx_cfg.Flat.func_to_string f))
          (Ldx_vm.Machine.compile prog).Ldx_cfg.Flat.funcs));
  Buffer.contents buf

(* Well-formed programs for what the registry and the generators rarely
   combine: a [return] that leaves two active loops at once (a multi-loop
   exit), [break] and [continue] in nested loops, recursion and mutual
   recursion (fresh-frame calls), calls through function pointers, and
   syscalls inside short-circuit operands. *)
let feature_cases =
  [ ("feature-nested-exits",
     {|fn leaf(n) { return n + 1; }
fn scan(s, k) {
  let total = 0;
  for (let i = 0; i < k; i = i + 1) {
    let line = recv(s);
    let j = 0;
    while (j < 3) {
      if (strlen(line) > j) { print(line); }
      if (j == 2 && i == 1) { return total; }
      if (j == 1) { j = j + 1; continue; }
      total = total + leaf(j);
      j = j + 1;
    }
    if (total > 10) { break; }
    send(s, itoa(total));
  }
  return total;
}
fn main() {
  let s = socket("in");
  print(itoa(scan(s, 4)));
}|});
    ("feature-calls",
     {|fn fact(n) {
  if (n <= 1) { return 1; }
  let r = n * fact(n - 1);
  print(itoa(r));
  return r;
}
fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }
fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }
fn twice(f, x) { return f(f(x)); }
fn inc(x) { write(1, "i"); return x + 1; }
fn main() {
  let g = @inc;
  let y = twice(g, 3);
  if (even(y) || time() > 0 && rand() > 0) { print("e"); }
  print(itoa(fact(4) + y));
}|}) ]

(* Small programs, each malformed in one way: every lexical error, the
   common syntax errors, and one program per kind of check diagnostic. *)
let malformed_cases =
  [ ("lex-unterminated-comment", "fn main() { }\n/* never closed");
    ("lex-bad-escape", "fn main() { print(\"a\\qb\"); }");
    ("lex-newline-in-string", "fn main() {\n  print(\"ab\ncd\");\n}");
    ("lex-unterminated-string", "fn main() { print(\"abc");
    ("lex-trailing-backslash", "fn main() { print(\"abc\\");
    ("lex-int-out-of-range", "fn main() {\n  let x = 4611686018427387904;\n}");
    ("lex-stray-char", "fn main() {\n\tlet x = 1 # 2;\n}");
    ("parse-missing-semicolon", "fn main() { let x = 1 }");
    ("parse-bad-assign-target", "fn main() { f(1) = 2; }");
    ("parse-expected-expr", "fn main() { let x = ; }");
    ("parse-expected-ident", "fn 3() { }");
    ("parse-top-level-stmt", "let x = 1;");
    ("parse-missing-paren", "fn main() { if (1 { } }");
    ("check-builtin-arity", "fn main() { let x = itoa(1, 2); }");
    ("check-syscall-arity", "fn main() { let x = read(1); }");
    ("check-user-arity", "fn f(a) { return a; } fn main() { f(1, 2); }");
    ("check-unknown-callee", "fn main() { nothere(1); }");
    ("check-undefined-var", "fn main() { print(itoa(y)); }");
    ("check-unknown-funref", "fn main() { let g = @nothere; }");
    ("check-shadow-var", "fn main() { let itoa = 1; }");
    ("check-assign-undefined", "fn main() { z = 1; }");
    ("check-break-outside", "fn main() { break; }");
    ("check-continue-outside", "fn f() { if (1) { continue; } } fn main() { }");
    ("check-shadow-func", "fn print(x) { } fn main() { }");
    ("check-dup-param", "fn f(a, a) { } fn main() { }");
    ("check-no-main", "fn f() { }");
    ("check-dup-func", "fn f() { } fn f() { } fn main() { }");
    ("check-several",
     "fn f(a, a) { return b; }\nfn main() { let write = 2; g(); break; }") ]

(* Every registry source cut short at fixed fractions of its length:
   errors at end of input inside every kind of construct. *)
let truncated_cases () =
  List.concat_map
    (fun (w : Ldx_workloads.Workload.t) ->
       let src = w.Ldx_workloads.Workload.source in
       let n = String.length src in
       List.map
         (fun k ->
            (Printf.sprintf "%s@%d/7" w.Ldx_workloads.Workload.name k,
             String.sub src 0 (n * k / 7)))
         [ 1; 3; 5; 6 ])
    Ldx_workloads.Registry.all

(* The generators number loop variables from a global counter; it is
   reset before each program, so no program depends on what was
   generated before it in the process. *)
let generated_cases () =
  let open Ldx_genprog.Gen_minic in
  let rand = Random.State.make [| 20161 |] in
  let gen tag g n =
    List.init n (fun i ->
        counter := 0;
        (Printf.sprintf "%s-%d" tag i,
         Printer.to_string (QCheck2.Gen.generate1 ~rand g)))
  in
  gen "gen" gen_program 40
  @ gen "conc" gen_conc_program 40
  @ gen "stress" gen_stress_program 40

let corpus () =
  List.map
    (fun (w : Ldx_workloads.Workload.t) ->
       (w.Ldx_workloads.Workload.name, w.Ldx_workloads.Workload.source))
    Ldx_workloads.Registry.all
  @ feature_cases @ generated_cases () @ malformed_cases @ truncated_cases ()

let digests () =
  List.map
    (fun (name, src) -> (name, Digest.to_hex (Digest.string (render src))))
    (corpus ())

let golden () =
  In_channel.with_open_text "frontend_golden.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
      match String.split_on_char ' ' l with
      | [ name; d ] -> Some (name, d)
      | _ -> None)

let test_golden () =
  let expected = golden () and got = digests () in
  Alcotest.(check int) "corpus size" (List.length expected) (List.length got);
  let wrong =
    List.filter_map
      (fun ((n, d), (n', d')) ->
         if String.equal n n' && String.equal d d' then None
         else Some (Printf.sprintf "%s: golden %s, got %s %s" n d n' d'))
      (List.combine expected got)
  in
  Alcotest.(check (list string)) "front-end digests" [] wrong

let tests =
  [ Alcotest.test_case "front-end output matches golden digests" `Quick
      test_golden ]
