(* Lexer / parser / printer / checker tests. *)

open Ldx_lang

let check = Alcotest.check
let int = Alcotest.int

let parse = Parser.parse_exn

let test_lex_basic () =
  let toks = Lexer.tokenize "fn main() { let x = 1 + 2; }" in
  check int "token count" 14 (List.length toks) (* incl. EOF *)

let test_lex_string_escapes () =
  match Lexer.tokenize {| "a\nb\t\"c\"" |} with
  | [ { Lexer.tok = Lexer.STRING s; _ }; _ ] ->
    check Alcotest.string "unescaped" "a\nb\t\"c\"" s
  | _ -> Alcotest.fail "expected one string token"

let test_lex_comments () =
  let toks =
    Lexer.tokenize "// line\nfn /* block\n comment */ main() {}"
  in
  check int "comments skipped" 7 (List.length toks)

let test_lex_error_reports_position () =
  match Lexer.tokenize "fn main() {\n  let x = $;\n}" with
  | exception Lexer.Error (_, line, _) -> check int "line" 2 line
  | _ -> Alcotest.fail "expected a lexical error"

(* An integer literal beyond max_int is a lexical error at the
   literal's position, not an escaped [Failure "int_of_string"]. *)
let test_lex_int_out_of_range () =
  (match Lexer.tokenize "let x = 99999999999999999999;" with
   | exception Lexer.Error (msg, line, col) ->
     check Alcotest.string "message" "integer literal out of range" msg;
     check int "line" 1 line;
     check int "col" 9 col
   | _ -> Alcotest.fail "expected a lexical error");
  (match Lexer.tokenize (string_of_int max_int) with
   | { Lexer.tok = Lexer.INT n; _ } :: _ -> check int "max_int lexes" max_int n
   | _ -> Alcotest.fail "expected an int token");
  match
    Parser.parse_program "fn main() {\n  let x = 4611686018427387904;\n}"
  with
  | exception Parser.Error (msg, line, col) ->
    check Alcotest.string "parser message"
      "lexical error: integer literal out of range" msg;
    check int "parser line" 2 line;
    check int "parser col" 11 col
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_precedence () =
  let p = parse "fn main() { let x = 1 + 2 * 3 == 7; }" in
  match (List.hd p.Ast.funcs).Ast.body with
  | [ Ast.Let ("x", Ast.Binop (Ast.Eq, Ast.Binop (Ast.Add, _, _), Ast.Int 7)) ] ->
    ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_else_if () =
  let p =
    parse
      "fn main() { if (1) { } else if (2) { } else { let z = 0; } }"
  in
  match (List.hd p.Ast.funcs).Ast.body with
  | [ Ast.If (_, _, [ Ast.If (_, _, [ Ast.Let _ ]) ]) ] -> ()
  | _ -> Alcotest.fail "else-if chain wrong"

let test_parse_funref () =
  let p = parse "fn f() { } fn main() { let g = @f; g(); }" in
  check int "two funcs" 2 (List.length p.Ast.funcs)

let test_parse_index_assign () =
  let p = parse "fn main() { let a = mkarray(2, 0); a[1] = 5; }" in
  match (List.hd p.Ast.funcs).Ast.body with
  | [ _; Ast.Index_assign ("a", Ast.Int 1, Ast.Int 5) ] -> ()
  | _ -> Alcotest.fail "index assign wrong"

let test_parse_error_position () =
  match Parser.parse_program "fn main() {\n  let = 3;\n}" with
  | exception Parser.Error (_, line, _) -> check int "line" 2 line
  | _ -> Alcotest.fail "expected a parse error"

let test_roundtrip_example () =
  let src =
    {| fn raise_calc(kind, years) {
         let rate = 0;
         if (kind == "staff") { rate = 3; } else { rate = 5; }
         for (let i = 0; i < years; i = i + 1) { rate = rate + 1; }
         return rate;
       }
       fn main() {
         let r = raise_calc("staff", 4);
         print(itoa(r));
       } |}
  in
  let p = parse src in
  let p2 = parse (Printer.to_string p) in
  check Alcotest.bool "roundtrip" true (p = p2)

let test_check_undefined_var () =
  let p = parse "fn main() { let x = y + 1; }" in
  check Alcotest.bool "diag" true (Check.check_program p <> [])

let test_check_unknown_callee () =
  let p = parse "fn main() { frob(1); }" in
  check Alcotest.bool "diag" true (Check.check_program p <> [])

let test_check_arity () =
  let p = parse "fn f(a, b) { return a + b; } fn main() { let x = f(1); }" in
  check Alcotest.bool "diag" true (Check.check_program p <> [])

let test_check_syscall_arity () =
  let p = parse "fn main() { let x = read(1); }" in
  check Alcotest.bool "diag" true (Check.check_program p <> [])

let test_check_break_outside_loop () =
  let p = parse "fn main() { break; }" in
  check Alcotest.bool "diag" true (Check.check_program p <> [])

let test_check_no_main () =
  let p = parse "fn helper() { return 0; }" in
  check Alcotest.bool "diag" true (Check.check_program p <> [])

let test_check_reserved_shadow () =
  let p = parse "fn main() { let read = 3; }" in
  check Alcotest.bool "diag" true (Check.check_program p <> [])

let test_check_clean_program () =
  let p =
    parse
      {| fn helper(n) { if (n > 0) { return helper(n - 1); } return 0; }
         fn main() { let x = helper(3); print(itoa(x)); } |}
  in
  check (Alcotest.list Alcotest.string) "no diags" []
    (List.map (fun d -> d.Check.message) (Check.check_program p))

(* [main] runs with no arguments: a [main] with parameters is a check
   diagnostic, so [ldx_run] reports "MiniC check failed" instead of the
   VM raising when it builds the entry frame. *)
let test_check_main_params () =
  let p = parse "fn main(x) { print(itoa(x)); }" in
  check (Alcotest.list Alcotest.string) "diagnostic"
    [ "'main' takes no parameters" ]
    (List.map (fun d -> d.Check.message) (Check.check_program p));
  match Ldx_cfg.Lower.lower_program p with
  | exception Failure m ->
    check Alcotest.string "lowering refuses it"
      "MiniC check failed:\n[main] 'main' takes no parameters" m
  | _ -> Alcotest.fail "expected a check failure"

let test_indirect_var_callee_ok () =
  let p = parse "fn f() { return 1; } fn main() { let g = @f; let x = g(); }" in
  check Alcotest.bool "no diags" true (Check.check_program p = [])

let test_program_size () =
  let p = parse "fn main() { let x = 1 + 2; print(itoa(x)); }" in
  check Alcotest.bool "positive size" true (Ast.program_size p > 0)

let tests =
  [ Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex string escapes" `Quick test_lex_string_escapes;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex error position" `Quick test_lex_error_reports_position;
    Alcotest.test_case "lex int out of range" `Quick test_lex_int_out_of_range;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse else-if" `Quick test_parse_else_if;
    Alcotest.test_case "parse funref" `Quick test_parse_funref;
    Alcotest.test_case "parse index assign" `Quick test_parse_index_assign;
    Alcotest.test_case "parse error position" `Quick test_parse_error_position;
    Alcotest.test_case "printer roundtrip" `Quick test_roundtrip_example;
    Alcotest.test_case "check undefined var" `Quick test_check_undefined_var;
    Alcotest.test_case "check unknown callee" `Quick test_check_unknown_callee;
    Alcotest.test_case "check arity" `Quick test_check_arity;
    Alcotest.test_case "check syscall arity" `Quick test_check_syscall_arity;
    Alcotest.test_case "check break outside loop" `Quick
      test_check_break_outside_loop;
    Alcotest.test_case "check no main" `Quick test_check_no_main;
    Alcotest.test_case "check reserved shadow" `Quick test_check_reserved_shadow;
    Alcotest.test_case "check clean program" `Quick test_check_clean_program;
    Alcotest.test_case "check main takes no parameters" `Quick
      test_check_main_params;
    Alcotest.test_case "check indirect var callee" `Quick
      test_indirect_var_callee_ok;
    Alcotest.test_case "program size" `Quick test_program_size ]
