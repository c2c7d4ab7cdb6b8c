(* Evaluator unit tests: every builtin, binop semantics, trap paths. *)

module Eval = Ldx_vm.Eval
module Value = Ldx_vm.Value
open Ldx_lang

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

let b name args = Eval.apply_builtin name args
let vi n = Value.Int n
let vs s = Value.Str s

let expect_int msg expected v =
  match v with
  | Value.Int n -> check int msg expected n
  | _ -> Alcotest.failf "%s: expected int" msg

let expect_str msg expected v =
  match v with
  | Value.Str s -> check string msg expected s
  | _ -> Alcotest.failf "%s: expected string" msg

let traps f =
  match f () with
  | exception Value.Trap _ -> true
  | _ -> false

let test_itoa_atoi () =
  expect_str "itoa" "42" (b "itoa" [ vi 42 ]);
  expect_str "itoa neg" "-7" (b "itoa" [ vi (-7) ]);
  expect_int "atoi" 123 (b "atoi" [ vs "123" ]);
  expect_int "atoi neg" (-5) (b "atoi" [ vs "-5" ]);
  expect_int "atoi prefix" 12 (b "atoi" [ vs "12abc" ]);
  expect_int "atoi junk" 0 (b "atoi" [ vs "abc" ]);
  expect_int "atoi empty" 0 (b "atoi" [ vs "" ]);
  expect_int "atoi plus" 8 (b "atoi" [ vs "+8" ])

let test_string_builtins () =
  expect_int "strlen" 5 (b "strlen" [ vs "hello" ]);
  expect_str "substr" "ell" (b "substr" [ vs "hello"; vi 1; vi 3 ]);
  expect_str "substr clamp start" "" (b "substr" [ vs "hi"; vi 9; vi 3 ]);
  expect_str "substr clamp len" "i" (b "substr" [ vs "hi"; vi 1; vi 99 ]);
  expect_int "char_at" 101 (b "char_at" [ vs "hello"; vi 1 ]);
  expect_int "char_at oob" (-1) (b "char_at" [ vs "hi"; vi 5 ]);
  expect_str "chr" "A" (b "chr" [ vi 65 ]);
  expect_int "find hit" 2 (b "find" [ vs "abcdef"; vs "cd" ]);
  expect_int "find miss" (-1) (b "find" [ vs "abc"; vs "zz" ]);
  expect_int "find empty" 0 (b "find" [ vs "abc"; vs "" ]);
  expect_str "upper" "ABC1" (b "upper" [ vs "abc1" ]);
  expect_str "lower" "abc1" (b "lower" [ vs "ABC1" ]);
  expect_int "starts_with yes" 1 (b "starts_with" [ vs "prefix"; vs "pre" ]);
  expect_int "starts_with no" 0 (b "starts_with" [ vs "prefix"; vs "fix" ]);
  expect_str "repeat" "ababab" (b "repeat" [ vs "ab"; vi 3 ]);
  expect_str "repeat zero" "" (b "repeat" [ vs "ab"; vi 0 ])

(* [repeat]'s size guard: [n * len] used to overflow, so a huge count
   passed the guard and looped ~2^61 times, and an empty string looped
   [n] times for any [n]. *)
let test_repeat_bounds () =
  check bool "overflowing count traps" true
    (traps (fun () -> b "repeat" [ vs "ab"; vi 2305843009213693952 ]));
  check bool "max_int count traps" true
    (traps (fun () -> b "repeat" [ vs "x"; vi max_int ]));
  expect_str "empty string, max_int count" "" (b "repeat" [ vs ""; vi max_int ]);
  (* where the product fits, the guard's edge is where it always was *)
  expect_int "at the limit" 10_000_000
    (b "strlen" [ b "repeat" [ vs "ab"; vi 5_000_000 ] ]);
  check bool "one past the limit" true
    (traps (fun () -> b "repeat" [ vs "ab"; vi 5_000_001 ]));
  check bool "one past the limit (len 3)" true
    (traps (fun () -> b "repeat" [ vs "abc"; vi 3_333_334 ]))

let test_numeric_builtins () =
  expect_int "min" 2 (b "min" [ vi 5; vi 2 ]);
  expect_int "max" 5 (b "max" [ vi 5; vi 2 ]);
  expect_int "abs" 9 (b "abs" [ vi (-9) ]);
  expect_int "bit set" 1 (b "bit" [ vi 5; vi 2 ]);
  expect_int "bit clear" 0 (b "bit" [ vi 5; vi 1 ]);
  expect_int "bit oob" 0 (b "bit" [ vi 5; vi 99 ])

let test_hash_stable () =
  expect_int "hash deterministic"
    (Eval.string_hash "ldx")
    (b "hash" [ vs "ldx" ]);
  check bool "different inputs differ" true
    (Eval.string_hash "a" <> Eval.string_hash "b")

let test_array_builtins () =
  match b "mkarray" [ vi 3; vi 7 ] with
  | Value.Arr a ->
    check int "len" 3 (Array.length a);
    expect_int "len builtin" 3 (b "len" [ Value.Arr a ]);
    expect_int "init" 7 a.(1)
  | _ -> Alcotest.fail "mkarray"

let test_mkarray_traps () =
  check bool "negative size" true (traps (fun () -> b "mkarray" [ vi (-1); vi 0 ]));
  check bool "huge size" true
    (traps (fun () -> b "mkarray" [ vi 2_000_000; vi 0 ]))

let bin op a bv = Eval.apply_binop op a bv

let test_binops_int () =
  expect_int "add" 7 (bin Ast.Add (vi 3) (vi 4));
  expect_int "sub" (-1) (bin Ast.Sub (vi 3) (vi 4));
  expect_int "mul" 12 (bin Ast.Mul (vi 3) (vi 4));
  expect_int "div" 3 (bin Ast.Div (vi 13) (vi 4));
  expect_int "mod" 1 (bin Ast.Mod (vi 13) (vi 4));
  expect_int "shl" 12 (bin Ast.Shl (vi 3) (vi 2));
  expect_int "shr" 3 (bin Ast.Shr (vi 13) (vi 2));
  expect_int "band" 1 (bin Ast.Band (vi 5) (vi 3));
  expect_int "bor" 7 (bin Ast.Bor (vi 5) (vi 3));
  expect_int "bxor" 6 (bin Ast.Bxor (vi 5) (vi 3));
  expect_int "shl huge" 0 (bin Ast.Shl (vi 1) (vi 100))

let test_binops_string () =
  expect_str "concat" "ab" (bin Ast.Add (vs "a") (vs "b"));
  expect_str "str+int" "x3" (bin Ast.Add (vs "x") (vi 3));
  expect_str "int+str" "3x" (bin Ast.Add (vi 3) (vs "x"));
  expect_int "lt" 1 (bin Ast.Lt (vs "abc") (vs "abd"));
  expect_int "ge" 1 (bin Ast.Ge (vs "b") (vs "a"))

let test_binops_eq () =
  expect_int "int eq" 1 (bin Ast.Eq (vi 3) (vi 3));
  expect_int "str ne" 1 (bin Ast.Ne (vs "a") (vs "b"));
  expect_int "cross-type eq" 0 (bin Ast.Eq (vi 3) (vs "3"));
  (* deep array equality *)
  let a1 = Value.Arr [| vi 1; vs "x" |] in
  let a2 = Value.Arr [| vi 1; vs "x" |] in
  let a3 = Value.Arr [| vi 1; vs "y" |] in
  expect_int "arr eq" 1 (bin Ast.Eq a1 a2);
  expect_int "arr ne" 0 (bin Ast.Eq a1 a3)

(* Cyclic and mutually referencing arrays: [==] must answer instead of
   recursing forever, and still see a difference beside the cycle. *)
let test_binops_eq_cyclic () =
  let self_ref extra =
    let a = [| vi 0; vi extra |] in
    a.(0) <- Value.Arr a;
    Value.Arr a
  in
  let a = self_ref 1 in
  expect_int "a == a" 1 (bin Ast.Eq a a);
  expect_int "a != a" 0 (bin Ast.Ne a a);
  expect_int "same shape, distinct arrays" 1 (bin Ast.Eq a (self_ref 1));
  expect_int "differs beside the cycle" 1 (bin Ast.Ne a (self_ref 2));
  expect_int "differs beside the cycle (==)" 0 (bin Ast.Eq a (self_ref 2));
  let c = [| vi 0; vi 5 |] and d = [| vi 0; vi 5 |] in
  c.(0) <- Value.Arr d;
  d.(0) <- Value.Arr c;
  expect_int "mutual c == d" 1 (bin Ast.Eq (Value.Arr c) (Value.Arr d));
  expect_int "mutual c != d" 0 (bin Ast.Ne (Value.Arr c) (Value.Arr d));
  d.(1) <- vi 6;
  expect_int "mutual, one element apart" 0
    (bin Ast.Eq (Value.Arr c) (Value.Arr d));
  (* the same comparison from a MiniC program *)
  let o =
    Ldx_vm.Driver.run_source
      {| fn main() {
           let a = mkarray(1, 0);
           a[0] = a;
           let b = mkarray(1, 0);
           b[0] = b;
           if (a == a) { print("eq "); }
           if (a != b) { print("ne"); } else { print("eq"); }
         } |}
      Ldx_osim.World.empty
  in
  check (Alcotest.option string) "no trap" None o.Ldx_vm.Driver.trap;
  check string "stdout" "eq eq" o.Ldx_vm.Driver.stdout

(* A cyclic array in a trap message and in a comparison, from a MiniC
   program: the VM and the taint tracker give the same trap for [a + 1]
   and the same value for [a == a].  Stringifying the array for the trap
   message and converting it to and from shadow values used to recurse
   forever. *)
let test_cyclic_array_engines () =
  let prelude = "fn main() { let a = mkarray(1, 0); a[0] = a; " in
  let both body =
    let src = prelude ^ body ^ " }" in
    let vm = Ldx_vm.Driver.run_source src Ldx_osim.World.empty in
    let tr = Ldx_taint.Tracker.run_source src Ldx_osim.World.empty in
    (vm, tr)
  in
  let vm, tr = both "let b = a + 1;" in
  check (Alcotest.option string) "vm trap"
    (Some "binop +: bad operands [[...]], 1") vm.Ldx_vm.Driver.trap;
  check (Alcotest.option string) "tracker trap" vm.Ldx_vm.Driver.trap
    tr.Ldx_taint.Tracker.trap;
  let vm, tr = both "let b = a == a; print(itoa(b));" in
  check (Alcotest.option string) "vm: no trap" None vm.Ldx_vm.Driver.trap;
  check (Alcotest.option string) "tracker: no trap" None
    tr.Ldx_taint.Tracker.trap;
  check string "vm value" "1" vm.Ldx_vm.Driver.stdout;
  check string "tracker value" "1" tr.Ldx_taint.Tracker.stdout

let test_binop_traps () =
  check bool "div0" true (traps (fun () -> bin Ast.Div (vi 1) (vi 0)));
  check bool "mod0" true (traps (fun () -> bin Ast.Mod (vi 1) (vi 0)));
  check bool "sub strings" true (traps (fun () -> bin Ast.Sub (vs "a") (vs "b")))

let test_truthiness () =
  check bool "0 falsy" false (Value.truthy (vi 0));
  check bool "empty falsy" false (Value.truthy (vs ""));
  check bool "unit falsy" false (Value.truthy Value.Unit);
  check bool "nonzero truthy" true (Value.truthy (vi (-1)));
  check bool "string truthy" true (Value.truthy (vs "x"));
  check bool "fptr truthy" true (Value.truthy (Value.Fptr "f"))

(* [Eval.eval_reg] over a register file: names resolve through the
   slot table; an unknown name and a slot still holding [Value.undef]
   both trap as undefined variables. *)
let test_eval_env () =
  let slot_of = Hashtbl.create 4 in
  List.iteri (fun i x -> Hashtbl.replace slot_of x i) [ "x"; "s"; "u" ];
  let regs = [| vi 10; vs "xyz"; Value.undef |] in
  let eval = Eval.eval_reg slot_of regs in
  expect_int "var" 10 (eval (Ast.Var "x"));
  expect_int "expr" 25
    (eval
       (Ast.Binop (Ast.Add, Ast.Var "x",
                   Ast.Binop (Ast.Mul, Ast.Int 3, Ast.Int 5))));
  check bool "unbound traps" true (traps (fun () -> eval (Ast.Var "nope")));
  check bool "unset slot traps" true (traps (fun () -> eval (Ast.Var "u")));
  (* string indexing in expressions *)
  expect_int "string index" 121 (eval (Ast.Index (Ast.Var "s", Ast.Int 1)))

(* Regression: builtin "find" used String.sub per candidate offset —
   O(|hay|*|needle|) garbage on a hot path.  The scan must now be
   allocation-free: minor-heap usage must not scale with the haystack.
   (The result box and qcheck bookkeeping allow a small constant.) *)
let test_find_allocation_free () =
  let hay = String.make 200_000 'a' in
  let needle = "ab" in               (* never matches: worst-case scan *)
  let args = [ Value.Str hay; Value.Str needle ] in
  (* warm up so any one-time setup is off the meter *)
  ignore (Eval.apply_builtin "find" args : Value.t);
  let before = Gc.minor_words () in
  let r = Eval.apply_builtin "find" args in
  let allocated = Gc.minor_words () -. before in
  expect_int "no match" (-1) r;
  check bool
    (Printf.sprintf "allocation independent of haystack (%.0f words)"
       allocated)
    true
    (allocated < 1_000.)

let tests =
  [ Alcotest.test_case "itoa/atoi" `Quick test_itoa_atoi;
    Alcotest.test_case "string builtins" `Quick test_string_builtins;
    Alcotest.test_case "repeat size guard" `Quick test_repeat_bounds;
    Alcotest.test_case "numeric builtins" `Quick test_numeric_builtins;
    Alcotest.test_case "hash stable" `Quick test_hash_stable;
    Alcotest.test_case "array builtins" `Quick test_array_builtins;
    Alcotest.test_case "mkarray traps" `Quick test_mkarray_traps;
    Alcotest.test_case "int binops" `Quick test_binops_int;
    Alcotest.test_case "string binops" `Quick test_binops_string;
    Alcotest.test_case "equality" `Quick test_binops_eq;
    Alcotest.test_case "equality on cyclic arrays" `Quick
      test_binops_eq_cyclic;
    Alcotest.test_case "cyclic arrays: VM and tracker agree" `Quick
      test_cyclic_array_engines;
    Alcotest.test_case "binop traps" `Quick test_binop_traps;
    Alcotest.test_case "truthiness" `Quick test_truthiness;
    Alcotest.test_case "eval env" `Quick test_eval_env;
    Alcotest.test_case "find is allocation-free" `Quick
      test_find_allocation_free ]
