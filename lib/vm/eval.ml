(* Pure-expression evaluation: the [pexpr] fragment of the IR (no calls
   except builtins).  Operators propagate [Tainted] by data dependence.
   Each operator's match leaves the wrapper to one fallback, called
   from its last arm ([binop_other], [index_other]): a wrapper arm
   inside the match, even the last one, makes every arm dispatch on
   the operands' tags through a jump table instead of compares, and
   untainted runs paid for that. *)

open Ldx_lang
open Value

(* Stable polynomial string hash (independent of OCaml's Hashtbl.hash so
   results are reproducible across compiler versions). *)
let string_hash s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
  !h

let apply_builtin name (args : t list) : t =
  match (name, args) with
  | "itoa", [ Int n ] -> Str (string_of_int n)
  | "itoa", [ Str s ] -> Str s
  | "atoi", [ Str s ] ->
    let n = String.length s in
    let i0 = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
    let rec digits i acc any =
      if i < n && s.[i] >= '0' && s.[i] <= '9' then
        digits (i + 1) ((acc * 10) + Char.code s.[i] - 48) true
      else if any then acc
      else 0
    in
    let v = digits i0 0 false in
    int (if i0 = 1 && n > 0 && s.[0] = '-' then -v else v)
  | "atoi", [ Int n ] -> int n
  | "strlen", [ Str s ] -> int (String.length s)
  | "substr", [ Str s; Int start; Int len ] ->
    let n = String.length s in
    let start = max 0 (min start n) in
    let len = max 0 (min len (n - start)) in
    Str (String.sub s start len)
  | "char_at", [ Str s; Int i ] ->
    if i >= 0 && i < String.length s then int (Char.code s.[i]) else int (-1)
  | "chr", [ Int c ] -> Str (String.make 1 (Char.chr (c land 255)))
  | "find", [ Str hay; Str needle ] ->
    (* allocation-free char-compare scan (a String.sub per candidate
       offset was O(n*m) garbage on the hot path) *)
    let hn = String.length hay and nn = String.length needle in
    if nn = 0 then int 0
    else begin
      let rec matches_at i j =
        j >= nn || (hay.[i + j] = needle.[j] && matches_at i (j + 1))
      in
      let rec scan i =
        if i > hn - nn then -1
        else if matches_at i 0 then i
        else scan (i + 1)
      in
      int (scan 0)
    end
  | "hash", [ Str s ] -> Int (string_hash s)
  | "hash", [ Int n ] -> Int (string_hash (string_of_int n))
  | "min", [ Int a; Int b ] -> int (min a b)
  | "max", [ Int a; Int b ] -> int (max a b)
  | "abs", [ Int a ] -> int (abs a)
  | "len", [ Arr a ] -> int (Array.length a)
  | "len", [ Str s ] -> int (String.length s)
  | "mkarray", [ Int n; init ] ->
    if n < 0 || n > 1_000_000 then trap "mkarray: bad size %d" n
    else Arr (Array.make n init)
  | "upper", [ Str s ] -> Str (String.uppercase_ascii s)
  | "lower", [ Str s ] -> Str (String.lowercase_ascii s)
  | "starts_with", [ Str s; Str p ] ->
    let sp = String.length p in
    Int
      (if String.length s >= sp && String.sub s 0 sp = p then 1 else 0)
  | "repeat", [ Str s; Int n ] ->
    (* divide instead of multiplying: [n * len] overflows for huge [n]
       and would let the loop below run ~2^61 times *)
    if n <= 0 || s = "" then Str ""
    else if n > 10_000_000 / String.length s then trap "repeat: too large"
    else begin
      let buf = Buffer.create (n * String.length s) in
      for _ = 1 to n do Buffer.add_string buf s done;
      Str (Buffer.contents buf)
    end
  | "bit", [ Int x; Int i ] ->
    if i < 0 || i > 62 then int 0 else int ((x lsr i) land 1)
  | _ ->
    trap "builtin %s: bad arguments (%s)" name
      (String.concat ", " (List.map to_string args))

let rec apply_binop (op : Ast.binop) (a : t) (b : t) : t =
  match (op, a, b) with
  | Ast.Add, Int x, Int y -> int (x + y)
  | Ast.Add, Str x, Str y -> Str (x ^ y)
  | Ast.Add, Str x, Int y -> Str (x ^ string_of_int y)
  | Ast.Add, Int x, Str y -> Str (string_of_int x ^ y)
  | Ast.Sub, Int x, Int y -> int (x - y)
  | Ast.Mul, Int x, Int y -> int (x * y)
  | Ast.Div, Int _, Int 0 -> trap "division by zero"
  | Ast.Div, Int x, Int y -> int (x / y)
  | Ast.Mod, Int _, Int 0 -> trap "modulo by zero"
  | Ast.Mod, Int x, Int y -> int (x mod y)
  | Ast.Eq, x, y when not (is_tainted x || is_tainted y) ->
    int (if equal x y then 1 else 0)
  | Ast.Ne, x, y when not (is_tainted x || is_tainted y) ->
    int (if equal x y then 0 else 1)
  | Ast.Lt, Int x, Int y -> int (if x < y then 1 else 0)
  | Ast.Le, Int x, Int y -> int (if x <= y then 1 else 0)
  | Ast.Gt, Int x, Int y -> int (if x > y then 1 else 0)
  | Ast.Ge, Int x, Int y -> int (if x >= y then 1 else 0)
  | Ast.Lt, Str x, Str y -> int (if String.compare x y < 0 then 1 else 0)
  | Ast.Le, Str x, Str y -> int (if String.compare x y <= 0 then 1 else 0)
  | Ast.Gt, Str x, Str y -> int (if String.compare x y > 0 then 1 else 0)
  | Ast.Ge, Str x, Str y -> int (if String.compare x y >= 0 then 1 else 0)
  | Ast.Band, Int x, Int y -> int (x land y)
  | Ast.Bor, Int x, Int y -> int (x lor y)
  | Ast.Bxor, Int x, Int y -> int (x lxor y)
  | Ast.Shl, Int x, Int y -> int (if y < 0 || y > 62 then 0 else x lsl y)
  | Ast.Shr, Int x, Int y -> int (if y < 0 || y > 62 then 0 else x asr y)
  | Ast.And, Int x, Int y -> int (if x <> 0 && y <> 0 then 1 else 0)
  | Ast.Or, Int x, Int y -> int (if x <> 0 || y <> 0 then 1 else 0)
  | Ast.And, x, y when not (is_tainted x || is_tainted y) ->
    int (if truthy x && truthy y then 1 else 0)
  | Ast.Or, x, y when not (is_tainted x || is_tainted y) ->
    int (if truthy x || truthy y then 1 else 0)
  | op, a, b -> binop_other op a b

and binop_other op a b =
  if is_tainted a || is_tainted b then
    Tainted (apply_binop op (untaint a) (untaint b))
  else
    trap "binop %s: bad operands %s, %s" (Ast.binop_to_string op)
      (to_string a) (to_string b)

let rec apply_unop (op : Ast.unop) (a : t) : t =
  match (op, a) with
  | Ast.Neg, Int x -> int (-x)
  | Ast.Not, Int x -> int (if x = 0 then 1 else 0)
  | Ast.Not, x when not (is_tainted x) -> int (if truthy x then 0 else 1)
  | _ -> (
      match a with
      | Tainted x -> Tainted (apply_unop op x)
      | _ -> trap "negation of non-int")

(* [a[i]] on evaluated operands.  [a[i]] is the element as stored, so a
   wrapped index adds no taint; [s[i]] takes the string's. *)
let rec apply_index (va : t) (vi : t) : t =
  match (va, vi) with
  | Arr arr, Int k ->
    if k >= 0 && k < Array.length arr then arr.(k)
    else trap "index %d out of bounds (len %d)" k (Array.length arr)
  | Str s, Int k ->
    if k >= 0 && k < String.length s then int (Char.code s.[k])
    else trap "string index %d out of bounds (len %d)" k (String.length s)
  | _ -> index_other va vi

and index_other va vi =
  match (va, vi) with
  | Tainted (Str _ as s), _ -> Tainted (apply_index s (untaint vi))
  | _, Tainted vi -> apply_index va vi
  | _ -> trap "indexing non-array"

(* Evaluate a pure expression against register slots, resolving names
   through the flat symbol table: a direct walk of the source
   expression, the reference [compile_flat]'s closures are tested
   against. *)
let rec eval_reg (slot_of : (string, int) Hashtbl.t) (regs : t array)
    (e : Ast.expr) : t =
  match e with
  | Ast.Int n -> Int n
  | Ast.Str s -> Str s
  | Ast.Var x ->
    (match Hashtbl.find_opt slot_of x with
     | Some i ->
       let v = regs.(i) in
       if v == undef then trap "undefined variable %s" x else v
     | None -> trap "undefined variable %s" x)
  | Ast.Funref f -> Fptr f
  | Ast.Unop (op, a) -> apply_unop op (eval_reg slot_of regs a)
  | Ast.Binop (op, a, b) ->
    let va = eval_reg slot_of regs a in
    let vb = eval_reg slot_of regs b in
    apply_binop op va vb
  | Ast.Index (a, i) ->
    let va = eval_reg slot_of regs a in
    let vi = eval_reg slot_of regs i in
    apply_index va vi
  | Ast.Call (name, args) ->
    let vargs = List.map (eval_reg slot_of regs) args in
    apply_builtin name vargs

(* ------------------------------------------------------------------ *)
(* Closure compilation of the flat form (the VM's [Flat.consts.c_expr]).
   [compile_flat names e] runs once per expression, at [Flat.compile]
   time, and returns a closure over the register file, so the VM
   dispatches on the expression's shape once instead of at every step.

   The closures compute exactly what [eval_reg] computes on the source
   expression: operands evaluate left to right, a read of an unset slot
   traps as an undefined variable before the operator runs, and every
   result that is not an int fast path comes from [apply_binop],
   [apply_unop], [builtin] (default [apply_builtin]) or [apply_index].
   The fast paths ([+ - *] and the six comparisons on two ints,
   in-bounds indexing) return what those functions would, int results
   boxed through [Value.int] as [apply_binop] does.  A fast path may
   test a slot for [Int] before testing it for [undef]: the sentinel is
   an [Arr] with an empty payload, so it always falls through to the
   checked path.

   Each operator's closures are written out per operand shape.  A
   shared template taking the int operation as a function argument is
   shorter, but without flambda that argument stays an indirect call:
   it measured about 8 % fewer oneshot verdicts per second (perfbench,
   three 10 s pairs, 2-vCPU x86-64 host). *)

module Flat = Ldx_cfg.Flat

type code = t array -> t

let v_true = int 1
let v_false = int 0

(* Evaluate [args] left to right. *)
let eval_args (args : code array) (regs : t array) : t list =
  let n = Array.length args in
  let rec build i =
    if i = n then []
    else
      let v = (Array.unsafe_get args i) regs in
      v :: build (i + 1)
  in
  build 0

(* [op] over two evaluated operands. *)
let binop_closure (op : Ast.binop) (ca : code) (cb : code) : code =
  match op with
  | Ast.Add ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with Int x, Int y -> int (x + y) | _ -> apply_binop op a b)
  | Ast.Sub ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with Int x, Int y -> int (x - y) | _ -> apply_binop op a b)
  | Ast.Mul ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with Int x, Int y -> int (x * y) | _ -> apply_binop op a b)
  | Ast.Eq ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with
       | Int x, Int y -> if x = y then v_true else v_false
       | _ -> apply_binop op a b)
  | Ast.Ne ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with
       | Int x, Int y -> if x <> y then v_true else v_false
       | _ -> apply_binop op a b)
  | Ast.Lt ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with
       | Int x, Int y -> if x < y then v_true else v_false
       | _ -> apply_binop op a b)
  | Ast.Le ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with
       | Int x, Int y -> if x <= y then v_true else v_false
       | _ -> apply_binop op a b)
  | Ast.Gt ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with
       | Int x, Int y -> if x > y then v_true else v_false
       | _ -> apply_binop op a b)
  | Ast.Ge ->
    fun r ->
      let a = ca r in
      let b = cb r in
      (match (a, b) with
       | Int x, Int y -> if x >= y then v_true else v_false
       | _ -> apply_binop op a b)
  | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr
  | Ast.And | Ast.Or ->
    fun r ->
      let a = ca r in
      let b = cb r in
      apply_binop op a b

(* [op] over slots [i] and [j], loaded directly. *)
let binop_rr (names : string array) (op : Ast.binop) (i : int) (j : int) :
  code =
  let ni = names.(i) and nj = names.(j) in
  (* the checked path: undefined-variable traps, left slot first *)
  let slow a b =
    if a == undef then trap "undefined variable %s" ni
    else if b == undef then trap "undefined variable %s" nj
    else apply_binop op a b
  in
  match op with
  | Ast.Add ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with Int x, Int y -> int (x + y) | _ -> slow a b)
  | Ast.Sub ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with Int x, Int y -> int (x - y) | _ -> slow a b)
  | Ast.Mul ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with Int x, Int y -> int (x * y) | _ -> slow a b)
  | Ast.Eq ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with
       | Int x, Int y -> if x = y then v_true else v_false
       | _ -> slow a b)
  | Ast.Ne ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with
       | Int x, Int y -> if x <> y then v_true else v_false
       | _ -> slow a b)
  | Ast.Lt ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with
       | Int x, Int y -> if x < y then v_true else v_false
       | _ -> slow a b)
  | Ast.Le ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with
       | Int x, Int y -> if x <= y then v_true else v_false
       | _ -> slow a b)
  | Ast.Gt ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with
       | Int x, Int y -> if x > y then v_true else v_false
       | _ -> slow a b)
  | Ast.Ge ->
    fun r ->
      let a = Array.unsafe_get r i and b = Array.unsafe_get r j in
      (match (a, b) with
       | Int x, Int y -> if x >= y then v_true else v_false
       | _ -> slow a b)
  | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr
  | Ast.And | Ast.Or ->
    fun r -> slow (Array.unsafe_get r i) (Array.unsafe_get r j)

(* [op] over slot [i] and the constant [v]; an int constant is unboxed
   at compile time. *)
let binop_rc (names : string array) (op : Ast.binop) (i : int) (v : t) :
  code =
  let ni = names.(i) in
  let slow a =
    if a == undef then trap "undefined variable %s" ni
    else apply_binop op a v
  in
  match (op, v) with
  | Ast.Add, Int c ->
    fun r -> (match Array.unsafe_get r i with Int x -> int (x + c) | a -> slow a)
  | Ast.Sub, Int c ->
    fun r -> (match Array.unsafe_get r i with Int x -> int (x - c) | a -> slow a)
  | Ast.Mul, Int c ->
    fun r -> (match Array.unsafe_get r i with Int x -> int (x * c) | a -> slow a)
  | Ast.Eq, Int c ->
    fun r ->
      (match Array.unsafe_get r i with
       | Int x -> if x = c then v_true else v_false
       | a -> slow a)
  | Ast.Ne, Int c ->
    fun r ->
      (match Array.unsafe_get r i with
       | Int x -> if x <> c then v_true else v_false
       | a -> slow a)
  | Ast.Lt, Int c ->
    fun r ->
      (match Array.unsafe_get r i with
       | Int x -> if x < c then v_true else v_false
       | a -> slow a)
  | Ast.Le, Int c ->
    fun r ->
      (match Array.unsafe_get r i with
       | Int x -> if x <= c then v_true else v_false
       | a -> slow a)
  | Ast.Gt, Int c ->
    fun r ->
      (match Array.unsafe_get r i with
       | Int x -> if x > c then v_true else v_false
       | a -> slow a)
  | Ast.Ge, Int c ->
    fun r ->
      (match Array.unsafe_get r i with
       | Int x -> if x >= c then v_true else v_false
       | a -> slow a)
  | _ -> fun r -> slow (Array.unsafe_get r i)

let rec compile_flat ?(builtin = apply_builtin) (names : string array)
    (e : t Flat.fexpr) : code =
  let compile_flat = compile_flat ~builtin in
  match e with
  | Flat.Const v -> fun _ -> v
  | Flat.Reg i ->
    let n = names.(i) in
    fun r ->
      (* unsafe: slots are lowering-assigned, always < Array.length r *)
      let v = Array.unsafe_get r i in
      if v == undef then trap "undefined variable %s" n else v
  | Flat.Unop (Ast.Neg, a) ->
    let ca = compile_flat names a in
    fun r -> (match ca r with Int x -> int (-x) | v -> apply_unop Ast.Neg v)
  | Flat.Unop (Ast.Not, a) ->
    let ca = compile_flat names a in
    fun r -> apply_unop Ast.Not (ca r)
  | Flat.Binop (op, a, b) ->
    binop_closure op (compile_flat names a) (compile_flat names b)
  | Flat.BinopRR (op, i, j) -> binop_rr names op i j
  | Flat.BinopRC (op, i, v) -> binop_rc names op i v
  | Flat.BinopCR (op, v, j) ->
    binop_closure op (fun _ -> v) (compile_flat names (Flat.Reg j))
  | Flat.Index (a, i) ->
    let ca = compile_flat names a and ci = compile_flat names i in
    fun r ->
      let va = ca r in
      let vi = ci r in
      (match (va, vi) with
       | Arr arr, Int k when k >= 0 && k < Array.length arr ->
         Array.unsafe_get arr k
       | _ -> apply_index va vi)
  | Flat.IndexRR (x, y) ->
    let nx = names.(x) and ny = names.(y) in
    fun r ->
      let va = Array.unsafe_get r x and vi = Array.unsafe_get r y in
      (match (va, vi) with
       (* [undef]'s payload is empty, so the bounds test excludes it *)
       | Arr arr, Int k when k >= 0 && k < Array.length arr ->
         Array.unsafe_get arr k
       | _ ->
         if va == undef then trap "undefined variable %s" nx
         else if vi == undef then trap "undefined variable %s" ny
         else apply_index va vi)
  | Flat.Builtin (name, [| a |]) ->
    let ca = compile_flat names a in
    fun r -> builtin name [ ca r ]
  | Flat.Builtin (name, [| a; b |]) ->
    let ca = compile_flat names a and cb = compile_flat names b in
    fun r ->
      let va = ca r in
      let vb = cb r in
      builtin name [ va; vb ]
  | Flat.Builtin (name, args) ->
    let cargs = Array.map (compile_flat names) args in
    fun r -> builtin name (eval_args cargs r)
