(* Recursive-descent parser for MiniC with precedence climbing. *)

exception Error of string * int * int  (* message, line, col *)

(* The remaining tokens; never empty, since it ends with [EOF] and
   nothing advances past [EOF]. *)
type state = { mutable toks : Lexer.t list }

let peek st = match st.toks with t :: _ -> t | [] -> assert false
let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let fail st msg =
  let t = peek st in
  raise (Error (Printf.sprintf "%s (found %s)" msg (Lexer.token_to_string t.tok),
                t.line, t.col))

(* The parser probes every statement and expression for punctuation;
   [PUNCT] tokens are single characters, so a probe is one character
   comparison rather than a string comparison. *)
let at_punct st c =
  match (peek st).tok with Lexer.PUNCT q -> q.[0] = c | _ -> false

let eat_punct st c =
  if at_punct st c then advance st
  else fail st (Printf.sprintf "expected '%c'" c)

let eat_op st o =
  match (peek st).tok with
  | Lexer.OP q when String.equal o q -> advance st
  | _ -> fail st (Printf.sprintf "expected '%s'" o)

let eat_kw st k =
  match (peek st).tok with
  | Lexer.KW q when String.equal k q -> advance st
  | _ -> fail st (Printf.sprintf "expected '%s'" k)

let eat_ident st =
  match (peek st).tok with
  | Lexer.IDENT s -> advance st; s
  | _ -> fail st "expected identifier"

let at_op st o =
  match (peek st).tok with Lexer.OP q -> String.equal o q | _ -> false

(* Binary operator precedence: higher binds tighter. *)
let precedence = function
  | "||" -> 1 | "&&" -> 2
  | "|" -> 3 | "^" -> 4 | "&" -> 5
  | "==" | "!=" -> 6
  | "<" | "<=" | ">" | ">=" -> 7
  | "<<" | ">>" -> 8
  | "+" | "-" -> 9
  | "*" | "/" | "%" -> 10
  | _ -> 0

let binop_of_string = function
  | "+" -> Ast.Add | "-" -> Ast.Sub | "*" -> Ast.Mul | "/" -> Ast.Div
  | "%" -> Ast.Mod | "==" -> Ast.Eq | "!=" -> Ast.Ne | "<" -> Ast.Lt
  | "<=" -> Ast.Le | ">" -> Ast.Gt | ">=" -> Ast.Ge | "&&" -> Ast.And
  | "||" -> Ast.Or | "&" -> Ast.Band | "|" -> Ast.Bor | "^" -> Ast.Bxor
  | "<<" -> Ast.Shl | ">>" -> Ast.Shr
  | s -> invalid_arg ("binop_of_string: " ^ s)

let rec parse_expr st = parse_binary st 1

and parse_binary st min_prec =
  let lhs = parse_unary st in
  parse_binary_rest st lhs min_prec

and parse_binary_rest st lhs min_prec =
  match (peek st).tok with
  | Lexer.OP o ->
    let p = precedence o in
    if p >= min_prec && p > 0 then begin
      advance st;
      let rhs = parse_binary st (p + 1) in
      parse_binary_rest st (Ast.Binop (binop_of_string o, lhs, rhs)) min_prec
    end
    else lhs
  | _ -> lhs

and parse_unary st =
  match (peek st).tok with
  | Lexer.OP "-" -> advance st; Ast.Unop (Ast.Neg, parse_unary st)
  | Lexer.OP "!" -> advance st; Ast.Unop (Ast.Not, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = parse_primary st in
  parse_postfix_rest st e

and parse_postfix_rest st e =
  if at_punct st '[' then begin
    advance st;
    let i = parse_expr st in
    eat_punct st ']';
    parse_postfix_rest st (Ast.Index (e, i))
  end
  else e

and parse_primary st =
  match (peek st).tok with
  | Lexer.INT n -> advance st; Ast.Int n
  | Lexer.STRING s -> advance st; Ast.Str s
  | Lexer.KW "true" -> advance st; Ast.Int 1
  | Lexer.KW "false" -> advance st; Ast.Int 0
  | Lexer.PUNCT "@" ->
    advance st;
    Ast.Funref (eat_ident st)
  | Lexer.PUNCT "(" ->
    advance st;
    let e = parse_expr st in
    eat_punct st ')';
    e
  | Lexer.IDENT name ->
    advance st;
    if at_punct st '(' then begin
      advance st;
      let args = parse_args st [] in
      Ast.Call (name, args)
    end
    else Ast.Var name
  | _ -> fail st "expected expression"

and parse_args st acc =
  if at_punct st ')' then (advance st; List.rev acc)
  else
    let e = parse_expr st in
    if at_punct st ',' then (advance st; parse_args st (e :: acc))
    else (eat_punct st ')'; List.rev (e :: acc))

(* A "simple" statement (no trailing ';'): let / assignment / expression. *)
let parse_simple st =
  match st.toks with
  | { tok = Lexer.KW "let"; _ } :: _ ->
    advance st;
    let x = eat_ident st in
    eat_op st "=";
    Ast.Let (x, parse_expr st)
  | { tok = Lexer.IDENT name; _ } :: { tok = Lexer.OP "="; _ } :: rest ->
    st.toks <- rest;
    Ast.Assign (name, parse_expr st)
  | save ->
    (* Could be an index assignment [a[i] = e] or a plain expression. *)
    let e = parse_expr st in
    if at_op st "=" then begin
      match e with
      | Ast.Index (Ast.Var a, i) ->
        advance st;
        Ast.Index_assign (a, i, parse_expr st)
      | _ -> st.toks <- save; fail st "invalid assignment target"
    end
    else Ast.Expr e

(* One [match] dispatches on the statement keyword; [parse_if] and
   [parse_for] start at their keyword. *)
let rec parse_stmt st : Ast.stmt =
  match (peek st).tok with
  | Lexer.KW "if" -> parse_if st
  | Lexer.KW "while" ->
    advance st;
    eat_punct st '(';
    let c = parse_expr st in
    eat_punct st ')';
    Ast.While (c, parse_block st)
  | Lexer.KW "for" -> parse_for st
  | Lexer.KW "break" -> advance st; eat_punct st ';'; Ast.Break
  | Lexer.KW "continue" -> advance st; eat_punct st ';'; Ast.Continue
  | Lexer.KW "return" ->
    advance st;
    if at_punct st ';' then (advance st; Ast.Return None)
    else
      let e = parse_expr st in
      eat_punct st ';';
      Ast.Return (Some e)
  | _ ->
    let s = parse_simple st in
    eat_punct st ';';
    s

and parse_if st =
  advance st;
  eat_punct st '(';
  let c = parse_expr st in
  eat_punct st ')';
  let t = parse_block st in
  match (peek st).tok with
  | Lexer.KW "else" ->
    advance st;
    (match (peek st).tok with
     | Lexer.KW "if" -> Ast.If (c, t, [ parse_if st ])
     | _ -> Ast.If (c, t, parse_block st))
  | _ -> Ast.If (c, t, [])

and parse_for st =
  advance st;
  eat_punct st '(';
  let init = if at_punct st ';' then None else Some (parse_simple st) in
  eat_punct st ';';
  let cond = if at_punct st ';' then None else Some (parse_expr st) in
  eat_punct st ';';
  let step = if at_punct st ')' then None else Some (parse_simple st) in
  eat_punct st ')';
  Ast.For (init, cond, step, parse_block st)

and parse_block st : Ast.block =
  eat_punct st '{';
  let rec go acc =
    if at_punct st '}' then (advance st; List.rev acc)
    else go (parse_stmt st :: acc)
  in
  go []

let parse_fundef st : Ast.fundef =
  eat_kw st "fn";
  let fname = eat_ident st in
  eat_punct st '(';
  let rec params acc =
    if at_punct st ')' then (advance st; List.rev acc)
    else
      let p = eat_ident st in
      if at_punct st ',' then (advance st; params (p :: acc))
      else (eat_punct st ')'; List.rev (p :: acc))
  in
  let params = params [] in
  let body = parse_block st in
  { Ast.fname; params; body }

let parse_program (src : string) : Ast.program =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (m, l, c) -> raise (Error ("lexical error: " ^ m, l, c))
  in
  let st = { toks } in
  let rec go acc =
    match (peek st).tok with
    | Lexer.EOF -> { Ast.funcs = List.rev acc }
    | _ -> go (parse_fundef st :: acc)
  in
  go []

(* Convenience: parse or die with a location-annotated failure. *)
let parse_exn src =
  try parse_program src
  with Error (m, l, c) ->
    failwith (Printf.sprintf "parse error at %d:%d: %s" l c m)
