(* Hand-written lexer for MiniC. *)

type token =
  | INT of int
  | STRING of string
  | IDENT of string
  | KW of string            (* fn let if else while for break continue return *)
  | PUNCT of string         (* ( ) { } [ ] , ; @ *)
  | OP of string            (* + - * / % == != < <= > >= && || ! & | ^ << >> = *)
  | EOF

type t = { tok : token; line : int; col : int }

exception Error of string * int * int  (* message, line, col *)

let keywords = [ "fn"; "let"; "if"; "else"; "while"; "for";
                 "break"; "continue"; "return"; "true"; "false" ]

let token_to_string = function
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | OP s -> s
  | EOF -> "<eof>"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

(* Tokenize a whole source string.  Comments are '//' to end of line and
   '/* ... */' (non-nested). *)
let tokenize (src : string) : t list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and bol = ref 0 in
  let emit tok pos = toks := { tok; line = !line; col = pos - !bol + 1 } :: !toks in
  let fail msg pos = raise (Error (msg, !line, pos - !bol + 1)) in
  let rec go i =
    if i >= n then emit EOF i
    else
      let c = src.[i] in
      if c = '\n' then (incr line; bol := i + 1; go (i + 1))
      else if c = ' ' || c = '\t' || c = '\r' then go (i + 1)
      else if c = '/' && i + 1 < n && src.[i + 1] = '/' then skip_line (i + 2)
      else if c = '/' && i + 1 < n && src.[i + 1] = '*' then skip_block (i + 2)
      else if is_digit c then lex_int i i
      else if is_ident_start c then lex_ident i i
      else if c = '"' then lex_string (i + 1) (Buffer.create 16) i
      else lex_op i
  and skip_line i =
    if i >= n then emit EOF i
    else if src.[i] = '\n' then (incr line; bol := i + 1; go (i + 1))
    else skip_line (i + 1)
  and skip_block i =
    if i + 1 >= n then fail "unterminated block comment" i
    else if src.[i] = '*' && src.[i + 1] = '/' then go (i + 2)
    else begin
      if src.[i] = '\n' then (incr line; bol := i + 1);
      skip_block (i + 1)
    end
  and lex_int start i =
    if i < n && is_digit src.[i] then lex_int start (i + 1)
    else begin
      match int_of_string_opt (String.sub src start (i - start)) with
      | Some v -> emit (INT v) start; go i
      | None -> fail "integer literal out of range" start
    end
  and lex_ident start i =
    if i < n && is_ident_char src.[i] then lex_ident start (i + 1)
    else begin
      let s = String.sub src start (i - start) in
      emit (if List.mem s keywords then KW s else IDENT s) start;
      go i
    end
  and lex_string i buf start =
    if i >= n then fail "unterminated string literal" start
    else
      match src.[i] with
      | '"' -> emit (STRING (Buffer.contents buf)) start; go (i + 1)
      | '\\' when i + 1 < n ->
        let c =
          match src.[i + 1] with
          | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r'
          | '\\' -> '\\' | '"' -> '"' | '0' -> '\000'
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c) i
        in
        Buffer.add_char buf c;
        lex_string (i + 2) buf start
      | '\n' -> fail "newline in string literal" i
      | c -> Buffer.add_char buf c; lex_string (i + 1) buf start
  and lex_op i =
    let two = if i + 1 < n then String.sub src i 2 else "" in
    match two with
    | "==" | "!=" | "<=" | ">=" | "&&" | "||" | "<<" | ">>" ->
      emit (OP two) i; go (i + 2)
    | _ ->
      (match src.[i] with
       | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '&' | '|' | '^' | '=' ->
         emit (OP (String.make 1 src.[i])) i; go (i + 1)
       | '(' | ')' | '{' | '}' | '[' | ']' | ',' | ';' | '@' ->
         emit (PUNCT (String.make 1 src.[i])) i; go (i + 1)
       | c -> fail (Printf.sprintf "unexpected character '%c'" c) i)
  in
  go 0;
  List.rev !toks
