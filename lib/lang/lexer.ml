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

let token_to_string = function
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | OP s -> s
  | EOF -> "<eof>"

(* The MiniC keywords.  A [match] on string constants compiles to word
   comparisons, where [List.mem] over a list would cost one polymorphic
   compare per keyword for every identifier. *)
let keyword_or_ident s =
  match s with
  | "fn" | "let" | "if" | "else" | "while" | "for" | "break" | "continue"
  | "return" | "true" | "false" -> KW s
  | _ -> IDENT s

(* Tokenize a whole source string.  Comments are '//' to end of line and
   '/* ... */' (non-nested).  The scanners are tail-modulo-cons: each
   token is consed in front of the rest of the scan, so the list is built
   in order, with no accumulator to reverse. *)
let tokenize (src : string) : t list =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let token tok pos = { tok; line = !line; col = pos - !bol + 1 } in
  let error msg pos = Error (msg, !line, pos - !bol + 1) in
  let char i = if i < n then String.unsafe_get src i else '\000' in
  let[@tail_mod_cons] rec go i =
    if i >= n then [ token EOF i ]
    else
      match String.unsafe_get src i with
      | '\n' -> incr line; bol := i + 1; go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when char (i + 1) = '/' -> skip_line (i + 2)
      | '/' when char (i + 1) = '*' -> skip_block (i + 2)
      | '0' .. '9' -> lex_int i i 0
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident i (i + 1)
      | '"' -> lex_string (i + 1) i
      | c -> lex_op c i
  and[@tail_mod_cons] skip_line i =
    if i >= n then [ token EOF i ]
    else if src.[i] = '\n' then (incr line; bol := i + 1; go (i + 1))
    else skip_line (i + 1)
  and[@tail_mod_cons] skip_block i =
    if i + 1 >= n then raise (error "unterminated block comment" i)
    else if src.[i] = '*' && src.[i + 1] = '/' then go (i + 2)
    else begin
      if src.[i] = '\n' then (incr line; bol := i + 1);
      skip_block (i + 1)
    end
  (* The value accumulates digit by digit; it is out of range exactly when
     [v * 10 + d] would exceed [max_int], as for [int_of_string]. *)
  and[@tail_mod_cons] lex_int start i v =
    match char i with
    | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      if v > (max_int - d) / 10 then
        raise (error "integer literal out of range" start);
      lex_int start (i + 1) ((v * 10) + d)
    | _ -> let t = token (INT v) start in t :: go i
  and[@tail_mod_cons] lex_ident start i =
    match char i with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> lex_ident start (i + 1)
    | _ ->
      let s = String.sub src start (i - start) in
      let t = token (keyword_or_ident s) start in
      t :: go i
  (* A literal without escapes is one substring; any backslash, newline or
     end of input takes the decoding path from the opening quote. *)
  and[@tail_mod_cons] lex_string i start =
    let rec scan j =
      if j >= n then j
      else match String.unsafe_get src j with
        | '"' | '\\' | '\n' -> j
        | _ -> scan (j + 1)
    in
    let j = scan i in
    if j < n && src.[j] = '"' then
      let t = token (STRING (String.sub src i (j - i))) start in
      t :: go (j + 1)
    else lex_escaped i (Buffer.create 16) start
  and[@tail_mod_cons] lex_escaped i buf start =
    if i >= n then raise (error "unterminated string literal" start)
    else
      match src.[i] with
      | '"' ->
        let t = token (STRING (Buffer.contents buf)) start in
        t :: go (i + 1)
      | '\\' when i + 1 < n ->
        let c =
          match src.[i + 1] with
          | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r'
          | '\\' -> '\\' | '"' -> '"' | '0' -> '\000'
          | c -> raise (error (Printf.sprintf "bad escape '\\%c'" c) i)
        in
        Buffer.add_char buf c;
        lex_escaped (i + 2) buf start
      | '\n' -> raise (error "newline in string literal" i)
      | c -> Buffer.add_char buf c; lex_escaped (i + 1) buf start
  (* Operator and punctuation strings are constants: no substring per
     token. *)
  and[@tail_mod_cons] lex_op c i =
    let tok =
      match c, char (i + 1) with
      | '=', '=' -> OP "==" | '!', '=' -> OP "!="
      | '<', '=' -> OP "<=" | '>', '=' -> OP ">="
      | '&', '&' -> OP "&&" | '|', '|' -> OP "||"
      | '<', '<' -> OP "<<" | '>', '>' -> OP ">>"
      | '+', _ -> OP "+" | '-', _ -> OP "-" | '*', _ -> OP "*"
      | '/', _ -> OP "/" | '%', _ -> OP "%" | '<', _ -> OP "<"
      | '>', _ -> OP ">" | '!', _ -> OP "!" | '&', _ -> OP "&"
      | '|', _ -> OP "|" | '^', _ -> OP "^" | '=', _ -> OP "="
      | '(', _ -> PUNCT "(" | ')', _ -> PUNCT ")" | '{', _ -> PUNCT "{"
      | '}', _ -> PUNCT "}" | '[', _ -> PUNCT "[" | ']', _ -> PUNCT "]"
      | ',', _ -> PUNCT "," | ';', _ -> PUNCT ";" | '@', _ -> PUNCT "@"
      | _ -> raise (error (Printf.sprintf "unexpected character '%c'" c) i)
    in
    let len = match tok with OP s | PUNCT s -> String.length s | _ -> 1 in
    let t = token tok i in
    t :: go (i + len)
  in
  go 0
